"""Modular recurrent network: top-k input-attended modules update, all
modules exchange state through soft attention, and the communication
result (by default) passes through the shared codebook.

Following the step contract, active modules consume the raw input
(``RNN(z, x_t)``); input attention only decides which modules activate.
The communication value projection starts at zero so the additive
state update is stable over long rollouts and communication is learned.
"""

from __future__ import annotations

import math

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..nn import Linear, Module, StackedGRU
from .common import CommunicationQuantizer, ConfigError, check_site, snap_site


class RimModel(Module):
    """M GRU modules with input attention (against a learnable null option)
    for top-k activation and query-key-value attention for communication."""

    def __init__(
        self,
        rng: np.random.Generator,
        input_dim: int,
        hidden: int,
        num_modules: int,
        k: int,
        att_dim: int = 16,
        quantizer: CommunicationQuantizer | None = None,
    ):
        if k < 1 or k > num_modules:
            raise ConfigError(f"need 1 <= k <= M, got k={k}, M={num_modules}")
        self.input_dim = input_dim
        self.hidden = hidden
        self.M = num_modules
        self.k = k
        self.att_dim = att_dim
        self.gru = StackedGRU(rng, num_modules, input_dim, hidden, name="gru")
        self.in_query = Linear(rng, hidden, att_dim, bias=False, name="in_query")
        # bias makes the null (zero-input) key a learnable alternative
        self.in_key = Linear(rng, input_dim, att_dim, bias=True, name="in_key")
        self.comm_query = Linear(rng, hidden, att_dim, bias=False, name="comm_query")
        self.comm_key = Linear(rng, hidden, att_dim, bias=False, name="comm_key")
        self.comm_value = Linear(rng, hidden, hidden, bias=False, name="comm_value")
        self.comm_value.weight.data[...] = 0.0
        self.quantizer = quantizer
        if quantizer is not None:
            site = check_site("rim", quantizer.site)
            expected = input_dim if site == "raw_input" else hidden
            if quantizer.config.m != expected:
                raise ConfigError(
                    f"quantizer dimension {quantizer.config.m} does not match site {site!r} (needs {expected})"
                )

    def init_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.M, self.hidden)))


def input_attention_scores(model: RimModel, state: Tensor, x_t: Tensor) -> np.ndarray:
    """Per-module softmax weight on the real input versus the null input.

    Selection is a discrete routing decision, so this runs outside the tape.
    """
    q = state.data @ model.in_query.weight.data  # (B, M, A)
    k_x = x_t.data @ model.in_key.weight.data + model.in_key.bias.data  # (B, A)
    k_null = model.in_key.bias.data  # zero input through the same projection
    scale = 1.0 / math.sqrt(model.att_dim)
    logit_x = (q * k_x[:, None, :]).sum(axis=-1) * scale
    logit_null = (q * k_null[None, None, :]).sum(axis=-1) * scale
    return ad.softmax_rows(np.stack([logit_x, logit_null], axis=-1))[..., 0]  # (B, M)


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """0/1 mask of the k highest-scoring modules; ties to the lowest index."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    mask = np.zeros_like(scores)
    rows = np.arange(scores.shape[0])[:, None]
    mask[rows, order[:, :k]] = 1.0
    return mask


def _blend(mask: np.ndarray, cand: Tensor, state: Tensor) -> Tensor:
    """``on * cand + off * state`` as one tape node: modules with mask 1 take
    their candidate, the others keep their state."""
    on = mask[:, :, None]
    off = 1.0 - on
    out = on * cand.data + off * state.data

    def backward(g):
        if cand.requires_grad:
            ad._accum(cand, g * on)
        if state.requires_grad:
            ad._accum(state, g * off)

    return ad._node(out, (cand, state), backward)


def _communicate(model: RimModel, updated: Tensor, source: Tensor, residual: bool = False) -> Tensor:
    """Query-key-value attention among the modules as one tape node.

    Queries read ``updated``; keys and values read ``source``, which is
    ``updated`` unless the communication input is quantized. With
    ``residual`` the node returns ``updated + att @ v``, the step's new
    state, and its backward adds the incoming gradient into ``updated``
    first, as the add node did. The backward repeats the float order of the
    composite graph (three projections, the key transpose, the scaled
    scores, the softmax and ``att @ v``) and accumulates into the inputs in
    query, key, value order, so both forms give bit-identical gradients.
    The node keeps only the attention weights: the backward recomputes the
    three projections, the same products of the same arrays.
    """
    w_q, w_k, w_v = model.comm_query.weight, model.comm_key.weight, model.comm_value.weight
    c = 1.0 / math.sqrt(model.att_dim)

    def projections():
        return updated.data @ w_q.data, source.data @ w_k.data, source.data @ w_v.data

    q, k, v = projections()
    att = ad.softmax_rows((q @ np.swapaxes(k, -1, -2)) * c)  # (B, M, M)
    out = att @ v
    if residual:
        out = updated.data + out

    def backward(g):
        if residual and updated.requires_grad:
            ad._accum(updated, g)
        q, k, v = projections()
        d_att = g @ np.swapaxes(v, -1, -2)
        d_v = np.swapaxes(att, -1, -2) @ g
        d_scores = att * (d_att - (d_att * att).sum(axis=-1, keepdims=True)) * c
        d_q = d_scores @ k
        d_k = np.swapaxes(np.swapaxes(q, -1, -2) @ d_scores, -1, -2)
        for x, w, dy in ((updated, w_q, d_q), (source, w_k, d_k), (source, w_v, d_v)):
            if x.requires_grad:
                ad._accum(x, ad._unbroadcast(dy @ np.swapaxes(w.data, -1, -2), x.shape))
            if w.requires_grad:
                ad._accum(w, ad._unbroadcast(np.swapaxes(x.data, -1, -2) @ dy, w.shape))

    parents = (updated, w_q, w_k, w_v) if source is updated else (updated, source, w_q, w_k, w_v)
    return ad._node(out, parents, backward)


def rim_step(state: Tensor, x_t: Tensor, model: RimModel) -> Tensor:
    """One time step; returns the new state. ``state``: (B, M, H); ``x_t``: (B, input_dim).

    Two tape nodes without a snap: the GRU node blends the active modules'
    candidates into the state, and the communication node adds its result
    to that. A snap splits the node it sits in.
    """
    site = model.quantizer.site if model.quantizer is not None else None
    x_t = snap_site(model.quantizer, "raw_input", x_t)

    scores = input_attention_scores(model, state, x_t)
    mask = top_k_mask(scores, model.k)  # (B, M)

    if site == "recurrent_update":
        # the snap sits between the candidates and the blend
        cand = model.gru(state, x_t)  # (B, M, H)
        cand = ad.add(state, model.quantizer.apply(ad.sub(cand, state)))
        updated = _blend(mask, cand, state)
    else:
        updated = model.gru(state, x_t, mask)  # inactive modules keep their state

    comm_source = snap_site(model.quantizer, "communication_input", updated)
    if site == "communication_result":
        return ad.add(updated, model.quantizer.apply(_communicate(model, updated, comm_source)))
    return _communicate(model, updated, comm_source, residual=True)


# perfbench/tracing.py wraps the RIM step by this name too; without it a
# traced run raises AttributeError
rim_step_detailed = rim_step


class RimRegressor(Module):
    """RIM unrolled over a sequence with a linear readout of the final state."""

    def __init__(self, rng: np.random.Generator, model: RimModel):
        self.model = model
        self.readout = Linear(rng, model.M * model.hidden, 1, name="readout")

    def __call__(self, inputs: np.ndarray) -> Tensor:
        """inputs: (B, T, input_dim) -> predictions (B, 1)."""
        B, T, _ = inputs.shape
        state = self.model.init_state(B)
        for t in range(T):
            state = rim_step(state, Tensor(inputs[:, t, :]), self.model)
        final = ad.reshape(state, (B, self.model.M * self.model.hidden))
        return self.readout(final)
