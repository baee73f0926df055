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
        site: str = "communication_result",
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
        self.site = check_site("rim", site)
        if quantizer is not None:
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
    stacked = np.stack([logit_x, logit_null], axis=-1)
    stacked -= stacked.max(axis=-1, keepdims=True)
    e = np.exp(stacked)
    return e[..., 0] / e.sum(axis=-1)  # (B, M)


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """0/1 mask of the k highest-scoring modules; ties to the lowest index."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    mask = np.zeros_like(scores)
    rows = np.arange(scores.shape[0])[:, None]
    mask[rows, order[:, :k]] = 1.0
    return mask


def rim_step(state: Tensor, x_t: Tensor, model: RimModel) -> Tensor:
    """One time step; returns the new state. ``state``: (B, M, H); ``x_t``: (B, input_dim)."""
    x_t = snap_site(model.quantizer, model.site == "raw_input", x_t)

    scores = input_attention_scores(model, state, x_t)
    mask = top_k_mask(scores, model.k)  # (B, M)

    # recurrent candidates for all modules at once; inactive rows keep state
    state_mfirst = ad.transpose(state, 0, 1)  # (M, B, H)
    cand = ad.transpose(model.gru(state_mfirst, x_t), 0, 1)  # (B, M, H)
    if model.quantizer is not None and model.site == "recurrent_update":
        # not snap_site: the sub and add around the snap must not run when the site is off
        cand = ad.add(state, model.quantizer.apply(ad.sub(cand, state)))
    on = Tensor(mask[:, :, None])
    off = Tensor(1.0 - mask[:, :, None])
    updated = ad.add(ad.mul(on, cand), ad.mul(off, state))  # (B, M, H)

    comm_source = snap_site(model.quantizer, model.site == "communication_input", updated)
    q = model.comm_query(updated)
    k = model.comm_key(comm_source)
    v = model.comm_value(comm_source)
    logits = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(model.att_dim))
    att = ad.softmax(logits)
    h = snap_site(model.quantizer, model.site == "communication_result", ad.matmul(att, v))  # (B, M, H)

    return ad.add(updated, h)


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
