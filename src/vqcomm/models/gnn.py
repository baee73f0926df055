"""Message-passing transition model over object latents, with a contrastive
world-model wrapper for the grid-world prediction task."""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..nn import MLP, Module
from .common import CommunicationQuantizer, check_site, snap_site


class GnnModel(Module):
    """Edge MLP over node pairs, summed per receiver, node MLP for the update.

    The quantizer (when present) discretizes the summed incoming message
    (``communication_result``) or each edge message before summation
    (``communication_input``).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        node_dim: int,
        action_dim: int,
        msg_dim: int,
        hidden: int = 32,
        quantizer: CommunicationQuantizer | None = None,
    ):
        self.node_dim = node_dim
        self.action_dim = action_dim
        self.msg_dim = msg_dim
        self.f_edge = MLP(rng, [2 * node_dim, hidden, msg_dim], name="f_edge")
        self.f_node = MLP(rng, [node_dim + action_dim + msg_dim, hidden, node_dim], name="f_node")
        self.quantizer = quantizer
        if quantizer is not None:
            check_site("gnn", quantizer.site)


def _pair_indices(batch: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat receiver/sender indices for all ordered pairs, plus the receiver
    aggregation matrix (n, n*(n-1))."""
    recv, send = [], []
    agg = np.zeros((n, n * (n - 1)))
    p = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            recv.append(i)
            send.append(j)
            agg[i, p] = 1.0
            p += 1
    recv = np.asarray(recv)
    send = np.asarray(send)
    offsets = (np.arange(batch) * n)[:, None]
    return (offsets + recv).reshape(-1), (offsets + send).reshape(-1), agg


def gnn_step(nodes: Tensor, actions: Tensor, model: GnnModel) -> Tensor:
    """One message-passing step: returns per-node deltas.

    ``nodes``: (B, N, node_dim); ``actions``: (B, N, action_dim).
    """
    B, N, nd = nodes.shape
    if N > 1:
        flat = ad.reshape(nodes, (B * N, nd))
        recv_idx, send_idx, agg = _pair_indices(B, N)
        pair_in = ad.concat([ad.gather_rows(flat, recv_idx), ad.gather_rows(flat, send_idx)], axis=-1)
        eps = snap_site(model.quantizer, "communication_input", model.f_edge(pair_in))  # (B*P, msg_dim)
        eps = ad.reshape(eps, (B, N * (N - 1), model.msg_dim))
        summed = ad.matmul(Tensor(agg), eps)  # (B, N, msg_dim)
    else:
        summed = Tensor(np.zeros((B, N, model.msg_dim)))
    summed = snap_site(model.quantizer, "communication_result", summed)
    return model.f_node(ad.concat([nodes, actions, summed], axis=-1))


CONTRAST_MARGIN = 1.0


class ContrastiveWorldModel(Module):
    """Object encoder plus GNN transition, trained with a hinge contrast.

    Positive term pulls predicted next latents onto encoded next states;
    the hinge pushes encoded random (permuted-batch) states at least
    ``CONTRAST_MARGIN`` away from the targets.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        raw_dim: int,
        node_dim: int,
        action_dim: int,
        msg_dim: int,
        hidden: int = 32,
        quantizer: CommunicationQuantizer | None = None,
    ):
        self.encoder = MLP(rng, [raw_dim, hidden, node_dim], name="encoder")
        self.gnn = GnnModel(rng, node_dim, action_dim, msg_dim, hidden=hidden, quantizer=quantizer)

    def encode(self, obs: np.ndarray) -> Tensor:
        return self.encoder(Tensor(obs))

    def predict_next(self, obs: np.ndarray, actions: np.ndarray) -> Tensor:
        z = self.encode(obs)
        return ad.add(z, gnn_step(z, Tensor(actions), self.gnn))

    def contrastive_loss(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        next_obs: np.ndarray,
        neg_obs: np.ndarray,
    ) -> Tensor:
        pred = self.predict_next(obs, actions)
        z_next = self.encode(next_obs)
        z_neg = self.encode(neg_obs)
        pos = ad.tmean(ad.sqdist(pred, z_next))
        neg = ad.tmean(ad.sqdist(z_neg, z_next))
        hinge = ad.relu(ad.add(ad.scale(neg, -1.0), CONTRAST_MARGIN))
        return ad.add(pos, hinge)
