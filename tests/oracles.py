"""Independent reference implementations used to check the library.

Most of this is deliberately written in the most direct way possible
(loops, brute force) and shares no code with the package under test. Three
groups build on it on purpose:

- the elementwise tape ops (``tanh``, ``sigmoid``, ``stop_gradient``) that
  the composite reference graphs of the fused nodes are made of; no command
  needs them, so they live here rather than in ``vqcomm.autodiff``;
- ``lloyd_masks``, the boolean-mask Lloyd iteration that ``quantizer.lloyd``
  must match bit for bit;
- ``hoeffding_gaps_one_draw``, ``theory.verify_hoeffding`` with its
  reference drawn in one piece.
"""

from __future__ import annotations

import numpy as np

from vqcomm import autodiff as ad
from vqcomm.autodiff import Tensor
from vqcomm.quantizer import nearest_indices
from vqcomm.seeding import keyed_rng
from vqcomm.theory import _REF_MULTIPLIER, _cell_ids


def finite_difference_grads(f, arrays, eps=1e-5):
    """Central finite differences of a scalar function of several arrays."""
    grads = []
    for x in arrays:
        g = np.zeros_like(x)
        flat_x = x.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_x.size):
            orig = flat_x[i]
            flat_x[i] = orig + eps
            fp = f(arrays)
            flat_x[i] = orig - eps
            fm = f(arrays)
            flat_x[i] = orig
            flat_g[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def exhaustive_nearest(segment, codebook_rows):
    """Scan every row; squared Euclidean distance; lowest index on ties. 1-based."""
    best_j = 0
    best_d = None
    for j, row in enumerate(codebook_rows):
        d = 0.0
        for a, b in zip(segment, row):
            t = a - b
            d += t * t  # as numpy squares an array; a scalar ** 2 goes through pow and can round apart
        if best_d is None or d < best_d:
            best_d = d
            best_j = j
    return best_j + 1


def lloyd_reference(samples, centroids, iters=100):
    """Plain-loop Lloyd iteration from given starting centroids."""
    samples = [list(map(float, s)) for s in samples]
    centroids = [list(map(float, c)) for c in centroids]
    k = len(centroids)
    dim = len(samples[0])
    for _ in range(iters):
        assign = []
        for s in samples:
            dists = [sum((a - b) ** 2 for a, b in zip(s, c)) for c in centroids]
            assign.append(dists.index(min(dists)))
        new_centroids = []
        for j in range(k):
            members = [s for s, a in zip(samples, assign) if a == j]
            if members:
                new_centroids.append([sum(col) / len(members) for col in zip(*members)])
            else:
                new_centroids.append(centroids[j])
        if new_centroids == centroids:
            break
        centroids = new_centroids
    return centroids


def lloyd_masks(samples, L, iters, rng):
    """``quantizer.lloyd`` as one boolean mask per cluster and round."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    seed_idx = rng.choice(n, size=L, replace=n < L)
    centroids = samples[seed_idx].copy()
    prev_assign = None
    for _ in range(iters):
        assign = nearest_indices(samples, centroids)
        for j in range(L):
            members = samples[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        empty = [j for j in range(L) if not (assign == j).any()]
        for j in empty:
            dist = ((samples - centroids[assign]) ** 2).sum(axis=-1)
            far = int(dist.argmax())
            centroids[j] = samples[far]
            assign[far] = j
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
    return centroids


def hoeffding_gaps_one_draw(L, G, d, n, trials, seed):
    """The per-trial gaps of ``theory.verify_hoeffding`` with the reference
    drawn as one ``(_REF_MULTIPLIER * n, G * d)`` array."""
    rng = keyed_rng(seed)
    entries = rng.normal(size=(L, d))
    cells, m = L**G, G * d
    ref = rng.normal(size=(_REF_MULTIPLIER * n, m))
    p_ref = np.bincount(_cell_ids(ref, entries, L, G), minlength=cells) / (_REF_MULTIPLIER * n)
    gaps = np.zeros(trials)
    for t in range(trials):
        p_hat = np.bincount(_cell_ids(rng.normal(size=(n, m)), entries, L, G), minlength=cells) / n
        gaps[t] = np.abs(p_ref - p_hat).max()
    return gaps


# ---------------------------------------------------------------------------
# elementwise tape ops for the composite reference graphs
# ---------------------------------------------------------------------------


def tanh(x) -> Tensor:
    x = ad.as_tensor(x)
    data = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            ad._accum(x, g * (1.0 - data * data))

    return ad._node(data, (x,), backward)


def sigmoid(x) -> Tensor:
    x = ad.as_tensor(x)
    with np.errstate(over="ignore"):  # exp overflow saturates to exactly 0 or 1
        data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        if x.requires_grad:
            ad._accum(x, g * data * (1.0 - data))

    return ad._node(data, (x,), backward)


def stop_gradient(x) -> Tensor:
    """Identity forward, zero gradient backward."""
    return Tensor(ad.as_tensor(x).data)


def attention_reference(queries, keys, values, w_q, w_k, w_v, w_o, heads):
    """Scaled dot-product multi-head attention, one loop per head."""
    q = queries @ w_q
    k = keys @ w_k
    v = values @ w_v
    dim = q.shape[1]
    dh = dim // heads
    outs = []
    for h in range(heads):
        qs = q[:, h * dh : (h + 1) * dh]
        ks = k[:, h * dh : (h + 1) * dh]
        vs = v[:, h * dh : (h + 1) * dh]
        scores = qs @ ks.T / np.sqrt(dh)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        outs.append(w @ vs)
    return np.concatenate(outs, axis=1) @ w_o


def rank_by_sort(pred, candidates, true_index):
    """Pessimistic rank of the true candidate: 1 + #others at <= distance."""
    dists = [float(((pred - c) ** 2).sum()) for c in candidates]
    d_true = dists[true_index]
    return 1 + sum(1 for j, d in enumerate(dists) if j != true_index and d <= d_true)


def gridworld_step_reference(grid_size, positions, actions):
    """Re-derivation of the push rule: index order, block on walls/occupancy."""
    moves = {
        "up": (-1, 0),
        "down": (1, 0),
        "left": (0, -1),
        "right": (0, 1),
        "none": (0, 0),
    }
    pos = [tuple(p) for p in positions]
    for i, act in enumerate(actions):
        dr, dc = moves[act]
        if dr == 0 and dc == 0:
            continue
        r, c = pos[i]
        nr, nc = r + dr, c + dc
        if not (0 <= nr < grid_size and 0 <= nc < grid_size):
            continue
        if any(p == (nr, nc) for j, p in enumerate(pos) if j != i):
            continue
        pos[i] = (nr, nc)
    return pos
