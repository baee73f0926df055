"""Multi-head vector quantization of communication vectors.

A length-m vector is cut into G contiguous heads of dimension d = m/G;
each head snaps to its nearest row of a shared L x d codebook. Gradients
pass straight through the snap; the codebook and commitment terms route
gradients to the codebook and the sender respectively.

Code indices are 1-based (1..L) throughout the public surface.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .nn import Parameter

BINARY_MAGIC = b"VQCB"
BINARY_VERSION = 1


class UninitializedCodebook(RuntimeError):
    """Raised when quantizing through a codebook that was never initialized."""


@dataclass
class QuantizerConfig:
    L: int
    G: int
    m: int
    beta: float = 0.25
    codebook_loss_weight: float = 1.0

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"codebook size must be positive, got {self.L}")
        if self.G < 1:
            raise ValueError(f"head count must be positive, got {self.G}")
        if self.m < 1:
            raise ValueError(f"vector dimension must be positive, got {self.m}")
        if self.m % self.G != 0:
            raise ShapeError(f"heads: {self.m} not divisible by {self.G}")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not (np.isfinite(self.codebook_loss_weight) and self.codebook_loss_weight > 0):
            raise ValueError(f"codebook_loss_weight must be finite and positive, got {self.codebook_loss_weight}")

    @property
    def d(self) -> int:
        return self.m // self.G


class Codebook:
    """Shared table of L trainable code vectors of dimension d."""

    def __init__(self, L: int, d: int, entries: np.ndarray | None = None, initialized: bool = False):
        if entries is None:
            entries = np.zeros((L, d))
        entries = np.asarray(entries, dtype=np.float64)
        if entries.shape != (L, d):
            raise ShapeError(f"codebook: expected entries of shape {(L, d)}, got {entries.shape}")
        self.entries = Parameter(entries, name="codebook.entries")
        self.initialized = initialized

    @property
    def L(self) -> int:
        return self.entries.shape[0]

    @property
    def d(self) -> int:
        return self.entries.shape[1]

    def set_entries(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.entries.shape:
            raise ShapeError(f"codebook: expected {self.entries.shape}, got {values.shape}")
        self.entries.data[...] = values
        self.initialized = True


@dataclass
class QuantizationOutput:
    """Quantized vector plus per-head indices and, when the snap trains something, the two auxiliary losses."""

    z: Tensor
    indices: np.ndarray  # 1-based, shape (G,) or (batch, G)
    diff: np.ndarray  # (heads, d): each head minus its code; the codebook gradient reads it
    codebook_loss: Tensor | None = None  # None when neither h nor the entries require grad
    commitment_loss: Tensor | None = None


@dataclass
class CodebookStats:
    usage: np.ndarray  # length L, counts per code
    perplexity: float


def _require_finite(where: str, x: np.ndarray, entries: np.ndarray) -> None:
    if not (np.isfinite(x).all() and np.isfinite(entries).all()):
        raise FloatingPointError(f"{where}: non-finite value in the vectors or the rows they are compared with")


def code_distances(x: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Squared distances (..., L) from each d-vector of ``x`` (..., d) to the rows of ``entries``.

    Each distance is summed one dimension at a time, in the order of a
    scalar loop over the coordinates. Non-finite input raises
    ``FloatingPointError``: a NaN would otherwise snap silently to a code.
    """
    x = np.asarray(x, dtype=np.float64)
    _require_finite("nearest-code search", x, entries)
    d2 = (x[..., 0, None] - entries[:, 0]) ** 2
    for k in range(1, entries.shape[1]):
        d2 += (x[..., k, None] - entries[:, k]) ** 2
    return d2


# Below this head dimension the coordinate loop beats the GEMM screen.
GEMM_MIN_DIM = 3
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max / 4


def _exact_nearest(rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Argmin of ``code_distances`` over the (N, d) ``rows``; raises when a nearest distance overflows."""
    with np.errstate(over="ignore"):
        d2 = code_distances(rows, entries)
    best = d2.argmin(axis=1)
    if not np.isfinite(d2).all() and not np.isfinite(d2[np.arange(len(best)), best]).all():
        raise FloatingPointError("nearest-code search: a head's squared distance to its nearest code overflows")
    return best


def screen_side(entries: np.ndarray):
    """The code side of ``distance_screen``: ``(-2 entries, |e_j|^2)``, computed once per codebook."""
    with np.errstate(over="ignore", invalid="ignore"):
        return -2.0 * entries, np.einsum("ij,ij->i", entries, entries)


def distance_screen(x: np.ndarray, side):
    """Screen the (N, d) rows of ``x`` against every row e_j of a table with one GEMM.

    ``side`` is the table's ``screen_side``, so a caller that screens many
    blocks of rows against one table computes it once.

    Returns ``(score, tol, ok)``: ``score`` (L, N) is ``|e_j|^2 - 2 x.e_j``,
    which is ``|x - e_j|^2 - |x|^2``; ``tol`` (N,) is ``c E`` with
    ``c = 8 (d + 2) eps`` and ``E = |x|^2 + max_j |e_j|^2``; ``ok`` (N,)
    marks the rows where the bound below holds. For such a row, two codes
    whose scores differ by more than ``tol`` have exact distances in the
    same strict order, whether ``code_distances`` sums them or numpy's row
    sum of the squared differences does.

    With u = eps/2, a score's rounding error is at most about (2d + 2) u E,
    whatever order BLAS sums in (|e_j|^2 + 2|x.e_j| <= 2E). An exact
    distance rounds each of its d terms by at most 3u of the term, and its
    d - 1 additions by at most u of a partial sum each; every partial sum of
    non-negative terms is at most the total, in any order, so the bound
    (d + 2) u * 2E (|x - e_j|^2 <= 2E) holds for the coordinate loop and for
    numpy's pairwise row sum alike. Two codes' distances therefore differ in
    the screen's sign once their scores differ by more than 8 (d + 2) u E.
    ``tol`` is twice that; the slack covers the rounding of tol, of E and of
    the comparison. The bound holds for E in [TINY / c, max / 4]: above, a
    distance or a score may overflow; below, tol is subnormal and underflow
    errors are absolute, not relative. Those rows are not ``ok``.
    """
    neg2, sq = side
    c = 8 * (x.shape[1] + 2) * _EPS
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.einsum("ij,ij->i", x, x) + sq.max()
        score = neg2 @ x.T
        score += sq[:, None]
        tol = c * scale
    return score, tol, (scale >= _TINY / c) & (scale <= _HUGE)


def nearest_indices(x: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """0-based index of the nearest row of ``entries`` for each d-vector of ``x``; ties: lowest index.

    The result is always ``code_distances(x, entries).argmin(-1)``: exact
    distances summed in coordinate order, the lowest index on ties. For
    ``d >= GEMM_MIN_DIM`` one ``distance_screen`` GEMM screens every code,
    and the loop re-ranks only the heads the screen cannot decide: those
    with another code within ``tol`` of the best score, and those outside
    the screen's range. Two integer sums over the codes find both: a head's
    count of codes within ``tol`` of its best score, and the sum of their
    indices, which is the nearest index wherever the count is 1. Non-finite
    input, or a head whose nearest distance overflows, raises
    ``FloatingPointError``.
    """
    x = np.asarray(x, dtype=np.float64)
    d = entries.shape[1]
    if x.shape[-1] != d:
        raise ShapeError(f"nearest-code search: vectors of dimension {x.shape[-1]}, codes of dimension {d}")
    flat = x.reshape(-1, d)
    if d < GEMM_MIN_DIM:
        return _exact_nearest(flat, entries).reshape(x.shape[:-1])[()]
    _require_finite("nearest-code search", flat, entries)
    score, tol, ok = distance_screen(flat, screen_side(entries))
    with np.errstate(over="ignore", invalid="ignore"):
        near = score <= score.min(axis=0) + tol
    # counts reach at most L, so they fit; an index sum may wrap, but only where the count is not 1
    small = np.min_scalar_type(len(entries))
    near = near.view(np.uint8) if small == np.uint8 else near.astype(small)
    count = near.sum(axis=0, dtype=small)
    near *= np.arange(len(entries), dtype=small)[:, None]
    best = near.sum(axis=0, dtype=small).astype(np.intp)
    redo = (count != 1) | ~ok
    if redo.any():
        rows = np.flatnonzero(redo)
        best[rows] = _exact_nearest(flat[rows], entries)
    return best.reshape(x.shape[:-1])[()]


def _check_input(h, config: QuantizerConfig, codebook: Codebook) -> Tensor:
    if not codebook.initialized:
        raise UninitializedCodebook("codebook must be initialized before quantize")
    h = ad.as_tensor(h)
    if h.shape[-1] != config.m:
        raise ShapeError(f"quantize: expected last dim {config.m}, got {h.shape}")
    if codebook.d != config.d:
        raise ShapeError(f"quantize: codebook dim {codebook.d} != m/G = {config.d}")
    return h


def _add_codebook_grad(entries: Tensor, snaps, g) -> None:
    """Add the codebook-loss gradient of ``snaps``, (indices, diff) pairs, scaled by ``g``.

    Snap s sends ``-2 diff_s * (g / heads_s)`` to the rows of its 1-based
    ``indices``. ``ad.add_at_rows`` adds them with the bits of a per-snap
    ``np.add.at`` chain in snap order; a gradient already in
    ``entries.grad`` (gumbel's mixture matmul puts one there) leads, as the
    chain's starting value would.
    """
    idx = np.concatenate([indices.reshape(-1) for indices, _ in snaps])
    idx -= 1
    diffs = [diff for _, diff in snaps]
    scales = [-2.0 * (g * (1.0 / diff.shape[0])) for diff in diffs]
    entries.grad = ad.add_at_rows(entries.shape[0], entries.grad, idx, diffs, scales)


def _snap_output(
    h: Tensor, z: Tensor, idx0: np.ndarray, picked: np.ndarray, config: QuantizerConfig, codebook: Codebook
):
    """Package ``z`` with the indices, the per-head ``diff`` and the two auxiliary losses of heads ``idx0`` (B, G).

    ``picked`` is ``entries[idx0]``. Each loss is one tape node over one
    shared ``diff``: the codebook loss sends gradient only to the entries,
    the commitment loss only to ``h``. Both are the squared head distance
    averaged over heads and vectors. A frozen snap, where neither ``h`` nor
    the entries require grad, trains nothing and builds no loss.
    """
    entries = codebook.entries
    batch = idx0.shape[0]
    diff = h.data.reshape(batch, config.G, config.d) - picked
    indices = (idx0 + 1).astype(np.int64)
    head_diff = diff.reshape(-1, config.d)
    out = QuantizationOutput(z=z, indices=indices[0] if h.ndim == 1 else indices, diff=head_diff)
    if not (h.requires_grad or entries.requires_grad):
        return out
    norm = 1.0 / (batch * config.G)
    value = (diff * diff).sum(-1).sum() * norm

    def codebook_backward(g):
        _add_codebook_grad(entries, [(indices, head_diff)], g)

    def commitment_backward(g):
        ad._accum(h, (2.0 * diff * (g * norm)).reshape(h.shape))

    out.codebook_loss = ad._node(value, (entries,), codebook_backward)
    out.commitment_loss = ad._node(value, (h,), commitment_backward)
    return out


def quantize(h, config: QuantizerConfig, codebook: Codebook) -> QuantizationOutput:
    """Snap each head of ``h`` to its nearest code; straight-through backward.

    ``h`` has shape (..., m): a single vector or any batch of them, counted
    as ``h.size // m`` vectors. Losses are the per-vector head averages,
    then averaged over the vectors; a frozen snap has none.
    """
    h = _check_input(h, config, codebook)
    batch = h.size // config.m
    idx0 = nearest_indices(h.data.reshape(batch, config.G, config.d), codebook.entries.data)
    picked = np.take(codebook.entries.data, idx0, axis=0)
    # straight-through: forward value is the snapped vector, backward is identity on h
    z = ad.straight_through(h, picked.reshape(h.shape))
    return _snap_output(h, z, idx0, picked, config, codebook)


def gumbel_quantize(
    h,
    config: QuantizerConfig,
    codebook: Codebook,
    temperature: float,
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
) -> QuantizationOutput:
    """Gumbel-Softmax relaxation: per head, sample a convex combination of codes.

    Logits are negative squared distances to the codes. Losses are computed
    against the argmax code of the perturbed logits, exactly as in ``quantize``.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    h = _check_input(h, config, codebook)
    _require_finite("gumbel_quantize", h.data, codebook.entries.data)
    batch = h.size // config.m

    seg4 = ad.reshape(h, (batch, config.G, 1, config.d))
    logits = ad.scale(ad.sqdist(seg4, codebook.entries), -1.0)  # (B, G, L)
    if noise is None:
        if rng is None:
            raise ValueError("gumbel_quantize needs an rng when noise is not given")
        noise = rng.gumbel(size=logits.shape)
    noise = np.broadcast_to(np.asarray(noise, dtype=np.float64), logits.shape)
    y = ad.softmax(ad.scale(ad.add(logits, Tensor(noise)), 1.0 / temperature))
    z = ad.reshape(ad.matmul(y, codebook.entries), h.shape)

    idx0 = (logits.data + noise).argmax(axis=-1)
    return _snap_output(h, z, idx0, np.take(codebook.entries.data, idx0, axis=0), config, codebook)


def combined_aux_loss(outputs, config: QuantizerConfig) -> Tensor:
    """codebook_loss_weight * mean(codebook) + beta * mean(commitment) over a list of snap outputs.

    One tape node whose parents are the codebook entries and each snap's
    input. Its value sums the losses left to right, as a chain of adds
    would; its backward sends the gradient that chain would: to each
    trained codebook, the codebook terms of all its snaps in one
    ``_add_codebook_grad``; to each input, its snap's commitment closure.
    The per-snap loss nodes stay usable on their own but are not walked.
    """
    outputs = list(outputs)
    if not outputs:
        raise ValueError("combined_aux_loss: no quantization outputs")
    inv = 1.0 / len(outputs)
    weight, beta = float(config.codebook_loss_weight), float(config.beta)
    cb, cm = outputs[0].codebook_loss.data, outputs[0].commitment_loss.data
    for o in outputs[1:]:
        cb = cb + o.codebook_loss.data
        cm = cm + o.commitment_loss.data
    value = cb * inv * weight + cm * inv * beta
    parents = {id(p): p for o in outputs for loss in (o.codebook_loss, o.commitment_loss) for p in loss._parents}

    books: dict[int, tuple[Tensor, list]] = {}  # trained codebook -> its snaps' (indices, diff), in snap order
    for o in outputs:
        for entries in o.codebook_loss._parents:
            books.setdefault(id(entries), (entries, []))[1].append((o.indices, o.diff))

    def backward(g):
        g_cb, g_cm = g * weight * inv, g * beta * inv
        for entries, snaps in books.values():
            _add_codebook_grad(entries, snaps, g_cb)
        for o in outputs:
            if o.commitment_loss._backward is not None:
                o.commitment_loss._backward(g_cm)

    return ad._node(value, tuple(parents.values()), backward)


def usage_counts(indices, L: int) -> np.ndarray:
    """Histogram (length L) of 1-based code indices of any shape."""
    return np.bincount(np.asarray(indices).reshape(-1) - 1, minlength=L)[:L]


def codebook_stats(usage: np.ndarray) -> CodebookStats:
    """The usage histogram (length L, from ``usage_counts``) and its exponentiated entropy."""
    usage = np.array(usage, dtype=np.int64)
    total = usage.sum()
    if total == 0:
        return CodebookStats(usage=usage, perplexity=1.0)
    p = usage[usage > 0] / total
    entropy = -(p * np.log(p)).sum()
    return CodebookStats(usage=usage, perplexity=float(np.exp(entropy)))


# ---------------------------------------------------------------------------
# k-means initialization
# ---------------------------------------------------------------------------


def lloyd(samples: np.ndarray, L: int, iters: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's algorithm; empty clusters re-seed to the farthest sample."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n >= L:
        seed_idx = rng.choice(n, size=L, replace=False)
    else:
        seed_idx = rng.choice(n, size=L, replace=True)
    centroids = samples[seed_idx].copy()
    prev_assign = None
    for _ in range(iters):
        assign = nearest_indices(samples, centroids)
        counts = np.bincount(assign, minlength=L)
        # a stable sort lays each cluster's rows out contiguously in sample
        # order, the same rows as samples[assign == j], so the means keep their bits
        grouped = samples[np.argsort(assign, kind="stable")]
        ends = np.cumsum(counts)
        for j in np.flatnonzero(counts):
            centroids[j] = grouped[ends[j] - counts[j] : ends[j]].mean(axis=0)
        for j in np.flatnonzero(counts == 0):
            dist = ((samples - centroids[assign]) ** 2).sum(axis=-1)
            far = int(dist.argmax())
            centroids[j] = samples[far]
            assign[far] = j
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
    return centroids


KMEANS_ITERS = 25


def kmeans_init(samples: np.ndarray, L: int, rng: np.random.Generator) -> Codebook:
    """Build an initialized codebook from ``KMEANS_ITERS`` rounds of Lloyd's algorithm over ``samples``."""
    if L <= 0:
        raise ValueError(f"codebook size must be positive, got {L}")
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] < 1:
        raise ValueError("kmeans_init needs at least one sample")
    centroids = lloyd(samples, L, KMEANS_ITERS, rng)
    return Codebook(L, samples.shape[1], entries=centroids, initialized=True)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_codebook(path, codebook: Codebook, config: QuantizerConfig) -> None:
    """Write the quantizer header and the codebook entries; the file is bit-exact."""
    header = struct.pack(
        "<4sIIIIdd",
        BINARY_MAGIC,
        BINARY_VERSION,
        config.L,
        config.G,
        config.m,
        config.beta,
        config.codebook_loss_weight,
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(codebook.entries.data).tobytes())


def load_codebook(path) -> tuple[Codebook, QuantizerConfig]:
    with open(path, "rb") as f:
        raw = f.read()
    head_size = struct.calcsize("<4sIIIIdd")
    if len(raw) < head_size:
        raise ValueError(f"{path}: truncated codebook file ({len(raw)} bytes, header needs {head_size})")
    magic, version, L, G, m, beta, weight = struct.unpack("<4sIIIIdd", raw[:head_size])
    if magic != BINARY_MAGIC:
        raise ValueError(f"{path}: not a codebook file (magic {magic!r})")
    if version != BINARY_VERSION:
        raise ValueError(f"{path}: unsupported codebook version {version}")
    try:
        config = QuantizerConfig(L=L, G=G, m=m, beta=beta, codebook_loss_weight=weight)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    payload = L * config.d * 8
    if len(raw) - head_size != payload:
        raise ValueError(
            f"{path}: codebook payload is {len(raw) - head_size} bytes, header L={L}, d={config.d} needs {payload}"
        )
    entries = np.frombuffer(raw[head_size:], dtype=np.float64).reshape(L, config.d).copy()
    if not np.isfinite(entries).all():
        raise ValueError(f"{path}: non-finite codebook entry")
    return Codebook(config.L, config.d, entries=entries, initialized=True), config
