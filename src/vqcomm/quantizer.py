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
    """Quantized vector plus per-head indices and the two auxiliary losses."""

    z: Tensor
    indices: np.ndarray  # 1-based, shape (G,) or (batch, G)
    codebook_loss: Tensor
    commitment_loss: Tensor


@dataclass
class CodebookStats:
    usage: np.ndarray  # length L, counts per code
    perplexity: float


def _require_finite(where: str, x: np.ndarray, entries: np.ndarray) -> None:
    if not (np.isfinite(x).all() and np.isfinite(entries).all()):
        raise FloatingPointError(f"{where}: non-finite value in the vectors or the codebook")


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


def nearest_indices(x: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """0-based index of the nearest row of ``entries`` for each d-vector of ``x``; ties: lowest index."""
    return code_distances(x, entries).argmin(axis=-1)


def _check_input(h, config: QuantizerConfig, codebook: Codebook) -> Tensor:
    if not codebook.initialized:
        raise UninitializedCodebook("codebook must be initialized before quantize")
    h = ad.as_tensor(h)
    if h.shape[-1] != config.m:
        raise ShapeError(f"quantize: expected last dim {config.m}, got {h.shape}")
    if codebook.d != config.d:
        raise ShapeError(f"quantize: codebook dim {codebook.d} != m/G = {config.d}")
    return h


def _snap_output(h: Tensor, z: Tensor, idx0: np.ndarray, config: QuantizerConfig, codebook: Codebook):
    """Package ``z`` with the indices and the two auxiliary losses of heads ``idx0`` (B, G).

    Each loss is one tape node over one shared ``diff``: the codebook loss
    sends gradient only to the entries, the commitment loss only to ``h``.
    Both are the squared head distance averaged over heads and vectors.
    """
    entries = codebook.entries
    batch = idx0.shape[0]
    diff = h.data.reshape(batch, config.G, config.d) - entries.data[idx0]
    norm = 1.0 / (batch * config.G)
    value = (diff * diff).sum(-1).sum() * norm
    flat_idx = idx0.reshape(-1)

    def codebook_backward(g):
        if entries.grad is None:
            entries.grad = np.zeros_like(entries.data)
        np.add.at(entries.grad, flat_idx, (-2.0 * diff * (g * norm)).reshape(-1, config.d))

    def commitment_backward(g):
        ad._accum(h, (2.0 * diff * (g * norm)).reshape(h.shape))

    indices = (idx0 + 1).astype(np.int64)
    return QuantizationOutput(
        z=z,
        indices=indices[0] if h.ndim == 1 else indices,
        codebook_loss=ad._node(value, (entries,), codebook_backward),
        commitment_loss=ad._node(value, (h,), commitment_backward),
    )


def quantize(h, config: QuantizerConfig, codebook: Codebook) -> QuantizationOutput:
    """Snap each head of ``h`` to its nearest code; straight-through backward.

    ``h`` has shape (..., m): a single vector or any batch of them, counted
    as ``h.size // m`` vectors. Losses are the per-vector head averages,
    then averaged over the vectors.
    """
    h = _check_input(h, config, codebook)
    batch = h.size // config.m
    idx0 = nearest_indices(h.data.reshape(batch, config.G, config.d), codebook.entries.data)
    # straight-through: forward value is the snapped vector, backward is identity on h
    z = ad.straight_through(h, codebook.entries.data[idx0].reshape(h.shape))
    return _snap_output(h, z, idx0, config, codebook)


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
    return _snap_output(h, z, idx0, config, codebook)


def combined_aux_loss(outputs, config: QuantizerConfig) -> Tensor:
    """codebook_loss_weight * mean(codebook) + beta * mean(commitment) over a list of snap outputs.

    One tape node whose parents are the codebook entries and each snap's
    input. Its value sums the losses left to right, as a chain of adds
    would; its backward hands every snap's codebook and commitment
    closures the gradient that chain would, calling them in snap order.
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

    def backward(g):
        g_cb, g_cm = g * weight * inv, g * beta * inv
        for o in outputs:
            for loss, grad in ((o.codebook_loss, g_cb), (o.commitment_loss, g_cm)):
                if loss._backward is not None:
                    loss._backward(grad)

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
