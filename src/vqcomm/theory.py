"""Sensitivity/dimensionality bound calculators and numerical checks.

Covers the two headline concentration bounds (with and without the
discretization bottleneck), their coarser Euclidean covering-number forms,
a Monte Carlo check of the underlying per-cell concentration step, and the
Gaussian-vector analyses (variance sweep, displacement field, attention
robustness to novel distractors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .models.common import CommunicationQuantizer, ConfigError, snap_site
from .nn import Parameter
from .optim import Adam, train_step
from .quantizer import Codebook, QuantizerConfig, kmeans_init, nearest_indices
from .seeding import keyed_rng

_MAX_ENUMERABLE_CELLS = 4096
_REF_MULTIPLIER = 100
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)
ATTENTION_DIM, ATTENTION_L, ATTENTION_G = 16, 16, 4  # the attention study's item width and quantizer


@dataclass
class BoundInputs:
    """Parameters shared by the bound calculators; unused fields are ignored."""

    G: int = 1
    L: int = 2
    m: int = 1
    n: int = 1000
    delta: float = 0.05
    alpha: float = 1.0
    varsigma_bar: float = 0.0
    R_H: float = 1.0
    zeta: float = 1.0
    C_J: float = 1.0
    L_d: float = 1.0
    rho: int = 1

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0,1), got {self.delta}")
        if self.n < 1:
            raise ConfigError(f"sample count must be positive, got {self.n}")
        if self.L < 1 or self.m < 1:
            raise ConfigError("L and m must be positive")
        if self.G < 0:
            raise ConfigError(f"head count must be non-negative, got {self.G}")
        for name in ("alpha", "R_H", "varsigma_bar", "zeta", "C_J", "L_d"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        if self.rho < 1:
            raise ConfigError(f"rho must be a positive integer, got {self.rho}")


def bound_with_discretization(inputs: BoundInputs) -> float:
    """alpha * sqrt((G ln L + ln(2/delta)) / (2n))."""
    num = inputs.G * math.log(inputs.L) + math.log(2.0 / inputs.delta)
    return inputs.alpha * math.sqrt(num / (2.0 * inputs.n))


def bound_without_discretization(inputs: BoundInputs) -> float:
    """alpha * sqrt((m ln(4 sqrt(n m)) + ln(2/delta)) / (2n)) + varsigma_bar * R_H / sqrt(n)."""
    num = inputs.m * math.log(4.0 * math.sqrt(inputs.n * inputs.m)) + math.log(2.0 / inputs.delta)
    first = inputs.alpha * math.sqrt(num / (2.0 * inputs.n))
    return first + inputs.varsigma_bar * inputs.R_H / math.sqrt(inputs.n)


def _sqrt_ratio_logspace(log_lead: float, rest: float, n: int) -> float:
    """sqrt((exp(log_lead) + rest) / n), safe when exp(log_lead) overflows."""
    if log_lead < 700.0:
        return math.sqrt((math.exp(log_lead) + rest) / n)
    # leading term dominates any representable rest
    log_val = 0.5 * (log_lead - math.log(n))
    if log_val > _LOG_FLOAT_MAX:
        return math.inf
    return math.exp(log_val)


def _L_d_term(inputs: BoundInputs) -> float:
    """sqrt(L_d^(2/rho) / n); where L_d^(2/rho) overflows, the equal L_d^(1/rho) / sqrt(n)."""
    try:
        return math.sqrt(inputs.L_d ** (2.0 / inputs.rho) / inputs.n)
    except OverflowError:
        return inputs.L_d ** (1.0 / inputs.rho) / math.sqrt(inputs.n)


def covering_bound_with(inputs: BoundInputs) -> float:
    """C_J sqrt((4 L^G + 2 L m + 2 zeta + 2 ln(1/delta)) / n) + sqrt(L_d^(2/rho) / n)."""
    log_lead = math.log(4.0) + inputs.G * math.log(inputs.L)
    rest = 2.0 * inputs.L * inputs.m + 2.0 * inputs.zeta + 2.0 * math.log(1.0 / inputs.delta)
    return inputs.C_J * _sqrt_ratio_logspace(log_lead, rest, inputs.n) + _L_d_term(inputs)


def covering_bound_without(inputs: BoundInputs) -> float:
    """C_J sqrt((4 (4 sqrt(m))^m + 2 zeta + 2 ln(1/delta)) / n) + sqrt(L_d^(2/rho) / n) + varsigma R_H."""
    log_lead = math.log(4.0) + inputs.m * math.log(4.0 * math.sqrt(inputs.m))
    rest = 2.0 * inputs.zeta + 2.0 * math.log(1.0 / inputs.delta)
    first = inputs.C_J * _sqrt_ratio_logspace(log_lead, rest, inputs.n)
    return first + _L_d_term(inputs) + inputs.varsigma_bar * inputs.R_H


# ---------------------------------------------------------------------------
# Monte Carlo check of the per-cell concentration step
# ---------------------------------------------------------------------------


@dataclass
class TrialRecord:
    gaps: np.ndarray
    bound: float
    violated: np.ndarray
    violation_rate: float
    cell_count: int


def _cell_ids(samples: np.ndarray, entries: np.ndarray, L: int, G: int) -> np.ndarray:
    """Map each sample to the id of its quantization cell (0 .. L^G - 1)."""
    idx = nearest_indices(samples.reshape(samples.shape[0], G, entries.shape[1]), entries)
    weights = L ** np.arange(G, dtype=np.int64)
    return idx @ weights


def verify_hoeffding(L: int, G: int, d: int, n: int, delta: float, trials: int, seed: int) -> TrialRecord:
    """Check the max-cell deviation bound empirically over fresh samples.

    Fixes a random codebook and a standard Gaussian input distribution,
    estimates reference cell probabilities from ``_REF_MULTIPLIER * n``
    draws taken ``n`` at a time (memory O(n m)), then per trial compares
    fresh empirical frequencies against the closed-form bound.
    """
    if min(L, d, trials) < 1:
        raise ConfigError(f"hoeffding needs L, d and trials >= 1, got L = {L}, d = {d}, trials = {trials}")
    cells = L**G
    if cells > _MAX_ENUMERABLE_CELLS:
        raise ConfigError(f"L^G = {cells} exceeds enumeration guard {_MAX_ENUMERABLE_CELLS}")
    bound = bound_with_discretization(BoundInputs(G=G, L=L, n=n, delta=delta, alpha=1.0))  # checks G, n, delta
    rng = keyed_rng(seed)
    entries = rng.normal(size=(L, d))
    m = G * d

    def cell_counts():
        return np.bincount(_cell_ids(rng.normal(size=(n, m)), entries, L, G), minlength=cells)

    # The reference is _REF_MULTIPLIER trial-sized draws: the generator yields the same
    # values and state as one (_REF_MULTIPLIER * n, m) draw, and integer counts sum exactly.
    p_ref = sum(cell_counts() for _ in range(_REF_MULTIPLIER)) / (_REF_MULTIPLIER * n)
    gaps = np.array([np.abs(p_ref - cell_counts() / n).max() for _ in range(trials)])
    violated = gaps > bound
    return TrialRecord(
        gaps=gaps,
        bound=bound,
        violated=violated,
        violation_rate=float(violated.mean()),
        cell_count=cells,
    )


# ---------------------------------------------------------------------------
# Gaussian-vector analyses
# ---------------------------------------------------------------------------


def gaussian_variance_sweep(
    m: int,
    L_values: list[int],
    G_values: list[int],
    samples: int = 256,
    trials: int = 20,
    seed: int = 0,
) -> list[dict]:
    """Total variance retained by quantized standard-Gaussian vectors.

    Per (L, G, trial): draw vectors, fit a codebook to their heads with
    k-means, quantize, and record the summed per-dimension variance.
    """
    if min(m, samples, trials, *L_values, *G_values) < 1:
        raise ConfigError(
            f"variance sweep needs m, samples, trials and every L and G >= 1, got m = {m}, "
            f"samples = {samples}, trials = {trials}, L = {list(L_values)}, G = {list(G_values)}"
        )
    rows = []
    for L in L_values:
        for G in G_values:
            if m % G != 0:
                raise ConfigError(f"m = {m} not divisible by G = {G}")
            d = m // G
            variances = np.zeros(trials)
            raw = np.zeros(trials)
            for t in range(trials):
                rng = keyed_rng(seed, L, G, t)
                x = rng.standard_normal((samples, m))
                book = kmeans_init(x.reshape(samples * G, d), L, rng)
                idx = nearest_indices(x.reshape(samples, G, d), book.entries.data)
                q = book.entries.data[idx].reshape(samples, m)
                variances[t] = _total_variance(q)
                raw[t] = x.var(axis=0).sum()
            rows.append(
                {
                    "L": L,
                    "G": G,
                    "trials": trials,
                    "samples": samples,
                    "mean_total_variance": float(variances.mean()),
                    "mean_raw_variance": float(raw.mean()),
                }
            )
    return rows


def _total_variance(q: np.ndarray) -> float:
    """Summed per-dimension variance, aggregated over distinct rows.

    Quantized batches repeat few distinct vectors; grouping keeps the
    single-representable-point case at exactly zero.
    """
    uniq, counts = np.unique(q, axis=0, return_counts=True)
    w = counts / counts.sum()
    mu = (w[:, None] * uniq).sum(axis=0)
    dev = uniq - mu
    return float(((dev * dev) * w[:, None]).sum())


def vector_field(grid_range: float, grid_steps: int, codebook: Codebook) -> list[dict]:
    """Displacement q(h) - h on a square grid for a 2-D codebook (G = 1)."""
    if codebook.d != 2:
        raise ConfigError(f"vector-field needs 2-D codes, got d = {codebook.d}")
    if codebook.L < 1 or grid_steps < 1:
        raise ConfigError(f"vector-field needs L >= 1 and steps >= 1, got L = {codebook.L}, steps = {grid_steps}")
    if not math.isfinite(grid_range):
        raise ConfigError(f"vector-field needs a finite range, got {grid_range}")
    axis = np.linspace(-grid_range, grid_range, grid_steps)
    points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    codes = nearest_indices(points, codebook.entries.data)
    return [
        {
            "x": float(x),
            "y": float(y),
            "dx": float(code[0] - x),
            "dy": float(code[1] - y),
            "code": int(j) + 1,
        }
        for (x, y), j, code in zip(points, codes, codebook.entries.data[codes])
    ]


def attention_robustness(
    train_distractors: int,
    test_distractors: int,
    quantize_on: bool,
    seed: int,
    eval_episodes: int = 512,
    steps: int = 60,
    batch: int = 64,
    lr: float = 0.05,
    warmup_vectors: int = 256,
) -> dict:
    """Train a single ``ATTENTION_DIM``-wide attention layer to retrieve a fixed target vector.

    Items are the target plus fresh Gaussian distractors in random order; a
    learned query produces attention over items, and the (optionally
    quantized) attention output is matched against the items to pick one.
    Evaluation uses more, never-seen distractors.

    With ``quantize_on`` the output goes through a ``CommunicationQuantizer``
    with ``ATTENTION_L`` codes and ``ATTENTION_G`` heads: its codebook is
    seeded by k-means once ``warmup_vectors`` outputs (the freshest
    ``warmup_vectors * ATTENTION_G`` heads) have passed through unquantized.
    """
    dim = ATTENTION_DIM
    rng = keyed_rng(seed, 0)
    target = rng.normal(size=dim)
    query = Parameter(rng.normal(size=(dim, 1)) * 0.1, name="attn.query")
    params = [query]
    quantizer = None
    if quantize_on:
        quantizer = CommunicationQuantizer(QuantizerConfig(L=ATTENTION_L, G=ATTENTION_G, m=dim),
                                           warmup_vectors=warmup_vectors * ATTENTION_G)
        params.append(quantizer.codebook.entries)
    opt = Adam(params, lr=lr)

    def make_batch(gen, count, distractors):
        items = gen.normal(size=(count, distractors + 1, dim))
        labels = gen.integers(0, distractors + 1, size=count)
        items[np.arange(count), labels] = target
        return items, labels

    def forward(items):
        t_items = Tensor(items)
        scores = ad.scale(ad.matmul(t_items, query), 1.0 / math.sqrt(dim))
        alpha = ad.softmax(ad.transpose(scores))  # (B, 1, D+1)
        out = snap_site(quantizer, True, ad.reshape(ad.matmul(alpha, t_items), (items.shape[0], dim)))
        return ad.reshape(
            ad.matmul(t_items, ad.reshape(out, (items.shape[0], dim, 1))),
            (items.shape[0], items.shape[1]),
        )

    def loss_fn(data):
        items, labels = data
        return ad.cross_entropy(forward(items), labels)

    data_rng = keyed_rng(seed, 1)
    for step in range(steps):
        train_step(loss_fn, make_batch(data_rng, batch, train_distractors), quantizer, params, opt, 0.0, f"step {step}")
        if quantizer is not None and not quantizer.active and quantizer.collected_count() >= quantizer.warmup_vectors:
            quantizer.initialize(keyed_rng(seed, 2))

    eval_rng = keyed_rng(seed, 3)
    items, labels = make_batch(eval_rng, eval_episodes, test_distractors)
    train_items, train_labels = make_batch(eval_rng, eval_episodes, train_distractors)
    with ad.no_grad(params):
        logits = forward(items)
        train_logits = forward(train_items)
    accuracy = float((logits.data.argmax(axis=1) == labels).mean())
    train_accuracy = float((train_logits.data.argmax(axis=1) == train_labels).mean())
    return {
        "accuracy": accuracy,
        "train_accuracy": train_accuracy,
        "quantized": bool(quantize_on),
        "train_distractors": train_distractors,
        "test_distractors": test_distractors,
    }
