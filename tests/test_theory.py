import math

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import log as mplog
from mpmath import sqrt as mpsqrt

from vqcomm.quantizer import Codebook
from vqcomm.theory import (
    BoundInputs,
    covering_bound_with,
    covering_bound_without,
    attention_robustness,
    bound_with_discretization,
    bound_without_discretization,
    gaussian_variance_sweep,
    vector_field,
    verify_hoeffding,
)

mp.dps = 40


def _mp_bound_with(G, L, n, delta, alpha):
    return float(alpha * mpsqrt((G * mplog(L) + mplog(2 / mpf(delta))) / (2 * n)))


def _mp_bound_without(m, n, delta, alpha, vs, R):
    first = alpha * mpsqrt((m * mplog(4 * mpsqrt(mpf(n) * m)) + mplog(2 / mpf(delta))) / (2 * n))
    return float(first + vs * R / mpsqrt(mpf(n)))


# ---------------------------------------------------------------------------
# closed-form calculators
# ---------------------------------------------------------------------------


def test_bound_with_reference_point():
    got = bound_with_discretization(BoundInputs(G=15, L=30, n=10**4, delta=0.05, alpha=1.0))
    assert abs(got - 0.05230049721515383) < 1e-12
    assert abs(got - _mp_bound_with(15, 30, 10**4, "0.05", 1)) < 1e-12


def test_bound_with_quarter_n_scaling():
    a = bound_with_discretization(BoundInputs(G=3, L=7, n=500, delta=0.1))
    b = bound_with_discretization(BoundInputs(G=3, L=7, n=2000, delta=0.1))
    assert abs(a - 2 * b) < 1e-12


def test_bound_with_G_zero_confidence_term():
    got = bound_with_discretization(BoundInputs(G=0, L=30, n=100, delta=0.05))
    assert abs(got - math.sqrt(math.log(40) / 200)) < 1e-15


def test_bound_with_L_one_valid():
    got = bound_with_discretization(BoundInputs(G=5, L=1, n=100, delta=0.05))
    assert abs(got - math.sqrt(math.log(40) / 200)) < 1e-15


def test_bound_without_reference_point():
    got = bound_without_discretization(BoundInputs(m=64, n=10**4, delta=0.05, alpha=1.0, varsigma_bar=0.0))
    assert abs(got - 0.16128032569667856) < 1e-12
    assert abs(got - _mp_bound_without(64, 10**4, "0.05", 1, 0, 0)) < 1e-12


def test_bound_without_zero_lipschitz_drops_second_term():
    a = bound_without_discretization(BoundInputs(m=8, n=100, varsigma_bar=0.0, R_H=123.0))
    b = bound_without_discretization(BoundInputs(m=8, n=100, varsigma_bar=0.0, R_H=0.0))
    assert a == b


def test_discretized_beats_continuous_at_reference():
    w = bound_with_discretization(BoundInputs(G=15, L=30, n=10**4, delta=0.05))
    wo = bound_without_discretization(BoundInputs(m=64, n=10**4, delta=0.05))
    assert w < wo


def test_bound_with_monotonicity_grid():
    base = dict(n=1000, delta=0.05, alpha=1.0)
    for G in [1, 2, 4, 8]:
        for L in [2, 4, 16]:
            b = bound_with_discretization(BoundInputs(G=G, L=L, **base))
            assert bound_with_discretization(BoundInputs(G=G + 1, L=L, **base)) > b
            assert bound_with_discretization(BoundInputs(G=G, L=L + 1, **base)) > b
            assert bound_with_discretization(BoundInputs(G=G, L=L, n=1000, delta=0.04)) > bound_with_discretization(BoundInputs(G=G, L=L, n=1000, delta=0.06))
            assert bound_with_discretization(BoundInputs(G=G, L=L, n=2000, delta=0.05, alpha=1.0)) < b


def test_comparison_property_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        G = int(rng.integers(1, 20))
        L = int(rng.integers(2, 100))
        m = int(rng.integers(1, 128))
        if G * math.log(L) >= m * math.log(4 * math.sqrt(m)):
            continue
        n = int(rng.integers(1, 10**5))
        delta = float(rng.uniform(0.01, 0.5))
        alpha = float(rng.uniform(0.1, 5))
        vs = float(rng.uniform(0, 2))
        w = bound_with_discretization(BoundInputs(G=G, L=L, n=n, delta=delta, alpha=alpha))
        wo = bound_without_discretization(
            BoundInputs(m=m, n=n, delta=delta, alpha=alpha, varsigma_bar=vs, R_H=1.0)
        )
        assert w < wo


def test_covering_bound_with_reference_point():
    got = covering_bound_with(
        BoundInputs(L=4, G=2, m=8, zeta=100, n=10**4, delta=0.05, C_J=1.0, L_d=1.0, rho=1)
    )
    assert abs(got - 0.19275433361403718) < 1e-12


def test_covering_bound_without_vacuous():
    got = covering_bound_without(
        BoundInputs(m=8, zeta=100, n=10**4, delta=0.05, C_J=1.0, L_d=1.0, rho=1, varsigma_bar=0.0, R_H=0.0)
    )
    # log-space oracle: 4*(4*sqrt(8))^8 = 2^30, plus small terms
    lead = 4.0 * (4.0 * math.sqrt(8.0)) ** 8
    expect = math.sqrt((lead + 200 + 2 * math.log(20)) / 10**4) + math.sqrt(1.0 / 10**4)
    assert abs(got - expect) < 1e-9
    assert abs(got - 327.69003143180155) < 1e-9


def test_covering_bound_zero_L_d_drops_term():
    a = covering_bound_with(BoundInputs(L=2, G=2, m=4, zeta=10, n=100, L_d=0.0))
    b = covering_bound_with(BoundInputs(L=2, G=2, m=4, zeta=10, n=100, L_d=1.0))
    assert abs((b - a) - math.sqrt(1.0 / 100)) < 1e-12


def test_covering_bound_without_logspace_no_overflow():
    got = covering_bound_without(BoundInputs(m=400, zeta=1, n=100, delta=0.05))
    assert got == math.inf or got > 1e100


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(delta=0.0)
    with pytest.raises(ValueError):
        BoundInputs(delta=1.0)
    with pytest.raises(ValueError):
        BoundInputs(n=0)
    with pytest.raises(ValueError):
        BoundInputs(rho=0)


# ---------------------------------------------------------------------------
# Monte Carlo concentration check
# ---------------------------------------------------------------------------


def test_hoeffding_violation_rate_within_binomial_slack():
    rec = verify_hoeffding(L=4, G=2, d=2, n=2000, delta=0.05, trials=200, seed=7)
    cap = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 200)
    assert rec.violation_rate <= cap
    assert rec.cell_count == 16


def test_hoeffding_bound_matches_calculator():
    rec = verify_hoeffding(L=4, G=2, d=2, n=500, delta=0.05, trials=5, seed=0)
    expect = bound_with_discretization(BoundInputs(G=2, L=4, n=500, delta=0.05, alpha=1.0))
    assert rec.bound == expect


def test_hoeffding_enumeration_guard():
    with pytest.raises(ValueError, match="guard"):
        verify_hoeffding(L=64, G=3, d=1, n=100, delta=0.05, trials=1, seed=0)


# ---------------------------------------------------------------------------
# Gaussian analyses
# ---------------------------------------------------------------------------


def test_variance_sweep_single_code_zero():
    rows = gaussian_variance_sweep(4, [1], [1, 2, 4], samples=64, trials=3, seed=0)
    for row in rows:
        assert row["mean_total_variance"] == 0.0


def test_variance_sweep_lossless_limit():
    rows = gaussian_variance_sweep(1, [32], [1], samples=32, trials=3, seed=1)
    assert abs(rows[0]["mean_total_variance"] - rows[0]["mean_raw_variance"]) < 1e-12


def test_variance_sweep_increasing_in_heads():
    rows = gaussian_variance_sweep(8, [8], [1, 4, 8], samples=128, trials=20, seed=2)
    values = [r["mean_total_variance"] for r in rows]
    assert values[0] < values[1] < values[2]


def test_variance_sweep_rejects_bad_heads():
    with pytest.raises(ValueError, match="divisible"):
        gaussian_variance_sweep(4, [2], [3], samples=16, trials=1, seed=0)


def _book(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return Codebook(rows.shape[0], rows.shape[1], entries=rows, initialized=True)


def test_vector_field_zero_displacement_at_code():
    book = _book([[0.5, -0.5], [2.0, 2.0]])
    rows = vector_field(2.0, 9, book)
    at_code = [r for r in rows if (r["x"], r["y"]) == (0.5, -0.5)]
    assert at_code and at_code[0]["dx"] == 0.0 and at_code[0]["dy"] == 0.0


def test_vector_field_half_plane_split():
    book = _book([[1.0, 0.0], [-1.0, 0.0]])
    rows = vector_field(2.0, 9, book)
    for r in rows:
        if r["x"] > 0:
            assert (r["x"] + r["dx"], r["y"] + r["dy"]) == (1.0, 0.0)
        elif r["x"] < 0:
            assert (r["x"] + r["dx"], r["y"] + r["dy"]) == (-1.0, 0.0)


def test_vector_field_matches_voronoi_oracle():
    from oracles import exhaustive_nearest

    rng = np.random.default_rng(11)
    book = _book(rng.normal(size=(5, 2)))
    rows = vector_field(3.0, 13, book)
    for r in rows:
        expect = exhaustive_nearest(np.array([r["x"], r["y"]]), book.entries.data)
        assert r["code"] == expect
        snapped = np.array([r["x"] + r["dx"], r["y"] + r["dy"]])
        assert np.allclose(snapped, book.entries.data[expect - 1], atol=1e-12)


def test_vector_field_snapping_idempotent():
    rng = np.random.default_rng(13)
    book = _book(rng.normal(size=(4, 2)))
    rows = vector_field(2.0, 7, book)
    for r in rows:
        # each snapped point is a codebook row, which is a fixed point of snapping
        code_row = book.entries.data[r["code"] - 1]
        d2 = ((book.entries.data - code_row) ** 2).sum(axis=1)
        assert np.array_equal(book.entries.data[d2.argmin()], code_row)


def test_vector_field_requires_2d_codes():
    with pytest.raises(ValueError, match="2-D"):
        vector_field(1.0, 3, _book([[0.0, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# attention robustness
# ---------------------------------------------------------------------------


def test_attention_no_distractors_perfect():
    res = attention_robustness(0, 0, quantize_on=False, seed=0, steps=30)
    assert res["accuracy"] == 1.0


def test_attention_untrained_chance_level():
    # per-seed accuracy is biased by the fixed target's norm; only the
    # average over target draws sits at chance (std across seeds ~0.19)
    accs = [
        attention_robustness(3, 3, quantize_on=False, seed=s, steps=0, eval_episodes=250)["accuracy"]
        for s in range(48)
    ]
    assert abs(np.mean(accs) - 0.25) < 0.085


def test_attention_discretized_at_least_continuous_sample():
    wins = 0
    for seed in range(3):
        disc = attention_robustness(2, 8, quantize_on=True, seed=seed)
        cont = attention_robustness(2, 8, quantize_on=False, seed=seed)
        wins += disc["accuracy"] >= cont["accuracy"]
    assert wins >= 2


def test_attention_kmeans_seeds_on_the_freshest_warmup_heads(monkeypatch):
    """The study's quantizer keeps the last warmup_vectors * G heads, as the runner's does."""
    from vqcomm.models import common

    seen = []
    original = common.kmeans_init

    def recording(samples, L, **kwargs):
        seen.append(samples.copy())
        return original(samples, L, **kwargs)

    monkeypatch.setattr(common, "kmeans_init", recording)
    # batch 64 does not divide 100: 128 outputs (512 heads) pass before the threshold
    attention_robustness(2, 8, quantize_on=True, seed=0, steps=3, eval_episodes=8, warmup_vectors=100)
    [samples] = seen
    assert samples.shape == (100 * 4, 4)
