"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The directional studies
(criteria 8-10) train real models over many seeds and dominate the runtime
(about 15 minutes total on a laptop-class CPU).
"""

import json
import time

import numpy as np
import pytest

from vqcomm import autodiff as ad
from vqcomm.autodiff import Tensor
from vqcomm.config import config_from_dict
from vqcomm.models import CommunicationQuantizer
from vqcomm.protocols import STUDIES, hoeffding_config
from vqcomm.quantizer import Codebook, QuantizerConfig, combined_aux_loss, quantize
from vqcomm.runner import run
from vqcomm.tasks import DIRECTIONS, GridWorldState, gridworld_transition
from vqcomm.theory import (
    BoundInputs,
    attention_robustness,
    bound_with_discretization,
    bound_without_discretization,
    gaussian_variance_sweep,
    vector_field,
    verify_hoeffding,
)

from oracles import exhaustive_nearest, finite_difference_grads, gridworld_step_reference

pytestmark = pytest.mark.acceptance

ADDING = STUDIES["adding"].arms
GRIDWORLD = STUDIES["gridworld"].arms


def _announce(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {detail}")


# ---------------------------------------------------------------------------
# shared training studies (session-scoped so arms are trained once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def adding_study():
    seeds = range(10)
    t0 = time.perf_counter()
    results = {
        "baseline": [run(ADDING["baseline"](s)).final for s in seeds],
        "discretized": [run(ADDING["communication_result"](s)).final for s in seeds],
    }
    results["seconds"] = time.perf_counter() - t0
    return results


@pytest.fixture(scope="session")
def ablation_study():
    seeds = range(10)
    return {
        "recurrent_update": [run(ADDING["recurrent_update"](s)).final for s in seeds],
        "gumbel": [run(ADDING["gumbel"](s)).final for s in seeds],
    }


# ---------------------------------------------------------------------------
# 1. quantizer oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_quantizer_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        L = int(rng.integers(1, 65))
        G = int(rng.integers(1, 9))
        d = int(rng.integers(1, 17))
        entries = rng.normal(size=(L, d))
        book = Codebook(L, d, entries=entries, initialized=True)
        cfg = QuantizerConfig(L=L, G=G, m=G * d)
        h = rng.normal(size=G * d)
        out = quantize(Tensor(h), cfg, book)
        # exhaustive scan, one head at a time
        for g in range(G):
            seg = h[g * d : (g + 1) * d]
            d2 = ((entries - seg) ** 2).sum(axis=1)
            assert int(out.indices[g]) == int(d2.argmin()) + 1
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    _announce(1, f"10^4 random instances ({checked} heads) match the exhaustive scan in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. gradient contract
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_contract():
    rng = np.random.default_rng(7)
    entries = rng.normal(size=(6, 3))
    book = Codebook(6, 3, entries=entries, initialized=True)
    cfg = QuantizerConfig(L=6, G=2, m=6)

    h = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    out = quantize(h, cfg, book)
    ad.backward(ad.tsum(out.z))
    assert np.array_equal(h.grad, np.ones((4, 6)))

    h = Tensor(rng.normal(size=6), requires_grad=True)
    out = quantize(h, cfg, book)
    ad.backward(out.commitment_loss)
    assert book.entries.grad is None
    assert h.grad is not None

    book.entries.zero_grad()
    h = Tensor(rng.normal(size=6), requires_grad=True)
    out = quantize(h, cfg, book)
    ad.backward(out.codebook_loss)
    assert h.grad is None
    assert book.entries.grad is not None

    # finite-difference check over every differentiable op kind
    from test_autodiff import CASES, SHAPES, _apply_case, _rand, case_rng

    worst = 0.0
    for kind in sorted(CASES):
        rng = case_rng(kind)
        arrays = [_rand(rng, *s) for s in SHAPES[kind]]
        weights = rng.uniform(-1, 1, size=CASES[kind](arrays).shape)

        def scalar(arrs):
            return float((CASES[kind](arrs).data * weights).sum())

        expected = finite_difference_grads(scalar, arrays)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        loss = ad.tsum(ad.mul(_apply_case(kind, tensors), Tensor(weights)))
        ad.backward(loss)
        for t, e in zip(tensors, expected):
            got = t.grad if t.grad is not None else np.zeros_like(t.data)
            worst = max(worst, float(np.max(np.abs(got - e))))
    assert worst < 1e-6
    _announce(2, f"straight-through/sg routing exact; max finite-difference error {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. combined-loss arithmetic
# ---------------------------------------------------------------------------


def test_criterion_3_worked_loss_example():
    book = Codebook(4, 2, entries=np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.0, 2.0]]), initialized=True)
    cfg = QuantizerConfig(L=4, G=2, m=4, beta=0.25, codebook_loss_weight=1.0)
    out = quantize(Tensor([0.9, 1.2, -0.2, 0.1]), cfg, book)
    assert out.indices.tolist() == [2, 1]
    got = combined_aux_loss([out], cfg).item()
    assert abs(got - 0.0625) < 1e-12
    _announce(3, f"auxiliary loss {got!r} vs 0.0625 (beta=0.25, G=2)")


# ---------------------------------------------------------------------------
# 4. Theorem-1 Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_4_concentration_monte_carlo():
    t0 = time.perf_counter()
    rec = verify_hoeffding(L=4, G=2, d=2, n=2000, delta=0.05, trials=200, seed=0)
    elapsed = time.perf_counter() - t0
    cap = 0.05 + 3 * np.sqrt(0.05 * 0.95 / 200)
    assert rec.violation_rate <= cap
    assert elapsed < 60.0
    _announce(4, f"violation rate {rec.violation_rate:.4f} <= {cap:.4f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. bound calculators
# ---------------------------------------------------------------------------


def test_criterion_5_bound_calculators():
    w = bound_with_discretization(BoundInputs(G=15, L=30, n=10**4, delta=0.05, alpha=1.0))
    wo = bound_without_discretization(BoundInputs(m=64, n=10**4, delta=0.05, alpha=1.0, varsigma_bar=0.0))
    assert abs(w - 0.05230) < 1e-4
    assert abs(wo - 0.16128) < 1e-4
    base = dict(n=1000, delta=0.05, alpha=1.0)
    for G in (1, 3, 9):
        for L in (2, 8, 64):
            b = bound_with_discretization(BoundInputs(G=G, L=L, **base))
            assert bound_with_discretization(BoundInputs(G=G + 1, L=L, **base)) > b
            assert bound_with_discretization(BoundInputs(G=G, L=L + 1, **base)) > b
            assert (
                bound_with_discretization(BoundInputs(G=G, L=L, n=1000, delta=0.02))
                > bound_with_discretization(BoundInputs(G=G, L=L, n=1000, delta=0.2))
            )
            assert bound_with_discretization(BoundInputs(G=G, L=L, n=4000, delta=0.05)) < b
    _announce(5, f"with={w:.5f} (0.05230), without={wo:.5f} (0.16128), monotonicity grid holds")


# ---------------------------------------------------------------------------
# 6. Gaussian-vector directional reproductions
# ---------------------------------------------------------------------------


def test_criterion_6_gaussian_analyses():
    t0 = time.perf_counter()
    rows = gaussian_variance_sweep(8, [1, 8], [1, 4, 8], samples=128, trials=20, seed=2)
    by = {(r["L"], r["G"]): r["mean_total_variance"] for r in rows}
    assert by[(1, 1)] == 0.0 and by[(1, 4)] == 0.0 and by[(1, 8)] == 0.0
    assert by[(8, 1)] < by[(8, 4)] < by[(8, 8)]

    rng = np.random.default_rng(11)
    book = Codebook(5, 2, entries=rng.normal(size=(5, 2)), initialized=True)
    field = vector_field(3.0, 13, book)
    for r in field:
        assert r["code"] == exhaustive_nearest(np.array([r["x"], r["y"]]), book.entries.data)

    wins = 0
    for seed in range(10):
        disc = attention_robustness(2, 8, quantize_on=True, seed=seed)["accuracy"]
        cont = attention_robustness(2, 8, quantize_on=False, seed=seed)["accuracy"]
        wins += disc >= cont
    elapsed = time.perf_counter() - t0
    assert wins >= 6
    assert elapsed < 300.0
    _announce(
        6,
        f"variance: zero at L=1, increasing in G at L=8; field matches Voronoi; "
        f"attention robustness {wins}/10 seeds; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. baseline reduction of all three architectures
# ---------------------------------------------------------------------------


def test_criterion_7_baseline_reduction():
    from test_models import (
        _gnn_reference,
        _rim_reference,
        _transformer_reference,
    )
    from vqcomm.models import GnnModel, RimModel, TransformerBlock, gnn_step, rim_step, transformer_forward

    rng = np.random.default_rng(3)
    gnn = GnnModel(rng, node_dim=4, action_dim=5, msg_dim=6, hidden=8)
    nodes = rng.normal(size=(2, 4, 4))
    actions = rng.normal(size=(2, 4, 5))
    delta = gnn_step(Tensor(nodes), Tensor(actions), gnn)
    gnn_err = float(np.max(np.abs(delta.data - _gnn_reference(gnn, nodes, actions))))

    blocks = [TransformerBlock(rng, dim=8, heads=2, ff_hidden=12, name=f"b{i}") for i in range(2)]
    x = rng.normal(size=(4, 8))
    out = transformer_forward(Tensor(x), blocks)
    tr_err = float(np.max(np.abs(out.data - _transformer_reference(blocks, x))))

    rim = RimModel(rng, input_dim=3, hidden=7, num_modules=3, k=2)
    rim.comm_value.weight.data[...] = rng.normal(size=(7, 7)) * 0.3
    state = rng.normal(size=(4, 3, 7))
    xt = rng.normal(size=(4, 3))
    new_state = rim_step(Tensor(state), Tensor(xt), rim)
    expect, _ = _rim_reference(rim, state, xt)
    rim_err = float(np.max(np.abs(new_state.data - expect)))

    assert gnn_err < 1e-12 and tr_err < 1e-12 and rim_err < 1e-12
    _announce(7, f"GNN {gnn_err:.1e}, transformer {tr_err:.1e}, modular RNN {rim_err:.1e} vs formula oracles")


# ---------------------------------------------------------------------------
# 8. adding-task OOD study
# ---------------------------------------------------------------------------


def test_criterion_8_adding_ood(adding_study):
    base = np.median([f["ood_test"]["loss"] for f in adding_study["baseline"]])
    disc = np.median([f["ood_test"]["loss"] for f in adding_study["discretized"]])
    assert disc <= base
    assert adding_study["seconds"] < 600.0
    _announce(
        8,
        f"median OOD loss discretized {disc:.3f} <= baseline {base:.3f} "
        f"(10 seeds, {adding_study['seconds']:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 9. grid-world OOD study
# ---------------------------------------------------------------------------


def test_criterion_9_gridworld_ood():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        flat = rng.choice(25, size=n, replace=False)
        positions = [(int(p) // 5, int(p) % 5) for p in flat]
        actions = [DIRECTIONS[int(rng.integers(5))] for _ in range(n)]
        state = GridWorldState(grid_size=5, positions=positions, actions=actions)
        assert gridworld_transition(state) == gridworld_step_reference(5, positions, actions)

    t0 = time.perf_counter()
    base_runs = [run(GRIDWORLD["baseline"](s)).final for s in range(5)]
    disc_runs = [run(GRIDWORLD["discretized"](s)).final for s in range(5)]
    elapsed = time.perf_counter() - t0
    base = np.median([f["ood_2"]["hits_at_1"] for f in base_runs])
    disc = np.median([f["ood_2"]["hits_at_1"] for f in disc_runs])
    assert disc >= base
    assert elapsed < 900.0
    _announce(
        9,
        f"transition oracle 10^4 states exact; OOD-2 HITS@1 discretized {disc:.3f} >= baseline {base:.3f}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. ablation ordering
# ---------------------------------------------------------------------------


def test_criterion_10_ablation_ordering(adding_study, ablation_study):
    comm = [f["ood_test"]["loss"] for f in adding_study["discretized"]]
    recur = [f["ood_test"]["loss"] for f in ablation_study["recurrent_update"]]
    assert np.median(comm) <= np.median(recur)

    gumbel = [f["ood_test"]["loss"] for f in ablation_study["gumbel"]]
    wins = sum(v <= g for v, g in zip(comm, gumbel))
    assert wins >= 6
    _announce(
        10,
        f"communication median {np.median(comm):.3f} <= recurrent-update median {np.median(recur):.3f}; "
        f"VQ beats Gumbel in {wins}/10 seeds",
    )


# ---------------------------------------------------------------------------
# 11. determinism of emitted files
# ---------------------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    base = {
        "kind": "adding",
        "seed": 13,
        "task": {
            "seq_len": 6,
            "train_gap": 4,
            "val_gap": 2,
            "test_gap": 8,
            "train_count": 24,
            "eval_count": 12,
        },
        "training": {"epochs": 2, "batch_size": 12, "lr": 1e-3},
        "model": {"hidden": 8, "modules": 2, "k": 1},
        "quantizer": {"discretize": True, "L": 4, "G": 2, "warmup_vectors": 64},
    }
    run(config_from_dict({**base, "out": str(tmp_path / "x")}))
    run(config_from_dict({**base, "out": str(tmp_path / "y")}))
    for suffix in ("_epochs.csv", "_metrics.csv"):
        assert (tmp_path / f"x{suffix}").read_bytes() == (tmp_path / f"y{suffix}").read_bytes()
    jx = json.loads((tmp_path / "x.json").read_text())
    jy = json.loads((tmp_path / "y.json").read_text())
    for j in (jx, jy):
        j.pop("wall_time")
        j["config"].pop("out")
    assert jx == jy
    _announce(11, "repeat run emitted bit-identical metric files")
