import json
import platform
import tracemalloc

import numpy as np
import pytest

from vqcomm import autodiff
from vqcomm import runner as runner_module
from vqcomm.config import FIELD_RULES, config_from_dict
from vqcomm.models import common
from vqcomm.models.common import ConfigError
from vqcomm.quantizer import codebook_stats
from vqcomm.runner import (
    EPOCH_COLUMNS,
    METRIC_COLUMNS,
    RunRecord,
    dumps_json,
    emit_csv,
    emit_record,
    emit_sweep,
    run,
    sweep,
)
from vqcomm.seeding import stream_rng

TINY_ADDING = {
    "kind": "adding",
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


def test_seed_streams_independent_and_stable():
    a = stream_rng(7, "data").standard_normal(4)
    b = stream_rng(7, "data").standard_normal(4)
    c = stream_rng(7, "training").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(KeyError):
        stream_rng(0, "nonexistent")


def test_run_is_deterministic_bitwise(tmp_path):
    cfg1 = config_from_dict({**TINY_ADDING, "out": str(tmp_path / "a")})
    cfg2 = config_from_dict({**TINY_ADDING, "out": str(tmp_path / "b")})
    run(cfg1)
    run(cfg2)
    for suffix in ("_epochs.csv", "_metrics.csv"):
        fa = (tmp_path / f"a{suffix}").read_bytes()
        fb = (tmp_path / f"b{suffix}").read_bytes()
        assert fa == fb
    ja = json.loads((tmp_path / "a.json").read_text())
    jb = json.loads((tmp_path / "b.json").read_text())
    ja.pop("wall_time"), jb.pop("wall_time")
    ja["config"].pop("out"), jb["config"].pop("out")
    assert ja == jb


def test_epoch_rows_monotone_and_loss_accounting():
    cfg = config_from_dict(TINY_ADDING)
    record = run(cfg)
    epochs = [row["epoch"] for row in record.epochs]
    assert epochs == sorted(epochs) == list(range(len(epochs)))
    # total = task + weight*codebook + beta*commitment at every logged epoch
    w, beta = cfg.quantizer.codebook_loss_weight, cfg.quantizer.beta
    for row in record.epochs:
        total = row["task_loss"] + w * row["codebook_loss"] + beta * row["commitment_loss"]
        assert abs(total - row["total_loss"]) < 1e-12


def test_zero_epochs_gives_initialization_metrics_only():
    # a baseline: a quantized run needs its warmup epoch (test_config)
    cfg = config_from_dict(
        {**TINY_ADDING, "training": {"epochs": 0, "batch_size": 12, "lr": 1e-3}, "quantizer": {"discretize": False}}
    )
    record = run(cfg)
    assert record.epochs == []
    assert set(record.final) == {"in_dist", "ood_val", "ood_test"}


def test_baseline_reports_zero_codebook_losses():
    cfg_dict = {**TINY_ADDING, "quantizer": {"discretize": False}}
    record = run(config_from_dict(cfg_dict))
    for row in record.epochs:
        assert row["codebook_loss"] == 0.0
        assert row["commitment_loss"] == 0.0
        assert row["perplexity"] is None


def test_config_snapshot_roundtrips_through_record():
    cfg = config_from_dict(TINY_ADDING)
    record = run(cfg)
    assert config_from_dict(record.config) == cfg


def test_emit_csv_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(path, [], ["a", "b"])
    assert path.read_text() == "a,b\n"


def test_emit_csv_17_digit_floats(tmp_path):
    path = tmp_path / "floats.csv"
    emit_csv(path, [{"x": 1 / 3}], ["x"])
    assert path.read_text() == "x\n0.33333333333333331\n"


def test_json_roundtrip_byte_identical():
    payload = {"a": 1 / 3, "b": [1, 2.5, None], "c": {"nested": True}, "d": "text"}
    once = dumps_json(payload)
    twice = dumps_json(json.loads(once))
    assert once == twice


def test_json_handles_non_finite_floats():
    payload = {"big": float("inf"), "neg": float("-inf")}
    once = dumps_json(payload)
    assert json.loads(once) == payload
    assert dumps_json(json.loads(once)) == once


def test_record_csv_schema_matches_documented_columns(tmp_path):
    cfg = config_from_dict({**TINY_ADDING, "out": str(tmp_path / "r")})
    run(cfg)
    header = (tmp_path / "r_epochs.csv").read_text().splitlines()[0]
    assert header.split(",") == EPOCH_COLUMNS
    header = (tmp_path / "r_metrics.csv").read_text().splitlines()[0]
    assert header.split(",") == METRIC_COLUMNS["adding"]


def test_sweep_grid_counts_and_skips(tmp_path):
    base = config_from_dict(
        {
            **TINY_ADDING,
            "task": {**TINY_ADDING["task"], "train_count": 12, "eval_count": 6},
            "training": {"epochs": 1, "batch_size": 12, "lr": 1e-3},
        }
    )
    records, skipped, rows = sweep(base, L_values=[2, 4], G_values=[2, 3], seeds=[0, 1])
    # G=3 does not divide hidden=8: both (L, 3) grid points are skipped
    assert len(skipped) == 2
    assert all(s["G"] == 3 for s in skipped)
    assert len(records) == 2 * 1 * 2
    assert len(rows) == len(records) * 3  # three splits per run
    emit_sweep(str(tmp_path / "s"), base, rows, skipped)
    lines = (tmp_path / "s_sweep.csv").read_text().splitlines()
    assert lines[0] == "L,G,seed,split,loss"
    assert len(lines) == 1 + len(rows)


def test_sweep_single_cell_equals_run():
    base = config_from_dict(TINY_ADDING)
    records, skipped, rows = sweep(base, L_values=[4], G_values=[2], seeds=[0])
    single = run(config_from_dict({**TINY_ADDING, "seed": 0}))
    assert not skipped
    assert records[0].final == single.final


@pytest.mark.parametrize("site, expected", [("raw_input", 2), ("recurrent_update", 8), ("communication_input", 8)])
def test_quantizer_dim_follows_the_site(site, expected):
    cfg = config_from_dict({**TINY_ADDING, "quantizer": {**TINY_ADDING["quantizer"], "site": site}})
    assert runner_module.quantizer_dim(cfg) == expected


def test_sweep_quantizer_dim_matches_the_run():
    """At quantizer.site=raw_input the adding RIM snaps its 2-wide input: the
    sweep skips G=4, which does not divide it, and runs G=2."""
    base = config_from_dict(
        {
            **TINY_ADDING,
            "training": {"epochs": 1, "batch_size": 12, "lr": 1e-3},
            "quantizer": {**TINY_ADDING["quantizer"], "site": "raw_input"},
        }
    )
    records, skipped, _ = sweep(base, L_values=[4], G_values=[2, 4], seeds=[0])
    assert [s["G"] for s in skipped] == [4]
    assert records[0].quantizer.config.m == 2


def test_sweep_rejects_analysis_kinds():
    with pytest.raises(ConfigError):
        sweep(config_from_dict({"kind": "bounds"}), [2], [1], [0])


def test_gumbel_method_runs():
    cfg = config_from_dict(
        {**TINY_ADDING, "quantizer": {**TINY_ADDING["quantizer"], "method": "gumbel", "temperature": 1.0}}
    )
    record = run(cfg)
    assert set(record.final) == {"in_dist", "ood_val", "ood_test"}


def test_adding_kind_honors_site():
    cfg = config_from_dict({**TINY_ADDING, "quantizer": {**TINY_ADDING["quantizer"], "site": "raw_input", "G": 2}})
    record = run(cfg)
    assert record.config["quantizer"]["site"] == "raw_input"
    assert record.quantizer.config.m == 2  # the snapped vectors are the (value, marker) inputs
    assert "ood_test" in record.final


@pytest.mark.parametrize("method", ["vq", "gumbel"])
def test_quantizer_holds_no_outputs_after_run(method):
    """Training takes every batch's snaps and frozen evaluation forwards keep none."""
    record = run(config_from_dict({**TINY_ADDING, "quantizer": {**TINY_ADDING["quantizer"], "method": method}}))
    assert record.quantizer.take_outputs() == []


def test_gridworld_runner_metrics():
    cfg = config_from_dict(
        {
            "kind": "gridworld",
            "task": {"train_transitions": 40, "eval_transitions": 20, "episode_steps": 5},
            "training": {"epochs": 1, "batch_size": 20, "lr": 5e-4},
            "model": {"node_dim": 3, "msg_dim": 4, "gnn_hidden": 8},
            "quantizer": {"discretize": True, "L": 4, "G": 2, "warmup_vectors": 32},
        }
    )
    record = run(cfg)
    for split in ("in_dist", "ood_1", "ood_2"):
        assert 0.0 <= record.final[split]["hits_at_1"] <= 1.0
        assert 0.0 < record.final[split]["mrr"] <= 1.0


@pytest.mark.parametrize("train, evaluate, steps", [(1000, 256, 10), (7, 1, 3)], ids=["256-per-10", "1-per-3"])
def test_gridworld_splits_have_the_configured_size(monkeypatch, train, evaluate, steps):
    """Training and every split hold exactly the configured number of
    transitions, also when it is not a multiple of the episode length
    (256 used to evaluate 250 rows, and 1 with 3-step episodes 3)."""
    seen = {}

    class Stop(Exception):
        pass

    def train_loop(config, quantizer, model, count, loss_fn, splits, evaluate_fn):
        seen["train"] = count
        seen.update({name: {len(a) for a in arrays} for name, arrays in splits.items()})
        raise Stop

    monkeypatch.setattr(runner_module, "_train_loop", train_loop)
    cfg = config_from_dict(
        {
            "kind": "gridworld",
            "task": {"train_transitions": train, "eval_transitions": evaluate, "episode_steps": steps},
            "model": {"node_dim": 2, "msg_dim": 4, "gnn_hidden": 4},
        }
    )
    with pytest.raises(Stop):
        run(cfg)
    assert seen == {"train": train, "in_dist": {evaluate}, "ood_1": {evaluate}, "ood_2": {evaluate}}


def test_transformer_runner_metrics():
    cfg = config_from_dict(
        {
            "kind": "transformer-toy",
            "task": {"train_count": 32, "eval_count": 16, "vocab": 4, "train_len": 6, "test_len": 8, "max_len": 8},
            "training": {"epochs": 1, "batch_size": 16, "lr": 1e-3},
            "model": {"dim": 8, "heads": 2, "blocks": 3},
            "quantizer": {"discretize": True, "L": 4, "G": 2, "warmup_vectors": 32},
        }
    )
    record = run(cfg)
    assert 0.0 <= record.final["in_dist"]["accuracy"] <= 1.0
    assert 0.0 <= record.final["ood_test"]["accuracy"] <= 1.0


def test_wall_time_recorded():
    record = run(config_from_dict(TINY_ADDING))
    assert record.wall_time > 0
    assert isinstance(record, RunRecord)


def test_non_finite_loss_names_epoch_and_batch():
    # an Adam step this large sends every weight past float range after one batch
    cfg = {
        **TINY_ADDING,
        "training": {"epochs": 1, "batch_size": 12, "lr": 1e300},
        "quantizer": {"discretize": False},
    }
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match="epoch 0, batch 1"):
            run(config_from_dict(cfg))


def test_epoch_memory_does_not_grow_with_batches(monkeypatch):
    """Live traced memory after each backward pass stays flat across a quantized epoch."""
    batches = 8
    live = []
    original = autodiff.backward

    def recording(loss):
        original(loss)
        live.append(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(autodiff, "backward", recording)
    cfg = {**TINY_ADDING, "task": {**TINY_ADDING["task"], "train_count": 12 * batches}}
    tracemalloc.start()
    try:
        run(config_from_dict(cfg))
    finally:
        tracemalloc.stop()
    quantized = live[batches:]  # epoch 0 is the warmup
    # one batch's graph at this size holds about 1.7 MB; keeping the graphs
    # until the epoch ends grew live memory by that much per batch
    assert (quantized[-1] - quantized[1]) / (batches - 2) < 16 * 1024


def test_backward_frees_the_batch_graph(monkeypatch):
    """Live traced memory is lower right after each backward pass than right
    before it: the walk frees the graph instead of adding gradients to it."""
    live = []
    original = autodiff.backward

    def recording(loss):
        before = tracemalloc.get_traced_memory()[0]
        original(loss)
        live.append((before, tracemalloc.get_traced_memory()[0]))

    monkeypatch.setattr(autodiff, "backward", recording)
    tracemalloc.start()
    try:
        run(config_from_dict(TINY_ADDING))
    finally:
        tracemalloc.stop()
    assert len(live) == 4  # 2 epochs of 2 batches, the second quantized
    assert all(after < before for before, after in live), live


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc mallopt parameters")
def test_freed_pages_stay_mapped_on_glibc():
    assert runner_module.keep_freed_pages_mapped()


def _capture_quantizer(monkeypatch, built):
    original = runner_module._build_quantizer

    def capturing(config):
        built.append(original(config))
        return built[-1]

    monkeypatch.setattr(runner_module, "_build_quantizer", capturing)


TINY_QUANTIZED = {
    "adding": TINY_ADDING,
    "gridworld": {
        "kind": "gridworld",
        "task": {"train_transitions": 10, "eval_transitions": 5, "episode_steps": 5},
        "model": {"node_dim": 3, "msg_dim": 4, "gnn_hidden": 8},
        "quantizer": {"discretize": True, "L": 4, "G": 2},
    },
    "transformer-toy": {
        "kind": "transformer-toy",
        "task": {"train_count": 4, "eval_count": 4, "vocab": 4, "train_len": 4, "test_len": 6, "max_len": 6},
        "model": {"dim": 8, "heads": 2, "blocks": 3},
        "quantizer": {"discretize": True, "L": 4, "G": 2},
    },
}


@pytest.mark.parametrize(
    "kind, site", [(kind, site) for kind in TINY_QUANTIZED for site in FIELD_RULES[kind]["quantizer"]["site"]]
)
def test_built_quantizer_carries_the_configured_site(monkeypatch, kind, site):
    """The runner hands the configured site to the quantizer, and the kind's model accepts it."""
    built, trained = [], []
    _capture_quantizer(monkeypatch, built)

    class Stop(Exception):
        pass

    def train_loop(config, quantizer, *args):
        trained.append(quantizer)
        raise Stop

    monkeypatch.setattr(runner_module, "_train_loop", train_loop)
    base = TINY_QUANTIZED[kind]
    with pytest.raises(Stop):
        run(config_from_dict({**base, "quantizer": {**base["quantizer"], "site": site}}))
    assert trained == built
    assert [q.site for q in built] == [site]


@pytest.mark.parametrize("method", ["vq", "gumbel"])
def test_epoch_perplexity_is_that_of_the_epochs_snaps(monkeypatch, method):
    """Each epoch's perplexity is ``codebook_stats`` over the codes its training
    snaps picked; the warmup epoch picks none and has no perplexity."""
    epochs = []
    shuffled = runner_module._shuffled_batches

    def marking(*args):
        epochs.append([])
        return shuffled(*args)

    monkeypatch.setattr(runner_module, "_shuffled_batches", marking)
    for name in ("quantize", "gumbel_quantize"):

        def recording(h, config, codebook, *args, original=getattr(common, name), **kwargs):
            out = original(h, config, codebook, *args, **kwargs)
            if codebook.entries.requires_grad:  # a training snap, not an evaluation one
                epochs[-1].append(out.indices.reshape(-1))
            return out

        monkeypatch.setattr(common, name, recording)
    cfg = {
        **TINY_ADDING,
        "training": {**TINY_ADDING["training"], "epochs": 3},
        "quantizer": {**TINY_ADDING["quantizer"], "method": method},
    }
    record = run(config_from_dict(cfg))
    assert epochs[0] == [] and record.epochs[0]["perplexity"] is None
    for row, snaps in zip(record.epochs[1:], epochs[1:]):
        usage = np.bincount(np.concatenate(snaps) - 1, minlength=4)
        assert row["perplexity"] == codebook_stats(usage).perplexity


def test_evaluation_builds_no_tape(monkeypatch):
    """Every evaluation forward runs on frozen parameters and codebook entries."""
    built, seen = [], []
    _capture_quantizer(monkeypatch, built)
    original = runner_module._eval_adding

    def recording(regressor, inputs, targets):
        frozen = regressor.parameters() + [built[0].codebook.entries]
        seen.append(any(p.requires_grad for p in frozen))
        return original(regressor, inputs, targets)

    monkeypatch.setattr(runner_module, "_eval_adding", recording)
    run(config_from_dict(TINY_ADDING))
    assert seen == [False] * 3
    assert built[0].codebook.entries.requires_grad
