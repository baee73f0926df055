"""Fast checks of the benchmark harness itself, on a tiny adding config.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from vqcomm import runner as vq_runner  # noqa: E402
from vqcomm.config import config_from_dict  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_config(seed: int):
    return config_from_dict(
        {
            "kind": "adding",
            "seed": seed,
            "task": {"seq_len": 4, "train_gap": 3, "val_gap": 2, "test_gap": 5, "train_count": 16, "eval_count": 8},
            "training": {"epochs": 3, "batch_size": 8, "lr": 1e-2, "grad_clip": 1.0},
            "model": {"hidden": 8, "modules": 2, "k": 1},
            "quantizer": {"discretize": True, "L": 4, "G": 2, "warmup_vectors": 64},
        }
    )


TINY = Workload("tiny", lambda seed: [_tiny_config(seed)])


@pytest.fixture
def in_process(monkeypatch):
    """Route the orchestrator's worker processes to in-process runs of TINY."""

    def spawn(workload, seed, mode):
        t0 = time.monotonic()
        try:
            result = worker.run_once(TINY, seed, mode, t0)
        except Exception as exc:  # the worker process reports any failure the same way
            result = {"error": repr(exc)}
        result["wall_s"] = time.monotonic() - t0
        return result

    monkeypatch.setattr(run, "spawn", spawn)


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_names_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(in_process, capsys, trace):
    measure = run.measure_traced if trace else run.measure_untraced
    summary = measure("tiny", 0, 0)
    run.print_summary("tiny", 0, trace, summary)
    print(run.result_line(summary))
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, summary["notes"]
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit) for line in lines), name
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_time_arithmetic_on_synthetic_nesting():
    spans = [
        ("run", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 6.0, 9.0, 0),
        ("a", 7.0, 8.0, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 1.0, 2.0, 1.0]
    totals = tracing.layer_totals(spans)
    assert totals == {"run": (3.0, 1), "a": (4.0, 2), "b": (1.0, 1), "c": (2.0, 1)}
    assert sum(s for s, _ in totals.values()) == 10.0


def test_traced_run_accounts_for_the_whole_run_and_repeats_its_counts():
    first = worker.run_once(TINY, 1, "spans", time.monotonic())
    second = worker.run_once(TINY, 1, "spans", time.monotonic())
    assert first["hash"] == second["hash"]
    for name in tracing.EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    layers = first["layers"]
    assert layers["models.rim_step_calls"] > 0 and layers["quantizer.quantize_calls"] > 0
    assert layers["optim.steps"] == layers["autodiff.backward_calls"] == 3 * 2
    parts = sum(v for k, v in layers.items() if k.endswith("_s") and k != "trace.run_s")
    assert parts == pytest.approx(layers["trace.run_s"], abs=1e-9)


def test_failing_runs_count_in_error_rate(in_process, monkeypatch):
    monkeypatch.setattr(vq_runner, "_eval_adding", lambda *args: math.nan)
    summary = run.measure_untraced("tiny", 0, 0)
    assert summary["failed"] == summary["runs"] >= 1
    assert "non-finite" in summary["notes"][0]
    assert json.loads(run.result_line(summary))["correct"] is False


def test_mismatched_hashes_and_errors_are_failures():
    results = [
        {"hash": "a", "problems": []},
        {"hash": "a", "problems": []},
        {"hash": "b", "problems": []},
        {"error": "Traceback ...\nRuntimeError: boom"},
        {"hash": "a", "problems": ["loss did not fall"]},
        {"setup_s": 0.1},
    ]
    notes = run.failures(results)
    assert len(notes) == 3
    assert "differs" in notes[0] and "boom" in notes[1] and "loss did not fall" in notes[2]


def test_worker_process_failure_counts():
    summary = run.measure_untraced("no-such-workload", 0, 0)
    assert summary["attempted"] == summary["failed"] == run.SETUP_PROBES + 1
