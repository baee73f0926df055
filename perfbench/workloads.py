"""The benchmark's workloads: protocol configs built from the seed, checks on
the run records, and the quantities read from them.

Why each workload is here is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass
from typing import Callable

from vqcomm import protocols, runner, theory


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], list]  # seed -> experiment configs, run in order

    def train_samples(self, configs) -> int:
        """Training examples seen by optimizer steps in one run."""
        if configs[0].kind in runner.METRIC_COLUMNS:
            return _train_count(configs[0]) * configs[0].training.epochs
        steps, batch = _attention_defaults("steps", "batch")
        return configs[0].task.attention_seeds * 2 * steps * batch

    def steps_per_epoch(self, configs) -> int:
        """Backward passes between two epoch boundaries (one attention fit on analysis)."""
        if configs[0].kind in runner.METRIC_COLUMNS:
            return math.ceil(_train_count(configs[0]) / configs[0].training.batch_size)
        return _attention_defaults("steps")[0]

    def final_task_loss(self, records) -> float:
        """Mean task loss of the last epoch; on analysis, the share of Gaussian
        variance lost to quantization, averaged over the variance sweep."""
        if records[0].epochs:
            return records[0].epochs[-1]["task_loss"]
        rows = records[0].final["variance"]
        return sum(1 - r["mean_total_variance"] / r["mean_raw_variance"] for r in rows) / len(rows)

    def check(self, configs, records) -> list[str]:
        """Problems with the run's outputs; empty when they are correct."""
        problems = []
        for config, record in zip(configs, records):
            problems += [f"{config.kind}: non-finite value at {path}" for path in _non_finite(record.to_dict())]
            problems += _CHECKS[config.kind](config, record)
        return problems


def _train_count(config) -> int:
    return config.task.train_count if config.kind == "adding" else config.task.train_transitions


def _attention_defaults(*names: str) -> list[int]:
    params = inspect.signature(theory.attention_robustness).parameters
    return [params[n].default for n in names]


def _non_finite(value, path: str = "") -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [path]
    return []


# The checks assert only what the program guarantees. A training run that
# diverges on some seed (adding-vq seed 104 does) is a result, not a failure.


def _check_training(config, record) -> list[str]:
    problems = []
    epochs = record.epochs
    if len(epochs) != config.training.epochs:
        return [f"{len(epochs)} epoch rows, expected {config.training.epochs}"]
    if config.quantizer.discretize:
        for row in epochs[1:]:  # epoch 0 is the warmup that fills the k-means reservoir
            if not 1.0 <= row["perplexity"] <= config.quantizer.L:
                problems.append(f"epoch {row['epoch']}: perplexity {row['perplexity']} outside [1, L]")
    expected = set(runner.METRIC_COLUMNS[config.kind]) - {"split"}
    for split, metrics in record.final.items():
        if set(metrics) != expected:
            problems.append(f"{split}: metrics {sorted(metrics)}, expected {sorted(expected)}")
        elif "loss" in metrics and not metrics["loss"] >= 0:
            problems.append(f"{split}: negative loss {metrics['loss']}")
        elif "mrr" in metrics and not 0 <= metrics["hits_at_1"] <= metrics["mrr"] <= 1:
            problems.append(f"{split}: need 0 <= hits@1 <= mrr <= 1, got {metrics}")
    return problems


def _check_gaussian(config, record) -> list[str]:
    problems = []
    t = config.task
    variance = record.final["variance"]
    if len(variance) != len(t.L_values) * len(t.G_values):
        problems.append(f"{len(variance)} variance rows for {t.L_values} x {t.G_values}")
    for row in variance:
        # one code means every vector snaps to one point: no variance is left
        left, raw = row["mean_total_variance"], row["mean_raw_variance"]
        if not (left == 0 if row["L"] == 1 else 0 < left < raw):
            problems.append(f"variance row {row} out of range")
    attention = record.final["attention"]
    if len(attention) != 2 * t.attention_seeds:
        problems.append(f"{len(attention)} attention rows, expected {2 * t.attention_seeds}")
    for row in attention:
        if not (0 <= row["accuracy"] <= 1 and 0 <= row["train_accuracy"] <= 1):
            problems.append(f"attention row {row} out of range")
    return problems


def _check_hoeffding(config, record) -> list[str]:
    final = record.final
    t, q = config.task, config.quantizer
    problems = []
    if len(final["trials"]) != t.hoeffding_trials:
        problems.append(f"{len(final['trials'])} trials, expected {t.hoeffding_trials}")
    if final["cell_count"] != q.L**q.G:
        problems.append(f"cell count {final['cell_count']}, expected {q.L**q.G}")
    violated = [trial["violated"] for trial in final["trials"]]
    if final["violation_rate"] != sum(violated) / len(violated):
        problems.append(f"violation rate {final['violation_rate']} does not match the {len(violated)} trials")
    if not all(0 <= trial["gap"] <= 1 for trial in final["trials"]):
        problems.append("a gap between two cell distributions lies outside [0, 1]")
    return problems


_CHECKS = {
    "adding": _check_training,
    "gridworld": _check_training,
    "gaussian-analysis": _check_gaussian,
    "hoeffding": _check_hoeffding,
}


def record_hash(records) -> str:
    """sha256 of the canonical run JSON without wall-clock fields.

    Keys named ``wall_time`` or starting with ``wall_`` hold wall-clock data
    and are left out at any depth; everything else must repeat bit for bit.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(runner.dumps_json(_without_wall(record.to_dict())).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _without_wall(value):
    if isinstance(value, dict):
        return {k: _without_wall(v) for k, v in value.items() if not k.startswith("wall_")}
    if isinstance(value, list):
        return [_without_wall(v) for v in value]
    return value


WORKLOADS = {
    w.name: w
    for w in [
        Workload("adding-vq", lambda seed: [protocols.adding_config(seed, True)]),
        Workload("adding-base", lambda seed: [protocols.adding_config(seed, False)]),
        Workload("gridworld-vq", lambda seed: [protocols.gridworld_config(seed, True)]),
        Workload(
            "analysis",
            lambda seed: [protocols.gaussian_analysis_config(seed), protocols.hoeffding_config(seed)],
        ),
    ]
}
