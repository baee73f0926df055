"""Calibrated desk-scale experiment protocols.

One place defines each study's configuration so the acceptance suite and
the runnable scripts execute the identical experiment. Edit here, not in
callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .config import ExperimentConfig, config_from_dict


def adding_config(
    seed: int,
    discretize: bool,
    site: str = "communication_result",
    method: str = "vq",
) -> ExperimentConfig:
    """Sum-two-marked-values task; OOD knob is the dummy-gap length (50 -> 100)."""
    return config_from_dict(
        {
            "kind": "adding",
            "seed": seed,
            "task": {
                "seq_len": 10,
                "train_gap": 50,
                "val_gap": 20,
                "test_gap": 100,
                "train_count": 128,
                "eval_count": 128,
            },
            "training": {"epochs": 20, "batch_size": 32, "lr": 1e-3, "grad_clip": 1.0},
            "model": {"hidden": 32, "modules": 4, "k": 2},
            "quantizer": {
                "discretize": discretize,
                "L": 16,
                "G": 8,
                "codebook_loss_weight": 0.25,
                "site": site,
                "method": method,
                "temperature": 1.0,
            },
        }
    )


def gridworld_config(seed: int, discretize: bool) -> ExperimentConfig:
    """Object-pushing world model; OOD knob is the object count (5 -> 3 -> 2)."""
    return config_from_dict(
        {
            "kind": "gridworld",
            "seed": seed,
            "task": {
                "grid_size": 5,
                "train_objects": 5,
                "ood_objects": (3, 2),
                "episode_steps": 10,
                "train_transitions": 1000,
                "eval_transitions": 256,
            },
            "training": {"epochs": 40, "batch_size": 128, "lr": 5e-4},
            "model": {"node_dim": 4, "msg_dim": 16, "gnn_hidden": 32},
            "quantizer": {
                "discretize": discretize,
                "L": 16,
                "G": 1,
                "codebook_loss_weight": 1.0,
            },
        }
    )


def gaussian_analysis_config(seed: int = 0) -> ExperimentConfig:
    return config_from_dict(
        {
            "kind": "gaussian-analysis",
            "seed": seed,
            "task": {
                "gaussian_m": 8,
                "L_values": (1, 8),
                "G_values": (1, 2, 4, 8),
                "variance_samples": 128,
                "variance_trials": 20,
                "attention_seeds": 10,
                "train_distractors": 2,
                "test_distractors": 8,
            },
        }
    )


def hoeffding_config(seed: int = 0) -> ExperimentConfig:
    return config_from_dict(
        {
            "kind": "hoeffding",
            "seed": seed,
            "quantizer": {"L": 4, "G": 2},
            "task": {"hoeffding_d": 2, "hoeffding_n": 2000, "hoeffding_trials": 200, "delta": 0.05},
        }
    )


@dataclass(frozen=True)
class Study:
    """A multi-seed OOD study: each arm maps a seed to its config; every run reports ``final[split][metric]``."""

    arms: dict[str, Callable[[int], ExperimentConfig]]
    seeds: int
    split: str
    metric: str


STUDIES = {
    # gap shift on the RIM: where to discretize, and VQ against Gumbel-Softmax selection
    "adding": Study(
        arms={
            "baseline": partial(adding_config, discretize=False),
            "communication_result": partial(adding_config, discretize=True),
            "communication_input": partial(adding_config, discretize=True, site="communication_input"),
            "recurrent_update": partial(adding_config, discretize=True, site="recurrent_update"),
            "gumbel": partial(adding_config, discretize=True, method="gumbel"),
        },
        seeds=10, split="ood_test", metric="loss",
    ),
    # object-count shift on the GNN world model
    "gridworld": Study(
        arms={
            "baseline": partial(gridworld_config, discretize=False),
            "discretized": partial(gridworld_config, discretize=True),
        },
        seeds=5, split="ood_2", metric="hits_at_1",
    ),
}
