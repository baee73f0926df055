"""Declarative experiment configuration.

Configs load from flat ``section.key=value`` text (comments with '#') or
from the equivalent nested JSON. Every field has a default; unknown keys
fail fast.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields

from .models.common import ConfigError, check_site

KINDS = (
    "adding",
    "gridworld",
    "transformer-toy",
    "gaussian-analysis",
    "bounds",
    "hoeffding",
)

# the architecture whose quantization sites each training kind offers
_ARCHITECTURES = {"adding": "rim", "gridworld": "gnn", "transformer-toy": "transformer"}


@dataclass
class QuantizerSettings:
    discretize: bool = False
    L: int = 16
    G: int = 8
    beta: float = 0.25
    codebook_loss_weight: float = 0.25
    site: str = "communication_result"
    method: str = "vq"  # or "gumbel"
    temperature: float = 1.0
    warmup_vectors: int = 512

    def __post_init__(self):
        if self.warmup_vectors < 1:
            raise ConfigError(f"quantizer.warmup_vectors must be at least 1, got {self.warmup_vectors}")


@dataclass
class ModelSettings:
    hidden: int = 32
    modules: int = 4
    k: int = 2
    att_dim: int = 16
    node_dim: int = 4
    msg_dim: int = 16
    gnn_hidden: int = 32
    dim: int = 16
    heads: int = 2
    blocks: int = 3


@dataclass
class TaskSettings:
    # adding
    seq_len: int = 50
    train_gap: int = 50
    val_gap: int = 20
    test_gap: int = 100
    max_value: float = 1.0
    train_count: int = 256
    eval_count: int = 128
    # grid world
    grid_size: int = 5
    train_objects: int = 5
    ood_objects: tuple[int, ...] = (3, 2)
    episode_steps: int = 10
    train_transitions: int = 1000
    eval_transitions: int = 256
    # transformer toy
    vocab: int = 6
    train_len: int = 8
    test_len: int = 12
    max_len: int = 16
    # gaussian analysis
    gaussian_m: int = 8
    L_values: tuple[int, ...] = (1, 8)
    G_values: tuple[int, ...] = (1, 2, 4, 8)
    variance_samples: int = 128
    variance_trials: int = 20
    attention_seeds: int = 10
    train_distractors: int = 2
    test_distractors: int = 8
    # hoeffding
    hoeffding_d: int = 2
    hoeffding_n: int = 2000
    hoeffding_trials: int = 200
    delta: float = 0.05
    # bounds
    bound_m: int = 64
    bound_n: int = 10_000
    alpha: float = 1.0
    varsigma_bar: float = 0.0
    R_H: float = 1.0
    zeta: float = 100.0
    C_J: float = 1.0
    L_d: float = 1.0
    rho: int = 1


@dataclass
class TrainingSettings:
    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    optimizer: str = "adam"
    grad_clip: float = 0.0  # 0 disables clipping

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"training.batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"training.epochs must not be negative, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"training.lr must be a positive finite number, got {self.lr}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ConfigError(f"training.grad_clip must be finite and >= 0 (0: no clipping), got {self.grad_clip}")


@dataclass
class ExperimentConfig:
    kind: str = "adding"
    seed: int = 0
    out: str = ""
    quantizer: QuantizerSettings = field(default_factory=QuantizerSettings)
    model: ModelSettings = field(default_factory=ModelSettings)
    task: TaskSettings = field(default_factory=TaskSettings)
    training: TrainingSettings = field(default_factory=TrainingSettings)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; choose from {KINDS}")
        if self.kind in _ARCHITECTURES:
            check_site(_ARCHITECTURES[self.kind], self.quantizer.site)
            if self.quantizer.discretize and self.training.epochs == 0:
                # without a warmup epoch the codebook is never fitted and evaluation runs unquantized
                raise ConfigError("quantizer.discretize needs training.epochs >= 1: the first epoch fits the codebook")
        _check_task_sizes(self)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_task_sizes(config: ExperimentConfig) -> None:
    """Reject, before the run, the sizes the kind's generators and model would refuse."""
    t, m = config.task, config.model
    if config.kind in ("adding", "transformer-toy"):
        for key in ("train_count", "eval_count"):
            if getattr(t, key) < 1:
                raise ConfigError(f"task.{key} must be at least 1, got {getattr(t, key)}")
    if config.kind == "adding":
        if m.att_dim < 1:
            raise ConfigError(f"model.att_dim must be at least 1, got {m.att_dim}")
        if t.seq_len < 1:
            raise ConfigError(f"task.seq_len must be positive, got {t.seq_len}")
        for key in ("train_gap", "val_gap", "test_gap"):
            if getattr(t, key) < 0:
                raise ConfigError(f"task.{key} must be non-negative, got {getattr(t, key)}")
    elif config.kind == "gridworld":
        cells = t.grid_size * t.grid_size
        for key, count in [("train_objects", t.train_objects)] + [("ood_objects", n) for n in t.ood_objects]:
            if count > cells:
                raise ConfigError(f"task.{key}: cannot place {count} objects on a {t.grid_size}x{t.grid_size} grid")
    elif config.kind == "transformer-toy":
        if m.heads < 1 or m.dim % m.heads != 0:
            raise ConfigError(f"model.dim {m.dim} must be divisible by model.heads {m.heads}")


_SECTIONS = {
    "quantizer": QuantizerSettings,
    "model": ModelSettings,
    "task": TaskSettings,
    "training": TrainingSettings,
}


def _coerce(raw, target_type, key: str):
    if target_type is bool:
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("true", "1", "yes", "on"):
            return True
        if text in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: cannot parse {raw!r} as bool")
    if target_type is int:
        try:
            return int(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {raw!r} as int") from None
    if target_type is float:
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: cannot parse {raw!r} as float") from None
    if target_type is str:
        return str(raw)
    if target_type is tuple:
        if not isinstance(raw, (list, tuple)):
            raw = [p for p in str(raw).replace("(", "").replace(")", "").split(",") if p.strip()]
        return tuple(_coerce(v, int, key) for v in raw)
    raise ConfigError(f"{key}: unsupported field type {target_type}")


def _field_types(cls) -> dict:
    """Field name -> type; every annotation is a string under ``from __future__ import annotations``."""
    scalars = {"int": int, "float": float, "bool": bool, "str": str}
    return {f.name: tuple if f.type.startswith("tuple") else scalars.get(f.type, str) for f in fields(cls)}


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    kwargs = {}
    top_types = {"kind": str, "seed": int, "out": str}
    for key, target in top_types.items():
        if key in data:
            kwargs[key] = _coerce(data.pop(key), target, key)
    for section, cls in _SECTIONS.items():
        section_data = data.pop(section, {})
        if not isinstance(section_data, dict):
            raise ConfigError(f"{section}: expected a table of keys, got {section_data!r}")
        types = _field_types(cls)
        sec_kwargs = {}
        for key, raw in section_data.items():
            if key not in types:
                raise ConfigError(f"unknown key {section}.{key}")
            sec_kwargs[key] = _coerce(raw, types[key], f"{section}.{key}")
        kwargs[section] = cls(**sec_kwargs)
    if data:
        raise ConfigError(f"unknown key {sorted(data)[0]}")
    return ExperimentConfig(**kwargs)


def parse_assignments(pairs: list[str]) -> dict:
    """Turn ['quantizer.L=16', 'seed=3'] into a nested dict."""
    nested: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"empty key in {pair!r}")
        parts = key.split(".")
        if len(parts) == 1:
            nested[parts[0]] = value
        elif len(parts) == 2:
            nested.setdefault(parts[0], {})[parts[1]] = value
        else:
            raise ConfigError(f"too many dots in key {key!r}")
    return nested


def _read_config_file(path) -> dict:
    """Nested config data from a key=value file or an equivalent JSON document."""
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from e
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        pairs.append(line)
    return parse_assignments(pairs)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Read a key=value config file or an equivalent JSON document (no path:
    every default), with the nested ``overrides`` merged over it."""
    data = _read_config_file(path) if path else {}
    return config_from_dict(merge_overrides(data, overrides or {}))


def merge_overrides(config_data: dict, overrides: dict) -> dict:
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in config_data.items()}
    for key, value in overrides.items():
        if isinstance(value, dict):
            merged.setdefault(key, {})
            merged[key].update(value)
        else:
            merged[key] = value
    return merged
