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

from .models.common import VALID_SITES, ConfigError
from .optim import OPTIMIZERS

ADDING_INPUT_DIM = 2  # (value, marker) per step of the adding task


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


_QUANTIZER = {"L": 1, "G": 1, "beta": ">0", "codebook_loss_weight": ">0", "method": ("vq", "gumbel"),
              "temperature": ">0", "warmup_vectors": 1}
_TRAINING = {"epochs": 0, "batch_size": 1, "lr": ">0", "optimizer": tuple(OPTIMIZERS), "grad_clip": ">=0"}

# Every field each kind reads, bools aside, with its rule: an int's (or each tuple element's) inclusive
# lower bound, ">0" or ">=0" for a float (which must also be finite), or a string's choices. The bounds
# and hoeffding kinds have none: BoundInputs and verify_hoeffding reject their fields before any work.
FIELD_RULES = {
    "adding": {
        "quantizer": {**_QUANTIZER, "site": VALID_SITES["rim"]},
        "training": _TRAINING,
        "model": {"hidden": 1, "modules": 1, "k": 1, "att_dim": 1},
        "task": {"seq_len": 1, "train_gap": 0, "val_gap": 0, "test_gap": 0, "max_value": ">0", "train_count": 1,
                 "eval_count": 1},
    },
    "gridworld": {
        "quantizer": {**_QUANTIZER, "site": VALID_SITES["gnn"]},
        "training": _TRAINING,
        "model": {"node_dim": 1, "msg_dim": 1, "gnn_hidden": 1},
        "task": {"grid_size": 1, "train_objects": 1, "ood_objects": 1, "episode_steps": 1, "train_transitions": 1,
                 "eval_transitions": 1},
    },
    "transformer-toy": {
        "quantizer": {**_QUANTIZER, "site": VALID_SITES["transformer"]},
        "training": _TRAINING,
        "model": {"dim": 1, "heads": 1, "blocks": 1},
        # position 0 is the readout slot, so a sequence needs one more position to mark
        "task": {"train_count": 1, "eval_count": 1, "vocab": 1, "train_len": 2, "test_len": 2, "max_len": 2},
    },
    "gaussian-analysis": {
        "task": {"gaussian_m": 1, "L_values": 1, "G_values": 1, "variance_samples": 1, "variance_trials": 1,
                 "attention_seeds": 0, "train_distractors": 0, "test_distractors": 0},
    },
    "bounds": {},
    "hoeffding": {},
}
KINDS = tuple(FIELD_RULES)


def _check_field(name: str, value, rule) -> None:
    if isinstance(rule, tuple):
        ok, need = value in rule, f"one of {rule}"
    elif isinstance(rule, str):
        ok, need = math.isfinite(value) and (value > 0 if rule == ">0" else value >= 0), f"finite and {rule}"
    else:
        ok, need = all(v >= rule for v in (value if isinstance(value, tuple) else (value,))), f">= {rule}"
    if not ok:
        raise ConfigError(f"{name} = {value!r} is invalid: it must be {need}")


def quantizer_dim(config: ExperimentConfig) -> int:
    """Length of the vectors the quantizer of a training kind snaps."""
    if config.kind == "adding":
        return ADDING_INPUT_DIM if config.quantizer.site == "raw_input" else config.model.hidden
    return config.model.msg_dim if config.kind == "gridworld" else config.model.dim


def _check_cross_fields(c: ExperimentConfig) -> None:
    """The rules that tie fields together; each runs after the fields it reads passed the table."""
    q, t = c.quantizer, c.task
    if c.kind in ("adding", "gridworld", "transformer-toy") and q.discretize:
        if c.training.epochs < 1:  # without a warmup epoch the codebook is never fitted
            raise ConfigError("quantizer.discretize needs training.epochs >= 1: the first epoch fits the codebook")
        if quantizer_dim(c) % q.G:
            raise ConfigError(f"quantizer.G = {q.G} does not divide the {quantizer_dim(c)}-wide vectors at {q.site}")
    if c.kind == "adding" and c.model.k > c.model.modules:
        raise ConfigError(f"model.k = {c.model.k} must be at most model.modules = {c.model.modules}")
    if c.kind == "gridworld" and (most := max((t.train_objects, *t.ood_objects))) > t.grid_size**2:
        raise ConfigError(f"task.train_objects/ood_objects: cannot place {most} objects on {t.grid_size**2} cells")
    if c.kind == "transformer-toy" and c.model.dim % c.model.heads:
        raise ConfigError(f"model.dim {c.model.dim} must be divisible by model.heads {c.model.heads}")
    if c.kind == "transformer-toy" and t.max_len < max(t.train_len, t.test_len):
        raise ConfigError(f"task.max_len {t.max_len} must be at least task.train_len {t.train_len} and "
                          f"task.test_len {t.test_len}")
    if c.kind == "gaussian-analysis" and any(t.gaussian_m % G for G in t.G_values):
        raise ConfigError(f"task.G_values {t.G_values} must each divide task.gaussian_m {t.gaussian_m}")


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
        _check_field("seed", self.seed, 0)
        for section, rules in FIELD_RULES[self.kind].items():
            for key, rule in rules.items():
                _check_field(f"{section}.{key}", getattr(getattr(self, section), key), rule)
        _check_cross_fields(self)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


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
