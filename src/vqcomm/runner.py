"""Experiment execution: warmup, k-means init, training, evaluation, emission.

Every run is a pure function of (config, seed): data, init, training and
evaluation draw from independent named streams, and all outputs except
wall time are bit-reproducible.
"""

from __future__ import annotations

import ctypes
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import autodiff as ad
from . import theory
from .autodiff import Tensor
from .config import ADDING_INPUT_DIM, ExperimentConfig, config_from_dict, quantizer_dim
from .models.attention import TransformerClassifier
from .models.common import CommunicationQuantizer, ConfigError
from .models.gnn import ContrastiveWorldModel
from .models.rim import RimModel, RimRegressor
from .optim import OPTIMIZERS, train_step
from .quantizer import QuantizerConfig, codebook_stats, save_codebook
from .seeding import stream_rng
from .tasks import gen_adding, gen_copy_batch, gen_gridworld_episodes, hits_at_k, mrr, rank_next_state
from . import __version__

log = logging.getLogger("vqcomm")

EPOCH_COLUMNS = ["epoch", "task_loss", "codebook_loss", "commitment_loss", "total_loss", "perplexity"]

METRIC_COLUMNS = {
    "adding": ["split", "loss"],
    "gridworld": ["split", "hits_at_1", "mrr"],
    "transformer-toy": ["split", "loss", "accuracy"],
}

ANALYSIS_COLUMNS = {
    "variance": ["L", "G", "samples", "trials", "mean_total_variance", "mean_raw_variance"],
    "attention": ["seed", "quantized", "train_distractors", "test_distractors", "accuracy", "train_accuracy"],
    "bounds": [f.name for f in fields(theory.BoundInputs)]
    + ["bound_with", "bound_without", "covering_with", "covering_without"],
    "hoeffding": ["trial", "gap", "bound", "violated"],
    "field": ["x", "y", "dx", "dy", "code"],
}


def split_columns(kind: str, keys: list[str]) -> list[str]:
    """The header of a per-split table: ``keys``, then ``split``, then ``METRIC_COLUMNS[kind]``'s metrics."""
    return [*keys, "split", *(c for c in METRIC_COLUMNS[kind] if c != "split")]


def split_rows(keys: dict, final: dict) -> list[dict]:
    """One row per split of a training run's ``final`` block, in ``split_columns`` order."""
    return [{**keys, "split": split, **metrics} for split, metrics in final.items()]


@dataclass
class RunRecord:
    config: dict
    epochs: list[dict]
    final: dict
    wall_time: float
    version: str = __version__
    quantizer: CommunicationQuantizer | None = field(default=None, compare=False, repr=False)  # not in the JSON

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "epochs": self.epochs,
            "final": self.final,
            "wall_time": self.wall_time,
            "version": self.version,
        }


# ---------------------------------------------------------------------------
# serialization with stable float formatting
# ---------------------------------------------------------------------------


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v)


def _atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def emit_csv(path, rows: list[dict], columns: list[str]) -> None:
    """Header always present; floats carry 17 significant digits."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(c)) for c in columns))
    _atomic_write(path, "\n".join(lines) + "\n")


def dumps_json(obj) -> str:
    """Canonical JSON with 17-significant-digit floats (round-trip stable)."""
    if isinstance(obj, dict):
        items = ",".join(f'"{k}":{dumps_json(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        return format(value, ".17g")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def emit_json(path, obj) -> None:
    _atomic_write(path, dumps_json(obj) + "\n")


def emit_record(record: RunRecord, out: str) -> list[str]:
    """Write the record JSON plus kind-specific CSV metric files."""
    kind = record.config["kind"]
    emit_json(f"{out}.json", record.to_dict())
    written = [f"{out}.json"]
    if kind in METRIC_COLUMNS:
        emit_csv(f"{out}_epochs.csv", record.epochs, EPOCH_COLUMNS)
        emit_csv(f"{out}_metrics.csv", split_rows({}, record.final), split_columns(kind, []))
        written += [f"{out}_epochs.csv", f"{out}_metrics.csv"]
    elif kind == "gaussian-analysis":
        emit_csv(f"{out}_variance.csv", record.final["variance"], ANALYSIS_COLUMNS["variance"])
        emit_csv(f"{out}_attention.csv", record.final["attention"], ANALYSIS_COLUMNS["attention"])
        written += [f"{out}_variance.csv", f"{out}_attention.csv"]
    elif kind == "bounds":
        emit_csv(f"{out}_bounds.csv", [record.final], ANALYSIS_COLUMNS["bounds"])
        written.append(f"{out}_bounds.csv")
    elif kind == "hoeffding":
        emit_csv(f"{out}_hoeffding.csv", record.final["trials"], ANALYSIS_COLUMNS["hoeffding"])
        written.append(f"{out}_hoeffding.csv")
    if record.quantizer is not None and record.quantizer.active:
        save_codebook(f"{out}_codebook.vqcb", record.quantizer.codebook, record.quantizer.config)
        written.append(f"{out}_codebook.vqcb")
    return written


# ---------------------------------------------------------------------------
# shared training scaffolding
# ---------------------------------------------------------------------------


def _build_quantizer(config: ExperimentConfig) -> CommunicationQuantizer | None:
    q = config.quantizer
    if not q.discretize:
        return None
    return CommunicationQuantizer(
        QuantizerConfig(q.L, q.G, quantizer_dim(config), beta=q.beta, codebook_loss_weight=q.codebook_loss_weight),
        method=q.method,
        temperature=q.temperature,
        warmup_vectors=q.warmup_vectors,
        rng=stream_rng(config.seed, "gumbel"),
    )


@dataclass
class _EpochAccumulator:
    """Running sums of the four losses over an epoch's batches."""

    task: float = 0.0
    codebook: float = 0.0
    commitment: float = 0.0
    total: float = 0.0
    batches: int = 0

    def add(self, task_loss, cb, cm, total):
        self.task += task_loss
        self.codebook += cb
        self.commitment += cm
        self.total += total
        self.batches += 1

    def row(self, epoch: int, usage: np.ndarray | None) -> dict:
        """The mean losses and the perplexity of ``usage``, the codes the epoch picked (None if none)."""
        b = max(self.batches, 1)
        perplexity = None
        if usage is not None and usage.any():
            perplexity = codebook_stats(usage).perplexity
        return {
            "epoch": epoch,
            "task_loss": self.task / b,
            "codebook_loss": self.codebook / b,
            "commitment_loss": self.commitment / b,
            "total_loss": self.total / b,
            "perplexity": perplexity,
        }


def _train_loop(config: ExperimentConfig, quantizer, model, count: int, loss_fn, splits: dict, evaluate) -> RunRecord:
    """Train ``model``, evaluate it on every split and build the run record.

    Each epoch shuffles the ``count`` training examples into batches of
    indices, and ``optim.train_step`` runs ``loss_fn(idx)`` on each. The
    first epoch is the quantizer's warmup (identity, collecting); k-means
    seeds the codebook at its end. Under ``ad.no_grad`` over ``params``,
    the ``final`` block maps each split name to ``evaluate(*arrays)`` of
    its arrays.
    """
    params = model.parameters() + ([quantizer.codebook.entries] if quantizer else [])
    opt = OPTIMIZERS[config.training.optimizer](params, lr=config.training.lr)
    train_rng = stream_rng(config.seed, "training")
    epochs = []
    for epoch in range(config.training.epochs):
        acc = _EpochAccumulator()
        for i, batch in enumerate(_shuffled_batches(count, config.training.batch_size, train_rng)):
            where = f"epoch {epoch}, batch {i}"
            acc.add(*train_step(loss_fn, batch, quantizer, params, opt, config.training.grad_clip, where))
        usage = quantizer.take_usage() if quantizer is not None else None
        if quantizer is not None and not quantizer.active:
            quantizer.initialize(stream_rng(config.seed, "codebook"))
        epochs.append(acc.row(epoch, usage))
    with ad.no_grad(params):
        final = {name: evaluate(*data) for name, data in splits.items()}
    return RunRecord(config=config.to_dict(), epochs=epochs, final=final, wall_time=0.0, quantizer=quantizer)


def _shuffled_batches(count: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        yield order[start : start + batch_size]


# ---------------------------------------------------------------------------
# adding task (RIM)
# ---------------------------------------------------------------------------


def _eval_adding(regressor, inputs, targets) -> float:
    pred = regressor(inputs)
    return float(((pred.data - targets) ** 2).mean())


def run_adding(config: ExperimentConfig) -> RunRecord:
    t = config.task
    data_rng = stream_rng(config.seed, "data")
    train_inputs, train_targets = gen_adding(t.train_count, t.seq_len, t.train_gap, data_rng, t.max_value)
    eval_rng = stream_rng(config.seed, "evaluation")
    splits = {
        "in_dist": gen_adding(t.eval_count, t.seq_len, t.train_gap, eval_rng, t.max_value),
        "ood_val": gen_adding(t.eval_count, t.seq_len, t.val_gap, eval_rng, t.max_value),
        "ood_test": gen_adding(t.eval_count, t.seq_len, t.test_gap, eval_rng, t.max_value),
    }
    init_rng = stream_rng(config.seed, "init")
    quantizer = _build_quantizer(config)
    model = RimModel(
        init_rng,
        input_dim=ADDING_INPUT_DIM,
        hidden=config.model.hidden,
        num_modules=config.model.modules,
        k=config.model.k,
        att_dim=config.model.att_dim,
        quantizer=quantizer,
        site=config.quantizer.site,
    )
    regressor = RimRegressor(init_rng, model)

    def loss_fn(idx):
        return ad.mse(regressor(train_inputs[idx]), Tensor(train_targets[idx]))

    def evaluate(inputs, targets):
        return {"loss": _eval_adding(regressor, inputs, targets)}

    return _train_loop(config, quantizer, regressor, len(train_inputs), loss_fn, splits, evaluate)


# ---------------------------------------------------------------------------
# grid world (GNN)
# ---------------------------------------------------------------------------


def _eval_gridworld(model, obs, act, nxt) -> dict:
    pred = model.predict_next(obs, act)
    latents = model.encode(nxt).data.reshape(len(obs), -1)
    preds = pred.data.reshape(len(obs), -1)
    ranks = rank_next_state(preds, latents, np.arange(len(obs)))
    return {"hits_at_1": hits_at_k(ranks, 1), "mrr": mrr(ranks)}


def run_gridworld(config: ExperimentConfig) -> RunRecord:
    t = config.task
    data_rng = stream_rng(config.seed, "data")
    episodes = max(1, t.train_transitions // t.episode_steps)
    train = gen_gridworld_episodes(t.train_objects, t.grid_size, t.episode_steps, episodes, data_rng)
    obs, act, nxt = (a[: t.train_transitions] for a in train)
    eval_rng = stream_rng(config.seed, "evaluation")
    eval_eps = max(1, t.eval_transitions // t.episode_steps)
    splits = {"in_dist": gen_gridworld_episodes(t.train_objects, t.grid_size, t.episode_steps, eval_eps, eval_rng)}
    for i, n_obj in enumerate(t.ood_objects, start=1):
        splits[f"ood_{i}"] = gen_gridworld_episodes(n_obj, t.grid_size, t.episode_steps, eval_eps, eval_rng)

    init_rng = stream_rng(config.seed, "init")
    quantizer = _build_quantizer(config)
    model = ContrastiveWorldModel(
        init_rng,
        raw_dim=2,
        node_dim=config.model.node_dim,
        action_dim=5,
        msg_dim=config.model.msg_dim,
        hidden=config.model.gnn_hidden,
        quantizer=quantizer,
        site=config.quantizer.site,
    )

    def loss_fn(idx):
        neg = np.roll(idx, 1)
        return model.contrastive_loss(obs[idx], act[idx], nxt[idx], obs[neg])

    return _train_loop(config, quantizer, model, len(obs), loss_fn, splits, partial(_eval_gridworld, model))


# ---------------------------------------------------------------------------
# transformer toy task
# ---------------------------------------------------------------------------


def _eval_transformer(model, tokens, marks, labels) -> dict:
    logits = model(tokens, marks)
    loss = ad.cross_entropy(logits, labels).item()
    acc = float((logits.data.argmax(axis=1) == labels).mean())
    return {"loss": loss, "accuracy": acc}


def run_transformer_toy(config: ExperimentConfig) -> RunRecord:
    t = config.task
    data_rng = stream_rng(config.seed, "data")
    train_tokens, train_marks, train_labels = gen_copy_batch(data_rng, t.train_count, t.train_len, t.vocab)
    eval_rng = stream_rng(config.seed, "evaluation")
    splits = {
        "in_dist": gen_copy_batch(eval_rng, t.eval_count, t.train_len, t.vocab),
        "ood_test": gen_copy_batch(eval_rng, t.eval_count, t.test_len, t.vocab),
    }
    init_rng = stream_rng(config.seed, "init")
    quantizer = _build_quantizer(config)
    model = TransformerClassifier(
        init_rng,
        vocab=t.vocab,
        dim=config.model.dim,
        heads=config.model.heads,
        num_blocks=config.model.blocks,
        max_len=t.max_len,
        quantizer=quantizer,
    )

    def loss_fn(idx):
        return ad.cross_entropy(model(train_tokens[idx], train_marks[idx]), train_labels[idx])

    return _train_loop(config, quantizer, model, len(train_tokens), loss_fn, splits, partial(_eval_transformer, model))


# ---------------------------------------------------------------------------
# analysis kinds
# ---------------------------------------------------------------------------


def run_gaussian_analysis(config: ExperimentConfig) -> RunRecord:
    t = config.task
    variance = theory.gaussian_variance_sweep(
        t.gaussian_m,
        list(t.L_values),
        list(t.G_values),
        samples=t.variance_samples,
        trials=t.variance_trials,
        seed=config.seed,
    )
    attention = []
    for s in range(t.attention_seeds):
        for quantize_on in (False, True):
            res = theory.attention_robustness(
                t.train_distractors, t.test_distractors, quantize_on, seed=config.seed + s
            )
            attention.append({"seed": config.seed + s, **res})
    final = {"variance": variance, "attention": attention}
    return RunRecord(config=config.to_dict(), epochs=[], final=final, wall_time=0.0)


def run_bounds(config: ExperimentConfig) -> RunRecord:
    """The bound inputs and the four bound calculators, in ``ANALYSIS_COLUMNS["bounds"]`` order."""
    t = config.task
    q = config.quantizer
    inputs = theory.BoundInputs(
        G=q.G, L=q.L, m=t.bound_m, n=t.bound_n, delta=t.delta, alpha=t.alpha, varsigma_bar=t.varsigma_bar,
        R_H=t.R_H, zeta=t.zeta, C_J=t.C_J, L_d=t.L_d, rho=t.rho,
    )
    final = {
        **asdict(inputs),
        "bound_with": theory.bound_with_discretization(inputs),
        "bound_without": theory.bound_without_discretization(inputs),
        "covering_with": theory.covering_bound_with(inputs),
        "covering_without": theory.covering_bound_without(inputs),
    }
    return RunRecord(config=config.to_dict(), epochs=[], final=final, wall_time=0.0)


def run_hoeffding(config: ExperimentConfig) -> RunRecord:
    """One row per trial (``ANALYSIS_COLUMNS["hoeffding"]``) plus the summary."""
    t = config.task
    q = config.quantizer
    rec = theory.verify_hoeffding(
        L=q.L, G=q.G, d=t.hoeffding_d, n=t.hoeffding_n, delta=t.delta, trials=t.hoeffding_trials, seed=config.seed
    )
    trials = [
        {"trial": i, "gap": float(g), "bound": rec.bound, "violated": bool(v)}
        for i, (g, v) in enumerate(zip(rec.gaps, rec.violated))
    ]
    final = {"trials": trials, "violation_rate": rec.violation_rate, "bound": rec.bound, "cell_count": rec.cell_count}
    return RunRecord(config=config.to_dict(), epochs=[], final=final, wall_time=0.0)


_RUNNERS = {
    "adding": run_adding,
    "gridworld": run_gridworld,
    "transformer-toy": run_transformer_toy,
    "gaussian-analysis": run_gaussian_analysis,
    "bounds": run_bounds,
    "hoeffding": run_hoeffding,
}


# glibc mallopt parameters (malloc.h) and the values set for them
_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES = -1, 1 << 30
_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES = -3, 32 << 20


def keep_freed_pages_mapped() -> bool:
    """Ask glibc to keep freed heap memory mapped; True when both settings took.

    Backward frees each batch's graph, and the next forward allocates arrays
    of the same sizes again. With glibc's defaults the freed top of the heap
    goes back to the OS and large arrays get mmaps of their own, so every
    forward faults its pages in afresh. A 1 GiB trim threshold keeps the
    heap, and a fixed 32 MiB mmap threshold keeps a graph's arrays on it.
    Where libc has no ``mallopt`` this does nothing and returns False.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = ((_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES), (_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES))
    return [mallopt(param, value) for param, value in settings] == [1, 1]


def run(config: ExperimentConfig) -> RunRecord:
    keep_freed_pages_mapped()
    start = time.perf_counter()
    record = _RUNNERS[config.kind](config)
    record.wall_time = time.perf_counter() - start
    if config.out:
        emit_record(record, config.out)
    return record


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def sweep(
    base: ExperimentConfig,
    L_values: list[int],
    G_values: list[int],
    seeds: list[int],
) -> tuple[list[RunRecord], list[dict], list[dict]]:
    """Cartesian product over (L, G, seed). A cell whose G does not divide the quantized width is
    skipped with a logged warning; every other cell's config is checked before any cell runs.
    Returns (records, skipped, aggregate rows)."""
    records, skipped, rows, cells = [], [], [], []
    if base.kind not in METRIC_COLUMNS:
        raise ConfigError(f"sweep supports training kinds, not {base.kind!r}")
    if not base.quantizer.discretize:
        raise ConfigError("sweep varies quantizer.L and quantizer.G, so it needs quantizer.discretize=true")
    m = quantizer_dim(base)
    for L in L_values:
        for G in G_values:
            if m % G != 0:
                msg = f"skipping L={L} G={G}: {m} not divisible by {G}"
                log.warning(msg)
                skipped.append({"L": L, "G": G, "reason": msg})
                continue
            for seed in seeds:
                cfg_dict = base.to_dict()
                cfg_dict["seed"] = seed
                cfg_dict["out"] = ""
                cfg_dict["quantizer"]["L"] = L
                cfg_dict["quantizer"]["G"] = G
                cells.append(config_from_dict(cfg_dict))
    for cfg in cells:
        records.append(run(cfg))
        rows += split_rows({"L": cfg.quantizer.L, "G": cfg.quantizer.G, "seed": cfg.seed}, records[-1].final)
    return records, skipped, rows


def emit_sweep(out: str, base: ExperimentConfig, rows: list[dict], skipped: list[dict]) -> None:
    emit_csv(f"{out}_sweep.csv", rows, split_columns(base.kind, ["L", "G", "seed"]))
    emit_json(f"{out}_sweep.json", {"config": base.to_dict(), "skipped": skipped, "rows": rows})
