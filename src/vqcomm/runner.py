"""Experiment execution: warmup, k-means init, training, evaluation, emission.

Every run is a pure function of (config, seed): data, init, training and
evaluation draw from independent named streams, and all outputs except
wall time are bit-reproducible.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import theory
from .autodiff import Tensor
from .config import ExperimentConfig, config_from_dict
from .models.attention import TransformerClassifier
from .models.common import CommunicationQuantizer, ConfigError
from .models.gnn import ContrastiveWorldModel
from .models.rim import RimModel, RimRegressor
from .nn import Parameter
from .optim import Adam, SGD, clip_global_norm, fill_missing_grads
from .quantizer import QuantizerConfig, codebook_stats, combined_aux_loss, save_codebook, usage_counts
from .seeding import stream_rng
from .tasks import (
    encode_actions,
    encode_positions,
    gen_adding,
    gen_gridworld_episodes,
    hits_at_k,
    mrr,
    rank_next_state,
)
from . import __version__

log = logging.getLogger("vqcomm")

_ADDING_INPUT_DIM = 2  # (value, marker) per step

EPOCH_COLUMNS = ["epoch", "task_loss", "codebook_loss", "commitment_loss", "total_loss", "perplexity"]

METRIC_COLUMNS = {
    "adding": ["split", "loss"],
    "gridworld": ["split", "hits_at_1", "mrr"],
    "transformer-toy": ["split", "loss", "accuracy"],
}

_BOUND_INPUT_COLUMNS = ["G", "L", "m", "n", "delta", "alpha", "varsigma_bar", "R_H", "zeta", "C_J", "L_d", "rho"]

ANALYSIS_COLUMNS = {
    "variance": ["L", "G", "samples", "trials", "mean_total_variance", "mean_raw_variance"],
    "attention": ["seed", "quantized", "train_distractors", "test_distractors", "accuracy", "train_accuracy"],
    "bounds": _BOUND_INPUT_COLUMNS + ["bound_with", "bound_without", "covering_with", "covering_without"],
    "hoeffding": ["trial", "gap", "bound", "violated"],
    "field": ["x", "y", "dx", "dy", "code"],
}


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
        import json as _json

        return _json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def emit_json(path, obj) -> None:
    _atomic_write(path, dumps_json(obj) + "\n")


def emit_record(record: RunRecord, out: str) -> list[str]:
    """Write the record JSON plus kind-specific CSV metric files."""
    kind = record.config["kind"]
    written = []
    emit_json(f"{out}.json", record.to_dict())
    written.append(f"{out}.json")
    if kind in METRIC_COLUMNS:
        emit_csv(f"{out}_epochs.csv", record.epochs, EPOCH_COLUMNS)
        rows = [dict(split=s, **m) for s, m in record.final.items()]
        emit_csv(f"{out}_metrics.csv", rows, METRIC_COLUMNS[kind])
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


def quantizer_dim(config: ExperimentConfig) -> int:
    """Length of the vectors the quantizer of a training kind snaps."""
    if config.kind == "gridworld":
        return config.model.msg_dim
    if config.kind == "transformer-toy":
        return config.model.dim
    return _ADDING_INPUT_DIM if config.quantizer.site == "raw_input" else config.model.hidden


def _build_quantizer(config: ExperimentConfig) -> CommunicationQuantizer | None:
    q = config.quantizer
    if not q.discretize:
        return None
    try:
        qc = QuantizerConfig(
            L=q.L, G=q.G, m=quantizer_dim(config), beta=q.beta, codebook_loss_weight=q.codebook_loss_weight
        )
    except ValueError as e:
        raise ConfigError(f"quantizer: {e}") from e
    return CommunicationQuantizer(
        qc,
        method=q.method,
        temperature=q.temperature,
        warmup_vectors=q.warmup_vectors,
        rng=stream_rng(config.seed, "gumbel"),
    )


def _make_optimizer(config: ExperimentConfig, params: list[Parameter]):
    if config.training.optimizer == "adam":
        return Adam(params, lr=config.training.lr)
    if config.training.optimizer == "sgd":
        return SGD(params, lr=config.training.lr)
    raise ConfigError(f"unknown optimizer {config.training.optimizer!r}")


@dataclass
class _EpochAccumulator:
    """Running epoch sums. Code usage goes straight into a histogram, so the
    epoch holds no quantization output (nor the graph behind it)."""

    L: int | None = None
    task: float = 0.0
    codebook: float = 0.0
    commitment: float = 0.0
    total: float = 0.0
    batches: int = 0
    usage: np.ndarray | None = None  # None until a quantized batch arrives

    def add(self, task_loss, cb, cm, total, qouts):
        self.task += task_loss
        self.codebook += cb
        self.commitment += cm
        self.total += total
        self.batches += 1
        for q in qouts:
            counts = usage_counts(q.indices, self.L)
            self.usage = counts if self.usage is None else self.usage + counts

    def row(self, epoch: int) -> dict:
        b = max(self.batches, 1)
        perplexity = None
        if self.usage is not None:
            perplexity = codebook_stats(self.usage).perplexity
        return {
            "epoch": epoch,
            "task_loss": self.task / b,
            "codebook_loss": self.codebook / b,
            "commitment_loss": self.commitment / b,
            "total_loss": self.total / b,
            "perplexity": perplexity,
        }


def _train_loop(config: ExperimentConfig, quantizer, params, count: int, loss_fn):
    """Generic epoch loop: warmup/collect, k-means init, then quantized training.

    Each epoch shuffles the ``count`` training examples into batches of
    indices; ``loss_fn(idx)`` returns the task loss Tensor, and the snaps of
    its forward are taken from the quantizer. Returns per-epoch metric rows.
    """
    opt = _make_optimizer(config, params)
    train_rng = stream_rng(config.seed, "training")
    qcfg = quantizer.config if quantizer is not None else None
    rows = []
    for epoch in range(config.training.epochs):
        acc = _EpochAccumulator(L=qcfg.L if qcfg else None)
        for i, batch in enumerate(_shuffled_batches(count, config.training.batch_size, train_rng)):
            # the previous batch's graph stays referenced until this forward
            # is built: freed any earlier, its pages go back to the OS and the
            # forward faults them in again (gridworld-vq ran 36% slower)
            task_loss = loss_fn(batch)
            qouts = quantizer.take_outputs() if quantizer is not None else []
            loss = task_loss
            cb = cm = 0.0
            if qouts:
                aux = combined_aux_loss(qouts, qcfg)
                loss = ad.add(loss, aux)
                cb = float(np.mean([q.codebook_loss.item() for q in qouts]))
                cm = float(np.mean([q.commitment_loss.item() for q in qouts]))
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite training loss {loss.item()} at epoch {epoch}, batch {i}")
            opt.zero_grad()
            ad.backward(loss)
            fill_missing_grads(params)
            if config.training.grad_clip > 0:
                clip_global_norm(params, config.training.grad_clip)
            opt.step()
            acc.add(task_loss.item(), cb, cm, loss.item(), qouts)
        # warmup (identity quantizer, collecting) lasts the first epoch
        if quantizer is not None and not quantizer.active:
            quantizer.initialize(seed=stream_rng(config.seed, "codebook"))
        rows.append(acc.row(epoch))
    return rows


@contextmanager
def _evaluation(quantizer: CommunicationQuantizer | None, params: list[Parameter]):
    """Evaluation mode for the block: the forward builds no tape over
    ``params`` (model parameters and codebook entries), and a gumbel
    quantizer snaps to its argmax code. Both are undone on exit, also
    after an exception."""
    with ad.no_grad(params):
        if quantizer is None:
            yield
            return
        hard, quantizer.hard = quantizer.hard, True
        try:
            yield
        finally:
            quantizer.hard = hard


def _shuffled_batches(count: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        yield order[start : start + batch_size]


# ---------------------------------------------------------------------------
# adding task (RIM)
# ---------------------------------------------------------------------------


def _adding_arrays(samples):
    inputs = np.stack([s.inputs for s in samples])
    targets = np.array([[s.target] for s in samples])
    return inputs, targets


def _eval_adding(regressor, inputs, targets) -> float:
    pred = regressor(inputs)
    return float(((pred.data - targets) ** 2).mean())


def run_adding(config: ExperimentConfig) -> RunRecord:
    t = config.task
    data_rng = stream_rng(config.seed, "data")
    train_set = gen_adding(t.train_count, t.seq_len, t.train_gap, data_rng, t.max_value)
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
        input_dim=_ADDING_INPUT_DIM,
        hidden=config.model.hidden,
        num_modules=config.model.modules,
        k=config.model.k,
        att_dim=config.model.att_dim,
        quantizer=quantizer,
        site=config.quantizer.site,
    )
    regressor = RimRegressor(init_rng, model)
    params = regressor.parameters() + ([quantizer.codebook.entries] if quantizer else [])

    train_inputs, train_targets = _adding_arrays(train_set)

    def loss_fn(idx):
        return ad.mse(regressor(train_inputs[idx]), Tensor(train_targets[idx]))

    epochs = _train_loop(config, quantizer, params, len(train_set), loss_fn)
    with _evaluation(quantizer, params):
        final = {
            name: {"loss": _eval_adding(regressor, *_adding_arrays(samples))} for name, samples in splits.items()
        }
    return RunRecord(config=config.to_dict(), epochs=epochs, final=final, wall_time=0.0, quantizer=quantizer)


# ---------------------------------------------------------------------------
# grid world (GNN)
# ---------------------------------------------------------------------------


def _gridworld_arrays(transitions, grid_size):
    obs = np.stack([encode_positions(t.positions, grid_size) for t in transitions])
    nxt = np.stack([encode_positions(t.next_positions, grid_size) for t in transitions])
    act = np.stack([encode_actions(t.actions) for t in transitions])
    return obs, act, nxt


def _eval_gridworld(model, obs, act, nxt) -> dict:
    pred = model.predict_next(obs, act)
    latents = model.encode(nxt).data.reshape(len(obs), -1)
    preds = pred.data.reshape(len(obs), -1)
    ranks = [rank_next_state(preds[i], latents, true_index=i) for i in range(len(obs))]
    return {"hits_at_1": hits_at_k(ranks, 1), "mrr": mrr(ranks)}


def run_gridworld(config: ExperimentConfig) -> RunRecord:
    t = config.task
    data_rng = stream_rng(config.seed, "data")
    episodes = max(1, t.train_transitions // t.episode_steps)
    train_set = gen_gridworld_episodes(t.train_objects, t.grid_size, t.episode_steps, episodes, data_rng)[
        : t.train_transitions
    ]
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
    params = model.parameters() + ([quantizer.codebook.entries] if quantizer else [])
    obs, act, nxt = _gridworld_arrays(train_set, t.grid_size)

    def loss_fn(idx):
        neg = np.roll(idx, 1)
        return model.contrastive_loss(obs[idx], act[idx], nxt[idx], obs[neg])

    epochs = _train_loop(config, quantizer, params, len(train_set), loss_fn)
    with _evaluation(quantizer, params):
        final = {
            name: _eval_gridworld(model, *_gridworld_arrays(trans, t.grid_size)) for name, trans in splits.items()
        }
    return RunRecord(config=config.to_dict(), epochs=epochs, final=final, wall_time=0.0, quantizer=quantizer)


# ---------------------------------------------------------------------------
# transformer toy task
# ---------------------------------------------------------------------------


def _gen_copy_batch(rng, count, length, vocab):
    """Position 0 is the readout slot; one marked position holds the target."""
    tokens = rng.integers(0, vocab, size=(count, length))
    tokens[:, 0] = vocab  # readout token
    marks = rng.integers(1, length, size=count)
    labels = tokens[np.arange(count), marks]
    return tokens, marks, labels


def _eval_transformer(model, tokens, marks, labels) -> dict:
    logits = model(tokens, marks)
    loss = ad.cross_entropy(logits, labels).item()
    acc = float((logits.data.argmax(axis=1) == labels).mean())
    return {"loss": loss, "accuracy": acc}


def run_transformer_toy(config: ExperimentConfig) -> RunRecord:
    t = config.task
    data_rng = stream_rng(config.seed, "data")
    train_tokens, train_marks, train_labels = _gen_copy_batch(data_rng, t.train_count, t.train_len, t.vocab)
    eval_rng = stream_rng(config.seed, "evaluation")
    splits = {
        "in_dist": _gen_copy_batch(eval_rng, t.eval_count, t.train_len, t.vocab),
        "ood_test": _gen_copy_batch(eval_rng, t.eval_count, min(t.test_len, t.max_len), t.vocab),
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
    params = model.parameters() + ([quantizer.codebook.entries] if quantizer else [])

    def loss_fn(idx):
        return ad.cross_entropy(model(train_tokens[idx], train_marks[idx]), train_labels[idx])

    epochs = _train_loop(config, quantizer, params, len(train_tokens), loss_fn)
    with _evaluation(quantizer, params):
        final = {name: _eval_transformer(model, *data) for name, data in splits.items()}
    return RunRecord(config=config.to_dict(), epochs=epochs, final=final, wall_time=0.0, quantizer=quantizer)


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


def bounds_row(inputs: theory.BoundInputs) -> dict:
    """The inputs and the four bound calculators, in ``ANALYSIS_COLUMNS["bounds"]`` order."""
    return {
        **{name: getattr(inputs, name) for name in _BOUND_INPUT_COLUMNS},
        "bound_with": theory.bound_with_discretization(inputs),
        "bound_without": theory.bound_without_discretization(inputs),
        "covering_with": theory.covering_bound_with(inputs),
        "covering_without": theory.covering_bound_without(inputs),
    }


def run_bounds(config: ExperimentConfig) -> RunRecord:
    t = config.task
    q = config.quantizer
    inputs = theory.BoundInputs(
        G=q.G,
        L=q.L,
        m=t.bound_m,
        n=t.bound_n,
        delta=t.delta,
        alpha=t.alpha,
        varsigma_bar=t.varsigma_bar,
        R_H=t.R_H,
        zeta=t.zeta,
        C_J=t.C_J,
        L_d=t.L_d,
        rho=t.rho,
    )
    return RunRecord(config=config.to_dict(), epochs=[], final=bounds_row(inputs), wall_time=0.0)


def hoeffding_final(rec: theory.TrialRecord) -> dict:
    """One row per trial (``ANALYSIS_COLUMNS["hoeffding"]``) plus the summary."""
    trials = [
        {"trial": i, "gap": float(g), "bound": rec.bound, "violated": bool(v)}
        for i, (g, v) in enumerate(zip(rec.gaps, rec.violated))
    ]
    return {
        "trials": trials,
        "violation_rate": rec.violation_rate,
        "bound": rec.bound,
        "cell_count": rec.cell_count,
    }


def run_hoeffding(config: ExperimentConfig) -> RunRecord:
    t = config.task
    q = config.quantizer
    rec = theory.verify_hoeffding(
        L=q.L, G=q.G, d=t.hoeffding_d, n=t.hoeffding_n, delta=t.delta, trials=t.hoeffding_trials, seed=config.seed
    )
    return RunRecord(config=config.to_dict(), epochs=[], final=hoeffding_final(rec), wall_time=0.0)


_RUNNERS = {
    "adding": run_adding,
    "gridworld": run_gridworld,
    "transformer-toy": run_transformer_toy,
    "gaussian-analysis": run_gaussian_analysis,
    "bounds": run_bounds,
    "hoeffding": run_hoeffding,
}


def run(config: ExperimentConfig) -> RunRecord:
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
    """Cartesian product over (L, G, seed); invalid cells are skipped with a
    logged warning. Returns (records, skipped, aggregate rows)."""
    records, skipped, rows = [], [], []
    metric_cols = METRIC_COLUMNS.get(base.kind)
    if metric_cols is None:
        raise ConfigError(f"sweep supports training kinds, not {base.kind!r}")
    m = quantizer_dim(base)
    for L in L_values:
        for G in G_values:
            if base.quantizer.discretize and m % G != 0:
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
                cfg = config_from_dict(cfg_dict)
                record = run(cfg)
                records.append(record)
                for split, metrics in record.final.items():
                    rows.append({"L": L, "G": G, "seed": seed, "split": split, **metrics})
    return records, skipped, rows


def emit_sweep(out: str, base: ExperimentConfig, rows: list[dict], skipped: list[dict]) -> None:
    metric_cols = METRIC_COLUMNS[base.kind]
    columns = ["L", "G", "seed", "split"] + [c for c in metric_cols if c != "split"]
    emit_csv(f"{out}_sweep.csv", rows, columns)
    emit_json(f"{out}_sweep.json", {"config": base.to_dict(), "skipped": skipped, "rows": rows})
