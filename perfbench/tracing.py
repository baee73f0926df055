"""Instrumentation installed from outside the vqcomm package.

Nothing under ``src/`` knows about the benchmark. Functions are replaced,
for the length of a run, in every ``vqcomm`` module that binds them, so a
call through ``vqcomm.models.common.quantize`` is seen as well as one
through ``vqcomm.quantizer.quantize``. Methods are replaced on their class.

Three recorders share this mechanism:

- ``Milestones`` (untraced runs): the end of set-up, the training window
  and the optimizer step count, from a handful of calls per batch.
- ``Tracer`` (traced runs): a span around every call into a layer, kept in
  memory, plus counts read where the work happens.
- ``MemoryProbe`` (memory-traced runs): live traced memory at every
  backward pass, so growth within an epoch shows.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc

# (span name, places the layer's public functions are defined). A call that
# enters a layer from inside the same layer stays in the outer span.
LAYERS = [
    ("autodiff.backward", ["vqcomm.autodiff:backward"]),
    ("quantizer.quantize", ["vqcomm.quantizer:quantize", "vqcomm.quantizer:gumbel_quantize"]),
    ("quantizer.aux_loss", ["vqcomm.quantizer:combined_aux_loss"]),
    ("quantizer.kmeans", ["vqcomm.quantizer:kmeans_init"]),
    ("models.rim_step", ["vqcomm.models.rim:rim_step", "vqcomm.models.rim:rim_step_detailed"]),
    ("models.gnn_step", ["vqcomm.models.gnn:gnn_step"]),
    ("nn.gru", ["vqcomm.nn:StackedGRU.__call__"]),
    ("nn.mlp", ["vqcomm.nn:MLP.__call__"]),
    ("optim.step", ["vqcomm.optim:Adam.step", "vqcomm.optim:SGD.step"]),
    ("optim.clip", ["vqcomm.optim:clip_global_norm"]),
    ("tasks.gen", ["vqcomm.tasks:gen_adding", "vqcomm.tasks:gen_gridworld_episodes"]),
    ("tasks.rank", ["vqcomm.tasks:rank_next_state"]),
    ("theory.variance_sweep", ["vqcomm.theory:gaussian_variance_sweep"]),
    ("theory.hoeffding", ["vqcomm.theory:verify_hoeffding"]),
    ("theory.attention", ["vqcomm.theory:attention_robustness"]),
]

# Entry points of the analysis kinds; the first call into one ends set-up.
THEORY_ENTRIES = [place for name, places in LAYERS if name.startswith("theory.") for place in places]

ROOT_SPAN = "run"
TAPE_WALK_SPAN = "trace.tape_walk"


def _count_name(layer: str) -> str:
    return "optim.steps" if layer == "optim.step" else f"{layer}_calls"


# Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer, _ in LAYERS},
    **{_count_name(layer): "count" for layer, _ in LAYERS},
    "autodiff.tape_nodes_per_step": "nodes/step",
    "quantizer.heads_snapped": "count",
    "quantizer.codes_used_ratio": "ratio",
    "runner.final_task_loss": "loss",
    "runner.traced_peak_mb": "MB",
    "runner.live_mb_growth_per_batch": "MB/batch",
    "trace.run_s": "s",
    "trace.tape_walk_s": "s",
    "trace.remainder_s": "s",
}

# Per-layer metrics that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = sorted(
    [_count_name(layer) for layer, _ in LAYERS]
    + ["autodiff.tape_nodes_per_step", "quantizer.heads_snapped", "quantizer.codes_used_ratio"]
)


class SetupReached(Exception):
    """Raised by a set-up probe at the first training step or analysis call."""


class Patches:
    """Replace functions for the length of a ``with`` block."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def wrap(self, place: str, make) -> None:
        """Replace ``module:attr`` (or ``module:Class.method``) by ``make(original)``."""
        module_name, _, path = place.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = make(original)
        if outer:
            self._set(owner, attr, wrapped)
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("vqcomm"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def tape_size(loss) -> int:
    """Tape nodes (tensors with a backward closure) reachable from ``loss``."""
    seen = {id(loss)}
    stack = [loss]
    nodes = 0
    while stack:
        t = stack.pop()
        if getattr(t, "_backward", None) is not None:
            nodes += 1
        for p in getattr(t, "_parents", ()):
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


# ---------------------------------------------------------------------------
# untraced runs
# ---------------------------------------------------------------------------


class Milestones:
    """Timestamps (``time.monotonic``) an untraced run needs, from a few wrappers.

    ``setup_end``: first backward pass or first analysis call.
    ``train_start``: first backward pass. ``last_step_end``: end of the last
    optimizer step. With ``stop_at_setup`` the run is abandoned at set-up end.
    """

    def __init__(self, stop_at_setup: bool = False):
        self.stop_at_setup = stop_at_setup
        self.setup_end: float | None = None
        self.train_start: float | None = None
        self.last_step_end: float | None = None
        self.steps = 0

    def install(self, patches: Patches) -> None:
        patches.wrap("vqcomm.autodiff:backward", functools.partial(self._entry, training=True))
        for place in THEORY_ENTRIES:
            patches.wrap(place, functools.partial(self._entry, training=False))
        for place in dict(LAYERS)["optim.step"]:
            patches.wrap(place, self._step)

    def _entry(self, fn, training: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = time.monotonic()
            if self.setup_end is None:
                self.setup_end = now
                if self.stop_at_setup:
                    raise SetupReached
            if training and self.train_start is None:
                self.train_start = now
            return fn(*args, **kwargs)

        return wrapper

    def _step(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.last_step_end = time.monotonic()
            self.steps += 1
            return out

        return wrapper


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent) around calls into each layer."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.tape_nodes: list[int] = []
        self.heads_snapped = 0
        self.last_usage = None  # codebook usage of the latest epoch

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def install(self, patches: Patches) -> None:
        for name, places in LAYERS:
            for place in places:
                patches.wrap(place, functools.partial(self._span, name))
        patches.wrap("vqcomm.quantizer:codebook_stats", self._usage)

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if name == "autodiff.backward":
                walk = self.open(TAPE_WALK_SPAN)
                self.tape_nodes.append(tape_size(args[0]))
                self.close(walk)
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if name == "quantizer.quantize":
                self.heads_snapped += out.indices.size
            return out

        return wrapper

    def _usage(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = fn(*args, **kwargs)
            self.last_usage = stats.usage
            return stats

        return wrapper

    def metrics(self) -> dict:
        """Per-layer self time and counts; the root span must be closed."""
        totals = layer_totals(self.spans)
        out = {}
        for layer, _ in LAYERS:
            self_s, calls = totals.get(layer, (0.0, 0))
            out[f"{layer}_s"] = self_s
            out[_count_name(layer)] = calls
        out["autodiff.tape_nodes_per_step"] = (
            sum(self.tape_nodes) / len(self.tape_nodes) if self.tape_nodes else 0.0
        )
        out["quantizer.heads_snapped"] = self.heads_snapped
        usage = self.last_usage
        out["quantizer.codes_used_ratio"] = float((usage > 0).sum() / len(usage)) if usage is not None else 0.0
        out["trace.tape_walk_s"] = totals.get(TAPE_WALK_SPAN, (0.0, 0))[0]
        out["trace.remainder_s"] = totals[ROOT_SPAN][0]  # run time inside no layer's span
        _, start, end, _ = self.spans[0]  # the root span covers the whole run
        out["trace.run_s"] = end - start
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` holds (name, start, end, parent index or -1). Spans come from
    one thread, so children nest inside their parent and do not overlap.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans) -> dict[str, tuple[float, int]]:
    """Span name -> (summed self time, span count)."""
    totals: dict[str, tuple[float, int]] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        s, n = totals.get(name, (0.0, 0))
        totals[name] = (s + own, n + 1)
    return totals


# ---------------------------------------------------------------------------
# memory-traced runs
# ---------------------------------------------------------------------------


class MemoryProbe:
    """Live traced memory at the start of every backward pass.

    Consecutive backward calls within one epoch (``steps_per_epoch`` calls)
    give the growth per batch; the median over them is reported.
    """

    def __init__(self, steps_per_epoch: int):
        self.steps_per_epoch = steps_per_epoch
        self.live: list[int] = []

    def install(self, patches: Patches) -> None:
        patches.wrap("vqcomm.autodiff:backward", self._backward)

    def _backward(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.live.append(tracemalloc.get_traced_memory()[0])
            return fn(*args, **kwargs)

        return wrapper

    def growth_per_batch_mb(self) -> float:
        diffs = [
            (self.live[i] - self.live[i - 1]) / 2**20
            for i in range(1, len(self.live))
            if i % self.steps_per_epoch != 0
        ]
        return statistics.median(diffs) if diffs else 0.0
