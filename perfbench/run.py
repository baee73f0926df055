"""vqcomm benchmark: run one workload, check its outputs, print every metric.

    python3 perfbench/run.py --workload adding-vq --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --report [--seed 0] [--seconds 1]

With ``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` a traced run gives the per-layer metrics. ``--report`` runs
every workload both ways and adds tracing overhead, the derived ROADMAP
figures and the record hashes. Each run is a fresh process from this
checkout's ``src`` (see worker.py), one at a time, with BLAS threads capped
at the number of usable cores. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS, PER_LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

WORKLOAD_NAMES = ("adding-vq", "adding-base", "gridworld-vq", "analysis")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_PROBES = 5  # extra processes per untraced measurement that stop at the end of set-up
CHILD_TIMEOUT_S = 170


def blas_threads() -> int:
    """The cap on BLAS threads: the cores this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


def env_stamp(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run the worker once and return its JSON result (``error`` on failure)."""
    threads = str(blas_threads())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    t0 = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run timed out after {CHILD_TIMEOUT_S} s", "wall_s": time.monotonic() - t0}
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"exit {proc.returncode} without a result: {proc.stderr.strip()[-2000:]}"}
    result["wall_s"] = wall
    return result


def repeat(workload: str, seed: int, mode: str, seconds: float) -> list[dict]:
    """Runs one after another while another run still fits in ``seconds``; at least one."""
    start = time.monotonic()
    results = []
    while True:
        results.append(spawn(workload, seed, mode))
        elapsed = time.monotonic() - start
        if elapsed + results[-1]["wall_s"] > seconds:
            return results


def failures(results: list[dict], exact: list[str] = ()) -> list[str]:
    """Why each failed result failed: it raised, its outputs are wrong, or it
    disagrees with the first good run of the same seed (record hash, counts)."""
    notes = []
    reference = None
    for i, r in enumerate(results):
        if "error" in r:
            notes.append(f"run {i}: {r['error'].strip().splitlines()[-1]}")
            continue
        if r.get("problems"):
            notes.append(f"run {i}: " + "; ".join(r["problems"]))
            continue
        if "hash" not in r:
            continue
        if reference is None:
            reference = r
            continue
        layers, ref_layers = r.get("layers", {}), reference.get("layers", {})
        changed = [k for k in exact if k in layers and k in ref_layers and layers[k] != ref_layers[k]]
        if r["hash"] != reference["hash"]:
            notes.append(f"run {i}: record hash {r['hash'][:12]} differs from {reference['hash'][:12]}")
        elif changed:
            notes.append(f"run {i}: counts differ between traced runs: {changed}")
    return notes


def _ok(results: list[dict]) -> list[dict]:
    return [r for r in results if "error" not in r and not r.get("problems")]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure_untraced(workload: str, seed: int, seconds: float) -> dict:
    probes = [spawn(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    runs = repeat(workload, seed, "run", seconds)
    results = probes + runs
    good = _ok(runs)
    metrics = {name: _median(r[name] for r in good) for name in END_TO_END_UNITS}
    metrics["setup_s"] = _median(r["setup_s"] for r in _ok(results))
    return _summary(results, failures(results), metrics, END_TO_END_UNITS, runs=len(runs))


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    span_runs = repeat(workload, seed, "spans", seconds)
    memory_run = spawn(workload, seed, "memory")
    results = span_runs + [memory_run]
    good = _ok(span_runs)
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in PER_LAYER_UNITS:
        values = [r["layers"][name] for r in good if name in r["layers"]]
        if values:
            metrics[name] = values[0] if name in EXACT_COUNTS else _median(values)
    if _ok([memory_run]):
        metrics.update(memory_run["layers"])
    spans_files = sorted({r["spans_file"] for r in good})
    notes = failures(results, EXACT_COUNTS)
    return _summary(results, notes, metrics, PER_LAYER_UNITS, runs=len(span_runs), spans=spans_files)


def _summary(results, notes, metrics, units, **extra) -> dict:
    hashes = sorted({r["hash"] for r in _ok(results) if "hash" in r})
    return {
        "attempted": len(results),
        "failed": len(notes),
        "notes": notes,
        "hashes": hashes,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        **extra,
    }


def print_summary(workload: str, seed: int, trace: int, summary: dict) -> None:
    kind = "traced" if trace else "untraced"
    print(f"{workload} seed {seed} {kind}: {summary['attempted']} processes, {summary['runs']} measured runs")
    for name, m in summary["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    rate = summary["failed"] / summary["attempted"]
    print(f"  {'error_rate':<36} {rate:>16.6g} share ({summary['failed']} failed of {summary['attempted']})")
    for note in summary["notes"]:
        print(f"  FAILED {note}")
    for h in summary["hashes"]:
        print(f"  record hash {h}")
    for path in summary.get("spans", []):
        print(f"  spans written to {path}")


def result_line(summary: dict) -> str:
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": summary["metrics"],
        }
    )


def report(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, with the derived lines."""
    print("env " + json.dumps(env_stamp(seed)))
    untraced, traced = {}, {}
    for name in WORKLOAD_NAMES:
        untraced[name] = measure_untraced(name, seed, seconds)
        print_summary(name, seed, 0, untraced[name])
        traced[name] = measure_traced(name, seed, seconds)
        print_summary(name, seed, 1, traced[name])

    def value(table, workload, metric):
        return table[workload]["metrics"][metric]["value"]

    print("tracing overhead (traced trace.run_s - untraced run_s), and traced self-time accounting:")
    for name in WORKLOAD_NAMES:
        traced_run = value(traced, name, "trace.run_s")
        layer_sum = sum(
            value(traced, name, m)
            for m, unit in PER_LAYER_UNITS.items()
            if unit == "s" and m != "trace.run_s"
        )
        print(
            f"  {name:<14} overhead {traced_run - value(untraced, name, 'run_s'):+.3f} s; "
            f"self times + remainder {layer_sum:.3f} s vs traced run_s {traced_run:.3f} s"
        )
    vq, base = value(untraced, "adding-vq", "run_s"), value(untraced, "adding-base", "run_s")
    print(f"derived: VQ overhead adding-vq/adding-base run_s - 1 = {vq / base - 1:.1%} (ROADMAP item 2 target < 30%)")
    growth = value(traced, "adding-vq", "runner.live_mb_growth_per_batch")
    print(f"derived: adding-vq live memory growth = {growth:.1f} MB/batch (ROADMAP item 3 target: no growth)")
    print(f"record hashes, seed {seed} (see perfbench/README.md for the config behind each workload):")
    for name in WORKLOAD_NAMES:
        hashes = sorted(set(untraced[name]["hashes"] + traced[name]["hashes"]))
        print(f"  {name:<14} {' '.join(hashes) or 'none'}")
    failed = sum(s["failed"] for s in [*untraced.values(), *traced.values()])
    print(f"error_rate over the report: {failed} failed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0, help="measure this long (at least one run)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true", help="run every workload untraced and traced")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vqcomm" / "__init__.py").is_file():
        print(f"error: no vqcomm package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --report")
    print("env " + json.dumps(env_stamp(args.seed)))
    measure = measure_traced if args.trace else measure_untraced
    summary = measure(args.workload, args.seed, args.seconds)
    print_summary(args.workload, args.seed, args.trace, summary)
    print(result_line(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
