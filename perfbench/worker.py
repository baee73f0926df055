"""One run of one workload, in a process of its own.

    python3 perfbench/worker.py --workload adding-vq --seed 0 --mode run --t0 <time.monotonic() at spawn>

Modes:
  run     untraced run: end-to-end timings, peak RSS, record hash, output checks
  setup   stops at the first training step (or analysis call): set-up time only
  spans   traced run: per-layer self times and counts; spans go to perfbench/out/
  memory  tracemalloc run: traced peak and live growth per batch

The last line of standard output is one JSON object with the results, or
with ``error`` when the run raised.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from tracing import ROOT_SPAN, MemoryProbe, Milestones, Patches, SetupReached, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def _import_package() -> None:
    """Import vqcomm from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import vqcomm.runner

    where = Path(vqcomm.runner.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"vqcomm imported from {where}, not from {ROOT / 'src'}")


def run_once(workload, seed: int, mode: str, t0: float) -> dict:
    """Run ``workload`` once in this process; ``t0`` is the process start (monotonic)."""
    from vqcomm import runner
    from workloads import record_hash

    configs = workload.configs(seed)
    result: dict = {}
    with Patches() as patches:
        if mode in ("run", "setup"):
            marks = Milestones(stop_at_setup=mode == "setup")
            marks.install(patches)
        elif mode == "spans":
            tracer = Tracer()
            tracer.install(patches)
            tracer.open(ROOT_SPAN)
        elif mode == "memory":
            probe = MemoryProbe(workload.steps_per_epoch(configs))
            probe.install(patches)
            tracemalloc.start()
        else:
            raise ValueError(f"unknown mode {mode!r}")
        start = time.monotonic()
        try:
            records = [runner.run(c) for c in configs]
        except SetupReached:
            return {"setup_s": marks.setup_end - t0}
        end = time.monotonic()
        if mode == "spans":
            tracer.close(0)
        if mode == "memory":
            traced_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    result["hash"] = record_hash(records)
    result["problems"] = workload.check(configs, records)
    if mode == "run":
        train_s = marks.last_step_end - marks.train_start
        result.update(
            {
                "run_s": end - start,
                "setup_s": marks.setup_end - t0,
                "train_samples_per_s": workload.train_samples(configs) / train_s,
                "eval_s": end - marks.last_step_end,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    elif mode == "spans":
        result["layers"] = {**tracer.metrics(), "runner.final_task_loss": workload.final_task_loss(records)}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{workload.name}-seed{seed}.spans.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    elif mode == "memory":
        result["layers"] = {
            "runner.traced_peak_mb": traced_peak / 2**20,
            "runner.live_mb_growth_per_batch": probe.growth_per_batch_mb(),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["run", "setup", "spans", "memory"])
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was spawned")
    args = parser.parse_args(argv)
    try:
        _import_package()
        from workloads import WORKLOADS

        result = run_once(WORKLOADS[args.workload], args.seed, args.mode, args.t0)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
