"""Run one of the paper's multi-seed OOD studies, as ``vqcomm.protocols.STUDIES`` defines them.

Trains every seed of each named arm (all arms when none is named), writes
``STEM.csv`` with one row per (arm, seed, split) and prints each run's
reported value, then each arm's median.

    python3 scripts/ood_study.py adding                                 # five arms, 10 seeds
    python3 scripts/ood_study.py adding baseline communication_result   # only these arms
    python3 scripts/ood_study.py gridworld --seeds 1 --out grid
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vqcomm.protocols import STUDIES  # noqa: E402
from vqcomm.runner import emit_csv, run, split_columns, split_rows  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("study", choices=STUDIES)
    ap.add_argument("arms", nargs="*", metavar="ARM", help="arms to run (default: all)")
    ap.add_argument("--seeds", type=int, help="seeds 0..N-1 (default: the study's count)")
    ap.add_argument("--out", help="CSV stem (default: STUDY_ood)")
    args = ap.parse_args(argv)
    study = STUDIES[args.study]
    unknown = [arm for arm in args.arms if arm not in study.arms]
    if unknown:
        ap.error(f"unknown arm(s) {', '.join(unknown)} of {args.study}; choose from {', '.join(study.arms)}")
    seeds = study.seeds if args.seeds is None else args.seeds
    if seeds < 1:
        ap.error(f"--seeds must be positive, got {seeds}")
    out = args.out or f"{args.study}_ood"
    # every config is built, and so checked, before the first run
    configs = {arm: [study.arms[arm](seed) for seed in range(seeds)] for arm in args.arms or study.arms}

    rows = []
    for arm, arm_configs in configs.items():
        for config in arm_configs:
            final = run(config).final
            rows += split_rows({"arm": arm, "seed": config.seed}, final)
            print(f"{arm} seed {config.seed}: {study.split} {study.metric}={final[study.split][study.metric]:.4f}")

    kind = next(iter(configs.values()))[0].kind
    emit_csv(f"{out}.csv", rows, split_columns(kind, ["arm", "seed"]))
    for arm in configs:
        values = [r[study.metric] for r in rows if r["arm"] == arm and r["split"] == study.split]
        print(f"{arm}: median {study.split} {study.metric} = {np.median(values):.4f}")
    print(f"wrote {out}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
