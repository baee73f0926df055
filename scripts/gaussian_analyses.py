"""Gaussian-vector analyses: variance retained under quantization, the 2-D
displacement field, and attention retrieval robustness to novel distractors."""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vqcomm import theory
from vqcomm.protocols import gaussian_analysis_config
from vqcomm.quantizer import Codebook
from vqcomm.runner import ANALYSIS_COLUMNS, emit_csv, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gaussian")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    record = run(dataclasses.replace(gaussian_analysis_config(args.seed), out=args.out))

    rng = np.random.default_rng(args.seed)
    book = Codebook(5, 2, entries=rng.normal(size=(5, 2)), initialized=True)
    field = theory.vector_field(2.0, 21, book)
    emit_csv(f"{args.out}_field.csv", field, ANALYSIS_COLUMNS["field"])

    for row in record.final["variance"]:
        print(f"L={row['L']:>2} G={row['G']}: variance {row['mean_total_variance']:.3f} of {row['mean_raw_variance']:.3f}")
    disc = [r["accuracy"] for r in record.final["attention"] if r["quantized"]]
    cont = [r["accuracy"] for r in record.final["attention"] if not r["quantized"]]
    print(f"attention robustness: discretized {np.mean(disc):.3f} vs continuous {np.mean(cont):.3f}")
    print(f"wrote {args.out}.json, {args.out}_variance.csv, {args.out}_attention.csv, {args.out}_field.csv")


if __name__ == "__main__":
    main()
