"""Command-line interface.

Subcommands: run, sweep, vector-field, quantize. ``run KIND --set
section.key=value`` runs every experiment kind, the analyses (bounds,
hoeffding, gaussian-analysis) included. Exit codes: 0 success, 2
configuration error, 1 runtime failure.
``VQCOMM_LOG`` sets the log level (default WARNING).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import autodiff as ad
from . import runner, theory
from .config import ExperimentConfig, load_config, parse_assignments
from .models.common import ConfigError
from .quantizer import Codebook, QuantizerConfig, load_codebook, quantize
from .autodiff import Tensor
from .seeding import keyed_rng

log = logging.getLogger("vqcomm")


def _check_out_dir(out: str) -> None:
    """Reject an ``--out`` stem whose directory does not exist: checked before any work, not when files are written."""
    directory = os.path.dirname(out)
    if directory and not os.path.isdir(directory):
        raise ConfigError(f"out: no directory {directory!r} to write {out!r} in")


def _build_config(args) -> ExperimentConfig:
    overrides = parse_assignments(args.set or [])
    if args.kind:
        overrides["kind"] = args.kind
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["out"] = args.out
    config = load_config(args.config, overrides)
    _check_out_dir(config.out)
    return config


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", nargs="?", default=None, help="experiment kind")
    p.add_argument("--config", default=None, help="key=value or JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override (repeatable)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output path stem")


def _ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from e


def _seed(args) -> int:
    """The ``--seed`` of ``vector-field``; numpy's seed sequences take only seeds >= 0."""
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def cmd_run(args) -> int:
    config = _build_config(args)
    record = runner.run(config)
    if config.out:
        print(f"wrote {config.out}.json")
    else:
        print(runner.dumps_json(record.final))
    return 0


def cmd_sweep(args) -> int:
    config = _build_config(args)
    records, skipped, rows = runner.sweep(config, _ints(args.L), _ints(args.G), _ints(args.seeds))
    out = config.out or "sweep"
    runner.emit_sweep(out, config, rows, skipped)
    print(f"wrote {out}_sweep.csv ({len(rows)} rows, {len(skipped)} skipped)")
    return 0


def _load_codebook(path) -> tuple[Codebook, QuantizerConfig]:
    """``load_codebook`` with a malformed file reported as a config error."""
    try:
        return load_codebook(path)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def cmd_vector_field(args) -> int:
    _check_out_dir(args.out or "")
    if args.codebook:
        book, _ = _load_codebook(args.codebook)
    else:
        book = Codebook(args.L, 2, entries=keyed_rng(_seed(args)).normal(size=(args.L, 2)), initialized=True)
    rows = theory.vector_field(args.range, args.steps, book)
    if args.out:
        runner.emit_csv(f"{args.out}_field.csv", rows, runner.ANALYSIS_COLUMNS["field"])
        print(f"wrote {args.out}_field.csv")
    else:
        for row in rows:
            print(runner.dumps_json(row))
    return 0


def cmd_quantize(args) -> int:
    book, cfg = _load_codebook(args.codebook)
    with ad.no_grad([book.entries]):
        for line in sys.stdin:
            line = line.strip().replace(",", " ")
            if not line:
                continue
            try:
                vec = np.array([float(v) for v in line.split()])
            except ValueError as e:
                raise ConfigError(f"cannot parse {line!r} as numbers") from e
            if vec.size != cfg.m:
                raise ConfigError(f"expected {cfg.m} values per line, got {vec.size}")
            out = quantize(Tensor(vec), cfg, book)
            z = " ".join(format(v, ".17g") for v in out.z.data)
            idx = " ".join(str(int(i)) for i in out.indices)
            print(f"{z} | {idx}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vqcomm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one experiment")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="grid over codebook size and head count")
    _add_config_flags(p)
    p.add_argument("--L", default="16,64", help="comma-separated codebook sizes")
    p.add_argument("--G", default="1,8", help="comma-separated head counts")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("vector-field", help="displacement field of 2-D snapping")
    p.add_argument("--codebook", default=None, help=".vqcb codebook file with 2-D codes")
    p.add_argument("--L", type=int, default=5, help="random codebook size when no file given")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_vector_field)

    p = sub.add_parser("quantize", help="one-shot codebook lookup on stdin vectors")
    p.add_argument("--codebook", required=True, help=".vqcb codebook file, as written by run --out")
    p.set_defaults(fn=cmd_quantize)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("VQCOMM_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        log.exception("run failed")
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
