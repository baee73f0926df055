"""Print the seed-0 record hash of every protocol run a pure refactor must keep.

Each line is ``<name> <sha256>``: the four benchmark workloads, the three
other arms of the adding ablation and the transformer toy task with and
without quantization. The hash is ``record_hash`` of ``perfbench/workloads.py``
(canonical run JSON without wall-clock fields), so a refactor that leaves
every line unchanged leaves every record byte-identical.

    python3 scripts/record_hashes.py              # all nine, about a minute
    python3 scripts/record_hashes.py adding-vq    # only the named runs
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from vqcomm import protocols  # noqa: E402
from vqcomm.config import config_from_dict  # noqa: E402
from vqcomm.runner import run  # noqa: E402
from workloads import WORKLOADS, record_hash  # noqa: E402


def _transformer(discretize: bool):
    return config_from_dict({"kind": "transformer-toy", "seed": 0, "quantizer": {"discretize": discretize, "G": 2}})


RUNS = {
    **{name: (lambda w=w: w.configs(0)) for name, w in WORKLOADS.items()},
    **{
        f"adding-{arm}": (lambda arm=arm: [protocols.STUDIES["adding"].arms[arm](0)])
        for arm in ("gumbel", "communication_input", "recurrent_update")
    },
    "transformer-base": lambda: [_transformer(False)],
    "transformer-vq": lambda: [_transformer(True)],
}


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in RUNS]
    if unknown:
        print(f"unknown run(s) {', '.join(unknown)}; choose from {', '.join(RUNS)}", file=sys.stderr)
        return 2
    for name in names or RUNS:
        print(name, record_hash([run(config) for config in RUNS[name]()]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
