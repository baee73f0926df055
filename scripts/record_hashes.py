"""Check the seed-0 record hash of every protocol run a pure refactor must keep.

Each line is ``<name> <sha256> ok|CHANGED``: the four benchmark workloads,
the three other arms of the adding ablation, the baseline arm of the grid
world study and the transformer toy task with and without quantization,
against ``REFERENCE``. The hash is
``record_hash`` of ``perfbench/workloads.py`` (canonical run JSON without
wall-clock fields), so a refactor that leaves every line ``ok`` leaves every
record byte-identical. The exit status is 1 if any line changed. A change
that means to move a record updates ``REFERENCE`` in its own diff.

    python3 scripts/record_hashes.py              # all ten, about a minute
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
    "gridworld-base": lambda: [protocols.STUDIES["gridworld"].arms["baseline"](0)],
    "transformer-base": lambda: [_transformer(False)],
    "transformer-vq": lambda: [_transformer(True)],
}

REFERENCE = {
    "adding-vq": "78889b8c9efb534ee3210bb47ded7216026437e39eca08514bfba143e089e014",
    "adding-base": "9aa8c8d2c135f11eb4ae32ce8848ba9c4336f3e1b1e748ea001f523080b93274",
    "gridworld-vq": "eaac8fc397ef23dd8355614b1e89fc02fbdd48c5c7139b475ac13a9b5ab9b082",
    "analysis": "0eb5726dba957089942226de0962ea06a6f1a2cd3cd865fba5bc2e8751a4a14c",
    "adding-gumbel": "281e0a5ac63934dace68360d84d30ae7139c9bf80ef233a16160005e990f6f4d",
    "adding-communication_input": "42359c6ceffc620241866278cb993504f59e686348b89fe38f8b572f830ad557",
    "adding-recurrent_update": "6f34f4434fcd05df490c56250ca3a0c1c99fb32dab8f47ae74c88452d0df6795",
    "gridworld-base": "0f3bedadc78cad01b84cd41cff735afadb60c7daf31672381b446c725b7a61bf",
    "transformer-base": "bcff90242b2cb1d06dfad12474fafdc5e77e466c6fccfcdaf5b4c6f9769d19a8",
    "transformer-vq": "a8f662abacd1d548515c5eada99b7e878ab296b0c9bbee0b7c154fa388f74a2f",
}


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in RUNS]
    if unknown:
        print(f"unknown run(s) {', '.join(unknown)}; choose from {', '.join(RUNS)}", file=sys.stderr)
        return 2
    changed = 0
    for name in names or RUNS:
        digest = record_hash([run(config) for config in RUNS[name]()])
        same = digest == REFERENCE[name]
        changed += not same
        print(name, digest, "ok" if same else "CHANGED", flush=True)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
