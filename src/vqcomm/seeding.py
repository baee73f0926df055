"""Root-seed splitting into keyed, order-independent streams.

Every generator is ``default_rng(SeedSequence(entropy=root, spawn_key=key))``
(``keyed_rng``). Named streams put a fixed per-name id first in the key, so
adding a new experiment or reordering calls never perturbs another stream.
"""

from __future__ import annotations

import numpy as np

STREAM_IDS = {
    "data": 0,
    "init": 1,
    "training": 2,
    "evaluation": 3,
    "codebook": 4,
    "gumbel": 5,
}


def keyed_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Generator of ``SeedSequence(entropy=root_seed, spawn_key=key)``; no key is the root seed's own stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed, spawn_key=key))


def stream_rng(root_seed: int, stream: str, *extra: int) -> np.random.Generator:
    if stream not in STREAM_IDS:
        raise KeyError(f"unknown seed stream {stream!r}; known: {sorted(STREAM_IDS)}")
    return keyed_rng(root_seed, STREAM_IDS[stream], *extra)
