"""Desk-scale data generators and evaluation metrics for the OOD studies.

Two task families: summing two marked values in a sequence padded with
dummy gap tokens (the OOD knob is the gap length), and a grid world where
pushed objects move unless blocked by a wall or another object (the OOD
knob is the object count). Plus HITS@k / MRR ranking metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DIRECTIONS = ("up", "down", "left", "right", "none")
_MOVES = {
    "up": (-1, 0),
    "down": (1, 0),
    "left": (0, -1),
    "right": (0, 1),
    "none": (0, 0),
}


# ---------------------------------------------------------------------------
# adding task
# ---------------------------------------------------------------------------


@dataclass
class AddingSample:
    """(value, marker) sequence whose target is the sum of marked values."""

    values: np.ndarray  # (T,), zeros beyond seq_len
    markers: np.ndarray  # (T,), two ones among the first seq_len entries
    target: float
    gap_len: int

    @property
    def inputs(self) -> np.ndarray:
        return np.stack([self.values, self.markers], axis=1)


def gen_adding(
    count: int,
    seq_len: int,
    gap_len: int,
    seed: int | np.random.Generator,
    max_value: float = 1.0,
) -> list[AddingSample]:
    """Sequences of uniform values with two marked positions and a dummy tail."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    if gap_len < 0:
        raise ValueError(f"gap_len must be non-negative, got {gap_len}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    samples = []
    n_marks = 2 if seq_len >= 2 else 1
    T = seq_len + gap_len
    for _ in range(count):
        values = np.zeros(T)
        markers = np.zeros(T)
        values[:seq_len] = rng.uniform(0.0, max_value, size=seq_len)
        marked = rng.choice(seq_len, size=n_marks, replace=False)
        markers[marked] = 1.0
        samples.append(
            AddingSample(
                values=values,
                markers=markers,
                target=float(values[marked].sum()),
                gap_len=gap_len,
            )
        )
    return samples


# ---------------------------------------------------------------------------
# grid world
# ---------------------------------------------------------------------------


@dataclass
class GridWorldState:
    grid_size: int
    positions: list[tuple[int, int]]
    actions: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("object positions must be pairwise distinct")
        for r, c in self.positions:
            if not (0 <= r < self.grid_size and 0 <= c < self.grid_size):
                raise ValueError(f"position ({r}, {c}) outside {self.grid_size}x{self.grid_size} grid")
        for a in self.actions:
            if a not in DIRECTIONS:
                raise ValueError(f"unknown action {a!r}")


def gridworld_transition(state: GridWorldState) -> list[tuple[int, int]]:
    """Move each object one cell in its action direction, in index order.

    A move is cancelled when the destination is off-grid or occupied by any
    other object at that moment (earlier objects have already moved).
    """
    pos = list(state.positions)
    occupied = set(pos)
    for i, action in enumerate(state.actions):
        dr, dc = _MOVES[action]
        if dr == 0 and dc == 0:
            continue
        r, c = pos[i]
        dest = (r + dr, c + dc)
        if not (0 <= dest[0] < state.grid_size and 0 <= dest[1] < state.grid_size):
            continue
        if dest in occupied:
            continue
        occupied.remove(pos[i])
        occupied.add(dest)
        pos[i] = dest
    return pos


@dataclass
class GridWorldTransition:
    positions: list[tuple[int, int]]
    actions: list[str]
    next_positions: list[tuple[int, int]]


def gen_gridworld_episodes(
    num_objects: int,
    grid_size: int,
    steps: int,
    episodes: int,
    seed: int | np.random.Generator,
) -> list[GridWorldTransition]:
    """Random rollouts: per step one random object is pushed in a random direction."""
    if num_objects > grid_size * grid_size:
        raise ValueError(f"cannot place {num_objects} objects on a {grid_size}x{grid_size} grid")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    transitions = []
    cells = grid_size * grid_size
    for _ in range(episodes):
        flat = rng.choice(cells, size=num_objects, replace=False)
        positions = [(int(p) // grid_size, int(p) % grid_size) for p in flat]
        for _ in range(steps):
            actions = ["none"] * num_objects
            mover = int(rng.integers(num_objects))
            actions[mover] = DIRECTIONS[int(rng.integers(4))]
            state = GridWorldState(grid_size=grid_size, positions=positions, actions=actions)
            next_positions = gridworld_transition(state)
            transitions.append(
                GridWorldTransition(
                    positions=list(positions), actions=actions, next_positions=next_positions
                )
            )
            positions = next_positions
    return transitions


def encode_positions(positions, grid_size: int) -> np.ndarray:
    """(row, col) pairs scaled to [0, 1]^2; the model-facing object state."""
    arr = np.asarray(positions, dtype=np.float64)
    return arr / max(grid_size - 1, 1)


def encode_actions(actions) -> np.ndarray:
    """One-hot over the five push directions, per object."""
    out = np.zeros((len(actions), len(DIRECTIONS)))
    for i, a in enumerate(actions):
        out[i, DIRECTIONS.index(a)] = 1.0
    return out


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------


def hits_at_k(rankings, k: int) -> float:
    ranks = np.asarray(list(rankings))
    if ranks.size == 0:
        raise ValueError("hits_at_k: empty rankings")
    return float((ranks <= k).mean())


def mrr(rankings) -> float:
    ranks = np.asarray(list(rankings), dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("mrr: empty rankings")
    return float((1.0 / ranks).mean())


def rank_next_state(predicted_latent, candidate_latents, true_index: int = 0) -> int:
    """Rank of the true candidate by squared distance; ties count against it."""
    pred = np.asarray(predicted_latent, dtype=np.float64)
    cands = np.asarray(candidate_latents, dtype=np.float64)
    d2 = ((cands - pred) ** 2).reshape(cands.shape[0], -1).sum(axis=1)
    d_true = d2[true_index]
    others = np.delete(d2, true_index)
    return int(1 + (others <= d_true).sum())

