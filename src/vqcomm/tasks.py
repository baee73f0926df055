"""Desk-scale data generators and evaluation metrics for the OOD studies.

Two task families: summing two marked values in a sequence padded with
dummy gap tokens (the OOD knob is the gap length), and a grid world where
pushed objects move unless blocked by a wall or another object (the OOD
knob is the object count). Plus the transformer's copy task and HITS@k /
MRR ranking metrics. Every generator returns the arrays the models take.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quantizer import _require_finite, distance_screen, screen_side

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


def gen_adding(
    count: int,
    seq_len: int,
    gap_len: int,
    rng: np.random.Generator,
    max_value: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequences of uniform values with two marked positions and a dummy tail.

    Returns ``inputs`` (count, seq_len + gap_len, 2), a (value, marker) pair
    per step with both zero over the gap, and ``targets`` (count, 1), the sum
    of each sequence's marked values.
    """
    if seq_len < 1:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    if gap_len < 0:
        raise ValueError(f"gap_len must be non-negative, got {gap_len}")
    n_marks = 2 if seq_len >= 2 else 1
    inputs = np.zeros((count, seq_len + gap_len, 2))
    targets = np.zeros((count, 1))
    for i in range(count):
        values = rng.uniform(0.0, max_value, size=seq_len)
        marked = rng.choice(seq_len, size=n_marks, replace=False)
        inputs[i, :seq_len, 0] = values
        inputs[i, marked, 1] = 1.0
        targets[i, 0] = values[marked].sum()
    return inputs, targets


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


def gen_gridworld_episodes(
    num_objects: int,
    grid_size: int,
    steps: int,
    episodes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random rollouts: per step one random object is pushed in a random direction.

    Returns ``(obs, act, nxt)`` over the ``episodes * steps`` transitions:
    the positions before each step and after it, each (count, num_objects, 2)
    through ``encode_positions``, and the actions, (count, num_objects, 5)
    through ``encode_actions``.
    """
    if num_objects > grid_size * grid_size:
        raise ValueError(f"cannot place {num_objects} objects on a {grid_size}x{grid_size} grid")
    before, actions, after = [], [], []
    cells = grid_size * grid_size
    for _ in range(episodes):
        flat = rng.choice(cells, size=num_objects, replace=False)
        positions = [(int(p) // grid_size, int(p) % grid_size) for p in flat]
        for _ in range(steps):
            step_actions = ["none"] * num_objects
            mover = int(rng.integers(num_objects))
            step_actions[mover] = DIRECTIONS[int(rng.integers(4))]
            before.append(positions)
            actions.append(step_actions)
            positions = gridworld_transition(GridWorldState(grid_size, positions, step_actions))
            after.append(positions)
    shape = (len(before), num_objects)
    return (
        encode_positions(before, grid_size).reshape(*shape, 2),
        encode_actions(actions).reshape(*shape, len(DIRECTIONS)),
        encode_positions(after, grid_size).reshape(*shape, 2),
    )


def encode_positions(positions, grid_size: int) -> np.ndarray:
    """(row, col) pairs scaled to [0, 1]^2; the model-facing object state."""
    arr = np.asarray(positions, dtype=np.float64)
    return arr / max(grid_size - 1, 1)


def encode_actions(actions) -> np.ndarray:
    """One-hot over the five push directions, per direction name (any nesting)."""
    return np.eye(len(DIRECTIONS))[np.vectorize(DIRECTIONS.index, otypes=[np.intp])(actions)]


def gen_copy_batch(rng: np.random.Generator, count: int, length: int, vocab: int):
    """Copy task for the transformer: ``(tokens, marks, labels)``.

    Position 0 is the readout slot; one marked position holds the target.
    """
    tokens = rng.integers(0, vocab, size=(count, length))
    tokens[:, 0] = vocab  # readout token
    marks = rng.integers(1, length, size=count)
    labels = tokens[np.arange(count), marks]
    return tokens, marks, labels


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------


def hits_at_k(rankings, k: int) -> float:
    ranks = np.asarray(rankings)
    if ranks.size == 0:
        raise ValueError("hits_at_k: empty rankings")
    return float((ranks <= k).mean())


def mrr(rankings) -> float:
    ranks = np.asarray(rankings, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("mrr: empty rankings")
    return float((1.0 / ranks).mean())


# A ranking block scores at most this many candidate x row pairs, and
# compares its near pairs this many floats (pairs x features) at a time.
RANK_BLOCK_FLOATS = 2**17


def rank_next_state(predicted, candidates, true_index):
    """Rank of each row's true candidate by squared distance; ties count against it.

    ``predicted`` (N, F) is ranked against ``candidates`` (K, F), row i
    against its true candidate ``true_index[i]``; the result is (N,) ranks.
    A single (F,) ``predicted`` with an int ``true_index`` gives one int.
    The rank is 1 plus the number of other candidates j whose distance
    ``((candidates[j] - predicted[i]) ** 2).sum()`` is at most the true
    one's. ``distance_screen`` settles every pair whose scores differ by
    more than its tolerance; the rest, and every row outside its range, are
    compared by those exact sums. Rows go in blocks whose (K, rows) scores
    hold at most ``RANK_BLOCK_FLOATS`` floats, all screened against one
    ``screen_side`` of the candidates, and a block compares its near pairs
    in chunks of at most ``RANK_BLOCK_FLOATS`` floats, so memory stays
    bounded when every pair is near. Non-finite input raises
    ``FloatingPointError``.
    """
    preds = np.asarray(predicted, dtype=np.float64)
    cands = np.asarray(candidates, dtype=np.float64)
    true = np.asarray(true_index, dtype=np.intp)
    single = preds.ndim == 1
    preds, true = np.atleast_2d(preds), np.atleast_1d(true)
    _require_finite("ranking", preds, cands)
    ranks = np.empty(len(preds), dtype=np.int64)
    side = screen_side(cands)
    step = max(1, RANK_BLOCK_FLOATS // len(cands))
    for start in range(0, len(preds), step):
        rows = slice(start, start + step)
        ranks[rows] = _rank_block(preds[rows], cands, side, true[rows])
    return int(ranks[0]) if single else ranks


def _rank_block(preds: np.ndarray, cands: np.ndarray, side, true: np.ndarray) -> np.ndarray:
    """Ranks of one block of rows, as ``rank_next_state`` defines them; ``side`` is ``screen_side(cands)``."""
    cols = np.arange(len(preds))
    gap, tol, ok = distance_screen(preds, side)  # (K, B) scores
    with np.errstate(over="ignore", invalid="ignore"):
        gap -= gap[true, cols]  # each score minus its row's true score
        below = gap < -tol
        near = np.abs(gap, out=gap) <= tol
    del gap  # freed before the near pairs are compared
    below[:, ~ok] = False  # the screen cannot judge these rows: every pair is exact
    near[:, ~ok] = True
    near[true, cols] = False
    pairs = np.flatnonzero(near)
    against = np.zeros(len(preds), dtype=np.int64)
    chunk = max(1, RANK_BLOCK_FLOATS // (2 * cands.shape[1]))  # cands[j] and preds[i]
    with np.errstate(over="ignore"):
        d_true = ((cands[true] - preds) ** 2).sum(axis=1)
        for start in range(0, len(pairs), chunk):
            j, i = np.divmod(pairs[start : start + chunk], len(preds))
            diff = cands[j]
            diff -= preds[i]
            d_pair = np.square(diff, out=diff).sum(axis=1)
            against += np.bincount(i[d_pair <= d_true[i]], minlength=len(preds))
    return 1 + below.sum(axis=0) + against
