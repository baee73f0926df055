import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqcomm.tasks import (
    DIRECTIONS,
    GridWorldState,
    encode_actions,
    encode_positions,
    gen_adding,
    gen_gridworld_episodes,
    gridworld_transition,
    hits_at_k,
    mrr,
    rank_next_state,
)

from oracles import gridworld_step_reference, rank_by_sort


# ---------------------------------------------------------------------------
# adding task
# ---------------------------------------------------------------------------


def test_adding_arrays_have_model_shapes():
    inputs, targets = gen_adding(7, seq_len=10, gap_len=5, rng=np.random.default_rng(0))
    assert inputs.shape == (7, 15, 2) and targets.shape == (7, 1)
    assert inputs.dtype == targets.dtype == np.float64


def test_adding_target_is_sum_of_marked():
    inputs, targets = gen_adding(100, seq_len=10, gap_len=5, rng=np.random.default_rng(0))
    for x, target in zip(inputs, targets[:, 0]):
        marked = x[x[:, 1] == 1.0, 0]
        assert len(marked) == 2
        assert target == float(marked.sum())


def test_adding_all_zero_values_target_zero():
    _, targets = gen_adding(10, seq_len=5, gap_len=2, rng=np.random.default_rng(1), max_value=0.0)
    assert np.all(targets == 0.0)


def test_adding_gap_tokens_are_blank():
    inputs, _ = gen_adding(20, seq_len=8, gap_len=6, rng=np.random.default_rng(2))
    assert inputs.shape[1] == 14
    assert np.all(inputs[:, 8:] == 0.0)


def test_adding_brute_force_resummation():
    inputs, targets = gen_adding(10_000, seq_len=20, gap_len=3, rng=np.random.default_rng(3))
    for x, target in zip(inputs, targets[:, 0]):
        expect = sum(v for v, m in x if m == 1.0)
        assert target == expect


def test_adding_deterministic_per_seed():
    a = gen_adding(50, seq_len=12, gap_len=4, rng=np.random.default_rng(42))
    b = gen_adding(50, seq_len=12, gap_len=4, rng=np.random.default_rng(42))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_adding_rejects_bad_lengths():
    with pytest.raises(ValueError):
        gen_adding(1, seq_len=0, gap_len=0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        gen_adding(1, seq_len=5, gap_len=-1, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# grid world
# ---------------------------------------------------------------------------


def test_wall_blocks_move():
    state = GridWorldState(grid_size=5, positions=[(0, 0)], actions=["up"])
    assert gridworld_transition(state) == [(0, 0)]


def test_occupied_cell_blocks_move():
    state = GridWorldState(grid_size=5, positions=[(1, 1), (1, 2)], actions=["right", "none"])
    assert gridworld_transition(state) == [(1, 1), (1, 2)]


def test_vacated_cell_is_free_for_later_object():
    # object 0 moves away first; object 1 may then enter its old cell
    state = GridWorldState(grid_size=5, positions=[(1, 1), (1, 0)], actions=["right", "right"])
    assert gridworld_transition(state) == [(1, 2), (1, 1)]


def test_transition_matches_duplicate_rule_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        flat = rng.choice(25, size=n, replace=False)
        positions = [(int(p) // 5, int(p) % 5) for p in flat]
        actions = [DIRECTIONS[int(rng.integers(5))] for _ in range(n)]
        state = GridWorldState(grid_size=5, positions=positions, actions=actions)
        assert gridworld_transition(state) == gridworld_step_reference(5, positions, actions)


def test_fully_packed_grid_never_moves():
    positions = [(r, c) for r in range(2) for c in range(2)]
    for action in ("up", "down", "left", "right"):
        state = GridWorldState(grid_size=2, positions=positions, actions=[action] * 4)
        assert gridworld_transition(state) == positions


def _decode(obs, act, grid_size):
    """Integer (row, col) positions and direction names back from the encoded arrays."""
    positions = np.rint(obs * (grid_size - 1)).astype(int)
    names = [[DIRECTIONS[j] for j in row] for row in act.argmax(axis=-1)]
    return positions, names


def test_episode_generation_preserves_invariants():
    obs, act, nxt = gen_gridworld_episodes(num_objects=5, grid_size=5, steps=20, episodes=50, rng=np.random.default_rng(0))
    assert obs.shape == nxt.shape == (1000, 5, 2) and act.shape == (1000, 5, 5)
    assert np.all(act.sum(axis=-1) == 1.0)
    for enc in (obs, nxt):
        pos, _ = _decode(enc, act, 5)
        assert np.array_equal(encode_positions(pos, 5), enc)  # on the grid, exactly
        for p in pos:
            assert len({tuple(x) for x in p}) == len(p)
            assert np.all((0 <= p) & (p < 5))


def test_episode_transitions_match_push_rule_oracle():
    grid_size = 4
    obs, act, nxt = gen_gridworld_episodes(num_objects=4, grid_size=grid_size, steps=15, episodes=40, rng=np.random.default_rng(7))
    positions, actions = _decode(obs, act, grid_size)
    after, _ = _decode(nxt, act, grid_size)
    moved = 0
    for pos, acts, nxt_pos in zip(positions, actions, after):
        expect = gridworld_step_reference(grid_size, [tuple(p) for p in pos], acts)
        assert [tuple(p) for p in nxt_pos] == expect
        assert sum(a != "none" for a in acts) == 1
        moved += not np.array_equal(pos, nxt_pos)
    assert 0 < moved < len(obs)  # both free and blocked pushes occur


def test_episode_generation_rejects_overpacking():
    with pytest.raises(ValueError):
        gen_gridworld_episodes(num_objects=26, grid_size=5, steps=1, episodes=1, rng=np.random.default_rng(0))


def test_invalid_states_rejected():
    with pytest.raises(ValueError):
        GridWorldState(grid_size=5, positions=[(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        GridWorldState(grid_size=5, positions=[(5, 0)])
    with pytest.raises(ValueError):
        GridWorldState(grid_size=5, positions=[(0, 0)], actions=["sideways"])


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_transition_invariants_random(seed, n):
    rng = np.random.default_rng(seed)
    flat = rng.choice(16, size=n, replace=False)
    positions = [(int(p) // 4, int(p) % 4) for p in flat]
    actions = [DIRECTIONS[int(rng.integers(5))] for _ in range(n)]
    out = gridworld_transition(GridWorldState(grid_size=4, positions=positions, actions=actions))
    assert len(set(out)) == n
    assert all(0 <= r < 4 and 0 <= c < 4 for r, c in out)


def test_encoders():
    enc = encode_positions([(0, 0), (4, 2)], grid_size=5)
    assert enc.tolist() == [[0.0, 0.0], [1.0, 0.5]]
    one_hot = encode_actions(["up", "none"])
    assert one_hot.shape == (2, 5)
    assert one_hot[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert one_hot[1].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert encode_actions([["up", "none"], ["left", "up"]]).shape == (2, 2, 5)
    assert np.array_equal(encode_actions([["up", "none"]])[0], one_hot)
    with pytest.raises(ValueError):
        encode_actions(["sideways"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_perfect_ranks():
    assert hits_at_k([1, 1, 1], 1) == 1.0
    assert mrr([1, 1, 1]) == 1.0


def test_mrr_hand_value():
    assert abs(mrr([1, 2, 4]) - 0.5833333333333334) < 1e-15


def test_hits_counting():
    assert hits_at_k([1, 2, 1], 1) == pytest.approx(2 / 3)


def test_metrics_reject_empty():
    with pytest.raises(ValueError):
        hits_at_k([], 1)
    with pytest.raises(ValueError):
        mrr([])


def test_hits_monotone_in_k():
    ranks = [1, 3, 2, 5, 4, 1]
    values = [hits_at_k(ranks, k) for k in range(1, 7)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert 0 < mrr(ranks) <= 1


def test_rank_exact_match():
    cands = np.array([[1.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
    assert rank_next_state(np.array([1.0, 2.0]), cands, true_index=0) == 1


def test_rank_pessimistic_tie():
    cands = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
    assert rank_next_state(np.array([0.0, 0.0]), cands, true_index=0) == 2


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(9)
    for _ in range(500):
        cands = rng.normal(size=(8, 3))
        pred = rng.normal(size=3)
        true_index = int(rng.integers(8))
        assert rank_next_state(pred, cands, true_index) == rank_by_sort(pred, cands, true_index)


@pytest.mark.parametrize("exponent", [-160, -150, 0, 150, 154])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_ranks_match_sort_oracle(exponent, data):
    """Each row of one batched call ranks as ``rank_by_sort`` ranks it alone.

    Candidates at magnitude ~10**exponent, some duplicated: lattice points
    (exact ties), Gaussian rows with predictions on candidates, or
    predictions halfway between their true candidate and another (near ties
    that rounding decides). At 1e-160 squares underflow and at 1e154 they
    overflow, outside the screen's range.
    """
    N = data.draw(st.integers(1, 60), label="N")
    K = data.draw(st.integers(1, 60).filter(lambda k: k != N), label="K")
    F = data.draw(st.integers(1, 24), label="F")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    family = data.draw(st.sampled_from(["lattice", "normal", "midpoint"]), label="family")
    true = rng.integers(K, size=N)
    if family == "lattice":
        unit = 2.0 ** round(exponent * np.log2(10))
        cands = rng.integers(-3, 4, size=(K, F)) * unit
        preds = rng.integers(-6, 7, size=(N, F)) * (unit / 2)
    else:
        cands = rng.normal(size=(K, F)) * 10.0**exponent
        cands[rng.integers(K, size=K // 3)] = cands[rng.integers(K, size=K // 3)]
        if family == "midpoint":
            preds = (cands[true] + cands[rng.integers(K, size=N)]) / 2
        else:
            preds = rng.normal(size=(N, F)) * 10.0**exponent
            on_code = rng.random(N) < 0.3
            preds[on_code] = cands[rng.integers(K, size=on_code.sum())]
    with np.errstate(over="ignore"):
        expected = [rank_by_sort(preds[i], cands, true[i]) for i in range(N)]
    got = rank_next_state(preds, cands, true)
    assert got.shape == (N,) and got.tolist() == expected


def test_collapsed_latents_rank_last():
    """Every latent equal: every pair ties, so every row ranks K."""
    ranks = rank_next_state(np.full((70, 20), 0.3), np.full((90, 20), 0.3), np.arange(70))
    assert ranks.tolist() == [90] * 70


def test_batched_ranking_memory_is_blocked():
    """At N = K = 4096, F = 20 an N x K float64 matrix alone is 128 MB."""
    rng = np.random.default_rng(4)
    latents, preds = rng.normal(size=(4096, 20)), rng.normal(size=(4096, 20))
    true = np.arange(4096)
    tracemalloc.start()
    try:
        rank_next_state(preds, latents, true)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 4, f"ranking peak {peak_mb:.1f} MB"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["predicted", "candidate"])
def test_rank_rejects_non_finite_latents(bad, where):
    """A NaN prediction used to rank 1, a hit; a NaN true candidate too."""
    rng = np.random.default_rng(2)
    preds, cands = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
    (preds if where == "predicted" else cands)[2, 1] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        rank_next_state(preds, cands, np.arange(5))
    with pytest.raises(FloatingPointError, match="non-finite"):
        rank_next_state(preds[2], cands, 2)


def test_ood_split_differs_only_in_declared_knob():
    # adding: split configs share everything except the gap knob
    train_kwargs = dict(count=8, seq_len=6, max_value=1.0)
    train, _ = gen_adding(gap_len=4, rng=np.random.default_rng(3), **train_kwargs)
    ood, _ = gen_adding(gap_len=9, rng=np.random.default_rng(3), **train_kwargs)
    assert train.shape == (8, 10, 2) and ood.shape == (8, 15, 2)
    # the marked values sit in the first seq_len steps; the gap tail is blank
    assert np.array_equal(train[:, :6], ood[:, :6])
    assert not train[:, 6:].any() and not ood[:, 6:].any()
    # grid world: only the object count changes
    a = gen_gridworld_episodes(num_objects=5, grid_size=5, steps=3, episodes=2, rng=np.random.default_rng(1))
    b = gen_gridworld_episodes(num_objects=2, grid_size=5, steps=3, episodes=2, rng=np.random.default_rng(1))
    assert [x.shape[:2] for x in a] == [(6, 5)] * 3
    assert [x.shape[:2] for x in b] == [(6, 2)] * 3
