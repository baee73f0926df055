import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqcomm import autodiff as ad
from vqcomm.autodiff import ShapeError, Tensor
from vqcomm.quantizer import (
    Codebook,
    QuantizerConfig,
    UninitializedCodebook,
    codebook_stats,
    combined_aux_loss,
    gumbel_quantize,
    kmeans_init,
    code_distances,
    load_codebook,
    nearest_indices,
    quantize,
    save_codebook,
    usage_counts,
)

from oracles import exhaustive_nearest


def _book(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return Codebook(rows.shape[0], rows.shape[1], entries=rows, initialized=True)


WORKED_ROWS = [[0.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [0.0, 2.0]]
WORKED_H = [0.9, 1.2, -0.2, 0.1]
WORKED_CFG = QuantizerConfig(L=4, G=2, m=4, beta=0.25, codebook_loss_weight=1.0)


# ---------------------------------------------------------------------------
# segmentation: a length-m vector is cut into G contiguous heads of m/G
# ---------------------------------------------------------------------------


def test_segment_contiguous_split():
    out = quantize(Tensor([1.0, 2.0, 3.0, 4.0]), QuantizerConfig(L=2, G=2, m=4), _book([[3.0, 4.0], [1.0, 2.0]]))
    assert out.indices.tolist() == [2, 1]


def test_segment_identity():
    out = quantize(Tensor([1.0, 2.0, 3.0, 4.0]), QuantizerConfig(L=1, G=1, m=4), _book([[1.0, 2.0, 3.0, 4.0]]))
    assert out.indices.tolist() == [1]


def test_segment_indivisible_reports_both_values():
    with pytest.raises(ShapeError, match="3 not divisible by 2"):
        QuantizerConfig(L=4, G=2, m=3)


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_segment_concat_roundtrip(G, d, seed):
    # a codebook made of h's own heads snaps every head onto itself
    h = np.random.default_rng(seed).normal(size=G * d)
    out = quantize(Tensor(h), QuantizerConfig(L=G, G=G, m=G * d), _book(h.reshape(G, d)))
    assert np.array_equal(out.z.data, h)
    assert out.indices.tolist() == list(range(1, G + 1))


# ---------------------------------------------------------------------------
# nearest-neighbor lookup (nearest_indices is 0-based, exhaustive_nearest 1-based)
# ---------------------------------------------------------------------------


def test_nearest_code_exact_row():
    assert nearest_indices(np.array([-1.0, 0.0]), np.array(WORKED_ROWS)) == 2


def test_nearest_code_tie_breaks_low():
    rows = np.array([[0.5, 0.5], [0.5, 0.5], [9.0, 9.0]])
    assert nearest_indices(np.array([0.5, 0.4]), rows) == 0


def test_nearest_code_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rows = rng.normal(size=(4, 2))
        s = rng.normal(size=2)
        assert nearest_indices(s, rows) + 1 == exhaustive_nearest(s, rows)


def _kernel_case(data, exponent):
    """Heads and codes at magnitude ~10**exponent.

    - lattice: small integers (codes) and half-integers (heads) times a
      power of two, so every square and sum is exact: many exact ties,
      heads on codes and on midpoints between codes;
    - normal: Gaussian codes with duplicated rows, heads partly copies of
      codes;
    - midpoint: heads halfway between two Gaussian codes, near ties that
      rounding decides, where the screen and the loop order codes apart.
    """
    d = data.draw(st.sampled_from([1, 2, 3, 4, 8, 16]), label="d")
    L = data.draw(st.integers(1, 64), label="L")
    n = data.draw(st.integers(1, 12), label="heads")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    family = data.draw(st.sampled_from(["lattice", "normal", "midpoint"]), label="family")
    if family == "lattice":
        unit = 2.0 ** round(exponent * np.log2(10))
        entries = rng.integers(-3, 4, size=(L, d)) * unit
        x = rng.integers(-8, 9, size=(n, d)) * (unit / 2)
    else:
        entries = rng.normal(size=(L, d)) * 10.0**exponent
        entries[rng.integers(L, size=L // 4)] = entries[rng.integers(L, size=L // 4)]
        if family == "midpoint":
            x = (entries[rng.integers(L, size=n)] + entries[rng.integers(L, size=n)]) / 2
        else:
            x = rng.normal(size=(n, d)) * 10.0**exponent
            on_code = rng.random(n) < 0.3
            x[on_code] = entries[rng.integers(L, size=on_code.sum())]
    return (x[0] if data.draw(st.booleans(), label="1-D") else x), entries


@pytest.mark.parametrize("exponent", [-160, -100, 0, 100, 154])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_nearest_indices_is_the_exact_coordinate_argmin(exponent, data):
    x, entries = _kernel_case(data, exponent)
    with np.errstate(over="ignore"):
        d2 = code_distances(x, entries)
    expected = d2.argmin(axis=-1)
    if not np.isfinite(np.take_along_axis(d2, np.expand_dims(expected, -1), -1)).all():
        with pytest.raises(FloatingPointError, match="overflows"):
            nearest_indices(x, entries)
        return
    got = nearest_indices(x, entries)
    assert np.array_equal(got, expected) and np.shape(got) == np.shape(expected)
    with np.errstate(over="ignore"):
        oracle = [exhaustive_nearest(row, entries) - 1 for row in np.atleast_2d(x)]
    assert np.atleast_1d(got).tolist() == oracle


@pytest.mark.parametrize("d", [3, 4, 16])
@pytest.mark.parametrize("L", [1, 2, 16, 255, 256, 257])  # across the uint8 / uint16 boundary of the code count
def test_nearest_indices_count_and_index_sum_give_the_argmin(L, d):
    """The screen's rule: a head with exactly one code within tolerance of its
    best score takes that code's index, the sum of its near indices; every
    other head, and every head outside the screen's range, is re-ranked.
    Heads sit on codes and on midpoints between two codes of a half-integer
    lattice (exact ties, and duplicate codes), at random, and at 1e-160 and
    1e154, where every code is within tolerance or the row is out of range."""
    rng = np.random.default_rng(1000 * L + d)
    entries = rng.integers(-3, 4, size=(L, d)) / 2.0
    a, b = rng.integers(L, size=(2, 40))
    far = rng.normal(size=(6, d))
    far /= np.linalg.norm(far, axis=1, keepdims=True)
    x = np.concatenate(
        [
            entries[a],
            (entries[a] + entries[b]) / 2,
            rng.normal(size=(40, d)),
            rng.normal(size=(6, d)) * 1e-160,
            far * 1e154,
            far * 1e152,
        ]
    )
    for scale in (1.0, 2.0**-532):  # and the whole case near 1e-160, where squares are subnormal
        want = code_distances(x * scale, entries * scale).argmin(-1)
        assert np.array_equal(nearest_indices(x * scale, entries * scale), want)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["head", "code"])
def test_nearest_indices_rejects_non_finite_input(d, bad, where):
    rng = np.random.default_rng(d)
    x, entries = rng.normal(size=(5, d)), rng.normal(size=(7, d))
    (x if where == "head" else entries)[3, d - 1] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        nearest_indices(x, entries)


def test_uninitialized_codebook_rejected():
    book = Codebook(4, 2)
    with pytest.raises(UninitializedCodebook):
        quantize(Tensor(np.zeros(4)), WORKED_CFG, book)


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------


def test_quantize_worked_example():
    out = quantize(Tensor(WORKED_H), WORKED_CFG, _book(WORKED_ROWS))
    assert out.z.data.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert out.indices.tolist() == [2, 1]


def test_quantize_fixed_point():
    book = _book(WORKED_ROWS)
    h = np.concatenate([book.entries.data[1], book.entries.data[3]])
    out = quantize(Tensor(h), WORKED_CFG, book)
    assert np.array_equal(out.z.data, h)
    assert out.codebook_loss.item() == 0.0
    assert out.commitment_loss.item() == 0.0


def test_quantize_single_code():
    book = _book([[0.3, -0.7]])
    cfg = QuantizerConfig(L=1, G=2, m=4)
    out = quantize(Tensor([5.0, 5.0, -5.0, 0.0]), cfg, book)
    assert out.z.data.tolist() == [0.3, -0.7, 0.3, -0.7]
    assert out.indices.tolist() == [1, 1]


def test_quantize_indices_match_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        L = int(rng.integers(1, 9))
        G = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        book = _book(rng.normal(size=(L, d)))
        cfg = QuantizerConfig(L=L, G=G, m=G * d)
        h = rng.normal(size=G * d)
        out = quantize(Tensor(h), cfg, book)
        expect = [exhaustive_nearest(h[i * d : (i + 1) * d], book.entries.data) for i in range(G)]
        assert out.indices.tolist() == expect


def test_quantize_membership_bit_exact():
    rng = np.random.default_rng(3)
    book = _book(rng.normal(size=(5, 3)))
    cfg = QuantizerConfig(L=5, G=4, m=12)
    out = quantize(Tensor(rng.normal(size=(6, 12))), cfg, book)
    segs = out.z.data.reshape(6, 4, 3)
    for seg in segs.reshape(-1, 3):
        assert any(np.array_equal(seg, row) for row in book.entries.data)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_quantize_idempotent(seed):
    rng = np.random.default_rng(seed)
    book = _book(rng.normal(size=(6, 2)))
    cfg = QuantizerConfig(L=6, G=3, m=6)
    first = quantize(Tensor(rng.normal(size=6)), cfg, book)
    second = quantize(first.z, cfg, book)
    assert np.array_equal(first.z.data, second.z.data)
    assert np.array_equal(first.indices, second.indices)
    assert second.codebook_loss.item() == 0.0


def test_quantize_cardinality_two_codes_two_heads():
    book = _book([[-1.0], [1.0]])
    cfg = QuantizerConfig(L=2, G=2, m=2)
    rng = np.random.default_rng(0)
    outs = {tuple(quantize(Tensor(h), cfg, book).z.data) for h in rng.normal(size=(500, 2)) * 3}
    assert len(outs) == 4


def test_quantize_head_independence():
    rng = np.random.default_rng(9)
    book = _book(rng.normal(size=(8, 2)))
    cfg = QuantizerConfig(L=8, G=3, m=6)
    h = rng.normal(size=6)
    base = quantize(Tensor(h), cfg, book).indices
    for head in range(3):
        h2 = h.copy()
        h2[head * 2 : (head + 1) * 2] = rng.normal(size=2) * 4
        moved = quantize(Tensor(h2), cfg, book).indices
        for other in range(3):
            if other != head:
                assert moved[other] == base[other]


# ---------------------------------------------------------------------------
# gradients through quantize
# ---------------------------------------------------------------------------


def test_straight_through_all_ones():
    rng = np.random.default_rng(1)
    book = _book(rng.normal(size=(4, 2)))
    cfg = QuantizerConfig(L=4, G=2, m=4)
    h = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = quantize(h, cfg, book)
    ad.backward(ad.tsum(out.z))
    assert np.array_equal(h.grad, np.ones((3, 4)))
    assert book.entries.grad is None


def test_codebook_loss_gradient_routing():
    rng = np.random.default_rng(2)
    book = _book(rng.normal(size=(4, 2)))
    cfg = QuantizerConfig(L=4, G=2, m=4)
    h = Tensor(rng.normal(size=4), requires_grad=True)

    out = quantize(h, cfg, book)
    ad.backward(out.codebook_loss)
    assert h.grad is None
    assert book.entries.grad is not None and np.any(book.entries.grad != 0)

    book.entries.zero_grad()
    out = quantize(h, cfg, book)
    ad.backward(out.commitment_loss)
    assert book.entries.grad is None
    assert h.grad is not None and np.any(h.grad != 0)


def test_commitment_gradient_matches_analytic():
    # d/ds of (1/G)||s - e||^2 is 2(s - e)/G
    book = _book([[0.0, 0.0], [1.0, 1.0]])
    cfg = QuantizerConfig(L=2, G=2, m=4)
    h = Tensor(np.array([0.2, -0.1, 0.8, 1.3]), requires_grad=True)
    out = quantize(h, cfg, book)
    ad.backward(out.commitment_loss)
    expect = 2.0 * (h.data - np.array([0.0, 0.0, 1.0, 1.0])) / 2.0
    assert np.allclose(h.grad, expect, atol=1e-15)


# ---------------------------------------------------------------------------
# combined auxiliary loss
# ---------------------------------------------------------------------------


def test_combined_aux_loss_zero():
    book = _book(WORKED_ROWS)
    h = np.concatenate([book.entries.data[0], book.entries.data[2]])
    out = quantize(Tensor(h), WORKED_CFG, book)
    assert combined_aux_loss([out], WORKED_CFG).item() == 0.0


def test_combined_aux_loss_worked_example():
    out = quantize(Tensor(WORKED_H), WORKED_CFG, _book(WORKED_ROWS))
    got = combined_aux_loss([out], WORKED_CFG).item()
    assert abs(got - 0.0625) < 1e-12


def test_combined_aux_loss_empty_rejected():
    with pytest.raises(ValueError):
        combined_aux_loss([], WORKED_CFG)


def test_default_beta():
    assert QuantizerConfig(L=4, G=2, m=4).beta == 0.25


@pytest.mark.parametrize("key", ["beta", "codebook_loss_weight"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_loss_weights_must_be_finite_and_positive(key, value):
    # a NaN weight passed a `<= 0` test and turned every training loss into NaN
    with pytest.raises(ValueError, match=key):
        QuantizerConfig(L=4, G=2, m=4, **{key: value})


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def test_kmeans_each_point_its_own_centroid():
    samples = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
    book = kmeans_init(samples, L=4, rng=np.random.default_rng(0))
    got = sorted(map(tuple, book.entries.data))
    assert got == sorted(map(tuple, samples))


def test_kmeans_degenerate_single_cluster():
    samples = np.tile([1.5, -2.5], (6, 1))
    book = kmeans_init(samples, L=1, rng=np.random.default_rng(3))
    assert np.allclose(book.entries.data, [[1.5, -2.5]], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_kmeans_two_cluster_example_any_seeding(seed):
    samples = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    book = kmeans_init(samples, L=2, rng=np.random.default_rng(seed))
    got = sorted(map(tuple, np.round(book.entries.data, 12)))
    assert got == [(0.05, 0.0), (5.05, 5.0)]


def test_kmeans_matches_loop_reference():
    from oracles import lloyd_reference
    from vqcomm.quantizer import lloyd

    rng = np.random.default_rng(13)
    samples = rng.normal(size=(40, 3))
    seed_rng = np.random.default_rng(99)
    start_idx = seed_rng.choice(40, size=5, replace=False)
    # reference runs from the same seeding; no empty clusters occur here
    ref = lloyd_reference(samples, samples[start_idx], iters=100)
    got = lloyd(samples, 5, iters=100, rng=np.random.default_rng(99))
    assert np.allclose(sorted(map(tuple, got)), sorted(map(tuple, ref)), atol=1e-9)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_lloyd_matches_the_mask_oracle_bit_for_bit(data):
    """Grouping by one stable argsort gives the centroids, bit for bit, and the
    generator state of one boolean mask per cluster and round."""
    from oracles import lloyd_masks
    from vqcomm.quantizer import lloyd

    d = data.draw(st.sampled_from([1, 2, 3, 4, 8]), label="d")
    L = data.draw(st.integers(1, 20), label="L")
    n = data.draw(st.integers(1, 300), label="n")
    iters = data.draw(st.integers(1, 25), label="iters")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    samples = rng.normal(size=(n, d))
    if data.draw(st.booleans(), label="duplicated"):  # fewer distinct rows than codes: clusters empty out
        distinct = data.draw(st.integers(1, L), label="distinct")
        samples = samples[rng.integers(min(distinct, n), size=n)]
    seed = data.draw(st.integers(0, 2**32 - 1), label="lloyd seed")
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = lloyd(samples, L, iters, got_rng)
    want = lloyd_masks(samples, L, iters, want_rng)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_kmeans_inertia_non_increasing():
    from vqcomm.quantizer import lloyd

    rng_samples = np.random.default_rng(21)
    samples = rng_samples.normal(size=(60, 2))
    vals = [
        code_distances(samples, lloyd(samples, 6, iters=k, rng=np.random.default_rng(5))).min(1).sum()
        for k in range(1, 10)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_kmeans_surplus_centroids_allowed():
    samples = np.array([[0.0, 0.0], [1.0, 1.0]])
    book = kmeans_init(samples, L=4, rng=np.random.default_rng(1))
    assert book.entries.shape == (4, 2)
    assert book.initialized


def test_kmeans_rejects_bad_L():
    with pytest.raises(ValueError):
        kmeans_init(np.zeros((3, 2)), L=0, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Gumbel-Softmax variant
# ---------------------------------------------------------------------------


def test_gumbel_zero_noise_low_temperature_matches_quantize():
    rng = np.random.default_rng(17)
    book = _book(rng.normal(size=(5, 2)))
    cfg = QuantizerConfig(L=5, G=2, m=4)
    h = rng.normal(size=4)
    hard_out = quantize(Tensor(h), cfg, book)
    soft_out = gumbel_quantize(Tensor(h), cfg, book, temperature=1e-9, noise=0.0)
    assert soft_out.indices.tolist() == hard_out.indices.tolist()
    assert np.allclose(soft_out.z.data, hard_out.z.data, atol=1e-12)


def test_gumbel_single_code():
    book = _book([[1.0, 2.0]])
    cfg = QuantizerConfig(L=1, G=1, m=2)
    out = gumbel_quantize(Tensor([9.0, -9.0]), cfg, book, temperature=3.0, rng=np.random.default_rng(0))
    assert np.allclose(out.z.data, [1.0, 2.0], atol=1e-12)
    assert out.indices.tolist() == [1]


def test_gumbel_rejects_bad_temperature():
    book = _book([[0.0]])
    cfg = QuantizerConfig(L=1, G=1, m=1)
    with pytest.raises(ValueError):
        gumbel_quantize(Tensor([0.0]), cfg, book, temperature=0.0, noise=0.0)


def test_gumbel_index_distribution_matches_softmax():
    rng = np.random.default_rng(23)
    book = _book(rng.normal(size=(4, 2)))
    cfg = QuantizerConfig(L=4, G=1, m=2)
    h = rng.normal(size=2)
    d2 = ((book.entries.data - h) ** 2).sum(axis=1)
    logits = -d2
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()

    draws = 100_000
    noise = rng.gumbel(size=(draws, 4))
    picks = (logits + noise).argmax(axis=1)
    counts = np.bincount(picks, minlength=4) / draws
    # Monte Carlo oracle for the sampler the implementation uses
    out_counts = np.zeros(4)
    sample_rng = np.random.default_rng(101)
    batch = gumbel_quantize(Tensor(np.tile(h, (draws, 1))), cfg, book, temperature=1.0, rng=sample_rng)
    for idx in batch.indices.reshape(-1):
        out_counts[idx - 1] += 1
    out_counts /= draws
    assert np.max(np.abs(counts - probs)) < 0.01
    assert np.max(np.abs(out_counts - probs)) < 0.01


# ---------------------------------------------------------------------------
# usage stats
# ---------------------------------------------------------------------------


def test_stats_single_code_perplexity_one():
    book = _book([[0.0, 0.0], [9.0, 9.0]])
    cfg = QuantizerConfig(L=2, G=2, m=4)
    out = quantize(Tensor([0.1, 0.0, -0.1, 0.0]), cfg, book)
    stats = codebook_stats(usage_counts(out.indices, 2))
    assert stats.usage.tolist() == [2, 0]
    assert stats.perplexity == 1.0


def test_stats_uniform_usage_perplexity_L():
    book = _book([[-3.0], [0.0], [3.0]])
    cfg = QuantizerConfig(L=3, G=1, m=1)
    outs = [quantize(Tensor([v]), cfg, book) for v in (-3.0, 0.0, 3.0)]
    stats = codebook_stats(sum(usage_counts(o.indices, 3) for o in outs))
    assert abs(stats.perplexity - 3.0) < 1e-12


def test_stats_three_one_split():
    book = _book([[-1.0], [1.0]])
    cfg = QuantizerConfig(L=2, G=1, m=1)
    outs = [quantize(Tensor([v]), cfg, book) for v in (-1.0, -1.0, -1.0, 1.0)]
    stats = codebook_stats(sum(usage_counts(o.indices, 2) for o in outs))
    assert stats.usage.tolist() == [3, 1]
    assert abs(stats.perplexity - 1.7547653506033233) < 1e-12


def test_stats_empty():
    stats = codebook_stats(np.zeros(4, dtype=np.int64))
    assert stats.usage.tolist() == [0, 0, 0, 0]
    assert stats.perplexity == 1.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_codebook_binary_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    cfg = QuantizerConfig(L=6, G=2, m=6, beta=0.25, codebook_loss_weight=0.75)
    book = _book(rng.normal(size=(6, 3)))
    path = tmp_path / "book.vqcb"
    save_codebook(path, book, cfg)
    loaded, loaded_cfg = load_codebook(path)
    assert np.array_equal(loaded.entries.data, book.entries.data)
    assert loaded_cfg == cfg
    assert loaded.initialized


@pytest.mark.parametrize("cut", ["header", "payload"])
def test_truncated_codebook_file_names_the_file(tmp_path, cut):
    cfg = QuantizerConfig(L=4, G=2, m=4)
    path = tmp_path / "book.vqcb"
    save_codebook(path, _book(WORKED_ROWS), cfg)
    raw = path.read_bytes()
    path.write_bytes(raw[:10] if cut == "header" else raw[:-8])
    with pytest.raises(ValueError, match="book.vqcb"):
        load_codebook(path)


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vector_is_not_snapped(bad):
    # a NaN head used to compare False against every code and snap to code 1
    book = _book(WORKED_ROWS)
    h = np.array(WORKED_H)
    h[1] = bad
    with pytest.raises(FloatingPointError):
        quantize(Tensor(h), WORKED_CFG, book)
    with pytest.raises(FloatingPointError):
        gumbel_quantize(Tensor(h), WORKED_CFG, book, temperature=1.0, noise=0.0)
    with pytest.raises(FloatingPointError):
        nearest_indices(h[:2], book.entries.data)


def test_non_finite_codebook_is_rejected():
    rows = np.array(WORKED_ROWS)
    rows[2, 0] = np.nan
    with pytest.raises(FloatingPointError):
        quantize(Tensor(WORKED_H), WORKED_CFG, _book(rows))


def test_kmeans_rejects_non_finite_samples():
    samples = np.random.default_rng(3).normal(size=(20, 2))
    samples[7, 1] = np.nan
    with pytest.raises(FloatingPointError):
        kmeans_init(samples, 3, rng=np.random.default_rng(0))
