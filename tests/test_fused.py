"""The fused tape nodes (VQ loss tail, combined aux loss, GRU cell, RIM blend
and communication block) against the composite graphs they replace, built
here from autodiff primitives.

Forward values and every gradient must match bit for bit: the fused
backwards repeat the composite float order, which keeps run records
byte-identical. The two exceptions are named where they are tested.
"""

import functools
import math
import tracemalloc
import types

import numpy as np
import pytest

from vqcomm import autodiff as ad
from vqcomm.autodiff import Tensor
from vqcomm.models.common import CommunicationQuantizer
from vqcomm.models.rim import (
    RimModel,
    RimRegressor,
    _blend,
    _communicate,
    input_attention_scores,
    rim_step,
    top_k_mask,
)
from vqcomm.nn import StackedGRU
from vqcomm.protocols import adding_config
from vqcomm.quantizer import (
    Codebook,
    QuantizerConfig,
    combined_aux_loss,
    gumbel_quantize,
    nearest_indices,
    quantize,
)
from vqcomm.tasks import gen_adding

from oracles import finite_difference_grads, sigmoid, stop_gradient, tanh

# ---------------------------------------------------------------------------
# composite reference graphs
# ---------------------------------------------------------------------------


def _gru_gates(gx, gh, h):
    xr, xz, xn = ad.split(gx, 3, axis=-1)
    hr, hz, hn = ad.split(gh, 3, axis=-1)
    r = sigmoid(ad.add(xr, hr))
    z = sigmoid(ad.add(xz, hz))
    n = tanh(ad.add(xn, ad.mul(r, hn)))
    one_minus_z = ad.add(ad.scale(z, -1.0), 1.0)
    return ad.add(ad.mul(one_minus_z, n), ad.mul(z, h))


def _composite_gru(h, x, w_x, w_h, b_x, b_h):
    gx = ad.add(ad.matmul(x, w_x), b_x)
    gh = ad.add(ad.matmul(h, w_h), b_h)
    return _gru_gates(gx, gh, h)


def _aux_tail(segs, entries, idx0, batch, G):
    picked = ad.gather_rows(entries, idx0)
    norm = 1.0 / (batch * G)
    codebook_loss = ad.scale(ad.tsum(ad.sqdist(stop_gradient(segs), picked)), norm)
    commitment_loss = ad.scale(ad.tsum(ad.sqdist(segs, stop_gradient(picked))), norm)
    return codebook_loss, commitment_loss


def _composite_quantize(h, cfg, book):
    """Snap with the reshape pair: (..., m) -> (N, m) -> composite graph -> (..., m)."""
    hb = h if h.ndim == 2 else ad.reshape(h, (-1, cfg.m))
    batch = hb.shape[0]
    segs = ad.reshape(hb, (batch, cfg.G, cfg.d))
    idx0 = nearest_indices(segs.data, book.entries.data)
    z = ad.straight_through(hb, book.entries.data[idx0].reshape(batch, cfg.m))
    cb, cm = _aux_tail(segs, book.entries, idx0, batch, cfg.G)
    if hb is not h:
        z = ad.reshape(z, h.shape)
    return z, cb, cm


def _composite_gumbel(h, cfg, book, temperature, noise):
    hb = h if h.ndim == 2 else ad.reshape(h, (-1, cfg.m))
    batch = hb.shape[0]
    segs = ad.reshape(hb, (batch, cfg.G, cfg.d))
    seg4 = ad.reshape(segs, (batch, cfg.G, 1, cfg.d))
    logits = ad.scale(ad.sqdist(seg4, book.entries), -1.0)
    y = ad.softmax(ad.scale(ad.add(logits, Tensor(noise)), 1.0 / temperature))
    z = ad.reshape(ad.matmul(y, book.entries), (batch, cfg.m))
    idx0 = (logits.data + noise).argmax(axis=-1)
    cb, cm = _aux_tail(segs, book.entries, idx0, batch, cfg.G)
    if hb is not h:
        z = ad.reshape(z, h.shape)
    return z, cb, cm


def _sum_scalars(ts):
    total = ts[0]
    for t in ts[1:]:
        total = ad.add(total, t)
    return total


def _composite_aux_loss(outputs, cfg):
    """``combined_aux_loss`` as a chain of adds and scales over the per-snap loss nodes."""
    inv = 1.0 / len(outputs)
    cb = ad.scale(_sum_scalars([o.codebook_loss for o in outputs]), inv)
    cm = ad.scale(_sum_scalars([o.commitment_loss for o in outputs]), inv)
    return ad.add(ad.scale(cb, cfg.codebook_loss_weight), ad.scale(cm, cfg.beta))


def _composite_snap(quantizer, h, outputs, pair=True):
    """``CommunicationQuantizer.apply`` with the reshape pair it had around ``quantize``."""
    flat = ad.reshape(h, (-1, h.shape[-1])) if pair and h.ndim != 2 else h
    out = quantize(flat, quantizer.config, quantizer.codebook)
    outputs.append(out)
    return out.z if flat is h else ad.reshape(out.z, h.shape)


def _composite_rim_step(state, x_t, model, outputs, pair=True):
    """``rim_step`` as primitive tape ops: transposes around a composite GRU,
    a three-node blend and an eight-node communication block."""

    def snap(here, h):
        return _composite_snap(model.quantizer, h, outputs, pair) if model.quantizer is not None and here else h

    x_t = snap(model.site == "raw_input", x_t)
    mask = top_k_mask(input_attention_scores(model, state, x_t), model.k)
    gru = model.gru
    cand_mfirst = _composite_gru(ad.transpose(state, 0, 1), x_t, gru.w_x, gru.w_h, gru.b_x, gru.b_h)
    cand = ad.transpose(cand_mfirst, 0, 1)
    if model.quantizer is not None and model.site == "recurrent_update":
        cand = ad.add(state, snap(True, ad.sub(cand, state)))
    updated = ad.add(ad.mul(Tensor(mask[:, :, None]), cand), ad.mul(Tensor(1.0 - mask[:, :, None]), state))
    source = snap(model.site == "communication_input", updated)
    q = ad.matmul(updated, model.comm_query.weight)
    k = ad.matmul(source, model.comm_key.weight)
    v = ad.matmul(source, model.comm_value.weight)
    att = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(model.att_dim)))
    h = snap(model.site == "communication_result", ad.matmul(att, v))
    return ad.add(updated, h)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _fresh(arrays):
    """New leaf tensors (so gradients start empty) over copies of ``arrays``."""
    return [Tensor(a.copy(), requires_grad=True) for a in arrays]


def _book(entries):
    return Codebook(*entries.shape, entries=entries.copy(), initialized=True)


def _assert_same(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.shape == b.shape
    assert np.array_equal(a, b)


def _assert_close(a, b):
    # for sums of the same terms taken in another order: a few ulps of the largest value
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, float(np.max(np.abs(b))))


def _quantizer_grads(make, h_data, entries, weight, cfg, calls=1):
    """Forward ``calls`` snaps of scaled copies of one input, backward a loss
    over z and both aux losses; return forward values and gradients."""
    h = Tensor(h_data.copy(), requires_grad=True)
    book = _book(entries)
    outs = [make(ad.scale(h, 1.0 + 0.5 * c), cfg, book) for c in range(calls)]
    task = ad.tsum(ad.mul(outs[-1][0], Tensor(weight)))
    aux = ad.add(ad.scale(outs[0][1], 0.7), ad.scale(outs[0][2], 1.3))
    for z, cb, cm in outs[1:]:
        aux = ad.add(aux, ad.add(ad.scale(cb, 0.7), ad.scale(cm, 1.3)))
    ad.backward(ad.add(task, aux))
    values = [a for z, cb, cm in outs for a in (z.data, cb.data, cm.data)]
    return values, [h.grad, book.entries.grad]


def _fused_vq(h, cfg, book):
    out = quantize(h, cfg, book)
    return out.z, out.codebook_loss, out.commitment_loss


# ---------------------------------------------------------------------------
# fused VQ tail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(6, 6), (6,), (2, 3, 6)], ids=["batch", "single", "stacked"])
@pytest.mark.parametrize("calls", [1, 3])
def test_quantize_matches_composite_graph(shape, calls):
    rng = np.random.default_rng(11)
    cfg = QuantizerConfig(L=5, G=3, m=6)
    h = rng.normal(size=shape)
    entries = rng.normal(size=(5, 2))
    weight = rng.normal(size=shape)
    got = _quantizer_grads(_fused_vq, h, entries, weight, cfg, calls)
    want = _quantizer_grads(_composite_quantize, h, entries, weight, cfg, calls)
    for a, b in zip(got[0] + got[1], want[0] + want[1]):
        _assert_same(a, b)


# "soft": the forward is the relaxed mixture of codes, the only one gumbel_quantize has
@pytest.mark.parametrize("shape", [(4, 8), (8,), (2, 3, 8)], ids=["batch-soft", "single-soft", "stacked-soft"])
def test_gumbel_matches_composite_graph(shape):
    rng = np.random.default_rng(12)
    cfg = QuantizerConfig(L=6, G=4, m=8)
    h = rng.normal(size=shape)
    entries = rng.normal(size=(6, 2))
    weight = rng.normal(size=shape)
    batch = int(np.prod(shape[:-1]))
    noise = rng.gumbel(size=(batch, cfg.G, cfg.L))

    def fused(hh, c, book):
        out = gumbel_quantize(hh, c, book, temperature=0.7, noise=noise)
        return out.z, out.codebook_loss, out.commitment_loss

    def composite(hh, c, book):
        return _composite_gumbel(hh, c, book, 0.7, noise)

    got = _quantizer_grads(fused, h, entries, weight, cfg)
    want = _quantizer_grads(composite, h, entries, weight, cfg)
    for a, b in zip(got[0] + got[1], want[0] + want[1]):
        _assert_same(a, b)


def test_aux_loss_nodes_have_one_parent_each():
    rng = np.random.default_rng(13)
    cfg = QuantizerConfig(L=4, G=2, m=4)
    book = _book(rng.normal(size=(4, 2)))
    h = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = quantize(h, cfg, book)
    assert out.z._parents == (h,)
    assert out.codebook_loss._parents == (book.entries,)
    assert out.commitment_loss._parents == (h,)


def test_aux_losses_gradcheck():
    # both losses share one value v(h, e); the codebook loss carries dv/de,
    # the commitment loss dv/dh
    rng = np.random.default_rng(14)
    cfg = QuantizerConfig(L=5, G=2, m=6)
    h0 = rng.normal(size=(4, 6))
    e0 = rng.normal(size=(5, 3))

    def value(arrs):
        return quantize(Tensor(arrs[0]), cfg, _book(arrs[1])).codebook_loss.item()

    fd_h, fd_e = finite_difference_grads(value, [h0.copy(), e0.copy()])
    h = Tensor(h0.copy(), requires_grad=True)
    book = _book(e0)
    out = quantize(h, cfg, book)
    ad.backward(out.codebook_loss)
    assert h.grad is None
    assert np.max(np.abs(book.entries.grad - fd_e)) < 1e-7
    out = quantize(h, cfg, book)
    ad.backward(out.commitment_loss)
    assert np.max(np.abs(h.grad - fd_h)) < 1e-7


def _snaps(rng, cfg, entries, shapes):
    """Leaf inputs and the snap outputs of ``quantize`` on each of them."""
    book = _book(entries)
    hs = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    return hs, book, [quantize(h, cfg, book) for h in hs]


AUX_SHAPES = [(3, 6), (2, 2, 6), (6,)]


def test_combined_aux_loss_matches_sum_of_scalars():
    rng = np.random.default_rng(15)
    cfg = QuantizerConfig(L=5, G=2, m=6, beta=0.3, codebook_loss_weight=0.7)
    entries = rng.normal(size=(5, 3))
    results = []
    for aux_loss in (combined_aux_loss, _composite_aux_loss):
        hs, book, outs = _snaps(np.random.default_rng(16), cfg, entries, AUX_SHAPES)
        loss = aux_loss(outs, cfg)
        ad.backward(loss)
        results.append([loss.data, book.entries.grad] + [h.grad for h in hs])
    for a, b in zip(*results):
        _assert_same(a, b)


def test_combined_aux_loss_is_one_node_over_entries_and_inputs():
    rng = np.random.default_rng(17)
    cfg = QuantizerConfig(L=5, G=2, m=6)
    hs, book, outs = _snaps(rng, cfg, rng.normal(size=(5, 3)), AUX_SHAPES)
    loss = combined_aux_loss(outs, cfg)
    assert loss._parents == (book.entries, *hs)
    assert _tape_nodes(loss) == 1


@pytest.mark.parametrize("prior", [False, True], ids=["no-gradient-yet", "gradient-already-there"])
def test_combined_codebook_gradient_is_the_add_at_chain(prior):
    # the per-snap np.add.at chain the bincount replaced, started from what
    # entries.grad held (gumbel's mixture matmul leaves a gradient there);
    # 3 codes for 68 heads, so every code sums many terms
    rng = np.random.default_rng(19)
    cfg = QuantizerConfig(L=3, G=4, m=8, beta=0.3, codebook_loss_weight=0.7)
    shapes = [(6, 8), (2, 3, 8), (8,), (9, 8)]
    hs, book, outs = _snaps(rng, cfg, rng.normal(size=(3, 2)), shapes)
    start = rng.normal(size=(3, 2)) if prior else np.zeros((3, 2))
    book.entries.grad = start.copy() if prior else None
    loss = combined_aux_loss(outs, cfg)
    g_cb = np.ones_like(loss.data) * cfg.codebook_loss_weight * (1.0 / len(outs))
    expected = start.copy()
    for h, out in zip(hs, outs):
        idx0 = out.indices.reshape(-1) - 1
        diff = h.data.reshape(-1, cfg.d) - book.entries.data[idx0]
        np.add.at(expected, idx0, -2.0 * diff * (g_cb * (1.0 / len(idx0))))
    ad.backward(loss)
    _assert_same(book.entries.grad, expected)


def test_combined_aux_loss_sends_each_codebook_its_own_snaps():
    rng = np.random.default_rng(20)
    cfg = QuantizerConfig(L=3, G=2, m=4)
    entries = [rng.normal(size=(3, 2)) for _ in range(2)]
    hs = [rng.normal(size=(5, 4)) for _ in range(4)]
    results = []
    for aux_loss in (combined_aux_loss, _composite_aux_loss):
        books = [_book(e) for e in entries]
        ad.backward(aux_loss([quantize(Tensor(h), cfg, books[i % 2]) for i, h in enumerate(hs)], cfg))
        results.append([book.entries.grad for book in books])
    for a, b in zip(*results):
        _assert_same(a, b)


def test_combined_aux_loss_gradcheck():
    rng = np.random.default_rng(18)
    cfg = QuantizerConfig(L=5, G=2, m=6, beta=0.3, codebook_loss_weight=0.7)
    arrays = [rng.normal(size=shape) for shape in AUX_SHAPES] + [rng.normal(size=(5, 3))]

    def value(arrs):
        book = _book(arrs[-1])
        return combined_aux_loss([quantize(Tensor(a), cfg, book) for a in arrs[:-1]], cfg).item()

    # both terms have the value mean(v); the codebook term (weight 0.7) sends
    # its share of d/de to the entries, the commitment term (0.3) its share
    # of d/dh to the inputs
    fd = finite_difference_grads(value, [a.copy() for a in arrays])
    expected = [g * 0.3 for g in fd[:-1]] + [fd[-1] * 0.7]
    hs = [Tensor(a.copy(), requires_grad=True) for a in arrays[:-1]]
    book = _book(arrays[-1])
    ad.backward(combined_aux_loss([quantize(h, cfg, book) for h in hs], cfg))
    for g, e in zip([h.grad for h in hs] + [book.entries.grad], expected):
        assert np.max(np.abs(g - e)) < 1e-7


# ---------------------------------------------------------------------------
# fused GRU cell
# ---------------------------------------------------------------------------


def _gru_arrays(rng):
    M, B, d_in, H = 3, 4, 2, 5
    h = rng.uniform(-1, 1, size=(B, M, H))
    x = rng.uniform(-1, 1, size=(B, d_in))
    w_x = rng.normal(size=(M, d_in, 3 * H))
    w_h = rng.normal(size=(M, H, 3 * H))
    b_x = rng.normal(size=(M, 1, 3 * H))
    b_h = rng.normal(size=(M, 1, 3 * H))
    return [h, x, w_x, w_h, b_x, b_h]


def _cell_result(cell_fn, arrays, weight):
    leaves = _fresh(arrays)
    out = cell_fn(*leaves)
    ad.backward(ad.tsum(ad.mul(out, Tensor(weight))))
    return out.data, [t.grad for t in leaves]


def _fused_cell(module, h, x, w_x, w_h, b_x, b_h):
    module.w_x, module.w_h, module.b_x, module.b_h = w_x, w_h, b_x, b_h
    return module(h, x)


def _transposed_composite_gru(h, x, w_x, w_h, b_x, b_h):
    """The stacked cell as it was called: (B, M, H) state transposed in and out."""
    return ad.transpose(_composite_gru(ad.transpose(h, 0, 1), x, w_x, w_h, b_x, b_h), 0, 1)


def test_gru_cell_matches_composite_graph():
    rng = np.random.default_rng(21)
    fused = functools.partial(_fused_cell, StackedGRU(rng, 3, 2, 5))
    arrays = _gru_arrays(rng)
    weight = rng.normal(size=arrays[0].shape)
    out_f, grads_f = _cell_result(fused, arrays, weight)
    out_c, grads_c = _cell_result(_transposed_composite_gru, arrays, weight)
    _assert_same(out_f, out_c)
    for a, b in zip(grads_f, grads_c):
        _assert_same(a, b)


def test_stacked_gru_is_one_node():
    rng = np.random.default_rng(22)
    gru = StackedGRU(rng, 3, 2, 5)
    h = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 2)))
    out = gru(h, x)
    assert out.shape == (4, 3, 5)
    assert out._parents == (h, x, gru.w_x, gru.w_h, gru.b_x, gru.b_h)


def test_stacked_gru_unroll_keeps_five_state_arrays_per_step():
    """Before backward a taped step holds r, z, n, the hn gate block and its
    output: five (B, M, H) arrays. Pinning all of ``h @ w_h + b_h`` through
    the hn view and keeping 1 - z made it eight."""
    B, M, H, steps = 32, 4, 32, 20
    rng = np.random.default_rng(24)
    gru = StackedGRU(rng, M, 3, H)
    xs = [Tensor(rng.normal(size=(B, 3))) for _ in range(steps)]
    h = Tensor(rng.normal(size=(B, M, H)), requires_grad=True)
    tracemalloc.start()
    try:
        for x in xs:
            h = gru(h, x)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= steps * 6 * B * M * H * 8, f"{kept / (steps * B * M * H * 8):.2f} state arrays per step"
    ad.backward(ad.tsum(h))
    assert gru.w_h.grad is not None


def test_stacked_gru_gradcheck():
    rng = np.random.default_rng(23)
    arrays = _gru_arrays(rng)
    cell = functools.partial(_fused_cell, StackedGRU(rng, 3, 2, 5))

    def scalar(arrs):
        return float(cell(*[Tensor(a) for a in arrs]).data.sum())

    expected = finite_difference_grads(scalar, [a.copy() for a in arrays])
    _, grads = _cell_result(cell, arrays, np.ones(arrays[0].shape))
    for g, e in zip(grads, expected):
        assert np.max(np.abs(g - e)) < 1e-6


# ---------------------------------------------------------------------------
# fused RIM step: blend and communication block
# ---------------------------------------------------------------------------

RIM_SITES = [None, "communication_result", "raw_input", "communication_input", "recurrent_update"]


def _rim_unroll(site, steps, step_fn):
    """Unroll ``steps`` RIM steps from a fresh seed-5 model, backward a loss
    over the final state and the aux loss; return the final state, the loss
    and the gradient of every parameter, the codebook, the initial state and
    each input."""
    rng = np.random.default_rng(5)
    B, M, H, D = 4, 3, 8, 4
    quantizer = None
    if site is not None:
        cfg = QuantizerConfig(L=5, G=2, m=D if site == "raw_input" else H, beta=0.3, codebook_loss_weight=0.7)
        quantizer = CommunicationQuantizer(cfg)
        quantizer.codebook.set_entries(rng.normal(size=(5, cfg.d)) * 0.5)
    model = RimModel(rng, D, H, M, 2, 5, quantizer=quantizer, site=site or "communication_result")
    model.comm_value.weight.data[...] = rng.normal(size=(H, H)) * 0.3
    state0 = Tensor(rng.normal(size=(B, M, H)) * 0.5, requires_grad=True)
    xs = [Tensor(rng.normal(size=(B, D)), requires_grad=True) for _ in range(steps)]
    weight = rng.normal(size=(B, M, H))
    state, outputs = state0, []
    for x in xs:
        state = step_fn(state, x, model, outputs)
    loss = ad.tsum(ad.mul(state, Tensor(weight)))
    leaves = model.parameters() + [state0] + xs
    if quantizer is not None:
        outs = quantizer.take_outputs() + outputs
        aux = combined_aux_loss if step_fn is _fused_rim_step else _composite_aux_loss
        loss = ad.add(loss, aux(outs, quantizer.config))
        leaves.append(quantizer.codebook.entries)
    ad.backward(loss)
    return [state.data, loss.data], [t.grad for t in leaves]


def _fused_rim_step(state, x, model, outputs):
    return rim_step(state, x, model)


@pytest.mark.parametrize("site", RIM_SITES, ids=[str(s) for s in RIM_SITES])
def test_rim_unroll_matches_composite_graph(site):
    values_f, grads_f = _rim_unroll(site, 3, _fused_rim_step)
    values_c, grads_c = _rim_unroll(site, 3, _composite_rim_step)
    for a, b in zip(values_f, values_c):
        _assert_same(a, b)
    if site in ("communication_input", "recurrent_update"):
        # The same gradient terms meet in another order, so sums may differ in the
        # last bits (see the two tests below).
        for a, b in zip(grads_f, grads_c):
            _assert_close(a, b)
    else:
        for a, b in zip(grads_f, grads_c):
            _assert_same(a, b)


def test_rim_communication_input_matches_a_snap_without_reshape_pair():
    # The reshape pair summed the snap's straight-through and commitment
    # gradients before they joined ``updated``; without it they join one by one.
    _, grads_f = _rim_unroll("communication_input", 3, _fused_rim_step)
    _, grads_c = _rim_unroll("communication_input", 3, functools.partial(_composite_rim_step, pair=False))
    for a, b in zip(grads_f, grads_c):
        _assert_same(a, b)


def test_rim_recurrent_update_one_step_is_bit_exact():
    # Over several steps ``state`` takes four gradients (GRU, sub, add, blend)
    # and the tape walk reaches them in another order; one step has one order.
    _, grads_f = _rim_unroll("recurrent_update", 1, _fused_rim_step)
    _, grads_c = _rim_unroll("recurrent_update", 1, _composite_rim_step)
    for a, b in zip(grads_f, grads_c):
        _assert_same(a, b)


def _comm_model(arrays, att_dim):
    """The attributes ``_communicate`` reads, over leaf tensors of ``arrays``."""
    w_q, w_k, w_v = arrays
    layer = types.SimpleNamespace
    return types.SimpleNamespace(
        comm_query=layer(weight=w_q), comm_key=layer(weight=w_k), comm_value=layer(weight=w_v), att_dim=att_dim
    )


@pytest.mark.parametrize("shared", [True, False], ids=["shared-source", "separate-source"])
def test_communicate_gradcheck(shared):
    rng = np.random.default_rng(31)
    B, M, H, A = 2, 3, 4, 5
    arrays = [rng.normal(size=(B, M, H)), rng.normal(size=(B, M, H))]
    arrays += [rng.normal(size=(H, A)), rng.normal(size=(H, A)), rng.normal(size=(H, H))]
    weight = rng.normal(size=(B, M, H))

    def forward(leaves):
        updated, source = leaves[0], leaves[0] if shared else leaves[1]
        return _communicate(_comm_model(leaves[2:], A), updated, source)

    def scalar(arrs):
        return float((forward([Tensor(a) for a in arrs]).data * weight).sum())

    expected = finite_difference_grads(scalar, [a.copy() for a in arrays])
    leaves = _fresh(arrays)
    ad.backward(ad.tsum(ad.mul(forward(leaves), Tensor(weight))))
    if shared:
        assert leaves[1].grad is None
        expected[1] = None
    for leaf, e in zip(leaves, expected):
        if e is not None:
            assert np.max(np.abs(leaf.grad - e)) < 1e-7


def test_blend_gradcheck():
    rng = np.random.default_rng(32)
    mask = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))]
    weight = rng.normal(size=(2, 3, 4))

    def scalar(arrs):
        return float((_blend(mask, Tensor(arrs[0]), Tensor(arrs[1])).data * weight).sum())

    expected = finite_difference_grads(scalar, [a.copy() for a in arrays])
    cand, state = _fresh(arrays)
    out = _blend(mask, cand, state)
    assert out._parents == (cand, state)
    ad.backward(ad.tsum(ad.mul(out, Tensor(weight))))
    for g, e in zip((cand.grad, state.grad), expected):
        assert np.max(np.abs(g - e)) < 1e-7


# ---------------------------------------------------------------------------
# tape size of the RIM protocol
# ---------------------------------------------------------------------------


def _tape_nodes(loss):
    seen, stack, nodes = {id(loss)}, [loss], 0
    while stack:
        t = stack.pop()
        nodes += t._backward is not None
        for p in t._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def test_rim_backward_tape_stays_small():
    # the quantized adding protocol unrolls 60 RIM steps: this loss took
    # 2946 tape nodes with composite quantizer and GRU graphs, 1326 with
    # those fused, and 306 with the blend, the communication block and the
    # aux loss fused too (five nodes a step)
    config = adding_config(0, discretize=True)
    q, m, t = config.quantizer, config.model, config.task
    rng = np.random.default_rng(0)
    qcfg = QuantizerConfig(L=q.L, G=q.G, m=m.hidden, beta=q.beta, codebook_loss_weight=q.codebook_loss_weight)
    quantizer = CommunicationQuantizer(qcfg)
    quantizer.codebook.set_entries(rng.normal(size=(q.L, qcfg.d)))
    model = RimModel(rng, 2, m.hidden, m.modules, m.k, m.att_dim, quantizer=quantizer)
    regressor = RimRegressor(rng, model)
    inputs, targets = gen_adding(2, t.seq_len, t.train_gap, rng)
    pred = regressor(inputs)
    qouts = quantizer.take_outputs()
    assert len(qouts) == t.seq_len + t.train_gap
    loss = ad.add(ad.mse(pred, Tensor(targets)), combined_aux_loss(qouts, qcfg))
    assert _tape_nodes(loss) < 400
