"""The fused tape nodes (VQ loss tail, GRU cell) against the composite graphs
they replace, built here from autodiff primitives.

Forward values and every gradient must match bit for bit: the fused
backwards repeat the composite float order, which keeps run records
byte-identical.
"""

import functools

import numpy as np
import pytest

from vqcomm import autodiff as ad
from vqcomm.autodiff import Tensor
from vqcomm.models.common import CommunicationQuantizer
from vqcomm.models.rim import RimModel, RimRegressor
from vqcomm.nn import StackedGRU, gru_cell
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

from oracles import finite_difference_grads

# ---------------------------------------------------------------------------
# composite reference graphs
# ---------------------------------------------------------------------------


def _gru_gates(gx, gh, h):
    xr, xz, xn = ad.split(gx, 3, axis=-1)
    hr, hz, hn = ad.split(gh, 3, axis=-1)
    r = ad.sigmoid(ad.add(xr, hr))
    z = ad.sigmoid(ad.add(xz, hz))
    n = ad.tanh(ad.add(xn, ad.mul(r, hn)))
    one_minus_z = ad.add(ad.scale(z, -1.0), 1.0)
    return ad.add(ad.mul(one_minus_z, n), ad.mul(z, h))


def _composite_gru(h, x, w_x, w_h, b_x, b_h):
    gx = ad.add(ad.matmul(x, w_x), b_x)
    gh = ad.add(ad.matmul(h, w_h), b_h)
    return _gru_gates(gx, gh, h)


def _aux_tail(segs, entries, idx0, batch, G):
    picked = ad.gather_rows(entries, idx0)
    norm = 1.0 / (batch * G)
    codebook_loss = ad.scale(ad.tsum(ad.sqdist(ad.stop_gradient(segs), picked)), norm)
    commitment_loss = ad.scale(ad.tsum(ad.sqdist(segs, ad.stop_gradient(picked))), norm)
    return codebook_loss, commitment_loss


def _composite_quantize(h, cfg, book):
    single = h.ndim == 1
    hb = ad.reshape(h, (1, cfg.m)) if single else h
    batch = hb.shape[0]
    segs = ad.reshape(hb, (batch, cfg.G, cfg.d))
    idx0 = nearest_indices(segs.data, book.entries.data)
    z = ad.straight_through(hb, book.entries.data[idx0].reshape(batch, cfg.m))
    cb, cm = _aux_tail(segs, book.entries, idx0, batch, cfg.G)
    if single:
        z = ad.reshape(z, (cfg.m,))
    return z, cb, cm


def _composite_gumbel(h, cfg, book, temperature, noise, hard):
    single = h.ndim == 1
    hb = ad.reshape(h, (1, cfg.m)) if single else h
    batch = hb.shape[0]
    segs = ad.reshape(hb, (batch, cfg.G, cfg.d))
    seg4 = ad.reshape(segs, (batch, cfg.G, 1, cfg.d))
    logits = ad.scale(ad.sqdist(seg4, book.entries), -1.0)
    y = ad.softmax(ad.scale(ad.add(logits, Tensor(noise)), 1.0 / temperature))
    z = ad.reshape(ad.matmul(y, book.entries), (batch, cfg.m))
    idx0 = (logits.data + noise).argmax(axis=-1)
    if hard:
        z = ad.straight_through(z, book.entries.data[idx0].reshape(batch, cfg.m))
    cb, cm = _aux_tail(segs, book.entries, idx0, batch, cfg.G)
    if single:
        z = ad.reshape(z, (cfg.m,))
    return z, cb, cm


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _fresh(arrays):
    """New leaf tensors (so gradients start empty) over copies of ``arrays``."""
    return [Tensor(a.copy(), requires_grad=True) for a in arrays]


def _book(entries):
    return Codebook(*entries.shape, entries=entries.copy(), initialized=True)


def _assert_same(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)


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


@pytest.mark.parametrize("shape", [(6, 6), (6,)], ids=["batch", "single"])
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


@pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
@pytest.mark.parametrize("shape", [(4, 8), (8,)], ids=["batch", "single"])
def test_gumbel_matches_composite_graph(hard, shape):
    rng = np.random.default_rng(12)
    cfg = QuantizerConfig(L=6, G=4, m=8)
    h = rng.normal(size=shape)
    entries = rng.normal(size=(6, 2))
    weight = rng.normal(size=shape)
    batch = shape[0] if len(shape) == 2 else 1
    noise = rng.gumbel(size=(batch, cfg.G, cfg.L))

    def fused(hh, c, book):
        out = gumbel_quantize(hh, c, book, temperature=0.7, noise=noise, hard=hard)
        return out.z, out.codebook_loss, out.commitment_loss

    def composite(hh, c, book):
        return _composite_gumbel(hh, c, book, 0.7, noise, hard)

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


# ---------------------------------------------------------------------------
# fused GRU cell
# ---------------------------------------------------------------------------


def _gru_arrays(rng, stacked):
    M, B, d_in, H = 3, 4, 2, 5
    lead = (M,) if stacked else ()
    h = rng.uniform(-1, 1, size=lead + (B, H))
    x = rng.uniform(-1, 1, size=(B, d_in))
    w_x = rng.normal(size=lead + (d_in, 3 * H))
    w_h = rng.normal(size=lead + (H, 3 * H))
    b_x = rng.normal(size=(M, 1, 3 * H) if stacked else (3 * H,))
    b_h = rng.normal(size=(M, 1, 3 * H) if stacked else (3 * H,))
    return [h, x, w_x, w_h, b_x, b_h]


def _cell_result(cell_fn, arrays, weight):
    leaves = _fresh(arrays)
    out = cell_fn(*leaves)
    ad.backward(ad.tsum(ad.mul(out, Tensor(weight))))
    return out.data, [t.grad for t in leaves]


def _fused_cell(module, h, x, w_x, w_h, b_x, b_h):
    module.w_x, module.w_h, module.b_x, module.b_h = w_x, w_h, b_x, b_h
    return module(h, x)


# "GRUCell": one unstacked cell, ``nn.gru_cell`` on 2-D weights
@pytest.mark.parametrize("stacked", [True, False], ids=["StackedGRU", "GRUCell"])
def test_gru_cell_matches_composite_graph(stacked):
    rng = np.random.default_rng(21)
    fused = functools.partial(_fused_cell, StackedGRU(rng, 3, 2, 5)) if stacked else gru_cell
    arrays = _gru_arrays(rng, stacked)
    weight = rng.normal(size=arrays[0].shape)
    out_f, grads_f = _cell_result(fused, arrays, weight)
    out_c, grads_c = _cell_result(_composite_gru, arrays, weight)
    _assert_same(out_f, out_c)
    for a, b in zip(grads_f, grads_c):
        _assert_same(a, b)


def test_stacked_gru_is_one_node():
    rng = np.random.default_rng(22)
    gru = StackedGRU(rng, 3, 2, 5)
    h = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 2)))
    out = gru(h, x)
    assert out._parents == (h, x, gru.w_x, gru.w_h, gru.b_x, gru.b_h)


def test_stacked_gru_gradcheck():
    rng = np.random.default_rng(23)
    arrays = _gru_arrays(rng, stacked=True)
    cell = functools.partial(_fused_cell, StackedGRU(rng, 3, 2, 5))

    def scalar(arrs):
        return float(cell(*[Tensor(a) for a in arrs]).data.sum())

    expected = finite_difference_grads(scalar, [a.copy() for a in arrays])
    _, grads = _cell_result(cell, arrays, np.ones(arrays[0].shape))
    for g, e in zip(grads, expected):
        assert np.max(np.abs(g - e)) < 1e-6


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
    # 2946 tape nodes with composite quantizer and GRU graphs, 1326 fused
    config = adding_config(0, discretize=True)
    q, m, t = config.quantizer, config.model, config.task
    rng = np.random.default_rng(0)
    qcfg = QuantizerConfig(L=q.L, G=q.G, m=m.hidden, beta=q.beta, codebook_loss_weight=q.codebook_loss_weight)
    quantizer = CommunicationQuantizer(qcfg)
    quantizer.codebook.set_entries(rng.normal(size=(q.L, qcfg.d)))
    model = RimModel(rng, 2, m.hidden, m.modules, m.k, m.att_dim, quantizer=quantizer)
    regressor = RimRegressor(rng, model)
    samples = gen_adding(2, t.seq_len, t.train_gap, rng)
    inputs = np.stack([s.inputs for s in samples])
    targets = np.array([[s.target] for s in samples])
    pred = regressor(inputs)
    qouts = quantizer.take_outputs()
    assert len(qouts) == t.seq_len + t.train_gap
    loss = ad.add(ad.mse(pred, Tensor(targets)), combined_aux_loss(qouts, qcfg))
    assert _tape_nodes(loss) < 1500
