"""``ad.no_grad``: frozen forwards compute the same values and keep no tape."""

import tracemalloc

import numpy as np
import pytest

from vqcomm import autodiff as ad
from vqcomm import runner
from vqcomm.autodiff import Tensor
from vqcomm.models import CommunicationQuantizer, ContrastiveWorldModel, RimModel, RimRegressor, TransformerClassifier
from vqcomm.nn import Parameter, StackedGRU
from vqcomm.quantizer import Codebook, QuantizerConfig, quantize

import oracles


def _active_quantizer(rng, L, G, m, method="vq"):
    q = CommunicationQuantizer(QuantizerConfig(L=L, G=G, m=m), method=method)
    q.codebook.set_entries(rng.normal(size=(L, m // G)))
    return q


def _outputs(forward, quantizer=None):
    """Run ``forward``: the tensors it returns, then the tensor each snap of ``quantizer`` returned."""
    snapped = []
    if quantizer is not None:
        apply = quantizer.apply

        def recording(h):
            snapped.append(apply(h))
            return snapped[-1]

        quantizer.apply = recording
    try:
        result = forward()
    finally:
        if quantizer is not None:
            del quantizer.apply
    return (list(result) if isinstance(result, (list, tuple)) else [result]) + snapped


def _assert_same_forward(forward, params, quantizer=None, taped_method=None):
    """The forward under ``ad.no_grad(params)`` equals the taped one and builds
    no tape. With ``taped_method``, the quantizer runs the taped forward as
    that method."""
    method = quantizer.method if quantizer is not None else None
    if taped_method is not None:
        quantizer.method = taped_method
    plain = _outputs(forward, quantizer)
    assert any(t.requires_grad for t in plain)
    if quantizer is not None:  # a forward on the tape keeps every snap's output
        assert len(quantizer.take_outputs()) == len(plain) - 1
        quantizer.method = method
    with ad.no_grad(params):
        frozen = _outputs(forward, quantizer)
    assert len(frozen) == len(plain)
    for a, b in zip(plain, frozen):
        assert np.array_equal(a.data, b.data)
        assert not b.requires_grad
        assert b._parents == () and b._backward is None
    if quantizer is not None:  # and a frozen one keeps none
        assert quantizer.take_outputs() == []
    assert all(p.requires_grad for p in params)


@pytest.mark.parametrize("method", ["vq", "gumbel"])
def test_rim_regressor_forward_unchanged(method):
    """Frozen, a gumbel quantizer snaps to the nearest code: its forward equals
    the taped forward of a vq quantizer over the same codebook."""
    rng = np.random.default_rng(0)
    quantizer = _active_quantizer(rng, L=6, G=2, m=8, method=method)
    quantizer.rng = np.random.default_rng(1)  # a frozen snap that sampled would draw from it
    model = RimModel(rng, input_dim=2, hidden=8, num_modules=3, k=2, att_dim=4, quantizer=quantizer)
    regressor = RimRegressor(rng, model)
    inputs = rng.normal(size=(5, 7, 2))
    params = regressor.parameters() + [quantizer.codebook.entries]
    _assert_same_forward(lambda: regressor(inputs), params, quantizer, taped_method="vq")


def test_world_model_forwards_unchanged():
    rng = np.random.default_rng(2)
    quantizer = _active_quantizer(rng, L=5, G=2, m=6)
    model = ContrastiveWorldModel(rng, raw_dim=2, node_dim=4, action_dim=5, msg_dim=6, hidden=8, quantizer=quantizer)
    obs = rng.normal(size=(4, 3, 2))
    actions = np.eye(5)[rng.integers(0, 5, size=(4, 3))]
    params = model.parameters() + [quantizer.codebook.entries]
    _assert_same_forward(lambda: model.predict_next(obs, actions), params, quantizer)
    _assert_same_forward(lambda: model.encode(obs), params)


def test_transformer_forward_unchanged():
    rng = np.random.default_rng(3)
    quantizer = _active_quantizer(rng, L=6, G=2, m=8)
    model = TransformerClassifier(rng, vocab=5, dim=8, heads=2, num_blocks=3, max_len=10, quantizer=quantizer)
    tokens = rng.integers(0, 5, size=(4, 6))
    marks = rng.integers(1, 6, size=4)
    params = model.parameters() + [quantizer.codebook.entries]
    _assert_same_forward(lambda: model(tokens, marks), params, quantizer)


def test_quantize_unchanged():
    """A frozen snap gives the taped snap's ``z``, indices and ``diff``, and no losses."""
    rng = np.random.default_rng(4)
    cfg = QuantizerConfig(L=5, G=3, m=6)
    book = Codebook(5, 2, entries=rng.normal(size=(5, 2)), initialized=True)
    h = Parameter(rng.normal(size=(7, 6)))
    _assert_same_forward(lambda: quantize(h, cfg, book).z, [h, book.entries])
    taped = quantize(h, cfg, book)
    with ad.no_grad([h, book.entries]):
        frozen = quantize(h, cfg, book)
    assert np.array_equal(frozen.indices, taped.indices) and np.array_equal(frozen.diff, taped.diff)
    assert taped.codebook_loss is not None and taped.commitment_loss is not None
    assert frozen.codebook_loss is None and frozen.commitment_loss is None


@pytest.mark.parametrize("d", [2, 4])  # the coordinate loop and the GEMM screen
def test_frozen_snap_equals_the_taped_snap_and_builds_no_loss(d):
    rng = np.random.default_rng(9)
    quantizer = _active_quantizer(rng, L=7, G=3, m=3 * d)
    h = Parameter(rng.normal(size=(5, 2, 3 * d)))
    params = [h, quantizer.codebook.entries]
    z = quantizer.apply(h)
    [taped] = quantizer.take_outputs()
    usage = quantizer.take_usage()
    assert usage.sum() == 30
    with ad.no_grad(params):
        frozen = quantize(h, quantizer.config, quantizer.codebook)
        frozen_z = quantizer.apply(h)
    assert quantizer.take_outputs() == []
    assert np.array_equal(quantizer.take_usage(), usage)
    for t in (frozen.z, frozen_z):
        assert np.array_equal(t.data, z.data) and t._parents == () and not t.requires_grad
    assert np.array_equal(frozen.indices, taped.indices) and np.array_equal(frozen.diff, taped.diff)
    assert frozen.codebook_loss is None and frozen.commitment_loss is None


@pytest.mark.parametrize("d", [2, 4])
def test_frozen_snap_still_rejects_a_nan_head(d):
    rng = np.random.default_rng(10)
    quantizer = _active_quantizer(rng, L=5, G=2, m=2 * d)
    h = rng.normal(size=(4, 2 * d))
    h[2, d] = np.nan
    with ad.no_grad([quantizer.codebook.entries]):
        with pytest.raises(FloatingPointError, match="non-finite"):
            quantizer.apply(Tensor(h))
    assert quantizer.take_usage().sum() == 0


def test_frozen_gru_cell_equals_the_taped_cell():
    rng = np.random.default_rng(11)
    gru = StackedGRU(rng, 3, 2, 5)
    h = Parameter(rng.normal(size=(4, 3, 5)))
    x = Parameter(rng.normal(size=(4, 2)))
    _assert_same_forward(lambda: gru(h, x), [h, x] + gru.parameters())


def test_quantizer_keeps_outputs_only_when_a_loss_is_on_the_tape():
    rng = np.random.default_rng(6)
    quantizer = _active_quantizer(rng, L=4, G=2, m=4)
    h = rng.normal(size=(3, 2, 4))
    with ad.no_grad([quantizer.codebook.entries]):
        z = quantizer.apply(Tensor(h))
        assert quantizer.take_outputs() == []
        quantizer.apply(Parameter(h))  # the commitment loss still trains the sender
        [kept] = quantizer.take_outputs()
    assert np.array_equal(kept.z.data, z.data) and kept.indices.shape == (6, 2)
    quantizer.apply(Tensor(h))  # the codebook loss trains the codes
    assert len(quantizer.take_outputs()) == 1
    assert quantizer.take_outputs() == []


def test_frozen_gumbel_snaps_to_the_nearest_code_without_sampling():
    rng = np.random.default_rng(7)
    quantizer = _active_quantizer(rng, L=5, G=2, m=4, method="gumbel")
    quantizer.rng = np.random.default_rng(8)
    h = rng.normal(size=(6, 4))
    want = quantize(Tensor(h), quantizer.config, quantizer.codebook)
    state = quantizer.rng.bit_generator.state
    with ad.no_grad([quantizer.codebook.entries]):
        z = quantizer.apply(Tensor(h))
    assert np.array_equal(z.data, want.z.data)
    assert quantizer.rng.bit_generator.state == state
    assert np.array_equal(quantizer.take_usage(), np.bincount(want.indices.reshape(-1) - 1, minlength=5))
    quantizer.apply(Tensor(h))  # a training snap samples its codes
    assert quantizer.rng.bit_generator.state != state


def test_flags_restored_after_normal_exit():
    live = Parameter(np.ones(3))
    frozen = Tensor(np.ones(3))
    with ad.no_grad([live, frozen, live]):
        assert not live.requires_grad and not frozen.requires_grad
        out = oracles.tanh(ad.mul(live, frozen))
    assert live.requires_grad and not frozen.requires_grad
    assert not out.requires_grad and out._parents == ()


def test_flags_restored_after_exception():
    live = Parameter(np.ones(3))
    frozen = Tensor(np.ones(3))
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad([live, frozen]):
            raise RuntimeError("inside")
    assert live.requires_grad and not frozen.requires_grad


def _eval_peak_mb(steps: int, quantized: bool = False) -> float:
    """Traced peak of one evaluation of 128 sequences of ``steps`` steps by an
    untrained RIM, with or without a quantizer whose codebook is seeded."""
    rng = np.random.default_rng(5)
    quantizer = _active_quantizer(rng, L=16, G=8, m=32) if quantized else None
    regressor = RimRegressor(rng, RimModel(rng, input_dim=2, hidden=32, num_modules=4, k=2, quantizer=quantizer))
    params = regressor.parameters() + ([quantizer.codebook.entries] if quantized else [])
    inputs, targets = rng.uniform(size=(128, steps, 2)), rng.uniform(size=(128, 1))
    tracemalloc.start()
    try:
        with ad.no_grad(params):
            runner._eval_adding(regressor, inputs, targets)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_evaluation_peak_flat_in_sequence_length():
    short, long = _eval_peak_mb(30), _eval_peak_mb(110)
    assert long <= 1.5 * short, f"evaluation peak {short:.1f} MB at T=30 but {long:.1f} MB at T=110"


def test_quantized_evaluation_peak_flat_in_sequence_length():
    """A frozen forward keeps no snap output, so the quantized peak does not
    grow with T either (keeping them cost about 0.16 MB a step here)."""
    short, long = _eval_peak_mb(30, quantized=True), _eval_peak_mb(110, quantized=True)
    assert long <= 1.5 * short, f"evaluation peak {short:.1f} MB at T=30 but {long:.1f} MB at T=110"
