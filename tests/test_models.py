import math

import numpy as np
import pytest

from vqcomm import autodiff as ad
from vqcomm.autodiff import Tensor
from vqcomm.models import (
    CommunicationQuantizer,
    ConfigError,
    ContrastiveWorldModel,
    GnnModel,
    MultiHeadAttention,
    RimModel,
    RimRegressor,
    TransformerBlock,
    TransformerClassifier,
    gnn_step,
    rim_step,
    transformer_forward,
)
from vqcomm.models.rim import input_attention_scores, top_k_mask
from vqcomm.quantizer import QuantizerConfig, quantize

from oracles import attention_reference


def _quantizer(L, G, m, rng, spread=1.0):
    q = CommunicationQuantizer(QuantizerConfig(L=L, G=G, m=m))
    q.codebook.set_entries(rng.normal(size=(L, m // G)) * spread)
    return q


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def test_attention_single_key_ignores_query():
    rng = np.random.default_rng(0)
    mha = MultiHeadAttention(rng, dim=8, heads=2)
    kv = rng.normal(size=(1, 8))
    out1 = mha(Tensor(rng.normal(size=(3, 8))), Tensor(kv), Tensor(kv))
    out2 = mha(Tensor(rng.normal(size=(3, 8))), Tensor(kv), Tensor(kv))
    assert np.allclose(out1.data, out2.data, atol=1e-15)
    expect = kv @ mha.w_v.data @ mha.w_o.data
    assert np.allclose(out1.data, np.tile(expect, (3, 1)), atol=1e-12)


def test_attention_identical_keys_split_weight():
    rng = np.random.default_rng(1)
    mha = MultiHeadAttention(rng, dim=6, heads=2)
    key = rng.normal(size=8)
    keys = np.tile(key[:6], (2, 1))
    weights = mha.attention_weights(Tensor(rng.normal(size=(4, 6))), Tensor(keys))
    for w in weights:
        assert np.allclose(w.data, 0.5, atol=1e-15)


def test_attention_matches_reference_oracle():
    rng = np.random.default_rng(2)
    mha = MultiHeadAttention(rng, dim=8, heads=2)
    q = rng.normal(size=(2, 8))
    k = rng.normal(size=(2, 8))
    v = rng.normal(size=(2, 8))
    out = mha(Tensor(q), Tensor(k), Tensor(v))
    expect = attention_reference(q, k, v, mha.w_q.data, mha.w_k.data, mha.w_v.data, mha.w_o.data, heads=2)
    assert np.max(np.abs(out.data - expect)) < 1e-12


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(3)
    mha = MultiHeadAttention(rng, dim=8, heads=4)
    weights = mha.attention_weights(Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(7, 8))))
    for w in weights:
        assert np.max(np.abs(w.data.sum(axis=-1) - 1.0)) < 1e-12


def test_attention_rejects_indivisible_heads():
    with pytest.raises(Exception, match="divisible"):
        MultiHeadAttention(np.random.default_rng(0), dim=7, heads=2)


# ---------------------------------------------------------------------------
# GNN
# ---------------------------------------------------------------------------


def _mlp_eval(mlp, x):
    out = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(mlp.layers):
        out = out @ layer.weight.data + layer.bias.data
        if i < len(mlp.layers) - 1:
            out = np.maximum(out, 0.0)
    return out


def _gnn_reference(model, nodes, actions):
    B, N, _ = nodes.shape
    deltas = np.zeros_like(nodes)
    for b in range(B):
        for i in range(N):
            agg = np.zeros(model.msg_dim)
            for j in range(N):
                if j == i:
                    continue
                agg += _mlp_eval(model.f_edge, np.concatenate([nodes[b, i], nodes[b, j]]))
            feat = np.concatenate([nodes[b, i], actions[b, i], agg])
            deltas[b, i] = _mlp_eval(model.f_node, feat)
    return deltas


def test_gnn_single_node_zero_message():
    rng = np.random.default_rng(4)
    model = GnnModel(rng, node_dim=3, action_dim=2, msg_dim=4)
    nodes = rng.normal(size=(2, 1, 3))
    actions = rng.normal(size=(2, 1, 2))
    delta = gnn_step(Tensor(nodes), Tensor(actions), model)
    expect = _mlp_eval(model.f_node, np.concatenate([nodes, actions, np.zeros((2, 1, 4))], axis=-1))
    assert np.max(np.abs(delta.data - expect)) < 1e-12


def test_gnn_single_node_quantized_message_snaps_to_codes():
    rng = np.random.default_rng(5)
    quantizer = _quantizer(4, 2, 4, rng)
    model = GnnModel(rng, node_dim=3, action_dim=2, msg_dim=4, quantizer=quantizer)
    nodes = rng.normal(size=(1, 1, 3))
    actions = rng.normal(size=(1, 1, 2))
    gnn_step(Tensor(nodes), Tensor(actions), model)
    qouts = quantizer.take_outputs()
    assert len(qouts) == 1
    d2 = (quantizer.codebook.entries.data**2).sum(axis=1)
    nearest_zero = quantizer.codebook.entries.data[d2.argmin()]
    expect_msg = np.concatenate([nearest_zero, nearest_zero])
    assert np.array_equal(qouts[0].z.data[0, 0], expect_msg)


def test_gnn_zero_node_function_leaves_bias_pattern():
    rng = np.random.default_rng(6)
    model = GnnModel(rng, node_dim=3, action_dim=2, msg_dim=4, hidden=5)
    for layer in model.f_node.layers:
        layer.weight.data[...] = 0.0
        layer.bias.data[...] = 0.0
    model.f_node.layers[-1].bias.data[...] = [0.5, -1.0, 2.0]
    delta = gnn_step(Tensor(rng.normal(size=(2, 3, 3))), Tensor(rng.normal(size=(2, 3, 2))), model)
    assert np.allclose(delta.data, [0.5, -1.0, 2.0], atol=1e-15)


def test_gnn_matches_direct_formula_oracle():
    rng = np.random.default_rng(7)
    model = GnnModel(rng, node_dim=4, action_dim=5, msg_dim=6, hidden=8)
    nodes = rng.normal(size=(3, 3, 4))
    actions = rng.normal(size=(3, 3, 5))
    delta = gnn_step(Tensor(nodes), Tensor(actions), model)
    assert np.max(np.abs(delta.data - _gnn_reference(model, nodes, actions))) < 1e-12


def test_gnn_communication_input_site_quantizes_edges():
    rng = np.random.default_rng(8)
    quantizer = _quantizer(8, 2, 6, rng, spread=2.0)
    model = GnnModel(rng, node_dim=4, action_dim=2, msg_dim=6, quantizer=quantizer, site="communication_input")
    nodes = rng.normal(size=(1, 3, 4))
    actions = rng.normal(size=(1, 3, 2))
    delta = gnn_step(Tensor(nodes), Tensor(actions), model)
    # oracle: quantize each edge message, then aggregate and run f_node
    entries = quantizer.codebook.entries.data
    B, N = 1, 3
    expect = np.zeros((B, N, 4))
    for i in range(N):
        agg = np.zeros(6)
        for j in range(N):
            if j == i:
                continue
            eps = _mlp_eval(model.f_edge, np.concatenate([nodes[0, i], nodes[0, j]]))
            snapped = np.concatenate(
                [entries[((entries - eps[h * 3 : (h + 1) * 3]) ** 2).sum(1).argmin()] for h in range(2)]
            )
            agg += snapped
        expect[0, i] = _mlp_eval(model.f_node, np.concatenate([nodes[0, i], actions[0, i], agg]))
    assert np.max(np.abs(delta.data - expect)) < 1e-12
    assert len(quantizer.take_outputs()) == 1


def test_gnn_invalid_site_rejected():
    with pytest.raises(ConfigError, match="invalid"):
        GnnModel(np.random.default_rng(0), 3, 2, 4, site="recurrent_update")


def test_contrastive_loss_gradients_flow():
    rng = np.random.default_rng(9)
    quantizer = _quantizer(4, 2, 6, rng)
    model = ContrastiveWorldModel(rng, raw_dim=2, node_dim=4, action_dim=5, msg_dim=6, quantizer=quantizer)
    obs = rng.normal(size=(4, 3, 2))
    nxt = rng.normal(size=(4, 3, 2))
    neg = rng.normal(size=(4, 3, 2))
    actions = rng.normal(size=(4, 3, 5))
    loss = model.contrastive_loss(obs, actions, nxt, neg)
    assert len(quantizer.take_outputs()) == 1
    for p in model.parameters():
        p.zero_grad()
    ad.backward(loss)
    # encoder and edge MLP sit upstream of the quantization site
    assert any(np.any(p.grad != 0) for p in model.encoder.parameters() if p.grad is not None)
    assert any(np.any(p.grad != 0) for p in model.gnn.f_edge.parameters() if p.grad is not None)


# ---------------------------------------------------------------------------
# transformer
# ---------------------------------------------------------------------------


def _transformer_reference(blocks, x):
    out = x.copy()
    for block in blocks:
        att = attention_reference(
            out, out, out,
            block.attn.w_q.data, block.attn.w_k.data, block.attn.w_v.data, block.attn.w_o.data,
            heads=block.attn.heads,
        )
        out = out + att
        ff = np.maximum(out @ block.ff1.weight.data + block.ff1.bias.data, 0.0)
        out = out + ff @ block.ff2.weight.data + block.ff2.bias.data
    return out


def test_transformer_disabled_quantizer_is_vanilla():
    rng = np.random.default_rng(10)
    blocks = [TransformerBlock(rng, dim=8, heads=2, ff_hidden=16, name=f"b{i}") for i in range(2)]
    x = rng.normal(size=(4, 8))
    out = transformer_forward(Tensor(x), blocks, quantizer=None)
    assert np.max(np.abs(out.data - _transformer_reference(blocks, x))) < 1e-12


def test_transformer_two_blocks_matches_oracle():
    rng = np.random.default_rng(11)
    blocks = [TransformerBlock(rng, dim=8, heads=2, ff_hidden=12, name=f"b{i}") for i in range(2)]
    x = rng.normal(size=(4, 8))
    out = transformer_forward(Tensor(x), blocks)
    assert np.max(np.abs(out.data - _transformer_reference(blocks, x))) < 1e-12


def test_transformer_fixed_point_quantization():
    rng = np.random.default_rng(12)
    quantizer = _quantizer(4, 2, 8, rng)
    block = TransformerBlock(rng, dim=8, heads=2, ff_hidden=16, apply_discretization=True)
    x = rng.normal(size=(3, 8))
    raw_att = block.attn(Tensor(x), Tensor(x), Tensor(x))
    # snap the attention output onto the codebook, then solve for an input
    # that reproduces it: easier to check z == att when att is code-aligned
    entries = quantizer.codebook.entries.data
    snapped = np.concatenate(
        [
            entries[((entries - raw_att.data[:, h * 4 : (h + 1) * 4][:, None, :]) ** 2).sum(-1).argmin(-1)]
            for h in range(2)
        ],
        axis=1,
    )
    z = quantizer.apply(Tensor(snapped))
    [qout] = quantizer.take_outputs()
    assert np.array_equal(z.data, snapped)
    assert qout.codebook_loss.item() == 0.0


def test_transformer_early_discretization_rejected():
    rng = np.random.default_rng(13)
    quantizer = _quantizer(4, 2, 8, rng)
    blocks = [
        TransformerBlock(rng, dim=8, heads=2, ff_hidden=16, apply_discretization=(i == 0), name=f"b{i}")
        for i in range(3)
    ]
    with pytest.raises(ConfigError, match="last two"):
        transformer_forward(Tensor(rng.normal(size=(4, 8))), blocks, quantizer)


def test_transformer_classifier_discretizes_last_two_only():
    rng = np.random.default_rng(14)
    quantizer = _quantizer(8, 2, 8, rng)
    model = TransformerClassifier(rng, vocab=5, dim=8, heads=2, num_blocks=3, max_len=10, quantizer=quantizer)
    flags = [b.apply_discretization for b in model.blocks]
    assert flags == [False, True, True]
    tokens = rng.integers(0, 5, size=(2, 6))
    marks = rng.integers(1, 6, size=2)
    logits = model(tokens, marks)
    assert logits.shape == (2, 5)
    assert len(quantizer.take_outputs()) == 2


# ---------------------------------------------------------------------------
# RIM
# ---------------------------------------------------------------------------


def _gru_eval(model, i, h, x):
    """Plain-numpy evaluation of module i's GRU cell from the stacked weights."""
    gx = x @ model.gru.w_x.data[i] + model.gru.b_x.data[i, 0]
    gh = h @ model.gru.w_h.data[i] + model.gru.b_h.data[i, 0]
    H = h.shape[-1]
    xr, xz, xn = gx[:, :H], gx[:, H : 2 * H], gx[:, 2 * H :]
    hr, hz, hn = gh[:, :H], gh[:, H : 2 * H], gh[:, 2 * H :]
    r = 1 / (1 + np.exp(-(xr + hr)))
    z = 1 / (1 + np.exp(-(xz + hz)))
    n = np.tanh(xn + r * hn)
    return (1 - z) * n + z * h


def _rim_reference(model, state, x):
    B = state.shape[0]
    q = state @ model.in_query.weight.data
    kx = x @ model.in_key.weight.data + model.in_key.bias.data
    k0 = np.tile(model.in_key.bias.data, (B, 1))
    scale = 1 / math.sqrt(model.att_dim)
    lx = (q * kx[:, None, :]).sum(-1) * scale
    l0 = (q * k0[:, None, :]).sum(-1) * scale
    stacked = np.stack([lx, l0], -1)
    stacked -= stacked.max(-1, keepdims=True)
    e = np.exp(stacked)
    w = e[..., 0] / e.sum(-1)
    order = np.argsort(-w, axis=-1, kind="stable")
    mask = np.zeros_like(w)
    mask[np.arange(B)[:, None], order[:, : model.k]] = 1.0

    hatz = np.zeros_like(state)
    for i in range(model.M):
        cand = _gru_eval(model, i, state[:, i], x)
        hatz[:, i] = mask[:, i : i + 1] * cand + (1 - mask[:, i : i + 1]) * state[:, i]

    qq = hatz @ model.comm_query.weight.data
    kk = hatz @ model.comm_key.weight.data
    vv = hatz @ model.comm_value.weight.data
    logits = qq @ kk.transpose(0, 2, 1) / math.sqrt(model.att_dim)
    ex = np.exp(logits - logits.max(-1, keepdims=True))
    att = ex / ex.sum(-1, keepdims=True)
    h = att @ vv
    return hatz + h, mask


def _active_mask(model, state, x):
    return top_k_mask(input_attention_scores(model, Tensor(state), Tensor(x)), model.k)


def test_rim_all_modules_active_when_k_equals_M():
    rng = np.random.default_rng(15)
    model = RimModel(rng, input_dim=2, hidden=6, num_modules=3, k=3)
    mask = _active_mask(model, np.zeros((4, 3, 6)), rng.normal(size=(4, 2)))
    assert np.array_equal(mask, np.ones((4, 3)))


def test_rim_matches_pseudocode_oracle():
    rng = np.random.default_rng(17)
    model = RimModel(rng, input_dim=3, hidden=7, num_modules=3, k=2)
    model.comm_value.weight.data[...] = rng.normal(size=(7, 7)) * 0.3
    state = rng.normal(size=(4, 3, 7))
    x = rng.normal(size=(4, 3))
    out = rim_step(Tensor(state), Tensor(x), model)
    expect, mask = _rim_reference(model, state, x)
    assert np.max(np.abs(out.data - expect)) < 1e-12
    assert mask.sum(axis=1).tolist() == [2.0] * 4


def test_rim_rejects_k_above_M():
    with pytest.raises(ConfigError):
        RimModel(np.random.default_rng(0), input_dim=2, hidden=4, num_modules=2, k=3)


def test_rim_inactive_state_preserved_bit_exact():
    rng = np.random.default_rng(18)
    model = RimModel(rng, input_dim=2, hidden=6, num_modules=4, k=2)
    state = rng.normal(size=(3, 4, 6))
    x = rng.normal(size=(3, 2))
    # the communication value projection starts at zero, so the new state
    # is the state after the recurrent update, bit for bit
    new = rim_step(Tensor(state), Tensor(x), model)
    mask = _active_mask(model, state, x)
    for b in range(3):
        for i in range(4):
            if mask[b, i] == 0.0:
                assert np.array_equal(new.data[b, i], state[b, i])


def test_rim_communication_rows_sum_to_one(monkeypatch):
    rng = np.random.default_rng(19)
    model = RimModel(rng, input_dim=2, hidden=6, num_modules=4, k=2)
    weights = []
    softmax_rows = ad.softmax_rows

    def recording_softmax_rows(x):
        weights.append(softmax_rows(x))
        return weights[-1]

    # a step takes two softmaxes over arrays: the input attention (real
    # input versus null, per module), then the communication attention
    monkeypatch.setattr(ad, "softmax_rows", recording_softmax_rows)
    rim_step(model.init_state(5), Tensor(rng.normal(size=(5, 2))), model)
    assert [w.shape for w in weights] == [(5, 4, 2), (5, 4, 4)]
    for w in weights:
        assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12


def test_rim_recurrent_update_site_matches_variant_oracle():
    rng = np.random.default_rng(20)
    quantizer = _quantizer(6, 2, 6, rng, spread=0.5)
    model = RimModel(rng, input_dim=2, hidden=6, num_modules=3, k=2, quantizer=quantizer, site="recurrent_update")
    state = rng.normal(size=(2, 3, 6)) * 0.3
    x = rng.normal(size=(2, 2))
    # zero communication values: the new state is the updated state
    new = rim_step(Tensor(state), Tensor(x), model)
    mask = _active_mask(model, state, x)
    entries = quantizer.codebook.entries.data
    # variant oracle: active modules move by the quantized update delta
    for b in range(2):
        for i in range(3):
            if mask[b, i] == 1.0:
                cand = _gru_eval(model, i, state[b : b + 1, i], x[b : b + 1])[0]
                delta = cand - state[b, i]
                snapped = np.concatenate(
                    [entries[((entries - delta[h * 3 : (h + 1) * 3]) ** 2).sum(1).argmin()] for h in range(2)]
                )
                assert np.array_equal(new.data[b, i], state[b, i] + snapped)
            else:
                assert np.array_equal(new.data[b, i], state[b, i])


def test_rim_default_site_equals_communication_result():
    rng1 = np.random.default_rng(21)
    rng2 = np.random.default_rng(21)
    q1 = _quantizer(4, 2, 6, np.random.default_rng(99))
    q2 = _quantizer(4, 2, 6, np.random.default_rng(99))
    m1 = RimModel(rng1, input_dim=2, hidden=6, num_modules=3, k=2, quantizer=q1)
    m2 = RimModel(rng2, input_dim=2, hidden=6, num_modules=3, k=2, quantizer=q2, site="communication_result")
    state = np.random.default_rng(1).normal(size=(2, 3, 6))
    x = np.random.default_rng(2).normal(size=(2, 2))
    out1 = rim_step(Tensor(state), Tensor(x), m1)
    out2 = rim_step(Tensor(state), Tensor(x), m2)
    assert np.array_equal(out1.data, out2.data)


def test_rim_quantizer_dim_validation():
    rng = np.random.default_rng(22)
    with pytest.raises(ConfigError, match="dimension"):
        RimModel(rng, input_dim=2, hidden=6, num_modules=3, k=2, quantizer=_quantizer(4, 2, 4, rng))


def test_rim_upstream_gradients_flow_through_quantizer():
    rng = np.random.default_rng(23)
    quantizer = _quantizer(8, 2, 6, rng)
    model = RimModel(rng, input_dim=2, hidden=6, num_modules=3, k=3, quantizer=quantizer)
    regressor = RimRegressor(rng, model)
    inputs = rng.normal(size=(4, 5, 2))
    pred = regressor(inputs)
    assert len(quantizer.take_outputs()) == inputs.shape[1]
    loss = ad.tmean(ad.mul(pred, pred))
    for p in regressor.parameters():
        p.zero_grad()
    ad.backward(loss)
    assert any(p.grad is not None and np.any(p.grad != 0) for p in model.comm_value.parameters())
    assert any(p.grad is not None and np.any(p.grad != 0) for p in model.gru.parameters())


def test_shared_codebook_identity_across_sites():
    rng = np.random.default_rng(24)
    quantizer = _quantizer(8, 2, 8, rng)
    model = TransformerClassifier(rng, vocab=4, dim=8, heads=2, num_blocks=3, max_len=8, quantizer=quantizer)
    assert model.blocks[1].apply_discretization and model.blocks[2].apply_discretization
    assert model.quantizer is quantizer
    tokens = rng.integers(0, 4, size=(2, 5))
    marks = rng.integers(1, 5, size=2)
    model(tokens, marks)
    qouts = quantizer.take_outputs()
    assert len(qouts) == 2
    # both discretized blocks must have gone through the one shared codebook
    grads_before = quantizer.codebook.entries.grad
    assert grads_before is None
    loss = ad.add(ad.scale(qouts[0].codebook_loss, 1.0), ad.scale(qouts[1].codebook_loss, 1.0))
    ad.backward(loss)
    assert quantizer.codebook.entries.grad is not None


def test_quantizer_rejects_empty_warmup_reservoir():
    with pytest.raises(ConfigError, match="warmup_vectors"):
        CommunicationQuantizer(QuantizerConfig(L=4, G=2, m=4), warmup_vectors=0)


def test_quantizer_counts_the_codes_of_every_snap():
    rng = np.random.default_rng(9)
    quantizer = CommunicationQuantizer(QuantizerConfig(L=4, G=2, m=4), warmup_vectors=8)
    h = rng.normal(size=(3, 4))
    quantizer.apply(Tensor(h))  # collecting passes the vectors through and picks no code
    assert quantizer.take_usage().tolist() == [0, 0, 0, 0]
    quantizer.initialize(rng=np.random.default_rng(0))
    picked = quantize(Tensor(h), quantizer.config, quantizer.codebook).indices
    quantizer.apply(Tensor(h))
    with ad.no_grad([quantizer.codebook.entries]):
        quantizer.apply(Tensor(h[:1]))
    usage = quantizer.take_usage()
    want = np.bincount(np.concatenate([picked.reshape(-1), picked[0]]) - 1, minlength=4)
    assert usage.dtype == np.int64 and usage.tolist() == want.tolist()
    assert quantizer.take_usage().tolist() == [0, 0, 0, 0]


def test_small_reservoir_warns_of_duplicate_codes(caplog):
    rng = np.random.default_rng(27)
    quantizer = CommunicationQuantizer(QuantizerConfig(L=8, G=2, m=4), warmup_vectors=3)
    quantizer.apply(Tensor(rng.normal(size=(5, 4))))
    with caplog.at_level("WARNING", logger="vqcomm"):
        quantizer.initialize(rng=np.random.default_rng(0))
    assert quantizer.active
    [record] = caplog.records
    assert "3 vectors" in record.getMessage() and "8 codes" in record.getMessage()


def test_full_reservoir_does_not_warn(caplog):
    rng = np.random.default_rng(28)
    quantizer = CommunicationQuantizer(QuantizerConfig(L=4, G=2, m=4), warmup_vectors=8)
    quantizer.apply(Tensor(rng.normal(size=(5, 4))))
    with caplog.at_level("WARNING", logger="vqcomm"):
        quantizer.initialize(rng=np.random.default_rng(0))
    assert not caplog.records
