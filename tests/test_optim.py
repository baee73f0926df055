import numpy as np
import pytest

from vqcomm import autodiff as ad
from vqcomm.autodiff import Tensor
from vqcomm.nn import Linear, MLP, Parameter, glorot, gru_cell
from vqcomm.optim import Adam, MissingGradient, SGD


def test_sgd_single_step():
    p = Parameter(np.zeros(()))
    p.grad = np.ones(())
    SGD([p], lr=0.1).step()
    assert p.data == -0.1


def test_sgd_two_steps_equal_one_at_doubled_lr():
    p1 = Parameter(np.array([1.0, -2.0]))
    p2 = Parameter(np.array([1.0, -2.0]))
    g = np.array([0.3, 0.7])
    opt1 = SGD([p1], lr=0.05)
    for _ in range(2):
        p1.grad = g.copy()
        opt1.step()
    p2.grad = g.copy()
    SGD([p2], lr=0.1).step()
    assert np.allclose(p1.data, p2.data, atol=1e-15)


def test_adam_first_step_magnitude_near_lr():
    p = Parameter(np.zeros(3))
    p.grad = np.ones(3)
    Adam([p], lr=0.01).step()
    # bias-corrected first step moves by lr up to the eps effect
    assert np.all(np.abs(np.abs(p.data) - 0.01) < 1e-6)
    assert np.all(p.data < 0)


def test_missing_gradient_rejected():
    p = Parameter(np.zeros(2))
    with pytest.raises(MissingGradient):
        SGD([p], lr=0.1).step()
    with pytest.raises(MissingGradient):
        Adam([p], lr=0.1).step()


def test_adam_state_shapes_match_parameters():
    rng = np.random.default_rng(0)
    layer = Linear(rng, 3, 4)
    opt = Adam(layer.parameters(), lr=1e-3)
    for p, m, v in zip(opt.params, opt.m, opt.v):
        assert m.shape == p.data.shape
        assert v.shape == p.data.shape


def _train_trajectory(seed):
    rng = np.random.default_rng(seed)
    model = MLP(rng, [4, 8, 1])
    x = Tensor(rng.normal(size=(16, 4)))
    y = Tensor(rng.normal(size=(16, 1)))
    opt = Adam(model.parameters(), lr=1e-2)
    snaps = []
    for _ in range(5):
        opt.zero_grad()
        loss = ad.mse(model(x), y)
        ad.backward(loss)
        opt.step()
        snaps.append(np.concatenate([p.data.reshape(-1).copy() for p in model.parameters()]))
    return snaps


def test_deterministic_trajectories():
    a = _train_trajectory(123)
    b = _train_trajectory(123)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa, sb)


def test_gru_cell_gradcheck():
    from oracles import finite_difference_grads

    rng = np.random.default_rng(5)
    # M=2 module cells, d_in=3, H=4: (w_x, w_h, b_x, b_h) with the module axis first, state (B=5, M, H)
    params = [
        Parameter(np.stack([glorot(rng, 3, 12) for _ in range(2)])),
        Parameter(np.stack([glorot(rng, 4, 12) for _ in range(2)])),
        Parameter(np.zeros((2, 1, 12))),
        Parameter(np.zeros((2, 1, 12))),
    ]
    h0 = rng.uniform(-1, 1, size=(5, 2, 4))
    x0 = rng.uniform(-1, 1, size=(5, 3))

    def scalar(arrs):
        for p, a in zip(params, arrs):
            p.data = a
        out = gru_cell(Tensor(h0), Tensor(x0), *params)
        return float(out.data.sum())

    arrays = [p.data.copy() for p in params]
    expected = finite_difference_grads(scalar, arrays)
    for p, a in zip(params, arrays):
        p.data = a
        p.zero_grad()
    out = gru_cell(Tensor(h0), Tensor(x0), *params)
    ad.backward(ad.tsum(out))
    for p, e in zip(params, expected):
        assert np.max(np.abs(p.grad - e)) < 1e-6
