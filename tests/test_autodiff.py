import numpy as np
import pytest

from vqcomm import autodiff as ad
from vqcomm.autodiff import ShapeError, Tensor

import oracles
from oracles import finite_difference_grads


def _rand(rng, *shape):
    x = rng.uniform(-1, 1, size=shape)
    # keep clear of relu's kink so finite differences stay meaningful
    x[np.abs(x) < 1e-3] = 0.1
    return x


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 5))
    out = ad.matmul(Tensor(np.eye(3)), Tensor(x))
    assert np.array_equal(out.data, x)


def test_softmax_length_one_axis():
    out = ad.softmax(Tensor([[4.2]]))
    assert out.data.tolist() == [[1.0]]


def test_mse_zero_case():
    out = ad.mse(Tensor([1.0, 2.0]), Tensor([1.0, 2.0]))
    assert out.item() == 0.0


def test_shape_mismatch_names_kind():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError, match="mse"):
        ad.mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ad.scale(x, 2.0)
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(y)


def test_backward_sum_of_squares():
    x = Tensor([1.0, -2.0], requires_grad=True)
    loss = ad.tsum(ad.mul(x, x))
    ad.backward(loss)
    assert x.grad.tolist() == [2.0, -4.0]


def test_stop_gradient_forward_bit_identical():
    x = Tensor([3.5], requires_grad=True)
    y = oracles.stop_gradient(x)
    assert y.data.tolist() == [3.5]
    assert not y.requires_grad


def test_stop_gradient_blocks_backward():
    x = Tensor(np.array([0.3, -1.2, 4.0]), requires_grad=True)
    loss = ad.tsum(oracles.stop_gradient(x))
    ad.backward(loss)
    assert x.grad is None


def test_stop_gradient_product_rule():
    # d/dx of x * sg(x) at x=2 is 2, not 4
    x = Tensor(2.0, requires_grad=True)
    loss = ad.mul(x, oracles.stop_gradient(x))
    ad.backward(loss)
    assert x.grad == 2.0


def test_straight_through_identity_gradient():
    x = Tensor(np.array([0.1, 0.9]), requires_grad=True)
    snapped = np.array([0.0, 1.0])
    z = ad.straight_through(x, snapped)
    assert np.array_equal(z.data, snapped)
    ad.backward(ad.tsum(z))
    assert x.grad.tolist() == [1.0, 1.0]


def test_shared_subexpression_visited_once():
    # diamond graph: wrong (doubled) gradients would appear if a node ran twice
    x = Tensor(3.0, requires_grad=True)
    y = ad.add(x, x)
    loss = ad.mul(y, y)  # (2x)^2, d/dx = 8x = 24
    ad.backward(loss)
    assert x.grad == 24.0


def test_backward_frees_interior_nodes_and_keeps_leaf_grads():
    w = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
    x = Tensor(np.array([[1.0], [3.0]]), requires_grad=True)
    h = ad.matmul(w, x)
    a = oracles.tanh(h)
    sq = ad.mul(a, a)
    loss = ad.tsum(sq)
    ad.backward(loss)
    for node in (h, a, sq, loss):
        assert node.grad is None and node._parents == ()
        assert getattr(node._backward, "__closure__", None) is None  # the op's closure is gone
    t = np.tanh(w.data @ x.data)
    g = 2.0 * t * (1.0 - t * t)
    assert np.allclose(w.grad, g @ x.data.T, rtol=1e-15, atol=0)
    assert np.allclose(x.grad, w.data.T @ g, rtol=1e-15, atol=0)
    assert np.array_equal(a.data, t)  # values stay readable


def test_second_backward_through_a_walked_tape_raises():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = ad.mul(x, x)
    loss = ad.tsum(y)
    ad.backward(loss)
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="walked once"):
        ad.backward(loss)
    with pytest.raises(RuntimeError, match="walked once"):
        ad.backward(ad.tsum(ad.scale(y, 3.0)))  # a new op on a freed node
    assert np.array_equal(x.grad, first)  # the refused walks touched no gradient


CASES = {
    "matmul": lambda xs: ad.matmul(Tensor(xs[0], True), Tensor(xs[1], True)),
    "add": lambda xs: ad.add(Tensor(xs[0], True), Tensor(xs[1], True)),
    "sub": lambda xs: ad.sub(Tensor(xs[0], True), Tensor(xs[1], True)),
    "mul": lambda xs: ad.mul(Tensor(xs[0], True), Tensor(xs[1], True)),
    "scale": lambda xs: ad.scale(Tensor(xs[0], True), 0.7),
    "concat": lambda xs: ad.concat([Tensor(xs[0], True), Tensor(xs[1], True)], axis=-1),
    "split": lambda xs: ad.split(Tensor(xs[0], True), 2, axis=-1)[1],
    "sum": lambda xs: ad.tsum(Tensor(xs[0], True), axis=-1),
    "mean": lambda xs: ad.tmean(Tensor(xs[0], True), axis=0),
    "relu": lambda xs: ad.relu(Tensor(xs[0], True)),
    "tanh": lambda xs: oracles.tanh(Tensor(xs[0], True)),
    "sigmoid": lambda xs: oracles.sigmoid(Tensor(xs[0], True)),
    "softmax": lambda xs: ad.softmax(Tensor(xs[0], True)),
    "sqdist": lambda xs: ad.sqdist(Tensor(xs[0], True), Tensor(xs[1], True)),
    "mse": lambda xs: ad.mse(Tensor(xs[0], True), Tensor(xs[1], True)),
    "transpose": lambda xs: ad.transpose(Tensor(xs[0], True)),
    "reshape": lambda xs: ad.reshape(Tensor(xs[0], True), (xs[0].size,)),
    "gather_rows": lambda xs: ad.gather_rows(Tensor(xs[0], True), [1, 0, 1]),
}

SHAPES = {
    "matmul": [(3, 4), (4, 2)],
    "add": [(3, 4), (3, 4)],
    "sub": [(3, 4), (3, 4)],
    "mul": [(3, 4), (3, 4)],
    "scale": [(3, 4)],
    "concat": [(3, 2), (3, 5)],
    "split": [(3, 4)],
    "sum": [(3, 4)],
    "mean": [(3, 4)],
    "relu": [(3, 4)],
    "tanh": [(3, 4)],
    "sigmoid": [(3, 4)],
    "softmax": [(3, 4)],
    "sqdist": [(3, 4), (3, 4)],
    "mse": [(3, 4), (3, 4)],
    "transpose": [(3, 4)],
    "reshape": [(3, 4)],
    "gather_rows": [(4, 3)],
}


def case_rng(kind: str) -> np.random.Generator:
    """The op's inputs come from a seed fixed by its place in ``sorted(CASES)``.

    ``hash(kind)`` would change with every interpreter run (PYTHONHASHSEED).
    """
    return np.random.default_rng(sorted(CASES).index(kind))


@pytest.mark.parametrize("kind", sorted(CASES))
def test_gradcheck_every_op(kind):
    rng = case_rng(kind)
    arrays = [_rand(rng, *s) for s in SHAPES[kind]]
    weights = [rng.uniform(-1, 1, size=CASES[kind](arrays).shape)]

    def scalar(arrs):
        out = CASES[kind](arrs)
        return float((out.data * weights[0]).sum())

    expected = finite_difference_grads(scalar, arrays)

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = _apply_case(kind, tensors)
    loss = ad.tsum(ad.mul(out, Tensor(weights[0])))
    ad.backward(loss)
    for t, e in zip(tensors, expected):
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert np.max(np.abs(got - e)) < 1e-6


def _apply_case(kind, tensors):
    if kind == "scale":
        return ad.scale(tensors[0], 0.7)
    if kind == "concat":
        return ad.concat(tensors, axis=-1)
    if kind == "split":
        return ad.split(tensors[0], 2, axis=-1)[1]
    if kind == "sum":
        return ad.tsum(tensors[0], axis=-1)
    if kind == "mean":
        return ad.tmean(tensors[0], axis=0)
    if kind == "reshape":
        return ad.reshape(tensors[0], (tensors[0].size,))
    if kind == "gather_rows":
        return ad.gather_rows(tensors[0], [1, 0, 1])
    fn = {
        "matmul": ad.matmul,
        "add": ad.add,
        "sub": ad.sub,
        "mul": ad.mul,
        "relu": ad.relu,
        "tanh": oracles.tanh,
        "sigmoid": oracles.sigmoid,
        "softmax": ad.softmax,
        "sqdist": ad.sqdist,
        "mse": ad.mse,
        "transpose": ad.transpose,
    }[kind]
    return fn(*tensors)


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(7)
    logits = rng.uniform(-1, 1, size=(4, 3))
    targets = np.array([0, 2, 1, 2])

    def scalar(arrs):
        return ad.cross_entropy(Tensor(arrs[0]), targets).item()

    expected = finite_difference_grads(scalar, [logits])[0]
    t = Tensor(logits, requires_grad=True)
    ad.backward(ad.cross_entropy(t, targets))
    assert np.max(np.abs(t.grad - expected)) < 1e-6


def test_two_layer_tanh_network_gradcheck():
    rng = np.random.default_rng(11)
    w1 = rng.uniform(-1, 1, size=(4, 6))
    w2 = rng.uniform(-1, 1, size=(6, 2))
    x = rng.uniform(-1, 1, size=(5, 4))
    y = rng.uniform(-1, 1, size=(5, 2))

    def scalar(arrs):
        h = np.tanh(x @ arrs[0])
        pred = np.tanh(h @ arrs[1])
        return float(((pred - y) ** 2).mean())

    expected = finite_difference_grads(scalar, [w1, w2])

    tw1 = Tensor(w1, requires_grad=True)
    tw2 = Tensor(w2, requires_grad=True)
    pred = oracles.tanh(ad.matmul(oracles.tanh(ad.matmul(Tensor(x), tw1)), tw2))
    ad.backward(ad.mse(pred, Tensor(y)))
    for t, e in zip([tw1, tw2], expected):
        rel = np.max(np.abs(t.grad - e)) / max(np.max(np.abs(e)), 1e-12)
        assert rel < 1e-5


def test_forward_values_finite_on_finite_inputs():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-50, 50, size=(4, 4)))
    for out in [
        ad.softmax(x),
        oracles.sigmoid(ad.scale(x, 100.0)),
        oracles.tanh(ad.scale(x, 100.0)),
        ad.cross_entropy(ad.scale(x, 10.0), np.array([0, 1, 2, 3])),
    ]:
        assert np.isfinite(out.data).all()


@pytest.mark.parametrize("prior", [False, True])
def test_gather_rows_backward_is_the_add_at_chain(prior):
    """Byte for byte ``np.add.at`` onto the gradient already there (zeros
    without one): repeated indices add in index order, and a -0.0 survives
    in rows no index hits and in a row whose every term is -0.0."""
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    idx = np.array([[4, 1, 4], [0, 4, 6]])  # rows 2, 3 and 5 unhit
    g = rng.normal(size=(2, 3, 3))
    g[0, 1, 0] = -0.0
    g[1, 2] = -0.0  # the one term row 6 gets
    want = np.zeros(x.shape)
    if prior:
        x.grad = rng.normal(size=x.shape)
        x.grad[[2, 5, 6]] = -0.0
        x.grad[3] = 0.0
        want = x.grad.copy()
    np.add.at(want, idx.reshape(-1), g.reshape(-1, 3))
    ad.backward(ad.tsum(ad.mul(ad.gather_rows(x, idx), Tensor(g))))
    assert x.grad.tobytes() == want.tobytes()
    assert np.signbit(x.grad[[2, 5, 6]]).all() == prior


def test_gather_rows_rejects_a_negative_index():
    with pytest.raises(ShapeError, match="negative"):
        ad.gather_rows(Tensor(np.ones((3, 2))), [0, -1])
