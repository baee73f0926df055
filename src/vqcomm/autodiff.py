"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every op builds one node of an implicit tape (parent links + a backward
closure); ``backward`` walks the tape once in reverse topological order.
The tape is rebuilt on every forward pass and discarded after use. An op
whose parents all have ``requires_grad`` False builds no node, so a forward
inside ``no_grad(params)`` keeps no tape.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class Tensor:
    """Dense float64 array plus an optional gradient buffer.

    Tensors are treated as immutable after construction; only optimizer
    steps mutate ``data`` in place (and only for parameters).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        if g.shape == t.data.shape:
            # copy: g may alias an upstream grad buffer that later ops mutate
            t.grad = np.array(g)
        else:
            t.grad = np.zeros_like(t.data)
            t.grad += g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


@contextmanager
def no_grad(tensors: Iterable[Tensor]) -> Iterator[None]:
    """Clear ``requires_grad`` on ``tensors`` for the block.

    Ops link parents only when one requires grad, so a forward whose leaves
    are all frozen computes the same values and builds no tape. Each tensor
    gets its previous flag back on exit, also after an exception.
    """
    tensors = list(tensors)
    saved = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, saved):
            t.requires_grad = flag


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def _broadcastable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(reversed(a), reversed(b)):
        if x != y and x != 1 and y != 1:
            return False
    return True


def _check_binary(kind: str, a, b) -> tuple[Tensor, Tensor]:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape and not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} do not broadcast")
    return a, b


def add(a, b) -> Tensor:
    a, b = _check_binary("add", a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _check_binary("sub", a, b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _check_binary("mul", a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward)


def scale(x, c: float) -> Tensor:
    x = as_tensor(x)
    c = float(c)
    data = x.data * c

    def backward(g):
        if x.requires_grad:
            _accum(x, g * c)

    return _node(data, (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product; operands must be >=2-D, batch dims broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _node(data, (a, b), backward)


def transpose(x, axis1: int = -2, axis2: int = -1) -> Tensor:
    x = as_tensor(x)
    data = np.swapaxes(x.data, axis1, axis2)

    def backward(g):
        if x.requires_grad:
            _accum(x, np.swapaxes(g, axis1, axis2))

    return _node(data, (x,), backward)


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)

    def backward(g):
        if x.requires_grad:
            _accum(x, g.reshape(x.shape))

    return _node(data, (x,), backward)


def concat(xs: Iterable, axis: int = -1) -> Tensor:
    xs = [as_tensor(x) for x in xs]
    if not xs:
        raise ShapeError("concat: empty input list")
    try:
        data = np.concatenate([x.data for x in xs], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    sizes = [x.shape[axis] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            if x.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(x, g[tuple(idx)])

    return _node(data, tuple(xs), backward)


def split(x, sections: int, axis: int = -1) -> list[Tensor]:
    """Split into ``sections`` equal parts along ``axis``."""
    x = as_tensor(x)
    extent = x.shape[axis]
    if extent % sections != 0:
        raise ShapeError(f"split: {extent} not divisible by {sections}")
    step = extent // sections
    outs = []
    for k in range(sections):
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(k * step, (k + 1) * step)
        idx = tuple(idx)
        data = x.data[idx]

        def backward(g, idx=idx):
            if x.requires_grad:
                if x.grad is None:
                    x.grad = np.zeros_like(x.data)
                x.grad[idx] += g

        outs.append(_node(data, (x,), backward))
    return outs


def gather_rows(x, indices) -> Tensor:
    """Pick rows of a 2-D tensor; ``indices`` is any integer array."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D table, got {x.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    data = x.data[idx]

    def backward(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            np.add.at(x.grad, idx.reshape(-1), g.reshape(-1, x.shape[1]))

    return _node(data, (x,), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if x.requires_grad:
            if axis is None:
                _accum(x, np.broadcast_to(g, x.shape).copy())
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                _accum(x, np.broadcast_to(g, x.shape).copy())

    return _node(data, (x,), backward)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        n = x.size
    else:
        n = x.shape[axis]
    return scale(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(x) -> Tensor:
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def backward(g):
        if x.requires_grad:
            _accum(x, g * (x.data > 0.0))

    return _node(data, (x,), backward)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    data = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            _accum(x, g * (1.0 - data * data))

    return _node(data, (x,), backward)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):  # exp overflow saturates to exactly 0 or 1
        data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        if x.requires_grad:
            _accum(x, g * data * (1.0 - data))

    return _node(data, (x,), backward)


def softmax(x) -> Tensor:
    """Softmax over the last axis (max-shifted for stability)."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * data).sum(axis=-1, keepdims=True)
            _accum(x, data * (g - dot))

    return _node(data, (x,), backward)


# ---------------------------------------------------------------------------
# distances and losses
# ---------------------------------------------------------------------------


def sqdist(a, b) -> Tensor:
    """Squared Euclidean distance over the last axis (broadcasting)."""
    a, b = as_tensor(a), as_tensor(b)
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"squared-distance: shapes {a.shape} and {b.shape} do not broadcast")
    diff = a.data - b.data
    data = (diff * diff).sum(axis=-1)

    def backward(g):
        ge = np.expand_dims(g, -1)
        if a.requires_grad:
            _accum(a, _unbroadcast(2.0 * diff * ge, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-2.0 * diff * ge, b.shape))

    return _node(data, (a, b), backward)


def mse(pred, target) -> Tensor:
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes {pred.shape} and {target.shape} differ")
    diff = pred.data - target.data
    data = np.float64((diff * diff).mean()) if diff.size else np.float64(0.0)

    def backward(g):
        c = 2.0 * g / diff.size
        if pred.requires_grad:
            _accum(pred, c * diff)
        if target.requires_grad:
            _accum(target, -c * diff)

    return _node(data, (pred, target), backward)


def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under row logits."""
    logits = as_tensor(logits)
    t = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2 or t.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross-entropy: expected (N, C) logits with (N,) targets, got {logits.shape} and {t.shape}"
        )
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    n = logits.shape[0]
    data = np.float64((logz - shifted[np.arange(n), t]).mean())

    def backward(g):
        if logits.requires_grad:
            p = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
            p[np.arange(n), t] -= 1.0
            _accum(logits, g * p / n)

    return _node(data, (logits,), backward)


# ---------------------------------------------------------------------------
# gradient control
# ---------------------------------------------------------------------------


def stop_gradient(x) -> Tensor:
    """Identity forward, zero gradient backward."""
    x = as_tensor(x)
    return Tensor(x.data)


def straight_through(x, value) -> Tensor:
    """Forward the given value bit-exactly; backward is identity onto ``x``."""
    x = as_tensor(x)
    value = np.asarray(value, dtype=np.float64)
    if value.shape != x.shape:
        raise ShapeError(f"straight-through: value shape {value.shape} != input shape {x.shape}")

    def backward(g):
        if x.requires_grad:
            _accum(x, g)

    return _node(value, (x,), backward)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor reachable from a scalar loss."""
    if loss.ndim != 0:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    # reverse topological order via iterative DFS
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
