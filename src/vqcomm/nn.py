"""Parameters, layers, and initializers built on the autodiff core."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Parameter(Tensor):
    """Trainable tensor with a name."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name


class Module:
    """Bag of parameters with recursive collection."""

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for value in vars(self).values():
            out.extend(_collect(value))
        return out


def _collect(value) -> list[Parameter]:
    if isinstance(value, Parameter):
        return [value]
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out = []
        for v in value:
            out.extend(_collect(v))
        return out
    return []


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, bias: bool = True, name: str = "linear"):
        self.weight = Parameter(glorot(rng, d_in, d_out), name=f"{name}.weight")
        self.bias = Parameter(np.zeros(d_out), name=f"{name}.bias") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = ad.matmul(x, self.weight)
        if self.bias is not None:
            out = ad.add(out, self.bias)
        return out


class MLP(Module):
    """Stack of Linear layers with ReLU between (none after the last)."""

    def __init__(self, rng: np.random.Generator, dims: list[int], name: str = "mlp"):
        self.layers = [
            Linear(rng, dims[i], dims[i + 1], name=f"{name}.{i}") for i in range(len(dims) - 1)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = ad.relu(x)
        return x


def _sigmoid_of_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-(a + b)))``, computed in place in one new contiguous array."""
    s = np.add(a, b)
    np.negative(s, out=s)
    with np.errstate(over="ignore"):  # exp overflow saturates to exactly 0 or 1
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def gru_cell(
    h: Tensor,
    x: Tensor,
    w_x: Tensor,
    w_h: Tensor,
    b_x: Tensor,
    b_h: Tensor,
    mask: np.ndarray | None = None,
) -> Tensor:
    """One step of M GRU cells as one tape node: ``h' = (1 - z) * n + z * h``.

    Gates are ``[r, z, n]`` along the last axis of ``x @ w_x + b_x`` and
    ``h @ w_h + b_h``. Weights carry a leading module axis M; ``h`` is
    ``(B, M, H)`` and the output too, read through a module-first view so
    that no transpose node sits on either side. Each gate is computed in
    place in its own contiguous array. The backward repeats, op for op, the
    float order of the same cell built from elementwise tape ops, so either
    form gives bit-identical gradients; it writes ``dr``, ``dz`` and ``dn``
    into one ``(M, B, 3H)`` buffer.

    With a ``(B, M)`` 0/1 ``mask`` the node also blends, ``on * h' + off * h``
    with ``_blend``'s operations, so modules with mask 0 keep their state
    and the unblended candidate is never kept. Its backward sends
    ``g * off`` to ``h`` before the cell's own gradient, the order in which
    a cell node followed by a blend node reached ``h``.

    Per step the node keeps only what its backward reads: ``r``, ``z``,
    ``n``, a copy of the ``hn`` gate block and the output, five ``(M, B, H)``
    arrays. A frozen cell builds no node and copies nothing.
    """
    operands = (h, x, w_x, w_h, b_x, b_h)
    hm = np.swapaxes(h.data, 0, 1)  # (M, B, H)
    H = hm.shape[-1]
    gx = x.data @ w_x.data
    gx += b_x.data
    gh = hm @ w_h.data
    gh += b_h.data
    hn = gh[..., 2 * H :]
    if any(t.requires_grad for t in operands):
        hn = hn.copy()  # the backward keeps this block, not all of gh
    r = _sigmoid_of_sum(gx[..., :H], gh[..., :H])
    z = _sigmoid_of_sum(gx[..., H : 2 * H], gh[..., H : 2 * H])
    n = np.multiply(r, hn)
    n += gx[..., 2 * H :]
    np.tanh(n, out=n)
    out = z * -1.0
    out += 1.0
    out *= n
    out += z * hm
    out = np.swapaxes(out, 0, 1)
    if mask is not None:
        on = mask[:, :, None]
        off = 1.0 - on
        out = on * out + off * h.data

    def backward(g):
        if mask is not None:
            if h.requires_grad:
                ad._accum(h, g * off)
            g = g * on
        g = np.swapaxes(g, 0, 1)
        dgx = np.empty(hn.shape[:-1] + (3 * H,))  # [dr, dz, dn]
        dn = z * -1.0  # 1 - z recomputed, not kept
        dn += 1.0
        dn *= g
        t = n * n
        np.subtract(1.0, t, out=t)
        dn = np.multiply(dn, t, out=dgx[..., 2 * H :])
        dr = dn * hn
        dr *= r
        np.subtract(1.0, r, out=t)
        np.multiply(dr, t, out=dgx[..., :H])
        dz = g * hm
        np.multiply(g, n, out=t)
        dz -= t
        dz *= z
        np.subtract(1.0, z, out=t)
        np.multiply(dz, t, out=dgx[..., H : 2 * H])
        dgh = dgx.copy()
        dgh[..., 2 * H :] *= r
        if x.requires_grad:
            ad._accum(x, ad._unbroadcast(dgx @ np.swapaxes(w_x.data, -1, -2), x.shape))
        if h.requires_grad:
            dh = dgh @ np.swapaxes(w_h.data, -1, -2) + g * z
            ad._accum(h, np.swapaxes(dh, 0, 1))
        for w, b, inp, dg in ((w_x, b_x, x.data, dgx), (w_h, b_h, hm, dgh)):
            if w.requires_grad:
                ad._accum(w, ad._unbroadcast(np.swapaxes(inp, -1, -2) @ dg, w.shape))
            if b.requires_grad:
                ad._accum(b, ad._unbroadcast(dg, b.shape))

    return ad._node(out, operands, backward)


class StackedGRU(Module):
    """M independent GRU cells evaluated in one batched pass.

    Weight slice ``[i]`` is module i's cell; no parameters are shared.
    """

    def __init__(self, rng: np.random.Generator, modules: int, d_in: int, d_hidden: int, name: str = "gru"):
        self.modules = modules
        self.w_x = Parameter(
            np.stack([glorot(rng, d_in, 3 * d_hidden) for _ in range(modules)]), name=f"{name}.w_x"
        )
        self.w_h = Parameter(
            np.stack([glorot(rng, d_hidden, 3 * d_hidden) for _ in range(modules)]), name=f"{name}.w_h"
        )
        self.b_x = Parameter(np.zeros((modules, 1, 3 * d_hidden)), name=f"{name}.b_x")
        self.b_h = Parameter(np.zeros((modules, 1, 3 * d_hidden)), name=f"{name}.b_h")

    def __call__(self, h: Tensor, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """h: (B, M, H); x: (B, d_in) shared by all modules -> (B, M, H).

        With a (B, M) 0/1 ``mask`` only the modules marked 1 update.
        """
        return gru_cell(h, x, self.w_x, self.w_h, self.b_x, self.b_h, mask)
