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


def gru_cell(h: Tensor, x: Tensor, w_x: Tensor, w_h: Tensor, b_x: Tensor, b_h: Tensor) -> Tensor:
    """GRU step as one tape node: ``h' = (1 - z) * n + z * h``.

    Gates are ``[r, z, n]`` along the last axis of ``x @ w_x + b_x`` and
    ``h @ w_h + b_h``. Weights may carry a leading module axis. The
    backward repeats, op for op, the float order of the same cell built
    from elementwise tape ops, so either form gives bit-identical
    gradients.
    """
    gx = x.data @ w_x.data + b_x.data
    gh = h.data @ w_h.data + b_h.data
    xr, xz, xn = np.split(gx, 3, axis=-1)
    hr, hz, hn = np.split(gh, 3, axis=-1)
    with np.errstate(over="ignore"):  # exp overflow saturates to exactly 0 or 1
        r = 1.0 / (1.0 + np.exp(-(xr + hr)))
        z = 1.0 / (1.0 + np.exp(-(xz + hz)))
    n = np.tanh(xn + r * hn)
    one_minus_z = z * -1.0 + 1.0
    out = one_minus_z * n + z * h.data

    def backward(g):
        dn = g * one_minus_z * (1.0 - n * n)
        dr = dn * hn * r * (1.0 - r)
        dz = (g * h.data - g * n) * z * (1.0 - z)
        dgx = np.concatenate([dr, dz, dn], axis=-1)
        dgh = np.concatenate([dr, dz, dn * r], axis=-1)
        if x.requires_grad:
            ad._accum(x, ad._unbroadcast(dgx @ np.swapaxes(w_x.data, -1, -2), x.shape))
        if h.requires_grad:
            dh = ad._unbroadcast(dgh @ np.swapaxes(w_h.data, -1, -2), h.shape) + g * z
            ad._accum(h, dh)
        for w, b, inp, dg in ((w_x, b_x, x, dgx), (w_h, b_h, h, dgh)):
            if w.requires_grad:
                ad._accum(w, ad._unbroadcast(np.swapaxes(inp.data, -1, -2) @ dg, w.shape))
            if b.requires_grad:
                ad._accum(b, ad._unbroadcast(dg, b.shape))

    return ad._node(out, (h, x, w_x, w_h, b_x, b_h), backward)


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

    def __call__(self, h: Tensor, x: Tensor) -> Tensor:
        """h: (M, B, H); x: (B, d_in) shared by all modules -> (M, B, H)."""
        return gru_cell(h, x, self.w_x, self.w_h, self.b_x, self.b_h)
