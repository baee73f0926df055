"""SGD and Adam over Parameter lists, and the one training step every model takes."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .nn import Parameter
from .quantizer import combined_aux_loss


class MissingGradient(RuntimeError):
    """Raised when a step is attempted before gradients are populated."""


def fill_missing_grads(params: list[Parameter]) -> None:
    """Zero-fill gradients of parameters the loss did not touch.

    A parameter outside the loss's dependency cone has gradient exactly
    zero; optimizers still require the buffer to exist.
    """
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


def clip_global_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total**0.5
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


def train_step(loss_fn, batch, quantizer, params: list[Parameter], opt, grad_clip: float, where: str):
    """Forward, backward and optimizer step on one batch.

    ``loss_fn(batch)`` returns the task loss; the snaps of its forward are
    taken from ``quantizer`` (None for an unquantized model) and their
    codebook and commitment losses join it. Gradients are clipped to joint
    norm ``grad_clip`` when it is positive. A non-finite loss raises
    ``FloatingPointError`` naming ``where`` before any parameter moves.

    Returns the task, codebook, commitment and total losses as floats.
    Nothing else leaves the call, so the batch's graph is gone before the
    next batch's forward starts.
    """
    task_loss = loss_fn(batch)
    qouts = quantizer.take_outputs() if quantizer is not None else []
    loss = task_loss
    cb = cm = 0.0
    if qouts:
        loss = ad.add(loss, combined_aux_loss(qouts, quantizer.config))
        cb = float(np.mean([q.codebook_loss.item() for q in qouts]))
        cm = float(np.mean([q.commitment_loss.item() for q in qouts]))
    if not np.isfinite(loss.data):
        raise FloatingPointError(f"non-finite training loss {loss.item()} at {where}")
    opt.zero_grad()
    ad.backward(loss)
    fill_missing_grads(params)
    if grad_clip > 0:
        clip_global_norm(params, grad_clip)
    opt.step()
    return task_loss.item(), cb, cm, loss.item()


class SGD:
    def __init__(self, params: list[Parameter], lr: float):
        self.params = list(params)
        self.lr = float(lr)

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise MissingGradient(f"no gradient for parameter {p.name!r}")
            p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction and the usual ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``."""

    def __init__(self, params: list[Parameter], lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise MissingGradient(f"no gradient for parameter {p.name!r}")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


OPTIMIZERS = {"adam": Adam, "sgd": SGD}
