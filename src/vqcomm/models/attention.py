"""Multi-head attention and a minimal residual transformer block."""

from __future__ import annotations

import math

import numpy as np

from .. import autodiff as ad
from ..autodiff import ShapeError, Tensor
from ..nn import Linear, Module, Parameter, glorot
from .common import CommunicationQuantizer, ConfigError, check_site, snap_site


class MultiHeadAttention(Module):
    """Scaled dot-product attention with per-head projections and W_O."""

    def __init__(self, rng: np.random.Generator, dim: int, heads: int, name: str = "mha"):
        if dim % heads != 0:
            raise ShapeError(f"attention: dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.dim = dim
        self.w_q = Parameter(glorot(rng, dim, dim), name=f"{name}.w_q")
        self.w_k = Parameter(glorot(rng, dim, dim), name=f"{name}.w_k")
        self.w_v = Parameter(glorot(rng, dim, dim), name=f"{name}.w_v")
        self.w_o = Parameter(glorot(rng, dim, dim), name=f"{name}.w_o")

    def attention_weights(self, queries, keys) -> list[Tensor]:
        """Per-head softmax weight matrices (each row sums to 1)."""
        q = ad.matmul(ad.as_tensor(queries), self.w_q)
        k = ad.matmul(ad.as_tensor(keys), self.w_k)
        dh = self.dim // self.heads
        weights = []
        for qh, kh in zip(ad.split(q, self.heads, axis=-1), ad.split(k, self.heads, axis=-1)):
            scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / math.sqrt(dh))
            weights.append(ad.softmax(scores))
        return weights

    def __call__(self, queries, keys, values) -> Tensor:
        v = ad.matmul(ad.as_tensor(values), self.w_v)
        outs = [
            ad.matmul(weights, vh)
            for weights, vh in zip(self.attention_weights(queries, keys), ad.split(v, self.heads, axis=-1))
        ]
        return ad.matmul(ad.concat(outs, axis=-1), self.w_o)


class TransformerBlock(Module):
    """residual + attention output (snapped when the block holds a quantizer), then feed-forward."""

    def __init__(
        self,
        rng: np.random.Generator,
        dim: int,
        heads: int,
        ff_hidden: int,
        quantizer: CommunicationQuantizer | None = None,
        name: str = "block",
    ):
        self.attn = MultiHeadAttention(rng, dim, heads, name=f"{name}.attn")
        self.ff1 = Linear(rng, dim, ff_hidden, name=f"{name}.ff1")
        self.ff2 = Linear(rng, ff_hidden, dim, name=f"{name}.ff2")
        self.quantizer = quantizer

    def __call__(self, x: Tensor) -> Tensor:
        x = ad.add(x, snap_site(self.quantizer, "communication_result", self.attn(x, x, x)))
        ff = self.ff2(ad.relu(self.ff1(x)))
        return ad.add(x, ff)


def transformer_forward(x: Tensor, blocks: list[TransformerBlock]) -> Tensor:
    """Run the block stack; only the last two blocks may hold a quantizer."""
    for i, block in enumerate(blocks[:-2]):
        if block.quantizer is not None:
            raise ConfigError(f"block {i} of {len(blocks)} holds a quantizer; only the last two may")
    for block in blocks:
        x = block(x)
    return x


class TransformerClassifier(Module):
    """Token/position embedding, block stack, and a position-0 readout head.

    The toy task routes the class of a marked position to the readout slot,
    so prediction requires communication through attention. A quantizer
    snaps the attention output of the last two blocks.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        vocab: int,
        dim: int,
        heads: int,
        num_blocks: int,
        max_len: int,
        quantizer: CommunicationQuantizer | None = None,
    ):
        if quantizer is not None:
            check_site("transformer", quantizer.site)
        self.vocab = vocab
        self.embed = Parameter(glorot(rng, vocab + 2, dim), name="embed.tokens")
        self.pos = Parameter(glorot(rng, max_len, dim), name="embed.positions")
        self.blocks = [
            TransformerBlock(
                rng,
                dim,
                heads,
                ff_hidden=2 * dim,
                quantizer=quantizer if i >= num_blocks - 2 else None,
                name=f"block{i}",
            )
            for i in range(num_blocks)
        ]
        self.mark_vec = Parameter(rng.normal(size=dim) * 0.5, name="embed.mark")
        self.readout = Linear(rng, dim, vocab, name="readout")

    def __call__(self, tokens: np.ndarray, marks: np.ndarray) -> Tensor:
        """tokens: (B, T) ints; marks: (B,) marked position. Logits read from slot 0."""
        B, T = tokens.shape
        dim = self.embed.shape[1]
        flat = ad.gather_rows(self.embed, tokens.reshape(-1))
        x = ad.add(ad.reshape(flat, (B, T, dim)), ad.gather_rows(self.pos, np.arange(T)))
        flag = np.zeros((B, T, 1))
        flag[np.arange(B), marks, 0] = 1.0
        x = ad.add(x, ad.mul(Tensor(flag), self.mark_vec))
        x = transformer_forward(x, self.blocks)
        return self.readout(ad.gather_rows(ad.reshape(x, (B * T, dim)), np.arange(B) * T))
