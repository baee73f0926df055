"""Shared plumbing for injecting a quantization site into a model."""

from __future__ import annotations

import logging

import numpy as np

from ..autodiff import Tensor
from ..quantizer import (
    Codebook,
    QuantizationOutput,
    QuantizerConfig,
    gumbel_quantize,
    kmeans_init,
    quantize,
    usage_counts,
)

VALID_SITES = {
    "gnn": ("communication_result", "communication_input"),
    "rim": ("communication_result", "communication_input", "recurrent_update", "raw_input"),
    "transformer": ("communication_result",),
}

log = logging.getLogger("vqcomm")


class ConfigError(ValueError):
    """Invalid model/quantizer wiring."""


def check_site(architecture: str, site: str) -> str:
    valid = VALID_SITES.get(architecture)
    if valid is None:
        raise ConfigError(f"unknown architecture {architecture!r}")
    if site not in valid:
        raise ConfigError(f"site {site!r} invalid for {architecture!r}; choose from {valid}")
    return site


class CommunicationQuantizer:
    """One shared codebook serving every discretization site of a model.

    ``site`` names where in the model the snap sits; the model checks that
    it has that site and snaps there through ``snap_site``.

    Lifecycle: ``collecting`` passes vectors through unchanged while caching
    them for k-means; after ``initialize()`` every ``apply`` call snaps its
    input through the codebook, to the nearest code whenever the entries are
    frozen (a frozen gumbel quantizer trains nothing, so samples nothing).
    It keeps the output of each snap whose losses are on the tape until
    ``take_outputs()``, and counts every snap's codes until ``take_usage()``.
    """

    def __init__(
        self,
        config: QuantizerConfig,
        site: str = "communication_result",
        method: str = "vq",
        temperature: float = 1.0,
        warmup_vectors: int = 512,
        rng: np.random.Generator | None = None,
    ):
        if method not in ("vq", "gumbel"):
            raise ConfigError(f"unknown quantization method {method!r}")
        if warmup_vectors < 1:
            # the reservoir keeps the last warmup_vectors rows; [-0:] would keep all
            raise ConfigError(f"warmup_vectors must be at least 1, got {warmup_vectors}")
        self.config = config
        self.site = site
        self.codebook = Codebook(config.L, config.d)
        self.method = method
        self.temperature = float(temperature)
        self.warmup_vectors = int(warmup_vectors)
        self.rng = rng
        self._reservoir = np.zeros((0, config.d))
        self._collected_count = 0
        self._outputs: list[QuantizationOutput] = []
        self._usage = np.zeros(config.L, dtype=np.int64)

    @property
    def active(self) -> bool:
        return self.codebook.initialized

    def apply(self, h: Tensor) -> Tensor:
        """Snap (or, while collecting, pass through) a tensor of shape (..., m)."""
        if not self.active:
            # keep only the freshest warmup vectors: early ones come from a
            # barely-trained sender and would seed k-means poorly
            rows = h.data.reshape(-1, self.config.d)
            self._reservoir = np.concatenate([self._reservoir, rows])[-self.warmup_vectors :]
            self._collected_count += rows.shape[0]
            return h
        if self.method == "vq" or not self.codebook.entries.requires_grad:
            out = quantize(h, self.config, self.codebook)
        else:
            out = gumbel_quantize(h, self.config, self.codebook, self.temperature, rng=self.rng)
        self._usage += usage_counts(out.indices, self.config.L)
        if out.codebook_loss is not None:
            self._outputs.append(out)  # a frozen snap builds no losses and is not kept
        return out.z

    def take_outputs(self) -> list[QuantizationOutput]:
        """The kept snap outputs in snap order; the quantizer forgets them."""
        outputs, self._outputs = self._outputs, []
        return outputs

    def take_usage(self) -> np.ndarray:
        """Codes picked (length L) by the snaps since the last call; the count restarts at zero."""
        usage, self._usage = self._usage, np.zeros_like(self._usage)
        return usage

    def initialize(self, rng: np.random.Generator) -> None:
        """Run k-means over the collected warmup vectors and enable quantization."""
        if not len(self._reservoir):
            raise ConfigError("no vectors collected for codebook initialization")
        if len(self._reservoir) < self.config.L:
            # lloyd then seeds with replacement, so some codes start as duplicates
            log.warning(
                "k-means reservoir holds %d vectors, fewer than the %d codes: the codebook starts with duplicate codes",
                len(self._reservoir),
                self.config.L,
            )
        book = kmeans_init(self._reservoir, self.config.L, rng=rng)
        self.codebook.set_entries(book.entries.data)
        self._reservoir = np.zeros((0, self.config.d))

    def collected_count(self) -> int:
        return self._collected_count


def snap_site(quantizer: CommunicationQuantizer | None, site: str, h: Tensor) -> Tensor:
    """``h`` through the quantizer when the model has one and it sits at ``site``."""
    return quantizer.apply(h) if quantizer is not None and quantizer.site == site else h
