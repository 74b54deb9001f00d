"""Deterministic seeded random streams and the distribution samplers.

A stream is identified by the pair (master_seed, stream_id); equal pairs
reproduce the exact same draws, distinct stream_ids are statistically
independent. Substreams derive fresh 64-bit ids through a splitmix64 step so
components that must not share randomness (projections, replications) never
collide.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _child_id(parent_id: int, index: int) -> int:
    return _mix64((parent_id + (index + 1) * _GOLDEN) & _MASK64)


class InnovationFamily(Enum):
    """The innovation distributions used in the autoregressive study."""

    STD_NORMAL = "normal"
    STD_LOGNORMAL = "lognormal"
    STUDENT_T10 = "t10"
    CHI_SQ_1 = "chisq1"
    CHI_SQ_10 = "chisq10"
    UNIFORM_01 = "uniform"
    BETA_2_1 = "beta21"


class RngStream:
    """Single-owner random stream backed by PCG64.

    (master_seed, stream_id) fully determine the draw sequence. Use
    ``substream(k)`` for independent child streams and ``for_replication(i)``
    for the Monte-Carlo convention that replication i runs on stream_id i.
    """

    __slots__ = ("master_seed", "stream_id", "_gen")

    def __init__(self, master_seed: int, stream_id: int = 0):
        if master_seed < 0 or stream_id < 0:
            raise ValueError("master_seed and stream_id must be non-negative")
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        seq = np.random.SeedSequence([self.master_seed, self.stream_id])
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; distinct indices give distinct ids."""
        return RngStream(self.master_seed, _child_id(self.stream_id, index))

    def for_replication(self, index: int) -> "RngStream":
        """Stream for Monte-Carlo replication `index` (stream_id = index)."""
        return RngStream(self.master_seed, index)

    # -- primitive draws ----------------------------------------------------

    def random(self) -> float:
        """Uniform draw in the open interval (0, 1)."""
        u = self._gen.random()
        while u == 0.0:
            u = self._gen.random()
        return u

    def randoms(self, size) -> np.ndarray:
        """Uniform draws in (0, 1); `size` is a count or a shape."""
        out = self._gen.random(size)
        mask = out == 0.0
        while mask.any():
            out[mask] = self._gen.random(int(mask.sum()))
            mask = out == 0.0
        return out

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def standard_gamma(self, shape: float, size=None):
        return self._gen.standard_gamma(shape, size)

    def integers(self, high: int, size=None):
        """Uniform integers on {0, ..., high-1}."""
        return self._gen.integers(0, high, size=size)


def sample_innovations(family: InnovationFamily, size: int, rng: RngStream) -> np.ndarray:
    """Vector of i.i.d. draws from the named innovation family."""
    if family is InnovationFamily.STD_NORMAL:
        return rng.standard_normal(size)
    if family is InnovationFamily.STD_LOGNORMAL:
        return np.exp(rng.standard_normal(size))
    if family is InnovationFamily.STUDENT_T10:
        z = rng.standard_normal(size)
        chi2 = 2.0 * rng.standard_gamma(5.0, size)
        return z / np.sqrt(chi2 / 10.0)
    if family is InnovationFamily.CHI_SQ_1:
        return 2.0 * rng.standard_gamma(0.5, size)
    if family is InnovationFamily.CHI_SQ_10:
        return 2.0 * rng.standard_gamma(5.0, size)
    if family is InnovationFamily.UNIFORM_01:
        return rng.randoms(size)
    if family is InnovationFamily.BETA_2_1:
        return rng.randoms(size) ** 0.5
    raise ValueError(f"unknown innovation family: {family!r}")


def sample_abs_normal(sd: float, rng: RngStream) -> float:
    """|Z| with Z ~ N(0, sd^2)."""
    if sd <= 0.0:
        raise ValueError("sd must be positive")
    return abs(sd * float(rng.standard_normal()))
