"""Random directions by stick breaking, and projection of a path onto one.

The direction lives in the weighted sequence space with weights a_0 = 1 and
a_i = i^-2 for i >= 1; its components are h_i = sqrt(l_i / a_i) built from
stick lengths l_i, and the final component absorbs the remaining stick mass so
that sum_i h_i^2 a_i = 1 holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream, sample_beta, sample_betas
from .series import Series


def _weight_formula(count: int) -> np.ndarray:
    idx = np.arange(count, dtype=float)
    idx[0] = 1.0
    weights = 1.0 / (idx * idx)
    weights.flags.writeable = False
    return weights


# Beta(2, 7) directions stop after about 130 sticks; longer ones use the formula
_WEIGHTS = _weight_formula(1024)


def _weights(count: int) -> np.ndarray:
    """Weights a_0..a_{count-1} of the sequence space, a_0 = 1 and a_i = i^-2,
    as a read-only array."""
    return _WEIGHTS[:count] if count <= _WEIGHTS.size else _weight_formula(count)


@dataclass(frozen=True)
class StickBreakingParams:
    """Parameters of the stick-breaking draw.

    `n_cap` bounds the number of sticks by the observed sample length;
    `delta` is the mass left unassigned before truncation kicks in.
    """

    alpha1: float
    alpha2: float
    n_cap: int
    delta: float = 1e-15

    def __post_init__(self):
        if self.alpha1 <= 0.0 or self.alpha2 <= 0.0:
            raise ValueError("alpha1 and alpha2 must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if int(self.n_cap) != self.n_cap or self.n_cap < 1:
            raise ValueError("n_cap must be a positive integer")


_FIRST_BLOCK = 128  # fractions in the first block; each next block doubles


def stick_breaking(params: StickBreakingParams, rng: RngStream) -> np.ndarray:
    """Draw stick lengths l_0, l_1, ... with Beta(alpha1, alpha2) fractions.

    Each stick is a beta fraction of the mass still unassigned. Drawing stops
    at the first stick whose cumulative sum reaches 1 - delta, or after n_cap
    sticks, whichever comes first.

    A Beta(alpha1, 1) fraction is a single uniform, drawn by one sample_beta
    call per stick. Other fractions come from sample_betas in blocks of 128,
    256, 512, ... When the stopping stick falls inside a block, the stream is
    rewound to where it was before that block and exactly the fractions used
    are drawn again, so the stream ends where one sample_beta call per stick
    leaves it, and the draws that follow on it (the CF test's random
    frequencies) are unchanged.
    """
    a1, a2, n_cap = params.alpha1, params.alpha2, params.n_cap
    stop = 1.0 - params.delta
    sticks = []
    total = 0.0
    if a2 == 1.0:
        for _ in range(n_cap):
            piece = sample_beta(a1, a2, rng) * (1.0 - total)
            sticks.append(piece)
            total += piece
            if total >= stop:
                break
        return np.asarray(sticks)
    block = _FIRST_BLOCK
    while len(sticks) < n_cap:
        count = min(block, n_cap - len(sticks))
        before = rng.position()
        for used, frac in enumerate(sample_betas(a1, a2, count, rng), start=1):
            piece = frac * (1.0 - total)
            sticks.append(piece)
            total += piece
            if total >= stop:
                if used < count:
                    rng.rewind(before)
                    sample_betas(a1, a2, used, rng)
                return np.asarray(sticks)
        block *= 2
    return np.asarray(sticks)


@dataclass(frozen=True)
class ProjectionVector:
    """Truncated direction h_0..h_m with weighted unit norm; `sticks` are
    the source stick lengths."""

    h: np.ndarray
    m: int
    sticks: np.ndarray

    def weighted_norm_sq(self) -> float:
        """sum_i h_i^2 a_i; equals 1 up to rounding by construction."""
        return float(np.add.reduce(self.h**2 * _weights(self.h.size)))


def build_projection_vector(sticks, n_cap: int) -> ProjectionVector:
    """Assemble the direction from stick lengths.

    h_i = sqrt(l_i / a_i) for each stick; a final component sqrt(rem / a_m)
    absorbs the remaining mass rem = 1 - sum(l_i) when it is positive, which
    forces the weighted norm to 1 exactly.
    """
    sticks = np.asarray(sticks, dtype=float)
    if sticks.ndim != 1 or sticks.size == 0:
        raise ValueError("sticks must be a non-empty one-dimensional sequence")
    if (sticks < 0.0).any():
        raise ValueError("stick lengths must be non-negative")
    if sticks.size > n_cap:
        raise ValueError("more sticks than the truncation cap allows")
    total = float(np.add.reduce(sticks))
    if total > 1.0 + 1e-12:
        raise ValueError("stick lengths must sum to at most 1")
    remaining = 1.0 - total
    lengths = np.append(sticks, remaining) if remaining > 0.0 else sticks
    h = np.sqrt(lengths / _weights(lengths.size))
    return ProjectionVector(h=h, m=lengths.size - 1, sticks=sticks)


def draw_projection_vector(params: StickBreakingParams, rng: RngStream) -> ProjectionVector:
    """Draw sticks and assemble the unit-norm direction in one step."""
    return build_projection_vector(stick_breaking(params, rng), params.n_cap)


def project_series(x: Series, pv: ProjectionVector) -> Series:
    """Project the path onto the direction: Y_t = sum_{i<=min(m,t)} h_i a_i X_{t-i}.

    The output has the same length as the input; early positions use the
    ragged prefix of the direction (only past values down to index 0 exist).
    """
    coeffs = pv.h * _weights(pv.h.size)
    y = np.convolve(x.values, coeffs)[: x.n]
    return Series(y)
