"""Random directions by stick breaking, and projection of a path onto one.

The direction lives in the weighted sequence space with weights a_0 = 1 and
a_i = i^-2 for i >= 1; its components are h_i = sqrt(l_i / a_i) built from
stick lengths l_i, and the final component absorbs the remaining stick mass so
that sum_i h_i^2 a_i = 1 holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
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

    `alpha1` and `alpha2` are positive integers (Beta fractions with integer
    parameters are order statistics of uniforms); `n_cap` bounds the number
    of sticks by the observed sample length; `delta` is the mass left
    unassigned before truncation kicks in.
    """

    alpha1: float
    alpha2: float
    n_cap: int
    delta: float = 1e-15

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "n_cap"):
            value = getattr(self, name)
            if not (value >= 1 and float(value).is_integer()):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


_FIRST_BLOCK = 128  # fractions in the first block; each next block doubles


def stick_breaking(params: StickBreakingParams, rng: RngStream) -> np.ndarray:
    """Draw stick lengths l_0, l_1, ... with Beta(alpha1, alpha2) fractions.

    Stick i is its fraction f_i of the mass still unassigned. Drawing stops
    at the first stick after which that mass, prod_{j<=i} (1 - f_j), is at
    most delta, or after n_cap sticks, whichever comes first.

    A Beta(a1, 1) fraction is u ** (1/a1) of one uniform u, drawn one stick
    at a time. Any other Beta(a1, a2) fraction is the a1-th smallest of
    a1 + a2 - 1 uniforms, drawn in blocks of 128, 256, 512, ... rows, each
    block whole. So a direction uses a fixed number of uniforms given its
    stick count, and the draws that follow on the stream (the CF test's
    random frequencies) start after them.
    """
    a1, a2, n_cap, delta = int(params.alpha1), int(params.alpha2), params.n_cap, params.delta
    if a2 == 1:
        power = 1.0 / a1
        sticks = []
        left = 1.0
        for _ in range(n_cap):
            frac = rng.random() ** power
            sticks.append(frac * left)
            left *= 1.0 - frac
            if left <= delta:
                break
        return np.asarray(sticks)
    blocks = []
    left, drawn, block = 1.0, 0, _FIRST_BLOCK
    while drawn < n_cap:
        count = min(block, n_cap - drawn)
        fracs = np.partition(rng.randoms((count, a1 + a2 - 1)), a1 - 1, axis=1)[:, a1 - 1]
        # lefts[k]: the mass left before stick k of the block, one product at a time
        lefts = np.cumprod(np.concatenate(([left], 1.0 - fracs)))
        # the sticks before the first k with lefts[k] <= delta, or the whole block
        end = min(int(np.searchsorted(-lefts, -delta)), count)
        blocks.append(fracs[:end] * lefts[:end])
        if lefts[end] <= delta:
            break
        left, drawn, block = lefts[-1], drawn + count, 2 * block
    return np.concatenate(blocks)


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

    The output has the same length as the input; the first outputs use the
    ragged prefix of the direction (only past values down to index 0 exist).
    """
    coeffs = pv.h * _weights(pv.h.size)
    y = np.convolve(x.values, coeffs)[: x.n]
    return Series(y)
