"""A finite observed path with cached sample moments and autocovariances.

All estimators use the divisor n (not n-1), at every lag, because the test
statistics are defined in terms of these biased forms.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .exceptions import DegenerateSeriesError, NumericalError

# Below the smallest normal float a variance has lost its precision to underflow.
TINY = sys.float_info.min


class Series:
    """Immutable real-valued path. The deviations from the mean, the moments
    and the autocovariances are computed lazily and cached, since the
    marginal tests reuse them repeatedly.
    """

    __slots__ = ("_x", "_mean", "_dev", "_moments", "_acov")

    def __init__(self, values):
        x = np.asarray(values, dtype=float)
        if x.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if x.size == 0:
            raise ValueError("series must contain at least one value")
        if not np.all(np.isfinite(x)):
            raise ValueError("series values must all be finite")
        x = x.copy()
        x.setflags(write=False)
        self._x = x
        self._mean: float | None = None
        self._dev: np.ndarray | None = None
        self._moments: dict[int, float] = {}
        self._acov = np.empty(0)  # lags 0..size-1, extended on demand

    @property
    def values(self) -> np.ndarray:
        return self._x

    @property
    def n(self) -> int:
        return self._x.size

    def __len__(self) -> int:
        return self._x.size

    def mean(self) -> float:
        """Sample mean (divisor n); NumericalError when the sum overflows."""
        if self._mean is None:
            with np.errstate(over="ignore"):
                mean = float(np.mean(self._x))
            if not math.isfinite(mean):
                raise NumericalError("sample mean overflowed")
            self._mean = mean
        return self._mean

    def _deviations(self) -> np.ndarray:
        """x - mean, computed once."""
        if self._dev is None:
            self._dev = self._x - self.mean()
        return self._dev

    def centered_moment(self, k: int) -> float:
        """Sample centered moment of order k >= 2: n^-1 sum (x_i - mean)^k.

        A moment that overflows raises NumericalError; a variance (k = 2) below
        the smallest normal float from deviations that are not all zero has
        underflowed and raises DegenerateSeriesError.
        """
        if int(k) != k or k < 2:
            raise ValueError(f"centered moment order must be an integer >= 2, got {k!r}")
        k = int(k)
        if k not in self._moments:
            # products of the deviations: numpy's ** has no fast path beyond
            # the square, and calls pow() per element
            with np.errstate(over="ignore"):
                dev = self._deviations()
                square = dev * dev
                power = square
                for _ in range(k // 2 - 1):
                    power = power * square
                if k % 2:
                    power = power * dev
                moment = float(np.sum(power) / self.n)
            name = "sample variance" if k == 2 else f"sample centered moment of order {k}"
            if not math.isfinite(moment):
                raise NumericalError(f"{name} overflowed")
            if k == 2 and moment < TINY and np.any(dev):
                raise DegenerateSeriesError(
                    f"{name} underflowed ({moment!r}): the values are too small to square")
            self._moments[k] = moment
        return self._moments[k]

    def _lagged_product(self, lag: int) -> float:
        dev = self._deviations()
        return float(np.dot(dev[: self.n - lag], dev[lag:]) / self.n)

    def autocovariances(self, max_lag: int) -> np.ndarray:
        """Sample autocovariances of orders 0..max_lag, as a read-only array;
        each equals autocovariance(t)."""
        if int(max_lag) != max_lag or not 0 <= max_lag < self.n:
            raise ValueError(f"max_lag must be an integer in [0, {self.n - 1}], got {max_lag!r}")
        max_lag = int(max_lag)
        have = self._acov.size
        if have <= max_lag:
            # lag 0 is the second centered moment, kept exactly equal
            new = [self.centered_moment(2)] if have == 0 else []
            new += [self._lagged_product(lag) for lag in range(max(have, 1), max_lag + 1)]
            acov = np.concatenate((self._acov, new))
            acov.setflags(write=False)
            self._acov = acov
        return self._acov[: max_lag + 1]

    def autocovariance(self, t: int) -> float:
        """Sample autocovariance of order t, |t| <= n-1, divisor n at all lags."""
        if int(t) != t:
            raise ValueError(f"lag must be an integer, got {t!r}")
        lag = abs(int(t))
        if lag >= self.n:
            raise ValueError(f"lag {t} out of range for series of length {self.n}")
        if lag == 0:
            # identical formula to the second centered moment, kept exactly equal
            return self.centered_moment(2)
        if lag < self._acov.size:
            return float(self._acov[lag])
        # one lag at a time stays O(n): the cached vector grows only in autocovariances
        return self._lagged_product(lag)
