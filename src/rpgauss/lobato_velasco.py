"""Studentized skewness-kurtosis test of marginal normality.

Two variants of the long-run variance estimators are shipped: the modified
form truncates the autocovariance sums at tau_n = floor(c * n^beta0) and puts
absolute values in the denominators; the original form sums to n - 1 and uses
the raw (possibly negative) estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import DegenerateSeriesError, NumericalError
from .series import TINY, Series
from .special import chi_square_sf

MODIFIED = "modified"
ORIGINAL = "original"


@dataclass(frozen=True)
class LvConfig:
    c: float = 1.0
    beta0: float = 0.5
    variant: str = MODIFIED

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError("c must be positive")
        if not 0.0 < self.beta0 <= 0.5:
            raise ValueError("beta0 must lie in (0, 0.5]")
        if self.variant not in (MODIFIED, ORIGINAL):
            raise ValueError(f"variant must be {MODIFIED!r} or {ORIGINAL!r}")

    def tau(self, n: int) -> int:
        """Truncation point floor(c * n^beta0), clamped to [1, n-1]."""
        t = int(math.floor(self.c * n**self.beta0))
        return max(1, min(t, n - 1))


def f_hat_k(y: Series, k: int, tau: int) -> float:
    """Long-run variance estimator for the order-k moment:

        2 * sum_{t=1}^{tau} acov(t) * (acov(t) + acov(tau+1-t))^(k-1) + acov(0)^k

    A value that overflows raises NumericalError.
    """
    if k not in (3, 4):
        raise ValueError("k must be 3 or 4")
    if int(tau) != tau or not 1 <= tau <= y.n - 1:
        raise ValueError(f"tau must be an integer in [1, {y.n - 1}], got {tau!r}")
    tau = int(tau)
    acov = y.autocovariances(tau).tolist()
    total = 0.0
    try:
        for t in range(1, tau + 1):
            gt = acov[t]
            total += gt * (gt + acov[tau + 1 - t]) ** (k - 1)
        f = 2.0 * total + acov[0] ** k
    except OverflowError:  # float ** raises where * gives inf
        f = math.inf
    if not math.isfinite(f):
        raise NumericalError(f"long-run variance estimator f{k}_hat overflowed")
    return f


@dataclass(frozen=True)
class LvResult:
    statistic: float
    p_value: float
    f3_hat: float
    f4_hat: float
    tau_used: int
    variant: str

    def as_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "f3_hat": self.f3_hat,
            "f4_hat": self.f4_hat,
            "tau": self.tau_used,
            "variant": self.variant,
        }


def _statistic_parts(y: Series, cfg: LvConfig) -> tuple[float, float, float, int]:
    n = y.n
    tau = cfg.tau(n) if cfg.variant == MODIFIED else n - 1
    f3 = f_hat_k(y, 3, tau)
    f4 = f_hat_k(y, 4, tau)
    mu2 = y.centered_moment(2)
    for k, f in ((3, f3), (4, f4)):
        if abs(f) < TINY:
            if mu2 > 0.0:
                raise DegenerateSeriesError(f"long-run variance estimator f{k}_hat underflowed")
            raise DegenerateSeriesError("long-run variance estimator vanished (constant series?)")
    mu3 = y.centered_moment(3)
    mu4 = y.centered_moment(4)
    try:
        if cfg.variant == MODIFIED:
            stat = n * mu3**2 / (6.0 * abs(f3)) + n * (mu4 - 3.0 * mu2**2) ** 2 / (24.0 * abs(f4))
        else:
            stat = n * mu3**2 / (6.0 * f3) + n * (mu4 - 3.0 * mu2**2) ** 2 / (24.0 * f4)
    except OverflowError:
        stat = math.inf
    if not math.isfinite(stat):
        raise NumericalError("skewness-kurtosis statistic overflowed")
    return stat, f3, f4, tau


def lv_test(y: Series, cfg: LvConfig = LvConfig()) -> LvResult:
    """Run the test: statistic plus its chi-square(2) upper-tail p-value.

    Requires n >= 8 and a non-constant series. The original variant can
    produce a negative statistic when its denominators go negative; the
    p-value is then computed at 0 (no evidence against normality).
    """
    if y.n < 8:
        raise ValueError(f"series too short for testing (n={y.n} < 8)")
    stat, f3, f4, tau = _statistic_parts(y, cfg)
    p = chi_square_sf(max(stat, 0.0), 2)
    return LvResult(statistic=float(stat), p_value=p, f3_hat=float(f3),
                    f4_hat=float(f4), tau_used=tau, variant=cfg.variant)
