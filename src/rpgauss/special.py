"""Special functions: standard-normal quantile and chi-square survival.

The quantile is Wichura's algorithm AS 241 (1988), accurate to about 1e-16
relative, as the standard library's C routine behind
`statistics.NormalDist().inv_cdf`; this module adds one domain check per
array and calls the routine once per value, so each quantile is bit for bit
the one `NormalDist().inv_cdf` returns. The chi-square survival function is
the finite sum for even degrees of freedom, the only ones the tests use.
"""

import math
from itertools import repeat
# The C routine that NormalDist.inv_cdf calls, without its two Python frames
# per value; a Python that drops the name fails here, at import.
from statistics import _normal_dist_inv_cdf

import numpy as np

from .exceptions import NumericalError


def normal_quantiles(u) -> np.ndarray:
    """Quantiles of the standard normal distribution at the values of the
    one-dimensional array `u`.

    Raises ValueError, naming the first bad value, unless 0 < u < 1 holds
    for every value (so also for NaN).
    """
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)  # False for NaN
    if not inside.all():
        bad = u[np.argmin(inside)].item()
        raise ValueError(f"normal_quantile requires 0 < u < 1, got {bad!r}")
    return np.fromiter(map(_normal_dist_inv_cdf, u.tolist(), repeat(0.0), repeat(1.0)),
                       dtype=float, count=u.size)


def normal_quantile(u: float) -> float:
    """Quantile of the standard normal distribution: `normal_quantiles` on
    one value."""
    return normal_quantiles([u])[0].item()


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with an even
    number `df` of degrees of freedom, by the finite sum

        exp(-x/2) * sum_{k < df/2} (x/2)^k / k!

    Raises ValueError for x < 0 or a df that is not an even integer >= 2, and
    NumericalError if the sum overflows (x and df both far beyond any test).
    """
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"chi_square_sf requires x >= 0, got {x!r}")
    if int(df) != df or df < 2 or df % 2 != 0:
        raise ValueError(f"chi_square_sf requires an even integer df >= 2, got {df!r}")
    half_x = 0.5 * x
    term = total = 1.0
    for k in range(1, int(df) // 2):
        term *= half_x / k
        total += term
    if not math.isfinite(total):
        raise NumericalError(f"chi-square survival sum overflows (x={x}, df={df})")
    return min(1.0, math.exp(-half_x) * total)
