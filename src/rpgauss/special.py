"""Scalar special functions: standard-normal quantile and chi-square survival.

The quantile is the standard library's `statistics.NormalDist.inv_cdf`,
Wichura's algorithm AS 241 (1988), accurate to about 1e-16 relative; this
module only adds the domain check. The chi-square survival function is the
finite sum for even degrees of freedom, the only ones the tests use.
"""

import math
from statistics import NormalDist

from .exceptions import NumericalError

_STANDARD_NORMAL = NormalDist()


def normal_quantile(u: float) -> float:
    """Quantile of the standard normal distribution.

    Raises ValueError unless 0 < u < 1 (so also for NaN).
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"normal_quantile requires 0 < u < 1, got {u!r}")
    return _STANDARD_NORMAL.inv_cdf(u)


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
