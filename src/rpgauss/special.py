"""Scalar special functions: standard-normal quantile and chi-square survival.

Everything downstream (p-values, quantile binning of the pairwise-independent
process) goes through these two functions, so they are kept dependency-free
and accurate to well below the 1e-9 / 1e-10 contracts.
"""

import math

from .exceptions import NumericalError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Acklam's rational approximation of the inverse normal CDF (|err| < 1.2e-9).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _norm_cdf(x: float) -> float:
    # erfc keeps full relative accuracy in the lower tail
    return 0.5 * math.erfc(-x / _SQRT2)


def _norm_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def normal_quantile(u: float) -> float:
    """Quantile of the standard normal distribution.

    Rational approximation followed by one Newton correction against the
    erf-based CDF; absolute error is far below 1e-9 on (0, 1).

    Raises ValueError unless 0 < u < 1.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"normal_quantile requires 0 < u < 1, got {u!r}")
    if u < _P_LOW:
        q = math.sqrt(-2.0 * math.log(u))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    elif u <= 1.0 - _P_LOW:
        q = u - 0.5
        r = q * q
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - u))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    # one Newton step against the erf-based CDF
    return x - (_norm_cdf(x) - u) / _norm_pdf(x)


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
