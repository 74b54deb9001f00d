"""Characteristic-function test of marginal normality for a stationary series.

The empirical characteristic function at frequencies lambda_1..lambda_N is
compared with the best-fitting Gaussian characteristic function through a
quadratic form studentized by the spectral density matrix of the cos/sin
process at frequency zero. n times the minimized form is asymptotically
chi-square with 2N - 2 degrees of freedom under normality.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSeriesError, NumericalError
from .rng import RngStream, sample_abs_normal
from .series import Series
from .special import chi_square_sf

FIXED = "fixed"
RANDOM = "random"

_XI_FIXED = (1.0, 2.0)
_XI_SDS = (1.0, 2.0)         # random mode: |N(0,1)| and |N(0,4)|
_XI_MIN = 1e-6               # redraw guard against degenerate frequencies
_PENALTY = 1e6
_MAX_ITER = 500
_REL_SPREAD = 1e-10


@dataclass(frozen=True)
class Lambda:
    """Strictly positive, pairwise distinct test frequencies."""

    values: np.ndarray
    mode: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need at least two frequencies")
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("frequencies must be finite and strictly positive")
        if np.unique(vals).size != vals.size:
            raise ValueError("frequencies must be pairwise distinct")
        if self.mode not in (FIXED, RANDOM):
            raise ValueError(f"mode must be {FIXED!r} or {RANDOM!r}")
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return self.values.size


def draw_lambda(gamma_hat: float, mode: str = FIXED, rng: RngStream | None = None) -> Lambda:
    """Frequencies lambda_j = xi_j / sqrt(gamma_hat).

    Fixed mode uses xi = (1, 2); random mode draws xi_1 ~ |N(0,1)| and
    xi_2 ~ |N(0,4)|, redrawing when either xi falls below 1e-6 or the two are
    closer than 1e-6 (the frequencies must stay distinct and positive).
    """
    if gamma_hat <= 0.0:
        raise DegenerateSeriesError("sample variance must be positive to scale frequencies")
    if mode == FIXED:
        xi = _XI_FIXED
    elif mode == RANDOM:
        if rng is None:
            raise ValueError("random mode needs an RngStream")
        while True:
            xi = (sample_abs_normal(_XI_SDS[0], rng), sample_abs_normal(_XI_SDS[1], rng))
            if min(xi) >= _XI_MIN and abs(xi[0] - xi[1]) >= _XI_MIN:
                break
    else:
        raise ValueError(f"unknown lambda mode {mode!r}")
    return Lambda(values=np.asarray(xi) / math.sqrt(gamma_hat), mode=mode)


def _cf_components(values: np.ndarray, lam_values: np.ndarray) -> np.ndarray:
    """Rows cos(l1*y), sin(l1*y), cos(l2*y), sin(l2*y), ... as a (2N, n) array."""
    args = np.outer(lam_values, values)
    comp = np.empty((2 * lam_values.size, values.size))
    comp[0::2] = np.cos(args)
    comp[1::2] = np.sin(args)
    return comp


def empirical_cf_vector(y: Series, lam: Lambda, rows: np.ndarray | None = None) -> np.ndarray:
    """(Re, Im) pairs of the empirical characteristic function at each frequency.

    `rows` are the cos/sin rows of y at lam, when the caller already has them.
    """
    if rows is None:
        rows = _cf_components(y.values, lam.values)
    return rows.mean(axis=1)


def gaussian_cf_vector(nu: float, rho: float, lam: Lambda) -> np.ndarray:
    """(Re, Im) pairs of the N(nu, rho) characteristic function at each frequency."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    lv = lam.values
    amp = np.exp(-0.5 * rho * lv**2)
    out = np.empty(2 * lv.size)
    out[0::2] = amp * np.cos(nu * lv)
    out[1::2] = amp * np.sin(nu * lv)
    return out


def _lag_window(n: int) -> int:
    # floor(n^(2/5)) via exact integer arithmetic: largest c with c^5 <= n^2
    c = int(n**0.4)
    while (c + 1) ** 5 <= n * n:
        c += 1
    while c**5 > n * n:
        c -= 1
    return c


def spectral_density_at_zero(y: Series, lam: Lambda,
                             rows: np.ndarray | None = None) -> np.ndarray:
    """Lag-window estimate of the spectral density matrix of the cos/sin
    process at frequency zero, with triangular weights up to floor(n^(2/5));
    symmetrized as (M + M^T)/2 after assembly.

    `rows` are the cos/sin rows of y at lam, when the caller already has them.
    """
    n = y.n
    if rows is None:
        rows = _cf_components(y.values, lam.values)
    dev = rows - rows.mean(axis=1, keepdims=True)
    cap = _lag_window(n)
    m = dev @ dev.T
    for i in range(1, cap + 1):
        w = 1.0 - i / cap
        if w == 0.0 or i >= n:
            continue
        m += (2.0 * w) * (dev[:, : n - i] @ dev[:, i:].T)
    m /= 2.0 * math.pi * n
    return (m + m.T) / 2.0


def pseudo_inverse(mat: np.ndarray, tol_rel: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix via eigendecomposition.

    Eigenvalues of magnitude below tol_rel times the largest magnitude are
    treated as zero, which keeps the inverse finite when the estimated
    spectral matrix is numerically singular.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if float(np.max(np.abs(a - a.T))) > 1e-10 * (scale + 1.0):
        raise ValueError("matrix must be symmetric")
    sym = (a + a.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    cutoff = tol_rel * float(np.max(np.abs(eigvals)))
    inv = np.zeros_like(eigvals)
    keep = np.abs(eigvals) >= cutoff
    if cutoff == 0.0:
        keep = np.zeros_like(keep)
    inv[keep] = 1.0 / eigvals[keep]
    return (eigvecs * inv) @ eigvecs.T


def _checked_q(q: float) -> float:
    """Validate a computed quadratic form: a non-finite value, or one below
    -1e-12, signals a broken pseudo-inverse and raises; a value within that
    tolerance below zero is clamped to 0."""
    if not math.isfinite(q):
        raise NumericalError("quadratic form is not finite")
    if q < -1e-12:
        raise NumericalError(f"quadratic form is negative beyond tolerance: {q}")
    return max(q, 0.0)


def q_form(g_hat: np.ndarray, g_model: np.ndarray, g_plus: np.ndarray) -> float:
    """(g_hat - g_model)^T G+ (g_hat - g_model), clamped to 0 when it dips
    within tolerance below zero; a larger negative value signals a broken
    pseudo-inverse and raises."""
    d = np.asarray(g_hat, dtype=float) - np.asarray(g_model, dtype=float)
    if d.ndim != 1 or np.shape(g_plus) != (d.size, d.size):
        raise ValueError("dimension mismatch between vectors and matrix")
    with np.errstate(invalid="ignore", over="ignore"):
        q = float(d @ g_plus @ d)
    return _checked_q(q)


def _nelder_mead(fn, start, offsets, max_iter=_MAX_ITER, rel_spread=_REL_SPREAD):
    """Downhill-simplex minimization of fn(x, y) over (x, y) float tuples.

    Stops when every coordinate range of the simplex is below rel_spread
    relative to |best| + initial offset (a scale that never vanishes), or
    after max_iter iterations.
    """
    x0, y0 = start
    ox, oy = offsets
    pts = [(x0, y0), (x0 + ox, y0), (x0, y0 + oy)]
    vals = [fn(x, y) for x, y in pts]
    scale_x, scale_y = abs(ox), abs(oy)

    for _ in range(max_iter):
        order = sorted(range(3), key=vals.__getitem__)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        (bx, by), (px, py), (wx, wy) = pts
        spread = max((max(bx, px, wx) - min(bx, px, wx)) / (abs(bx) + scale_x),
                     (max(by, py, wy) - min(by, py, wy)) / (abs(by) + scale_y))
        if spread < rel_spread:
            break

        cx, cy = (bx + px) / 2.0, (by + py) / 2.0
        rx, ry = cx + (cx - wx), cy + (cy - wy)
        f_r = fn(rx, ry)
        if vals[0] <= f_r < vals[1]:
            pts[2], vals[2] = (rx, ry), f_r
        elif f_r < vals[0]:
            ex, ey = cx + 2.0 * (cx - wx), cy + 2.0 * (cy - wy)
            f_e = fn(ex, ey)
            if f_e < f_r:
                pts[2], vals[2] = (ex, ey), f_e
            else:
                pts[2], vals[2] = (rx, ry), f_r
        else:
            if f_r < vals[2]:
                kx, ky = cx + 0.5 * (rx - cx), cy + 0.5 * (ry - cy)
                f_c = fn(kx, ky)
                if f_c <= f_r:
                    pts[2], vals[2] = (kx, ky), f_c
                    continue
            else:
                kx, ky = cx - 0.5 * (cx - wx), cy - 0.5 * (cy - wy)
                f_c = fn(kx, ky)
                if f_c < vals[2]:
                    pts[2], vals[2] = (kx, ky), f_c
                    continue
            # shrink toward the best vertex
            for i in (1, 2):
                ix, iy = pts[i]
                pts[i] = (bx + 0.5 * (ix - bx), by + 0.5 * (iy - by))
                vals[i] = fn(*pts[i])

    i_best = min(range(3), key=vals.__getitem__)
    return pts[i_best], vals[i_best]


def _fit_gaussian_cf(g_target, g_plus, lam, mu0, gamma0):
    """Minimize the studentized distance between g_target and the Gaussian CF
    over (nu, rho), starting at (mu0, gamma0) with one restart.

    The search runs on Python floats: the objective is the quadratic form of
    q_form with the Gaussian CF of gaussian_cf_vector, written out in scalar
    arithmetic, because numpy's per-call overhead dominates at this size.
    """
    target = np.asarray(g_target, dtype=float)
    if target.shape != (2 * lam.count,) or np.shape(g_plus) != (target.size, target.size):
        raise ValueError("dimension mismatch between vectors and matrix")
    # (lambda_j, lambda_j^2, Re, Im of the target) per frequency; column j of
    # G+ gives (d @ G+)_j, in the summation order of d @ g_plus @ d
    terms = [(lv, lv * lv, re_t, im_t) for lv, re_t, im_t
             in zip(lam.values.tolist(), target[0::2].tolist(), target[1::2].tolist())]
    columns = np.asarray(g_plus, dtype=float).T.tolist()
    mu0, gamma0 = float(mu0), float(gamma0)
    sd = math.sqrt(gamma0)
    nu_lo, nu_hi = mu0 - 10.0 * sd, mu0 + 10.0 * sd
    rho_lo, rho_hi = gamma0 / 100.0, 100.0 * gamma0

    def objective(nu, rho):
        # the box clamp min(max(v, lo), hi), spelled out for speed
        nu_c = nu_lo if nu < nu_lo else nu_hi if nu > nu_hi else nu
        rho_c = rho_lo if rho < rho_lo else rho_hi if rho > rho_hi else rho
        violation = abs(nu - nu_c) + abs(rho - rho_c)
        d = []
        for lv, lv_sq, re_t, im_t in terms:
            amp = math.exp(-0.5 * rho_c * lv_sq)
            d += (re_t - amp * math.cos(nu_c * lv), im_t - amp * math.sin(nu_c * lv))
        q = 0.0
        for d_j, column in zip(d, columns):
            v_j = 0.0
            for term in map(operator.mul, d, column):
                v_j += term
            q += v_j * d_j
        val = _checked_q(q) + _PENALTY * violation
        if not math.isfinite(val):
            raise NumericalError(f"objective is not finite at ({nu}, {rho})")
        return val

    offsets = (0.1 * sd, 0.1 * gamma0)
    first, f_first = _nelder_mead(objective, (mu0, gamma0), offsets)
    second, f_second = _nelder_mead(objective, first, offsets)
    point = second if f_second <= f_first else first
    nu = min(max(point[0], nu_lo), nu_hi)
    rho = min(max(point[1], rho_lo), rho_hi)
    return nu, rho, q_form(g_target, gaussian_cf_vector(nu, rho, lam), g_plus)


def minimize_q(y: Series, lam: Lambda, target_cf: np.ndarray | None = None):
    """Best-fitting Gaussian parameters (nu, rho) and the minimized form.

    Assembles the empirical CF vector and the pseudo-inverted spectral matrix,
    then runs the simplex descent from (mean, variance). `target_cf` replaces
    the empirical CF vector (testing seam for exact-fit checks).

    Returns (mu_n, gamma_n, q_min).
    """
    mu0 = y.mean()
    gamma0 = y.autocovariance(0)
    if gamma0 <= 0.0:
        raise DegenerateSeriesError("sample variance must be positive")
    # the cos/sin rows feed both the CF vector and the spectral matrix
    rows = _cf_components(y.values, lam.values)
    if target_cf is None:
        g_target = empirical_cf_vector(y, lam, rows)
    else:
        g_target = np.asarray(target_cf, float)
    g_plus = pseudo_inverse(2.0 * math.pi * spectral_density_at_zero(y, lam, rows))
    return _fit_gaussian_cf(g_target, g_plus, lam, mu0, gamma0)


@dataclass(frozen=True)
class EppsResult:
    statistic: float          # n * Q at the fitted parameters
    df: int
    p_value: float
    mu_n: float
    gamma_n: float
    lam: Lambda

    def as_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "mu_n": self.mu_n,
            "gamma_n": self.gamma_n,
            "lambda": [float(v) for v in self.lam.values],
            "mode": self.lam.mode,
        }


def epps_test(y: Series, mode: str = FIXED, rng: RngStream | None = None) -> EppsResult:
    """Run the characteristic-function test.

    Draws the frequencies (per `mode`), minimizes the studentized CF distance
    over the Gaussian family, and calibrates n*Q against chi-square(2N - 2).

    Requires n >= 8 and a non-constant series.
    """
    if y.n < 8:
        raise ValueError(f"series too short for testing (n={y.n} < 8)")
    gamma0 = y.autocovariance(0)
    if gamma0 <= 0.0:
        raise DegenerateSeriesError("constant series has no defined test statistic")
    lam = draw_lambda(gamma0, mode, rng)
    mu_n, gamma_n, q_min = minimize_q(y, lam)
    stat = y.n * q_min
    df = 2 * lam.count - 2
    return EppsResult(statistic=float(stat), df=df, p_value=chi_square_sf(stat, df),
                      mu_n=mu_n, gamma_n=gamma_n, lam=lam)
