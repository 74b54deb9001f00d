"""Characteristic-function test of marginal normality for a stationary series.

The empirical characteristic function at frequencies lambda_1..lambda_N is
compared with the best-fitting Gaussian characteristic function through a
quadratic form studentized by the spectral density matrix of the cos/sin
process at frequency zero. n times the minimized form is asymptotically
chi-square with 2N - 2 degrees of freedom under normality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
# The CF fit works in unit scale, u = (nu - mu0)/sd and s = ln(rho/gamma0), on
# the box nu in mu0 +- 10 sd, rho in [gamma0/100, 100 gamma0]; see _fit_gaussian_cf.
_U_MAX = 10.0
_S_MAX = math.log(100.0)
_GRID_PER_PERIOD = 10          # u points per shortest period 2 pi / xi_max of the model
_GRID_U = (48, 400)            # least and most u points of the seed grid
_GRID_S = 25
_CENTRE_U = (-1.5, 1.5)        # the grid is three times finer over these u and s,
_CENTRE_S = (-1.5, 0.8)        # where the minimum usually lies
_SEEDS = 8                     # grid local minima polished, lowest first
_STEP_CELLS = 2.0              # a Newton step moves at most this many grid cells
_NEWTON_MAX_ITER = 50
_NEWTON_HALVINGS = 8
_NEWTON_TOL = 1e-12            # converged when the predicted decrease is this share of Q
_TIE = 1e-10                   # end points this close to the lowest Q count as equal


@dataclass(frozen=True)
class Lambda:
    """Two strictly positive, distinct test frequencies (the design's N = 2)."""

    values: np.ndarray
    mode: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (2,):
            raise ValueError(f"need exactly two frequencies, got shape {vals.shape}")
        v0, v1 = vals.tolist()
        if not (0.0 < v0 < math.inf and 0.0 < v1 < math.inf):  # also false for NaN
            raise ValueError("frequencies must be finite and strictly positive")
        if v0 == v1:
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
    amp = np.exp(-0.5 * (math.sqrt(rho) * lv) ** 2)
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
    """Moore-Penrose pseudo-inverse of a symmetric matrix from its eigenpairs.

    Eigenvalues of magnitude below tol_rel times the largest magnitude are
    treated as zero, which keeps the inverse finite when the estimated
    spectral matrix is numerically singular. A matrix symmetric within a
    relative 1e-10 is symmetrized as (a + a^T)/2, which is a itself when a is
    exactly symmetric.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if (a == a.T).all():
        sym = a
    else:
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


def _grid_points(half_width: float, count: int, centre: tuple[float, float]):
    """count uniform points over [-half_width, half_width], three times finer
    over the interval centre, and the uniform spacing."""
    coarse = np.linspace(-half_width, half_width, count)
    step = coarse[1] - coarse[0]
    fine = np.arange(centre[0], centre[1] + step / 6.0, step / 3.0)
    return np.concatenate((coarse[coarse < fine[0]], fine, coarse[coarse > fine[-1]])), step


_S_POINTS, _S_STEP = _grid_points(_S_MAX, _GRID_S, _CENTRE_S)
_S_POINTS.flags.writeable = False
_S_EXP = np.exp(_S_POINTS)
_S_EXP.flags.writeable = False


@lru_cache(maxsize=None)  # bounded: the count lies in _GRID_U
def _u_grid(count: int):
    """The u points of the seed grid (read-only) and their uniform spacing."""
    us, hu = _grid_points(_U_MAX, count, _CENTRE_U)
    us.flags.writeable = False
    return us, hu


def _local_minima(q):
    """Mask of the points of q no higher than any of their (up to eight)
    neighbours: a point is no higher than each of them exactly when it is no
    higher than the minimum of its 3 x 3 window. The window runs over a copy
    padded with +inf, and np.minimum propagates NaN, so a NaN point and the
    neighbours of one are never minima."""
    rows, cols = q.shape
    padded = np.full((rows + 2, cols + 2), np.inf)
    padded[1:-1, 1:-1] = q
    window = np.minimum(np.minimum(padded[:-2], padded[1:-1]), padded[2:])
    window = np.minimum(np.minimum(window[:, :-2], window[:, 1:-1]), window[:, 2:])
    return q <= window


def _grid_seeds(t, weights, vectors, xi, phi):
    """Starting points (u, s) for the polish, lowest first, and the uniform
    grid spacings (hu, hs).

    The seeds are the _SEEDS lowest local minima of Q on the seed grid
    (_grid_points; a point no higher than its neighbours, the box edges
    included), the first of them the grid's global minimum. Columns where
    both model amplitudes are below 1e-18 hold the constant t' G+ t; only
    the first of them is kept. On the grid Q is expanded in powers of the
    amplitudes, which is fast but can lose digits to cancellation when G+
    is ill-conditioned; the values only rank seeds, and the polish
    evaluates and checks Q as a sum of squares.
    """
    n_u = int(_GRID_PER_PERIOD * _U_MAX * max(xi) / math.pi) + 1
    us, hu = _u_grid(min(max(n_u, _GRID_U[0]), _GRID_U[1]))
    n_s = int(np.searchsorted(_S_POINTS, math.log(83.0 / min(xi) ** 2))) + 1
    ss = _S_POINTS[:n_s]
    r = _S_EXP[:n_s]
    # e_k' d = tau_k - a_k(u) amp0(s) - b_k(u) amp1(s), with a_k and b_k the
    # projections of the (cos, sin) pairs on e_k, so sum_k w_k (e_k' d)^2 is
    # (n_u, 5) coefficients times (5, n_s) amplitude products, plus a constant;
    # trig[j] holds the rows cos(theta_j), sin(theta_j)
    theta = np.multiply.outer(xi, us) + np.reshape(phi, (2, 1))
    trig = np.empty((2, 2, us.size))
    np.cos(theta, out=trig[:, 0])
    np.sin(theta, out=trig[:, 1])
    a = vectors[:2].T @ trig[0]
    b = vectors[2:].T @ trig[1]
    tau = t @ vectors
    wt = weights * tau
    amp0 = np.exp((-0.5 * xi[0] * xi[0]) * r)
    amp1 = np.exp((-0.5 * xi[1] * xi[1]) * r)
    with np.errstate(invalid="ignore", over="ignore"):
        coef = np.array([weights @ (a * a), weights @ (b * b), 2.0 * (weights @ (a * b)),
                         -2.0 * (wt @ a), -2.0 * (wt @ b)])
        q = coef.T @ np.array([amp0 * amp0, amp1 * amp1, amp0 * amp1, amp0, amp1])
        q += wt @ tau
    # the lowest local minimum is the grid's global minimum
    rows, cols = np.nonzero(_local_minima(q))
    seeds = sorted(zip(q[rows, cols].tolist(), rows.tolist(), cols.tolist()))[:_SEEDS]
    return [(float(us[i]), float(ss[j])) for _, i, j in seeds], hu, _S_STEP


def _fit_gaussian_cf(g_target, g_plus, lam, mu0, gamma0):
    """Minimize the studentized distance Q between g_target and the Gaussian
    CF over the box nu in mu0 +- 10 sd, rho in [gamma0/100, 100 gamma0].

    The fit works in unit scale, u = (nu - mu0)/sd in [-10, 10] and
    s = ln(rho/gamma0) in [-ln 100, ln 100]. There the model at lambda_j is
    exp(-e^s xi_j^2 / 2) (cos, sin)(phi_j + u xi_j), with xi_j = lambda_j sd
    and phi_j = lambda_j mu0, so no lambda is squared. Q is
    sum_k w_k (e_k' d)^2 over the eigenpairs of G+, a sum of squares that
    keeps its relative precision when G+ is ill-conditioned.

    A grid over the box gives the seeds (_grid_seeds). A damped Newton step
    with the closed-form gradient and Hessian (the Gauss-Newton matrix
    J' G+ J where the Hessian is not positive definite) polishes each, lowest
    first; a seed whose first step predicts no end below the best so far is
    dropped. Returns (nu, rho, q_min) in data units.
    """
    target = np.asarray(g_target, dtype=float)
    if target.shape != (2 * lam.count,) or np.shape(g_plus) != (target.size, target.size):
        raise ValueError("dimension mismatch between vectors and matrix")
    g_plus = np.asarray(g_plus, dtype=float)
    if not np.isfinite(g_plus).all():
        raise NumericalError("pseudo-inverted spectral matrix is not finite")
    weights, vectors = np.linalg.eigh(g_plus)
    mu0, gamma0 = float(mu0), float(gamma0)
    sd = math.sqrt(gamma0)
    x0, x1 = (v * sd for v in lam.values.tolist())
    p0, p1 = (v * mu0 for v in lam.values.tolist())
    t0, t1, t2, t3 = target.tolist()
    w0, w1, w2, w3 = weights.tolist()
    ((e00, e01, e02, e03), (e10, e11, e12, e13),
     (e20, e21, e22, e23), (e30, e31, e32, e33)) = vectors.tolist()
    h0, h1 = -0.5 * x0 * x0, -0.5 * x1 * x1
    exp, cos, sin = math.exp, math.cos, math.sin

    def terms(u, s):
        # Q, half its gradient, half its Hessian and half the Gauss-Newton
        # matrix at (u, s). The model's u-derivative is xi times the model
        # turned by 90 degrees; its s-derivative is k = h e^s times the model.
        k0, k1 = h0 * exp(s), h1 * exp(s)
        a0, a1 = exp(k0), exp(k1)
        m0, m1 = a0 * cos(p0 + u * x0), a0 * sin(p0 + u * x0)
        m2, m3 = a1 * cos(p1 + u * x1), a1 * sin(p1 + u * x1)
        d0, d1, d2, d3 = t0 - m0, t1 - m1, t2 - m2, t3 - m3
        y0 = e00 * d0 + e10 * d1 + e20 * d2 + e30 * d3
        y1 = e01 * d0 + e11 * d1 + e21 * d2 + e31 * d3
        y2 = e02 * d0 + e12 * d1 + e22 * d2 + e32 * d3
        y3 = e03 * d0 + e13 * d1 + e23 * d2 + e33 * d3
        q = _checked_q(w0 * y0 * y0 + w1 * y1 * y1 + w2 * y2 * y2 + w3 * y3 * y3)
        # v = G+ d, on each model pair and on the pair turned by 90 degrees
        z0, z1, z2, z3 = w0 * y0, w1 * y1, w2 * y2, w3 * y3
        v0 = e00 * z0 + e01 * z1 + e02 * z2 + e03 * z3
        v1 = e10 * z0 + e11 * z1 + e12 * z2 + e13 * z3
        v2 = e20 * z0 + e21 * z1 + e22 * z2 + e23 * z3
        v3 = e30 * z0 + e31 * z1 + e32 * z2 + e33 * z3
        in0, rot0 = v0 * m0 + v1 * m1, v1 * m0 - v0 * m1
        in1, rot1 = v2 * m2 + v3 * m3, v3 * m2 - v2 * m3
        # the Jacobian columns ju = dm/du and js = dm/ds, on the eigenvectors
        ju0, ju1, ju2, ju3 = -x0 * m1, x0 * m0, -x1 * m3, x1 * m2
        js0, js1, js2, js3 = k0 * m0, k0 * m1, k1 * m2, k1 * m3
        bu0 = e00 * ju0 + e10 * ju1 + e20 * ju2 + e30 * ju3
        bu1 = e01 * ju0 + e11 * ju1 + e21 * ju2 + e31 * ju3
        bu2 = e02 * ju0 + e12 * ju1 + e22 * ju2 + e32 * ju3
        bu3 = e03 * ju0 + e13 * ju1 + e23 * ju2 + e33 * ju3
        bs0 = e00 * js0 + e10 * js1 + e20 * js2 + e30 * js3
        bs1 = e01 * js0 + e11 * js1 + e21 * js2 + e31 * js3
        bs2 = e02 * js0 + e12 * js1 + e22 * js2 + e32 * js3
        bs3 = e03 * js0 + e13 * js1 + e23 * js2 + e33 * js3
        # the Gauss-Newton matrix J' G+ J
        auu = w0 * bu0 * bu0 + w1 * bu1 * bu1 + w2 * bu2 * bu2 + w3 * bu3 * bu3
        aus = w0 * bu0 * bs0 + w1 * bu1 * bs1 + w2 * bu2 * bs2 + w3 * bu3 * bs3
        ass = w0 * bs0 * bs0 + w1 * bs1 * bs1 + w2 * bs2 * bs2 + w3 * bs3 * bs3
        return (q, -(x0 * rot0 + x1 * rot1), -(k0 * in0 + k1 * in1),
                auu + x0 * x0 * in0 + x1 * x1 * in1,
                aus - (k0 * x0 * rot0 + k1 * x1 * rot1),
                ass - ((k0 + k0 * k0) * in0 + (k1 + k1 * k1) * in1),
                auu, aus, ass)

    def polish(u, s, best):
        point = terms(u, s)
        for iteration in range(_NEWTON_MAX_ITER):
            q, gu, gs, huu, hus, hss, auu, aus, ass = point
            # a coordinate on a bound its gradient pushes out of the box is held
            hold_u = (u <= -_U_MAX and gu > 0.0) or (u >= _U_MAX and gu < 0.0)
            hold_s = (s <= -_S_MAX and gs > 0.0) or (s >= _S_MAX and gs < 0.0)
            if hold_u and hold_s:
                break
            ridge = 1e-12 * (auu + ass) + 1e-300
            if hold_u:
                newton = hss > 0.0
                du, ds = 0.0, -gs / (hss if newton else ass + ridge)
            elif hold_s:
                newton = huu > 0.0
                du, ds = -gu / (huu if newton else auu + ridge), 0.0
            else:
                newton = huu > 0.0 and hss > 0.0 and huu * hss > hus * hus
                if not newton:
                    huu, hus, hss = auu + ridge, aus, ass + ridge
                det = huu * hss - hus * hus
                if det > 0.0:
                    du, ds = (hus * gs - hss * gu) / det, (hus * gu - huu * gs) / det
                else:
                    du, ds = -gu / huu, -gs / hss
            decrease = -(gu * du + gs * ds)
            if decrease <= _NEWTON_TOL * q:
                break
            scale = min(1.0, _STEP_CELLS * hu / abs(du) if du else 1.0,
                        _STEP_CELLS * hs / abs(ds) if ds else 1.0)
            du, ds = scale * du, scale * ds
            # the quadratic model's decrease along the step, with a margin
            # that is wider where the model is Gauss-Newton
            margin = (2.0 if newton else 5.0) * scale * (2.0 - scale) * decrease
            if iteration == 0 and q - margin > best:
                break
            step = 1.0
            for _ in range(_NEWTON_HALVINGS):
                u_try = min(max(u + step * du, -_U_MAX), _U_MAX)
                s_try = min(max(s + step * ds, -_S_MAX), _S_MAX)
                trial = terms(u_try, s_try)
                if trial[0] < q:
                    u, s, point = u_try, s_try, trial
                    break
                step *= 0.5
            else:
                break
        return point[0], u, s

    seeds, hu, hs = _grid_seeds(target, weights, vectors, (x0, x1), (p0, p1))
    ends = []
    for seed in seeds:
        ends.append(polish(*seed, min(ends)[0] if ends else math.inf))
    # where the model repeats in u (commensurate frequencies, as in fixed mode)
    # equal minima recur; report the one nearest the sample mean
    q_min = min(ends)[0]
    q, u, s = min((end for end in ends if end[0] <= q_min * (1.0 + _TIE)),
                  key=lambda end: abs(end[1]))
    return mu0 + u * sd, gamma0 * math.exp(s), q


def minimize_q(y: Series, lam: Lambda, target_cf: np.ndarray | None = None):
    """Best-fitting Gaussian parameters (nu, rho) and the minimized form.

    Assembles the empirical CF vector and the pseudo-inverted spectral matrix,
    then minimizes the form over the box around (mean, variance) (see
    _fit_gaussian_cf). `target_cf` replaces the empirical CF vector (testing
    seam for exact-fit checks).

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
