"""Independent oracle implementations used by the tests.

Everything here is deliberately written from the defining formulas (series
expansions, quadrature, double loops) without touching the package's code
paths, so each oracle stays an independent route to the same quantity.
"""

import math
import operator

import numpy as np

from rpgauss.exceptions import NumericalError
from rpgauss.rng import sample_beta


# -- standard normal -----------------------------------------------------------

def norm_cdf_series(x: float) -> float:
    """Phi(x) by the Taylor series Phi(x) = 1/2 + phi(x) * sum x^(2k+1)/(1*3*...*(2k+1)).

    Accurate to ~1e-15 for |x| <= 6; do not use further out.
    """
    term = x
    total = x
    k = 0
    while True:
        k += 1
        term *= x * x / (2 * k + 1)
        new_total = total + term
        if new_total == total or k > 500:
            break
        total = new_total
    return 0.5 + total * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_quantile_bisect(u: float, tol: float = 1e-12) -> float:
    """Quantile by bisection on the series-expansion CDF."""
    lo, hi = -6.0, 6.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if norm_cdf_series(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def erf_norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# -- chi-square ----------------------------------------------------------------

def chi2_sf_quadrature(x: float, df: int, panels: int = 200_000) -> float:
    """Upper-tail probability by Simpson quadrature of the chi-square density.

    Integrates in the substituted variable u = sqrt(t), where the integrand
    u^(df-1) exp(-u^2/2) is smooth for every df >= 1 (the raw density is
    singular at 0 for df = 1).
    """
    if x == 0.0:
        return 1.0
    a = 0.5 * df
    log_norm = (a - 1.0) * math.log(2.0) + math.lgamma(a)

    def integrand(u: float) -> float:
        if u == 0.0:
            return math.exp(-log_norm) if df == 1 else 0.0
        return math.exp((df - 1) * math.log(u) - 0.5 * u * u - log_norm)

    upper = math.sqrt(x)
    h = upper / panels
    total = integrand(0.0) + integrand(upper)
    for i in range(1, panels):
        total += integrand(i * h) * (4.0 if i % 2 else 2.0)
    return 1.0 - total * h / 3.0


# -- Kolmogorov-Smirnov --------------------------------------------------------

def ks_distance(sample, cdf) -> float:
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    cdf_vals = np.array([cdf(v) for v in xs])
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - cdf_vals), np.max(cdf_vals - (grid - 1.0 / n))))


def ks_critical(alpha: float, n: int) -> float:
    # asymptotic critical value c(alpha)/sqrt(n)
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ks_two_sample(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


# -- sample statistics ---------------------------------------------------------

def mean_brute(x) -> float:
    total = 0.0
    for v in x:
        total += float(v)
    return total / len(x)


def centered_moment_brute(x, k: int) -> float:
    m = mean_brute(x)
    return sum((float(v) - m) ** k for v in x) / len(x)


def autocov_brute(x, t: int) -> float:
    n = len(x)
    lag = abs(t)
    m = mean_brute(x)
    return sum((float(x[i]) - m) * (float(x[i + lag]) - m) for i in range(n - lag)) / n


# -- spectral matrix (literal double loop) --------------------------------------

def lag_window(n: int) -> int:
    c = 0
    while (c + 1) ** 5 <= n * n:
        c += 1
    return c


def spectral_brute(values, lam_values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    lam_values = np.asarray(lam_values, dtype=float)
    n = values.size
    dim = 2 * lam_values.size

    def g(v):
        out = np.empty(dim)
        for j, lam in enumerate(lam_values):
            out[2 * j] = math.cos(lam * v)
            out[2 * j + 1] = math.sin(lam * v)
        return out

    gs = [g(v) for v in values]
    ghat = sum(gs) / n
    m = np.zeros((dim, dim))
    for t in range(n):
        d = gs[t] - ghat
        m += np.outer(d, d)
    cap = lag_window(n)
    for i in range(1, cap + 1):
        w = 1.0 - i / cap
        inner = np.zeros((dim, dim))
        for t in range(n - i):
            inner += np.outer(gs[t] - ghat, gs[t + i] - ghat)
        m += 2.0 * w * inner
    m /= 2.0 * math.pi * n
    return (m + m.T) / 2.0


# -- Gaussian-CF fit (numpy downhill simplex) -------------------------------------

def _gaussian_cf_numpy(nu, rho, lam_values):
    amp = np.exp(-0.5 * rho * lam_values**2)
    out = np.empty(2 * lam_values.size)
    out[0::2] = amp * np.cos(nu * lam_values)
    out[1::2] = amp * np.sin(nu * lam_values)
    return out


def _q_form_numpy(g_hat, g_model, g_plus):
    d = np.asarray(g_hat, dtype=float) - np.asarray(g_model, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        q = float(d @ g_plus @ d)
    if not math.isfinite(q):
        raise NumericalError("quadratic form is not finite")
    if q < -1e-12:
        raise NumericalError(f"quadratic form is negative beyond tolerance: {q}")
    return max(q, 0.0)


def nelder_mead_numpy(fn, start, offsets, max_iter=500, rel_spread=1e-10):
    """Downhill simplex in 2D on numpy vertices (the reference search)."""
    start = np.asarray(start, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    pts = [start.copy(),
           start + np.array([offsets[0], 0.0]),
           start + np.array([0.0, offsets[1]])]
    vals = [fn(p) for p in pts]

    for _ in range(max_iter):
        order = np.argsort(vals, kind="stable")
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        best = pts[0]
        spread = 0.0
        for j in range(2):
            coord = (pts[0][j], pts[1][j], pts[2][j])
            spread = max(spread, (max(coord) - min(coord)) / (abs(best[j]) + abs(offsets[j])))
        if spread < rel_spread:
            break

        centroid = (pts[0] + pts[1]) / 2.0
        reflected = centroid + (centroid - pts[2])
        f_r = fn(reflected)
        if vals[0] <= f_r < vals[1]:
            pts[2], vals[2] = reflected, f_r
        elif f_r < vals[0]:
            expanded = centroid + 2.0 * (centroid - pts[2])
            f_e = fn(expanded)
            if f_e < f_r:
                pts[2], vals[2] = expanded, f_e
            else:
                pts[2], vals[2] = reflected, f_r
        else:
            if f_r < vals[2]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_c = fn(contracted)
                if f_c <= f_r:
                    pts[2], vals[2] = contracted, f_c
                    continue
            else:
                contracted = centroid - 0.5 * (centroid - pts[2])
                f_c = fn(contracted)
                if f_c < vals[2]:
                    pts[2], vals[2] = contracted, f_c
                    continue
            for i in (1, 2):
                pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                vals[i] = fn(pts[i])

    i_best = int(np.argmin(vals))
    return pts[i_best], vals[i_best]


def reference_fit_gaussian_cf(g_target, g_plus, lam_values, mu0, gamma0, trace=None):
    """The Gaussian-CF fit with every step on numpy arrays: the same box
    penalty, simplex and restart as the package's scalar search.

    Returns (nu, rho, q_min). When `trace` is a list, the point (nu, rho) of
    each objective evaluation is appended to it, in order.
    """
    lam_values = np.asarray(lam_values, dtype=float)
    sd = math.sqrt(gamma0)
    nu_lo, nu_hi = mu0 - 10.0 * sd, mu0 + 10.0 * sd
    rho_lo, rho_hi = gamma0 / 100.0, 100.0 * gamma0

    def objective(point):
        nu, rho = float(point[0]), float(point[1])
        if trace is not None:
            trace.append((nu, rho))
        nu_c = min(max(nu, nu_lo), nu_hi)
        rho_c = min(max(rho, rho_lo), rho_hi)
        violation = abs(nu - nu_c) + abs(rho - rho_c)
        val = _q_form_numpy(g_target, _gaussian_cf_numpy(nu_c, rho_c, lam_values), g_plus)
        val += 1e6 * violation
        if not math.isfinite(val):
            raise NumericalError(f"objective is not finite at ({nu}, {rho})")
        return val

    offsets = (0.1 * sd, 0.1 * gamma0)
    first, f_first = nelder_mead_numpy(objective, (mu0, gamma0), offsets)
    second, f_second = nelder_mead_numpy(objective, first, offsets)
    point = second if f_second <= f_first else first
    nu = min(max(float(point[0]), nu_lo), nu_hi)
    rho = min(max(float(point[1]), rho_lo), rho_hi)
    return nu, rho, _q_form_numpy(g_target, _gaussian_cf_numpy(nu, rho, lam_values), g_plus)


def _checked_q_scalar(q):
    if not math.isfinite(q):
        raise NumericalError("quadratic form is not finite")
    if q < -1e-12:
        raise NumericalError(f"quadratic form is negative beyond tolerance: {q}")
    return max(q, 0.0)


def scalar_nelder_mead(fn, start, offsets, max_iter=500, rel_spread=1e-10, iterations=None):
    """Downhill simplex on Python float tuples held in lists, sorted each
    iteration with sorted(); the package's search before its vertices moved
    into locals. When `iterations` is a list, the number of iterations run
    (max_iter when the spread test never fired) is appended to it."""
    x0, y0 = start
    ox, oy = offsets
    pts = [(x0, y0), (x0 + ox, y0), (x0, y0 + oy)]
    vals = [fn(x, y) for x, y in pts]
    scale_x, scale_y = abs(ox), abs(oy)

    done = max_iter
    for it in range(max_iter):
        order = sorted(range(3), key=vals.__getitem__)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        (bx, by), (px, py), (wx, wy) = pts
        spread = max((max(bx, px, wx) - min(bx, px, wx)) / (abs(bx) + scale_x),
                     (max(by, py, wy) - min(by, py, wy)) / (abs(by) + scale_y))
        if spread < rel_spread:
            done = it
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

    if iterations is not None:
        iterations.append(done)
    i_best = min(range(3), key=vals.__getitem__)
    return pts[i_best], vals[i_best]


def reference_scalar_fit(g_target, g_plus, lam_values, mu0, gamma0, iterations=None):
    """The Gaussian-CF fit on Python floats for any number N of frequencies:
    per-frequency terms, column-wise sums of d * G+ and the list-based
    simplex. Returns (nu, rho, q_min); `iterations` collects each simplex
    run's iteration count (see scalar_nelder_mead)."""
    target = np.asarray(g_target, dtype=float)
    lam_values = np.asarray(lam_values, dtype=float)
    terms = [(lv, lv * lv, re_t, im_t) for lv, re_t, im_t
             in zip(lam_values.tolist(), target[0::2].tolist(), target[1::2].tolist())]
    columns = np.asarray(g_plus, dtype=float).T.tolist()
    mu0, gamma0 = float(mu0), float(gamma0)
    sd = math.sqrt(gamma0)
    nu_lo, nu_hi = mu0 - 10.0 * sd, mu0 + 10.0 * sd
    rho_lo, rho_hi = gamma0 / 100.0, 100.0 * gamma0

    def objective(nu, rho):
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
        val = _checked_q_scalar(q) + 1e6 * violation
        if not math.isfinite(val):
            raise NumericalError(f"objective is not finite at ({nu}, {rho})")
        return val

    offsets = (0.1 * sd, 0.1 * gamma0)
    first, f_first = scalar_nelder_mead(objective, (mu0, gamma0), offsets,
                                        iterations=iterations)
    second, f_second = scalar_nelder_mead(objective, first, offsets, iterations=iterations)
    point = second if f_second <= f_first else first
    nu = min(max(point[0], nu_lo), nu_hi)
    rho = min(max(point[1], rho_lo), rho_hi)
    return nu, rho, _q_form_numpy(g_target, _gaussian_cf_numpy(nu, rho, lam_values), g_plus)


# -- AR(1) recursion and stick breaking ---------------------------------------------

def reference_ar1(eps, q, past):
    """X_1 = e_1, X_t = q X_{t-1} + e_t on an indexed numpy array; the last
    len(eps) - past values."""
    total = eps.size
    x = np.empty(total)
    x[0] = eps[0]
    for t in range(1, total):
        x[t] = q * x[t - 1] + eps[t]
    return x[past:]


def reference_stick_breaking(alpha1, alpha2, n_cap, delta, rng):
    """One sample_beta call per stick until the sticks reach 1 - delta or
    n_cap of them are drawn."""
    sticks = []
    total = 0.0
    for _ in range(n_cap):
        frac = sample_beta(alpha1, alpha2, rng)
        piece = frac * (1.0 - total)
        sticks.append(piece)
        total += piece
        if total >= 1.0 - delta:
            break
    return np.asarray(sticks)


# -- long-run variance estimators ------------------------------------------------

def f_hat_brute(values, k: int, tau: int) -> tuple[float, float]:
    """Returns (value, scale) where scale sums the absolute contributions."""
    total = 0.0
    scale = 0.0
    for t in range(1, tau + 1):
        g_t = autocov_brute(values, t)
        pair = g_t + autocov_brute(values, tau + 1 - t)
        term = 2.0 * g_t * pair ** (k - 1)
        total += term
        scale += abs(term)
    last = autocov_brute(values, 0) ** k
    return total + last, scale + abs(last)


# -- FDR combination --------------------------------------------------------------

def fdr_p0(ps) -> float:
    ordered = sorted(float(p) for p in ps)
    k = len(ordered)
    harmonic = 0.0
    for j in range(1, k + 1):
        harmonic += 1.0 / j
    best = min(p / (i + 1) for i, p in enumerate(ordered))
    return min(1.0, k * harmonic * best)


def fdr_reject(ps, alpha: float) -> bool:
    ordered = sorted(float(p) for p in ps)
    k = len(ordered)
    harmonic = sum(1.0 / j for j in range(1, k + 1))
    return any(p <= (i + 1) * alpha / (k * harmonic) for i, p in enumerate(ordered))
