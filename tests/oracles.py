"""Independent oracle implementations used by the tests.

Everything here is deliberately written from the defining formulas (series
expansions, quadrature, double loops) without touching the package's code
paths, so each oracle stays an independent route to the same quantity.
"""

import math

import numpy as np

from rpgauss.exceptions import NumericalError
from rpgauss.projection import _FIRST_BLOCK


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


# -- Gaussian-CF fit (dense grid with zooms) -----------------------------------------

def q_form(g_hat, g_model, g_plus) -> float:
    """(g_hat - g_model)' G+ (g_hat - g_model) by the double sum over the
    components, clamped to 0 when it dips at most 1e-12 below zero; a value
    that is not finite, or further below zero, signals a broken
    pseudo-inverse and raises NumericalError."""
    d = np.asarray(g_hat, dtype=float) - np.asarray(g_model, dtype=float)
    if d.ndim != 1 or np.shape(g_plus) != (d.size, d.size):
        raise ValueError("dimension mismatch between vectors and matrix")
    d, g = d.tolist(), np.asarray(g_plus, dtype=float).tolist()
    q = sum(d[i] * g[i][j] * d[j] for i in range(len(d)) for j in range(len(d)))
    if not math.isfinite(q):
        raise NumericalError("quadratic form is not finite")
    if q < -1e-12:
        raise NumericalError(f"quadratic form is negative beyond tolerance: {q}")
    return max(q, 0.0)


def _q_unit(g_target, g_plus, xi, phi, u, s):
    """Q at the points (u, s) (arrays that broadcast together), where
    u = (nu - mu0)/sd and s = ln(rho/gamma0), from the Gaussian CF
    exp(-rho lam^2 / 2 + i nu lam) written as exp(-e^s xi^2 / 2 + i (phi + u xi)).

    Q = sum_k w_k (e_k' d)^2 over the eigenpairs (w_k, e_k) of G+, a sum of
    squares that keeps its relative precision when G+ is ill-conditioned."""
    d = np.empty(np.broadcast_shapes(np.shape(u), np.shape(s)) + (2 * xi.size,))
    for j, (xi_j, phi_j) in enumerate(zip(xi, phi)):
        amp = np.exp(-0.5 * np.exp(s) * xi_j * xi_j)
        d[..., 2 * j] = g_target[2 * j] - amp * np.cos(phi_j + u * xi_j)
        d[..., 2 * j + 1] = g_target[2 * j + 1] - amp * np.sin(phi_j + u * xi_j)
    weights, vectors = np.linalg.eigh(g_plus)
    return ((d @ vectors) ** 2) @ weights


def local_minima_brute(q) -> np.ndarray:
    """Mask of the points of the 2-D array q that are <= each of their (up to
    eight) neighbours, by a loop over every point and neighbour; a comparison
    with NaN is false."""
    q = np.asarray(q, dtype=float)
    rows, cols = q.shape
    low = np.zeros(q.shape, dtype=bool)
    q = q.tolist()
    for i in range(rows):
        for j in range(cols):
            low[i, j] = all(q[i][j] <= q[k][m]
                            for k in range(max(i - 1, 0), min(i + 2, rows))
                            for m in range(max(j - 1, 0), min(j + 2, cols))
                            if (k, m) != (i, j))
    return low


def dense_grid_fit(g_target, g_plus, lam_values, mu0, gamma0, keep=12):
    """min Q over the fit's box nu in mu0 +- 10 sd, rho in [gamma0/100, 100 gamma0],
    by brute force: a dense grid over the box in u = (nu - mu0)/sd and
    s = ln(rho/gamma0), at least 16 u points per shortest period 2 pi/xi_max,
    then, around each of its `keep` best local minima, 11 x 11 grids that move
    to their best point and shrink five-fold whenever that point is inside.

    Returns (nu, rho, q_min)."""
    g_target = np.asarray(g_target, dtype=float)
    g_plus = np.asarray(g_plus, dtype=float)
    sd = math.sqrt(gamma0)
    xi = np.asarray(lam_values, dtype=float) * sd
    phi = np.asarray(lam_values, dtype=float) * mu0
    s_max = math.log(100.0)
    us = np.linspace(-10.0, 10.0, max(401, int(20.0 * 16.0 * xi.max() / (2.0 * math.pi)) + 1))
    ss = np.linspace(-s_max, s_max, 241)
    q = _q_unit(g_target, g_plus, xi, phi, us[:, None], ss[None, :])
    padded = np.pad(q, 1, constant_values=np.inf)
    local = np.ones(q.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if (di, dj) != (1, 1):
                local &= q <= padded[di:di + q.shape[0], dj:dj + q.shape[1]]
    flat = np.flatnonzero(local)
    starts = flat[np.argsort(q.flat[flat], kind="stable")[:keep]]

    # all the zooms at once: one row per start
    u, s = us[starts // ss.size], ss[starts % ss.size]
    half_u = np.full(u.size, us[1] - us[0])
    half_s = np.full(u.size, ss[1] - ss[0])
    steps = np.linspace(-1.0, 1.0, 11)
    rows = np.arange(u.size)
    for _ in range(400):
        if np.all((half_u < 1e-11) & (half_s < 1e-11)):
            break
        cand_u = np.clip(u[:, None] + half_u[:, None] * steps, -10.0, 10.0)
        cand_s = np.clip(s[:, None] + half_s[:, None] * steps, -s_max, s_max)
        zoom = _q_unit(g_target, g_plus, xi, phi, cand_u[:, :, None], cand_s[:, None, :])
        i, j = np.divmod(zoom.reshape(u.size, -1).argmin(axis=1), steps.size)
        u, s = cand_u[rows, i], cand_s[rows, j]
        inside_u = ((i > 0) & (i < 10)) | (np.abs(u) == 10.0)
        inside_s = ((j > 0) & (j < 10)) | (np.abs(s) == s_max)
        shrink = np.where(inside_u & inside_s, 0.2, 1.0)
        half_u, half_s = half_u * shrink, half_s * shrink
    values = _q_unit(g_target, g_plus, xi, phi, u, s)
    best = int(np.argmin(values))
    return mu0 + u[best] * sd, gamma0 * math.exp(s[best]), float(values[best])


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


def reference_fractions(alpha1, alpha2, n_cap, rng):
    """The stick fractions, one at a time, from the uniforms the sampler
    draws: u ** (1/a1) of one uniform for Beta(a1, 1), else the a1-th
    smallest of each row of a1 + a2 - 1 uniforms, in whole blocks of
    _FIRST_BLOCK, then twice as many, ... rows (at most n_cap in all)."""
    a1, a2 = int(alpha1), int(alpha2)
    drawn, block = 0, _FIRST_BLOCK
    while drawn < n_cap:
        if a2 == 1:
            drawn += 1
            yield rng.random() ** (1.0 / a1)
            continue
        count = min(block, n_cap - drawn)
        drawn, block = drawn + count, 2 * block
        for row in rng.randoms((count, a1 + a2 - 1)).tolist():
            yield sorted(row)[a1 - 1]


def reference_stick_breaking(alpha1, alpha2, n_cap, delta, rng):
    """Stick i = f_i times the mass left, prod_{j<i} (1 - f_j), multiplied
    up one fraction at a time; stop once that mass is at most delta, or
    after the n_cap fractions reference_fractions yields."""
    sticks = []
    left = 1.0
    for frac in reference_fractions(alpha1, alpha2, n_cap, rng):
        sticks.append(frac * left)
        left *= 1.0 - frac
        if left <= delta:
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
