import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpgauss import (Ar1Process, DegenerateSeriesError, InnovationFamily, NumericalError,
                     RngStream, Series, epps_test)
from rpgauss.epps import (Lambda, _fit_gaussian_cf, _lag_window, draw_lambda,
                          empirical_cf_vector, gaussian_cf_vector, minimize_q, pseudo_inverse,
                          spectral_density_at_zero)
from rpgauss.lobato_velasco import lv_test
from rpgauss.simulation import simulate_ar1
from rpgauss.special import chi_square_sf
from rpgauss import epps
from rpgauss.projection import StickBreakingParams, draw_projection_vector, project_series

from oracles import dense_grid_fit, ks_distance, local_minima_brute, q_form, spectral_brute


def _lam(values, mode="fixed"):
    return Lambda(values=np.asarray(values, float), mode=mode)


# -- frequency drawing -----------------------------------------------------------

def test_fixed_lambda_scaling():
    lam = draw_lambda(4.0, "fixed")
    assert np.allclose(lam.values, [0.5, 1.0])
    lam = draw_lambda(1.0, "fixed")
    assert np.allclose(lam.values, [1.0, 2.0])


def test_random_lambda_distinct_positive():
    rng = RngStream(61)
    for _ in range(10_000):
        lam = draw_lambda(2.5, "random", rng)
        assert lam.values[0] > 0.0 and lam.values[1] > 0.0
        assert lam.values[0] != lam.values[1]


def test_lambda_requires_positive_variance():
    with pytest.raises(DegenerateSeriesError):
        draw_lambda(0.0, "fixed")


def test_lambda_type_guards():
    with pytest.raises(ValueError):
        _lam([1.0, 1.0])
    with pytest.raises(ValueError):
        _lam([1.0, -2.0])
    with pytest.raises(ValueError):
        Lambda(values=np.array([1.0, 2.0]), mode="other")


def test_lambda_rejects_non_positive_and_non_finite_frequencies():
    for bad in (0.0, -0.0, -1.0, math.inf, -math.inf, math.nan):
        for values in ([bad, 1.0], [1.0, bad]):
            with pytest.raises(ValueError, match="finite and strictly positive"):
                _lam(values)
    with pytest.raises(ValueError, match="pairwise distinct"):
        _lam([0.5, 0.5])


def test_lambda_takes_exactly_two_frequencies():
    for values in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], []):
        with pytest.raises(ValueError, match="exactly two"):
            _lam(values)
    assert _lam([1.0, 2.0]).count == 2


# -- characteristic-function vectors ----------------------------------------------

def test_empirical_cf_point_mass_at_zero():
    assert np.allclose(empirical_cf_vector(Series([0.0]), _lam([1.0, 2.0])),
                       [1.0, 0.0, 1.0, 0.0])


def test_empirical_cf_pi_pair():
    got = empirical_cf_vector(Series([math.pi, -math.pi]), _lam([1.0, 2.0]))
    assert np.allclose(got, [-1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_empirical_cf_direct_summation():
    y = [0.3, 1.7, -0.4]
    lam = _lam([1.0, 2.0])
    expected = []
    for lv in (1.0, 2.0):
        expected.append(sum(math.cos(lv * v) for v in y) / 3.0)
        expected.append(sum(math.sin(lv * v) for v in y) / 3.0)
    assert np.allclose(empirical_cf_vector(Series(y), lam), expected, atol=1e-14)


def test_empirical_cf_modulus_bound():
    rng = RngStream(62)
    lam = _lam([0.7, 1.9])
    for _ in range(20):
        vec = empirical_cf_vector(Series(rng.standard_normal(50)), lam)
        mods = vec[0::2] ** 2 + vec[1::2] ** 2
        assert np.all(mods <= 1.0 + 1e-12)


def test_gaussian_cf_closed_forms():
    lam = _lam([1.0, 2.0])
    assert np.allclose(gaussian_cf_vector(0.0, 1.0, lam),
                       [math.exp(-0.5), 0.0, math.exp(-2.0), 0.0])
    assert np.allclose(gaussian_cf_vector(0.0, 1e-14, lam), [1.0, 0.0, 1.0, 0.0], atol=1e-9)
    expected = [math.exp(-1.0) * math.cos(1.0), math.exp(-1.0) * math.sin(1.0),
                math.exp(-4.0) * math.cos(2.0), math.exp(-4.0) * math.sin(2.0)]
    assert np.allclose(gaussian_cf_vector(1.0, 2.0, lam), expected)


def test_gaussian_cf_domain():
    with pytest.raises(ValueError):
        gaussian_cf_vector(0.0, 0.0, _lam([1.0, 2.0]))


# -- spectral matrix ---------------------------------------------------------------

def test_lag_window_floor():
    assert _lag_window(1) == 1
    assert _lag_window(32) == 4   # 32^(2/5) = 4 exactly
    assert _lag_window(100) == 6
    assert _lag_window(1000) == 15


def test_spectral_constant_series_is_zero():
    m = spectral_density_at_zero(Series([2.0] * 12), _lam([1.0, 2.0]))
    assert np.allclose(m, 0.0)


def test_spectral_single_point_is_zero():
    m = spectral_density_at_zero(Series([0.7]), _lam([1.0, 2.0]))
    assert np.allclose(m, 0.0)


def test_spectral_example_against_brute_force():
    y = [0.3, 1.7, -0.4, 0.9, -1.2]
    lam = _lam([1.0, 2.0])
    mine = spectral_density_at_zero(Series(y), lam)
    brute = spectral_brute(y, lam.values)
    assert np.allclose(mine, brute, rtol=0, atol=1e-12 * (np.abs(brute).max() + 1.0))
    assert np.allclose(mine, mine.T)


def test_spectral_random_series_against_brute_force():
    rng = RngStream(63)
    for _ in range(10):
        n = int(8 + rng.integers(57))
        y = rng.standard_normal(n)
        lam = draw_lambda(float(np.var(y)), "fixed")
        mine = spectral_density_at_zero(Series(y), lam)
        brute = spectral_brute(y, lam.values)
        assert np.max(np.abs(mine - brute)) <= 1e-10 * (np.abs(brute).max() + 1e-300)


# -- pseudo-inverse -----------------------------------------------------------------

def test_pinv_identity():
    assert np.allclose(pseudo_inverse(np.eye(4)), np.eye(4))


def test_pinv_diagonal_with_zero():
    got = pseudo_inverse(np.diag([2.0, 0.0, 1.0, 4.0]))
    assert np.allclose(got, np.diag([0.5, 0.0, 1.0, 0.25]))


def test_pinv_penrose_identities():
    gen = np.random.default_rng(64)
    for i in range(20):
        rank = 1 + i % 4
        b = gen.standard_normal((rank, 4))
        m = b.T @ b
        plus = pseudo_inverse(m)
        assert np.allclose(m @ plus @ m, m, atol=1e-8)
        assert np.allclose(plus @ m @ plus, plus, atol=1e-8)
        assert np.allclose((m @ plus).T, m @ plus, atol=1e-8)
        assert np.allclose((plus @ m).T, plus @ m, atol=1e-8)


def test_pinv_rejects_asymmetric():
    with pytest.raises(ValueError):
        pseudo_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        pseudo_inverse(np.eye(4) + 1e-9 * np.triu(np.ones((4, 4)), 1))
    with pytest.raises(ValueError, match="square"):
        pseudo_inverse(np.ones((2, 3)))


def _pinv_symmetrized(a, tol_rel=1e-12):
    # pseudo_inverse's formula with the symmetrization (a + a^T)/2 always made
    eigvals, eigvecs = np.linalg.eigh((a + a.T) / 2.0)
    cutoff = tol_rel * float(np.max(np.abs(eigvals)))
    inv = np.zeros_like(eigvals)
    keep = np.abs(eigvals) >= cutoff
    if cutoff == 0.0:
        keep = np.zeros_like(keep)
    inv[keep] = 1.0 / eigvals[keep]
    return (eigvecs * inv) @ eigvecs.T


def test_pinv_equals_the_symmetrized_formula():
    # exactly symmetric input (the spectral matrices of the fit, and products
    # b'b of any rank) and input symmetric only within the tolerance give the
    # bits of the formula that always symmetrizes
    gen = np.random.default_rng(65)
    mats = [2.0 * math.pi * spectral_density_at_zero(y, draw_lambda(y.autocovariance(0)))
            for y in (Series(gen.standard_normal(n)) for n in (20, 100, 1000))]
    for rank in range(1, 5):
        b = gen.standard_normal((rank, 4))
        mats.append(b.T @ b)
    for m in mats:
        assert (m == m.T).all()
        skewed = m + 1e-13 * np.abs(m).max() * np.triu(gen.standard_normal((4, 4)), 1)
        for a in (m, skewed):
            assert pseudo_inverse(a).tobytes() == _pinv_symmetrized(a).tobytes()


# -- quadratic form ------------------------------------------------------------------

def test_q_form_zero_at_equality():
    v = np.array([0.1, 0.2, 0.3, 0.4])
    assert q_form(v, v, np.eye(4)) == 0.0


def test_q_form_identity_is_squared_distance():
    a = np.array([1.0, 0.0, 2.0, 0.0])
    b = np.array([0.0, 0.0, 0.0, 0.0])
    assert q_form(a, b, np.eye(4)) == pytest.approx(5.0)


def test_q_form_weighted_example():
    a = np.array([1.0, 0.0, 0.0, 0.0])
    b = np.zeros(4)
    assert q_form(a, b, np.diag([3.0, 1.0, 1.0, 1.0])) == pytest.approx(3.0)


def test_q_form_flags_broken_inverse():
    a = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NumericalError):
        q_form(a, np.zeros(4), -np.eye(4))


# -- minimization ---------------------------------------------------------------------

def test_minimize_exact_fit_recovers_parameters():
    rng = RngStream(65)
    y = Series(0.7 + math.sqrt(1.3) * rng.standard_normal(500))
    lam = draw_lambda(y.autocovariance(0), "fixed")
    target = gaussian_cf_vector(0.7, 1.3, lam)
    mu, gamma, q_min = minimize_q(y, lam, target_cf=target)
    assert mu == pytest.approx(0.7, abs=1e-4)
    assert gamma == pytest.approx(1.3, abs=1e-4)
    assert q_min < 1e-10


def test_minimize_improves_start():
    rng = RngStream(66)
    y = Series(rng.standard_normal(1000))
    lam = draw_lambda(y.autocovariance(0), "fixed")
    ghat = empirical_cf_vector(y, lam)
    gplus = pseudo_inverse(2.0 * math.pi * spectral_density_at_zero(y, lam))
    start_q = q_form(ghat, gaussian_cf_vector(y.mean(), y.autocovariance(0), lam), gplus)
    _, _, q_min = minimize_q(y, lam)
    assert q_min <= start_q + 1e-15


def _grid_minimum(ghat, gplus, lam, mu0, gamma0, points=200):
    # independent evaluation of the quadratic form over a parameter grid
    sd = math.sqrt(gamma0)
    nus = np.linspace(mu0 - 3.0 * sd, mu0 + 3.0 * sd, points)
    rhos = np.linspace(gamma0 / 4.0, 4.0 * gamma0, points)
    lv = lam.values
    amp = np.exp(-0.5 * np.outer(rhos, lv**2))          # (rho, N)
    coss = np.cos(np.outer(nus, lv))                    # (nu, N)
    sins = np.sin(np.outer(nus, lv))
    model = np.empty((points, points, 2 * lv.size))     # [nu, rho, component]
    for j in range(lv.size):
        model[:, :, 2 * j] = coss[:, None, j] * amp[None, :, j]
        model[:, :, 2 * j + 1] = sins[:, None, j] * amp[None, :, j]
    diff = ghat[None, None, :] - model
    q = np.einsum("ijk,kl,ijl->ij", diff, gplus, diff)
    return float(q.min())


def test_minimize_beats_grid():
    rng = RngStream(67)
    for _ in range(3):
        y = Series(rng.standard_normal(150))
        lam = draw_lambda(y.autocovariance(0), "fixed")
        ghat = empirical_cf_vector(y, lam)
        gplus = pseudo_inverse(2.0 * math.pi * spectral_density_at_zero(y, lam))
        _, _, q_min = minimize_q(y, lam)
        grid_min = _grid_minimum(ghat, gplus, lam, y.mean(), y.autocovariance(0))
        assert q_min <= grid_min + 1e-6


def test_fit_raises_on_non_finite_objective():
    lam = _lam([1.0, 2.0])
    bad = np.full((4, 4), np.inf)
    with pytest.raises(NumericalError):
        _fit_gaussian_cf(np.zeros(4), bad, lam, 0.0, 1.0)


def test_fit_raises_on_negative_definite_g_plus():
    lam = _lam([1.0, 2.0])
    with pytest.raises(NumericalError):
        _fit_gaussian_cf(np.zeros(4), -np.eye(4), lam, 0.0, 1.0)


def test_fit_rejects_dimension_mismatch():
    lam = _lam([1.0, 2.0])
    with pytest.raises(ValueError):
        _fit_gaussian_cf(np.zeros(6), np.eye(6), lam, 0.0, 1.0)
    with pytest.raises(ValueError):
        _fit_gaussian_cf(np.zeros(4), np.eye(3), lam, 0.0, 1.0)


@functools.cache
def _projected_fit_cases():
    # AR(1) q=0.5 paths projected on both Beta plans, random frequencies
    return tuple(_draw_projected_fit_cases())


def _draw_projected_fit_cases():
    rng = RngStream(74)
    stream_id = 0
    for family in (InnovationFamily.STD_NORMAL, InnovationFamily.STD_LOGNORMAL,
                   InnovationFamily.CHI_SQ_1):
        for n in (100, 1000):
            proc = Ar1Process(q=0.5, innovation=family, n=n, past=1000)
            for alpha1, alpha2 in ((100.0, 1.0), (2.0, 7.0)):
                params = StickBreakingParams(alpha1, alpha2, n_cap=n)
                for _ in range(20):
                    stream = rng.for_replication(stream_id)
                    stream_id += 1
                    x = simulate_ar1(proc, stream)
                    y = project_series(x, draw_projection_vector(params, stream))
                    gamma0 = y.autocovariance(0)
                    lam = draw_lambda(gamma0, "random", stream)
                    g_target = empirical_cf_vector(y, lam)
                    g_plus = pseudo_inverse(2.0 * math.pi * spectral_density_at_zero(y, lam))
                    yield n, (g_target, g_plus, lam, y.mean(), gamma0)


def test_fit_reaches_the_dense_grid_minimum():
    # n * min Q over the box: no fit ends above the brute-force oracle
    worst = -math.inf
    for n, (g_target, g_plus, lam, mu0, gamma0) in _projected_fit_cases():
        _, _, q_fit = _fit_gaussian_cf(g_target, g_plus, lam, mu0, gamma0)
        _, _, q_grid = dense_grid_fit(g_target, g_plus, lam.values, mu0, gamma0)
        worst = max(worst, n * (q_fit - q_grid))
    assert len(_projected_fit_cases()) == 240
    assert worst <= 1e-6, worst


def _local_minima_grids():
    rng = np.random.default_rng(76)
    for shape in ((2, 2), (3, 5), (17, 9), (40, 25), (5, 1), (1, 5), (2, 1), (1, 2), (1, 1)):
        yield rng.standard_normal(shape)
        # integers from a narrow range make plateaus of equal neighbours
        yield np.round(2.0 * rng.standard_normal(shape))
        yield np.zeros(shape)
    for special in (np.nan, np.inf, -np.inf):
        for shape in ((6, 7), (8, 1), (1, 8), (2, 2)):
            for _ in range(5):
                q = np.round(rng.standard_normal(shape))
                q[rng.random(shape) < 0.3] = special
                q.flat[rng.integers(q.size)] = special
                yield q
    q = np.full((4, 4), np.inf)
    q[1:3, 1:3] = [[np.nan, -np.inf], [np.inf, 0.0]]
    yield q


def test_local_minima_match_the_eight_neighbour_definition():
    for q in _local_minima_grids():
        assert np.array_equal(epps._local_minima(q), local_minima_brute(q)), q


def test_local_minima_of_a_lone_point():
    # a point without neighbours is a minimum unless it is NaN, which the
    # 3 x 3 window compares with itself
    for value in (0.0, -np.inf, np.inf):
        assert epps._local_minima(np.array([[value]])).tolist() == [[True]]
    assert epps._local_minima(np.array([[np.nan]])).tolist() == [[False]]


def test_grid_seeds_from_the_eight_neighbour_definition(monkeypatch):
    # the seed grids of the projected fits give the same seeds when their
    # local minima come from the brute-force oracle
    grids = []
    for _, (g_target, g_plus, lam, mu0, gamma0) in _projected_fit_cases():
        weights, vectors = np.linalg.eigh(g_plus)
        sd = math.sqrt(gamma0)
        grids.append((g_target, weights, vectors, tuple(lam.values * sd), tuple(lam.values * mu0)))
    fast = [epps._grid_seeds(*grid) for grid in grids]
    monkeypatch.setattr(epps, "_local_minima", local_minima_brute)
    brute = [epps._grid_seeds(*grid) for grid in grids]
    assert len(fast) == 240 and fast == brute


def test_grid_seeds_repeat_and_the_cached_grid_is_read_only():
    # the u grid of each size is built once; a repeated call gives the same seeds
    grids = []
    for _, (g_target, g_plus, lam, mu0, gamma0) in _projected_fit_cases()[::10]:
        weights, vectors = np.linalg.eigh(g_plus)
        sd = math.sqrt(gamma0)
        grids.append((g_target, weights, vectors, tuple(lam.values * sd), tuple(lam.values * mu0)))
    assert [epps._grid_seeds(*grid) for grid in grids] == [epps._grid_seeds(*grid) for grid in grids]
    assert epps._u_grid.cache_info().currsize <= epps._GRID_U[1] - epps._GRID_U[0] + 1
    for count in (epps._GRID_U[0], 100, epps._GRID_U[1]):
        us, hu = epps._u_grid(count)
        want, want_hu = epps._grid_points(epps._U_MAX, count, epps._CENTRE_U)
        assert us.tobytes() == want.tobytes() and hu == want_hu
        assert not us.flags.writeable
    assert not epps._S_EXP.flags.writeable
    assert epps._S_EXP.tobytes() == np.exp(epps._S_POINTS).tobytes()


def test_fit_reports_the_alias_nearest_the_mean():
    # fixed frequencies (1, 2) / sd repeat the model every 2 pi sd in nu; of
    # the equal minima the fit reports the one nearest the sample mean
    rng = RngStream(75)
    for _ in range(20):
        y = Series(3.0 + rng.standard_normal(300))
        lam = draw_lambda(y.autocovariance(0), "fixed")
        mu_n, _, _ = minimize_q(y, lam)
        assert abs(mu_n - y.mean()) < math.pi * math.sqrt(y.autocovariance(0))


def _projected_n2000():
    # a fixed-seed AR(1) chi-square(1) path of 2000 values on a Beta(2,7)
    # direction; its innovations take no numpy exp, whose last bit depends on
    # the SIMD dispatch level
    stream = RngStream(90)
    proc = Ar1Process(q=0.5, innovation=InnovationFamily.CHI_SQ_1, n=2000, past=1000)
    x = simulate_ar1(proc, stream)
    y = project_series(x, draw_projection_vector(StickBreakingParams(2.0, 7.0, n_cap=2000), stream))
    return y, stream


def test_minimize_q_shares_the_cf_rows_bit_for_bit(monkeypatch):
    # the cos/sin rows minimize_q computes once give both consumers exactly
    # what each computes alone
    y, stream = _projected_n2000()
    lam = draw_lambda(y.autocovariance(0), "random", stream)
    consumers = {name: getattr(epps, name)
                 for name in ("empirical_cf_vector", "spectral_density_at_zero")}
    seen = {}
    for name, fn in consumers.items():
        def record(y_arg, lam_arg, *rows, _fn=fn, _name=name):
            seen[_name] = (y_arg, lam_arg, len(rows), _fn(y_arg, lam_arg, *rows))
            return seen[_name][-1]
        monkeypatch.setattr(epps, name, record)
    minimize_q(y, lam)
    assert sorted(seen) == sorted(consumers)
    for name, (y_arg, lam_arg, n_rows, shared) in seen.items():
        assert y_arg is y and lam_arg is lam and n_rows == 1
        alone = consumers[name](y, lam)
        assert shared.shape == alone.shape and np.array_equal(shared, alone), name


def test_cf_statistics_unchanged_on_a_projected_series():
    # pinned at the grid-seeded Newton fit, on a direction whose Beta(2, 7)
    # fractions are order statistics of uniforms
    y, stream = _projected_n2000()
    fixed = epps_test(y, "fixed")
    assert (fixed.statistic, fixed.mu_n, fixed.gamma_n) == (
        68.25542110805958, 2.2948084798159103, 0.8525646800274589)
    random = epps_test(y, "random", stream)
    assert (random.statistic, random.mu_n, random.gamma_n) == (
        60.14086892966244, 2.233602642400193, 0.6663636898056421)


# -- full test -------------------------------------------------------------------------

def test_epps_guards():
    with pytest.raises(ValueError):
        epps_test(Series([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateSeriesError):
        epps_test(Series([3.0] * 20))


def test_epps_result_fields_consistent():
    rng = RngStream(68)
    y = Series(rng.standard_normal(400))
    res = epps_test(y, "fixed")
    assert res.df == 2
    assert res.statistic >= 0.0
    assert 0.0 <= res.p_value <= 1.0
    d = res.as_dict()
    assert d["mode"] == "fixed" and len(d["lambda"]) == 2


def test_epps_random_mode_needs_rng():
    y = Series(RngStream(69).standard_normal(100))
    with pytest.raises(ValueError):
        epps_test(y, "random", None)
    res = epps_test(y, "random", RngStream(70))
    assert 0.0 <= res.p_value <= 1.0


def test_epps_location_shift_consistency():
    # fixed frequencies depend only on the (shift-invariant) variance, and the
    # quadratic form is equivariant under the induced rotation
    rng = RngStream(71)
    y = rng.standard_normal(300)
    res0 = epps_test(Series(y), "fixed")
    res1 = epps_test(Series(y + 5.0), "fixed")
    assert res1.statistic == pytest.approx(res0.statistic, abs=1e-6)
    assert res1.mu_n == pytest.approx(res0.mu_n + 5.0, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 2), n=st.integers(50, 300), lognormal=st.booleans(),
       log_scale=st.floats(-3.0, 3.0), shift_sds=st.floats(-50.0, 50.0))
@example(seed=268435456, n=50, lognormal=False, log_scale=0.0, shift_sds=1.0)
def test_statistics_are_affine_invariant(seed, n, lognormal, log_scale, shift_sds):
    # y -> a y + b, a > 0: the fit works in unit scale, so E (fixed and random
    # frequencies on one substream) moves only by rounding that the spectral
    # matrix's conditioning amplifies; measured over 1200 draws, the relative
    # change stayed below 1e-10 where the kept eigenvalues of G+ span less
    # than 1e6, and below 1.6e-13 times that span elsewhere.
    # Where the fit is exact, n*Q is rounding noise, which the absolute term
    # bounds: the form is sum_k w_k (e_k' d)^2 with d the CF vector minus the
    # model, whose components have modulus at most 1 and so are known to one
    # ulp of 1, eps; each e_k' d is then known to 2 eps ||e_k||_1 <= 4 eps,
    # and n*Q cannot be resolved below n (4 eps)^2 sum_k w_k
    eps = np.finfo(float).eps
    x = RngStream(seed).standard_normal(n)
    if lognormal:
        x = np.exp(x)
    a = 10.0 ** log_scale
    y, z = Series(x), Series(a * x + a * shift_sds)
    for mode in ("fixed", "random"):
        e_y = epps_test(y, mode, RngStream(seed + 1))
        e_z = epps_test(z, mode, RngStream(seed + 1))
        weights = np.linalg.eigvalsh(
            pseudo_inverse(2.0 * math.pi * spectral_density_at_zero(y, e_y.lam)))
        kept = weights[weights > 1e-12 * weights.max()]
        bound = 1e-9 + 1e-12 * kept.max() / kept.min()
        noise = n * (4.0 * eps) ** 2 * kept.sum()
        assert abs(e_z.statistic - e_y.statistic) <= bound * e_y.statistic + noise, mode
    g_y, g_z = lv_test(y).statistic, lv_test(z).statistic
    assert abs(g_z - g_y) <= 1e-9 * g_y


def test_epps_lognormal_power():
    import rpgauss as rg
    rng = RngStream(72)
    proc = rg.Ar1Process(q=0.0, innovation=rg.InnovationFamily.STD_LOGNORMAL,
                         n=100, past=1000)
    res = rg.rejection_rate(proc, "E", reps=500, alpha=0.05, rng=rng)
    assert res.rate >= 0.90


def test_epps_null_p_values_uniform():
    import rpgauss as rg
    rng = RngStream(73)
    proc = rg.Ar1Process(q=0.0, innovation=rg.InnovationFamily.STD_NORMAL,
                         n=1000, past=1000)
    ps = []
    for i in range(500):
        stream = rng.for_replication(i)
        ps.append(epps_test(simulate_ar1(proc, stream), "fixed").p_value)
    ks = ks_distance(ps, lambda u: min(max(u, 0.0), 1.0))
    assert ks < 1.6276 / math.sqrt(500)
