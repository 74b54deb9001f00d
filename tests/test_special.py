import math
from statistics import NormalDist

import numpy as np
import pytest

from rpgauss.rng import RngStream
from rpgauss.special import chi_square_sf, normal_quantile, normal_quantiles

from oracles import chi2_sf_quadrature, norm_cdf_series, normal_quantile_bisect


def test_quantile_median_is_zero():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_quantile_against_bisection_oracle():
    # frozen from the series-expansion CDF oracle (bisection to 1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.1) == pytest.approx(-1.281552, abs=1e-6)
    for u in (0.975, 0.1, 0.01, 0.3, 0.6321, 0.9999):
        assert normal_quantile(u) == pytest.approx(normal_quantile_bisect(u), abs=1e-9)


def test_quantile_roundtrip_identity():
    # quantile(Phi(x)) = x on a 1e3-point grid, with Phi the independent series CDF
    for x in np.linspace(-5.0, 5.0, 1000):
        u = norm_cdf_series(float(x))
        assert abs(normal_quantile(u) - x) <= 1e-8


def test_quantile_symmetry():
    # for dyadic u = k / 2**20 the complement 1 - u is exact, so the quantile
    # must be odd about 1/2 up to rounding, in the tails as well
    u = np.arange(1, 2**19 + 1) / 2**20
    assert np.all(np.abs(normal_quantiles(1.0 - u) + normal_quantiles(u)) <= 1e-14)


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 2.0, float("nan")):
        with pytest.raises(ValueError):
            normal_quantile(bad)


def test_quantiles_bitwise_equal_to_stdlib():
    # AS 241 has three branches: the central region |u - 1/2| <= 0.425, the
    # tails with r = sqrt(-log(min(u, 1 - u))) <= 5, and the far tails beyond
    u = np.concatenate([
        np.linspace(0.075, 0.925, 40_001),
        np.logspace(-323.0, math.log10(0.075), 30_000),
        1.0 - np.logspace(-16.0, math.log10(0.075), 30_000),
        RngStream(11).randoms(20_000),
        [5e-324, 1e-300, 1.0 - 2.0**-53, 2.0**-53, 0.5],
    ])
    assert np.all((u > 0.0) & (u < 1.0))
    inv_cdf = NormalDist().inv_cdf
    expected = np.array([inv_cdf(x) for x in u.tolist()])
    assert normal_quantiles(u).tobytes() == expected.tobytes()
    assert [normal_quantile(x) for x in u[::1000].tolist()] == expected[::1000].tolist()


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0, float("nan")])
def test_quantiles_domain_names_first_bad_value(bad):
    with pytest.raises(ValueError, match=f"got {bad!r}$"):
        normal_quantiles(np.array([0.25, bad, 0.75, -1.0]))


def test_chi2_sf_full_mass_at_zero():
    assert chi_square_sf(0.0, 2) == 1.0
    assert chi_square_sf(0.0, 8) == 1.0


def test_chi2_sf_closed_form_df2():
    # df=2 has the closed form exp(-x/2)
    assert chi_square_sf(5.991465, 2) == pytest.approx(math.exp(-5.991465 / 2.0), abs=1e-12)
    assert chi_square_sf(5.991465, 2) == pytest.approx(0.05, abs=1e-7)


def test_chi2_sf_df4_against_quadrature_oracle():
    # frozen from the Simpson quadrature oracle: 0.5578254003710748
    assert chi_square_sf(3.0, 4) == pytest.approx(0.557825, abs=1e-6)
    assert chi_square_sf(3.0, 4) == pytest.approx(chi2_sf_quadrature(3.0, 4), abs=1e-10)


@pytest.mark.parametrize("df", [2, 4, 6, 10, 30])
def test_chi2_sf_quadrature_grid(df):
    for x in (0.25, 1.0, 2.5, 7.0, 15.0):
        assert chi_square_sf(x, df) == pytest.approx(
            chi2_sf_quadrature(x, df), abs=1e-10)


@pytest.mark.parametrize("df", [2, 4, 6, 12])
def test_chi2_sf_monotone_and_bounded(df):
    xs = np.linspace(0.0, 60.0, 301)
    vals = [chi_square_sf(float(x), df) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("df", [1, 3, 5, 7])
def test_chi2_sf_odd_df_raises(df):
    # only the even-df closed form is implemented
    with pytest.raises(ValueError, match="even"):
        chi_square_sf(2.0, df)


def test_chi2_sf_domain():
    with pytest.raises(ValueError):
        chi_square_sf(-0.1, 2)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi_square_sf(float("nan"), 2)
