import math

import numpy as np
import pytest

from rpgauss.special import chi_square_sf, normal_quantile

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
    for k in range(1, 2**19 + 1):
        u = k / 2**20
        assert abs(normal_quantile(1.0 - u) + normal_quantile(u)) <= 1e-14


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 2.0, float("nan")):
        with pytest.raises(ValueError):
            normal_quantile(bad)


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
