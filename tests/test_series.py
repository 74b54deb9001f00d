import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpgauss import RngStream, Series

from oracles import autocov_brute, centered_moment_brute


def test_mean_examples():
    assert Series([1.0, 2.0, 3.0]).mean() == pytest.approx(2.0)
    assert Series([4.2] * 17).mean() == pytest.approx(4.2)
    assert Series([1.0, -1.0, 1.0, -1.0]).mean() == 0.0


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        Series([])


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Series([1.0, float("nan"), 2.0])
    with pytest.raises(ValueError):
        Series([1.0, float("inf")])


def test_centered_moment_examples():
    alternating = Series([1.0, -1.0, 1.0, -1.0])
    assert alternating.centered_moment(2) == pytest.approx(1.0)
    assert alternating.centered_moment(3) == pytest.approx(0.0, abs=1e-15)
    # hand evaluation: mean 1.5, ((-1.5)^3 * 3 + 4.5^3) / 4 = 20.25
    assert Series([0.0, 0.0, 0.0, 6.0]).centered_moment(3) == pytest.approx(20.25)


def test_centered_moment_order_guard():
    s = Series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.centered_moment(1)


def test_autocovariance_examples():
    s = Series([1.0, -1.0, 1.0, -1.0])
    assert s.autocovariance(0) == s.centered_moment(2)  # identical formula, exact
    assert s.autocovariance(1) == pytest.approx(-0.75)
    assert s.autocovariance(3) == pytest.approx(-0.25)


def test_autocovariance_symmetry_and_range():
    s = Series([0.3, 1.7, -0.4, 0.9, -1.2])
    for t in range(1, 5):
        assert s.autocovariance(t) == s.autocovariance(-t)
    with pytest.raises(ValueError):
        s.autocovariance(5)


def test_against_brute_force():
    rng = RngStream(21)
    for _ in range(10):
        x = rng.standard_normal(17)
        s = Series(x)
        for k in (2, 3, 4, 5, 6):
            assert s.centered_moment(k) == pytest.approx(
                centered_moment_brute(x, k), rel=1e-12, abs=1e-12)
        for t in (0, 1, 5, 16):
            assert s.autocovariance(t) == pytest.approx(
                autocov_brute(x, t), rel=1e-12, abs=1e-12)


def test_autocovariances_are_the_single_lags():
    x = RngStream(25).standard_normal(50)
    single = Series(x)
    want = [single.autocovariance(t) for t in range(50)]
    s = Series(x)
    for max_lag in (0, 3, 12, 7, 49):  # grows the cached vector, then slices it
        got = s.autocovariances(max_lag)
        assert got.tolist() == want[: max_lag + 1]  # exact, not approximate
        assert not got.flags.writeable
    assert [s.autocovariance(t) for t in range(50)] == want
    assert s.autocovariances(49) == pytest.approx(
        [autocov_brute(x, t) for t in range(50)], rel=1e-12, abs=1e-12)
    for bad in (-1, 50, 2.5):
        with pytest.raises(ValueError):
            s.autocovariances(bad)


def test_cauchy_schwarz_bound():
    x = RngStream(22).standard_normal(64)
    s = Series(x)
    g0 = s.autocovariance(0)
    assert all(abs(s.autocovariance(t)) <= g0 + 1e-12 for t in range(64))


@settings(max_examples=50, deadline=None)
@given(shift=st.floats(-50.0, 50.0))
def test_location_invariance(shift):
    x = RngStream(23).standard_normal(40)
    base = Series(x)
    moved = Series(x + shift)
    for k in (2, 3, 4):
        assert moved.centered_moment(k) == pytest.approx(
            base.centered_moment(k), rel=1e-10, abs=1e-10)
    for t in (0, 1, 7):
        assert moved.autocovariance(t) == pytest.approx(
            base.autocovariance(t), rel=1e-10, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(0.01, 100.0))
def test_scale_equivariance(scale):
    x = RngStream(24).standard_normal(40)
    base = Series(x)
    scaled = Series(scale * x)
    for k in (2, 3, 4):
        assert scaled.centered_moment(k) == pytest.approx(
            scale**k * base.centered_moment(k), rel=1e-10)
    for t in (0, 2, 9):
        assert scaled.autocovariance(t) == pytest.approx(
            scale**2 * base.autocovariance(t), rel=1e-10)


def test_values_are_readonly():
    s = Series([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0
