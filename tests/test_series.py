import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpgauss import DegenerateSeriesError, NumericalError, RngStream, Series

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
    # the vector for a given max_lag is computed afresh and depends on the
    # values and max_lag alone: lag 0 is the variance, the last lag is
    # autocovariance(max_lag), and a lag t between them adds the products whose
    # first factor lies in the first m = n - max_lag deviations to those within
    # the last max_lag; exact, not approximate
    n = 50
    x = RngStream(25).standard_normal(n)
    dev = x - Series(x).mean()
    fresh = {max_lag: Series(x).autocovariances(max_lag).tolist() for max_lag in range(n)}
    s = Series(x)
    for max_lag in (0, 3, 12, 7, 49, 3):  # earlier calls change no bit
        assert s.autocovariances(max_lag).tolist() == fresh[max_lag]
    for max_lag, got in fresh.items():
        assert len(got) == max_lag + 1
        assert got[0] == s.centered_moment(2) == s.autocovariance(0)
        assert got[-1] == s.autocovariance(max_lag) == s.autocovariance(-max_lag)
        m, tail = n - max_lag, dev[n - max_lag:]
        if m >= 12:  # np.correlate takes numpy's dot, as np.dot does, for 12 or more terms
            for t in range(1, max_lag):
                split = np.dot(dev[:m], dev[t:t + m]) + np.dot(tail[:max_lag - t], tail[t:])
                assert got[t] == split / n
    for bad in (-1, 50, 2.5):
        with pytest.raises(ValueError):
            s.autocovariances(bad)


@pytest.mark.parametrize("n", [8, 9, 100, 1000])
def test_autocovariances_against_brute_force(n):
    x = RngStream(26).standard_normal(n)
    brute = [autocov_brute(x, t) for t in range(n)]
    s = Series(x)
    for max_lag in sorted({1, int(np.sqrt(n)), n - 1}):
        assert s.autocovariances(max_lag) == pytest.approx(
            brute[: max_lag + 1], rel=1e-12, abs=1e-12)


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


@pytest.mark.filterwarnings("error")  # named errors, no RuntimeWarning first
def test_variance_overflow_and_underflow_are_named():
    for wide in ([1e170, -1e170] * 4, [1.79e308, -1.79e308, -1e308]):
        with pytest.raises(NumericalError, match="sample variance overflowed"):
            Series(wide).centered_moment(2)
    with pytest.raises(NumericalError, match="sample mean overflowed"):
        Series([1.7e308] * 8).mean()
    narrow = Series([1e-170, -1e-170] * 4)
    with pytest.raises(DegenerateSeriesError, match="sample variance underflowed"):
        narrow.autocovariance(0)
    with pytest.raises(DegenerateSeriesError, match="sample variance underflowed"):
        Series([3e-155, -3e-155] * 4).centered_moment(2)  # subnormal, not zero
    # a constant series has zero deviations: a zero variance, not an underflow
    assert Series([1e-170] * 8).centered_moment(2) == 0.0
    assert Series([2.0] * 8).autocovariance(0) == 0.0
