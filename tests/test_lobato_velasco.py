import math

import numpy as np
import pytest

import rpgauss as rg
from rpgauss import DegenerateSeriesError, LvConfig, NumericalError, RngStream, Series, lv_test
from rpgauss.lobato_velasco import f_hat_k
from rpgauss.simulation import simulate_ar1
from rpgauss.special import chi_square_sf

from oracles import f_hat_brute, ks_distance


def test_config_validation():
    with pytest.raises(ValueError):
        LvConfig(c=0.0)
    with pytest.raises(ValueError):
        LvConfig(beta0=0.6)
    with pytest.raises(ValueError):
        LvConfig(variant="other")


def test_tau_floor_and_clamp():
    cfg = LvConfig()
    assert cfg.tau(100) == 10
    assert cfg.tau(1000) == 31
    assert cfg.tau(4) == 2
    assert cfg.tau(2) == 1
    assert LvConfig(c=50.0).tau(9) == 8  # clamped to n-1


def test_f_hat_white_noise_like():
    # (0, 1, 2) has zero lag-1 autocovariance, so with tau=1 only acov(0)^k survives
    y = Series([0.0, 1.0, 2.0])
    g0 = y.autocovariance(0)
    assert y.autocovariance(1) == pytest.approx(0.0, abs=1e-15)
    assert f_hat_k(y, 3, 1) == pytest.approx(g0**3)
    assert f_hat_k(y, 4, 1) == pytest.approx(g0**4)


def test_f_hat_hand_example():
    # acov(0)=1, acov(1)=-0.75, acov(2)=0.5:
    # 2*((-0.75)(-0.25)^2 + (0.5)(-0.25)^2) + 1 = 0.96875
    y = Series([1.0, -1.0, 1.0, -1.0])
    assert f_hat_k(y, 3, 2) == pytest.approx(0.96875, abs=1e-12)


def test_f_hat_scale_homogeneity():
    y = RngStream(81).standard_normal(50)
    for k in (3, 4):
        base = f_hat_k(Series(y), k, 7)
        scaled = f_hat_k(Series(3.0 * y), k, 7)
        assert scaled == pytest.approx(3.0 ** (2 * k) * base, rel=1e-10)


def test_f_hat_tau_guard():
    y = Series([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        f_hat_k(y, 3, 0)
    with pytest.raises(ValueError):
        f_hat_k(y, 3, 4)
    with pytest.raises(ValueError):
        f_hat_k(y, 5, 1)


def test_f_hat_against_brute_force():
    rng = RngStream(82)
    for _ in range(10):
        n = int(10 + rng.integers(40))
        y = rng.standard_normal(n)
        tau = int(1 + rng.integers(n - 1))
        for k in (3, 4):
            mine = f_hat_k(Series(y), k, tau)
            brute, scale = f_hat_brute(y, k, tau)
            assert abs(mine - brute) <= 1e-10 * (scale + 1e-300)


def test_statistic_zero_when_moments_match():
    # skewness exactly 0 and fourth moment exactly 3 * variance^2 (mu2 = mu4 = 1/3)
    y = Series([-1.0, 1.0, 0.0, 0.0, 0.0, 0.0] * 2)
    assert lv_test(y).statistic == 0.0


def test_statistic_hand_example():
    # n = 8, tau = 2: mu3 = 0, mu2 = mu4 = 1, acov = (1, -7/8, 3/4), so
    # F4 = 1 + 2 * (-7/8 + 3/4) * (-1/8)^3 = 1.00048828125 and
    # G = 8 * (1 - 3)^2 / (24 * F4)
    y = Series([1.0, -1.0] * 4)
    assert lv_test(y).statistic == pytest.approx(32.0 / (24.0 * 1.00048828125), rel=1e-12)


def test_original_variant_sums_to_n_minus_1():
    rng = RngStream(83)
    y = Series(rng.standard_normal(40))
    cfg = LvConfig(variant="original")
    res = lv_test(y, cfg)
    assert res.tau_used == 39
    f3 = f_hat_k(y, 3, 39)
    f4 = f_hat_k(y, 4, 39)
    n = y.n
    mu2, mu3, mu4 = (y.centered_moment(k) for k in (2, 3, 4))
    expected = n * mu3**2 / (6.0 * f3) + n * (mu4 - 3 * mu2**2) ** 2 / (24.0 * f4)
    assert res.statistic == pytest.approx(expected, rel=1e-12)


def test_modified_statistic_nonnegative():
    rng = RngStream(84)
    for _ in range(20):
        y = Series(rng.standard_normal(60))
        assert lv_test(y).statistic >= 0.0


def test_location_scale_invariance():
    y = RngStream(85).standard_normal(80)
    base = lv_test(Series(y)).statistic
    assert lv_test(Series(y + 7.3)).statistic == pytest.approx(base, rel=1e-8)
    assert lv_test(Series(0.02 * y - 4.0)).statistic == pytest.approx(base, rel=1e-8)


def test_lv_test_guards():
    with pytest.raises(ValueError):
        lv_test(Series([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateSeriesError):
        lv_test(Series([5.0] * 30))


def test_result_fields_and_p_value():
    y = Series(RngStream(86).standard_normal(200))
    res = lv_test(y)
    assert res.p_value == pytest.approx(chi_square_sf(res.statistic, 2))
    assert res.tau_used == 14
    d = res.as_dict()
    assert set(d) == {"statistic", "p_value", "f3_hat", "f4_hat", "tau", "variant"}


def test_lognormal_power():
    rng = RngStream(87)
    proc = rg.Ar1Process(q=0.0, innovation=rg.InnovationFamily.STD_LOGNORMAL,
                         n=100, past=1000)
    res = rg.rejection_rate(proc, "G", reps=500, alpha=0.05, rng=rng)
    assert res.rate >= 0.95


def test_uniform_innovations_low_power_at_half_q():
    rng = RngStream(88)
    proc = rg.Ar1Process(q=0.5, innovation=rg.InnovationFamily.UNIFORM_01,
                         n=100, past=1000)
    res = rg.rejection_rate(proc, "G", reps=500, alpha=0.05, rng=rng)
    assert res.rate <= 0.05


def test_null_p_values_uniform():
    rng = RngStream(89)
    proc = rg.Ar1Process(q=0.0, innovation=rg.InnovationFamily.STD_NORMAL,
                         n=1000, past=1000)
    ps = []
    for i in range(500):
        stream = rng.for_replication(i)
        ps.append(lv_test(simulate_ar1(proc, stream)).p_value)
    ks = ks_distance(ps, lambda u: min(max(u, 0.0), 1.0))
    assert ks < 1.6276 / math.sqrt(500)


def test_overflow_and_underflow_are_named():
    z = RngStream(41).standard_normal(200)
    # acov(0)**4 overflows: float ** raised an OverflowError here
    with pytest.raises(NumericalError, match="f4_hat overflowed"):
        f_hat_k(Series(z * 1e40), 4, 14)
    for variant in ("modified", "original"):
        with pytest.raises(NumericalError, match="f4_hat overflowed"):
            lv_test(Series(z * 1e40), LvConfig(variant=variant))
        with pytest.raises(DegenerateSeriesError, match="f3_hat underflowed"):
            lv_test(Series(z * 1e-60), LvConfig(variant=variant))
    with pytest.raises(DegenerateSeriesError, match="vanished"):
        lv_test(Series([2.0] * 20))
    # one outlier: f3 and f4 stay finite, (mu4 - 3 mu2^2)^2 does not
    spike = RngStream(42).standard_normal(10_000)
    spike[5000] = 1e40
    with pytest.raises(NumericalError, match="skewness-kurtosis statistic overflowed"):
        lv_test(Series(spike))
