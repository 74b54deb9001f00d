import math

import numpy as np
import pytest

from oracles import reference_stick_breaking
from rpgauss import RngStream, Series
from rpgauss import projection
from rpgauss.projection import (StickBreakingParams, build_projection_vector,
                                draw_projection_vector, project_series, stick_breaking)


def test_params_validation():
    with pytest.raises(ValueError):
        StickBreakingParams(0.0, 1.0, n_cap=10)
    with pytest.raises(ValueError):
        StickBreakingParams(1.0, 1.0, n_cap=10, delta=0.0)
    with pytest.raises(ValueError):
        StickBreakingParams(1.0, 1.0, n_cap=0)


def test_stick_breaking_matches_per_stick_draws():
    # block draws give the sticks of one sample_beta call per stick and leave
    # the stream at the same place: the next draw is equal
    past_first_block = 0
    for alpha1, alpha2 in ((100.0, 1.0), (2.0, 7.0), (0.5, 0.5), (1.0, 1.0), (1.0, 3.0)):
        for n_cap in (1, 5, 100, 130, 10_000):
            for delta in (1e-300, 1e-15, 0.5, 1.0 - 1e-12):
                for seed in range(4):
                    mine, ref = RngStream(seed, n_cap), RngStream(seed, n_cap)
                    params = StickBreakingParams(alpha1, alpha2, n_cap=n_cap, delta=delta)
                    sticks = stick_breaking(params, mine)
                    expected = reference_stick_breaking(alpha1, alpha2, n_cap, delta, ref)
                    where = (alpha1, alpha2, n_cap, delta, seed)
                    assert np.array_equal(sticks, expected), where
                    assert mine.random() == ref.random(), where
                    past_first_block += alpha2 != 1.0 and sticks.size > projection._FIRST_BLOCK
    assert past_first_block >= 50


def test_degenerate_delta_gives_single_stick():
    # delta close to 1: the first stick already reaches 1 - delta
    params = StickBreakingParams(2.0, 7.0, n_cap=100, delta=1.0 - 1e-12)
    rng = RngStream(31)
    for _ in range(50):
        assert stick_breaking(params, rng).size == 1


def test_stick_positivity_and_partial_sums():
    params = StickBreakingParams(2.0, 7.0, n_cap=200, delta=1e-15)
    rng = RngStream(32)
    for _ in range(50):
        sticks = stick_breaking(params, rng)
        assert np.all(sticks > 0.0)
        assert np.all(np.cumsum(sticks) <= 1.0 + 1e-15)


def test_stick_stop_rule():
    params = StickBreakingParams(100.0, 1.0, n_cap=1000, delta=1e-15)
    rng = RngStream(33)
    for _ in range(100):
        sticks = stick_breaking(params, rng)
        total = float(np.sum(sticks))
        assert total >= 1.0 - 1e-15 or sticks.size == 1000
        # no earlier stick may already satisfy the stop rule
        assert np.all(np.cumsum(sticks)[:-1] < 1.0 - 1e-15)


def test_stick_cap_binds():
    params = StickBreakingParams(2.0, 7.0, n_cap=5, delta=1e-15)
    rng = RngStream(34)
    assert stick_breaking(params, rng).size == 5


def test_concentrated_beta_truncates_early():
    # beta(100, 1) sticks eat the mass fast: the median count stays small
    params = StickBreakingParams(100.0, 1.0, n_cap=1000, delta=1e-15)
    rng = RngStream(35)
    counts = [stick_breaking(params, rng).size for _ in range(1000)]
    assert np.median(counts) <= 8


def test_stick_length_means_decay_geometrically():
    # E[l_k] = a (1-a)^k with a = a1/(a1+a2); delta tiny so no run stops early.
    # beta(100,1) mass saturates float64 beyond k ~ 7, so its sweep stops at 5.
    for a1, a2, k_max, seed in ((100.0, 1.0, 5, 36), (2.0, 7.0, 10, 37)):
        params = StickBreakingParams(a1, a2, n_cap=k_max + 1, delta=1e-30)
        rng = RngStream(seed)
        # a run may stop a stick early when its mass saturates float64; the
        # missing sticks are below 1e-16 and padding them with 0 is exact
        # at the resolution the assertion below can see
        draws = np.zeros((20_000, k_max + 1))
        for row in range(draws.shape[0]):
            sticks = stick_breaking(params, rng)
            draws[row, : sticks.size] = sticks
        alpha = a1 / (a1 + a2)
        for k in range(k_max + 1):
            mean = draws[:, k].mean()
            se = draws[:, k].std(ddof=1) / math.sqrt(draws.shape[0])
            assert abs(mean - alpha * (1.0 - alpha) ** k) <= 5.0 * se


def test_build_two_stick_example():
    # sticks (0.75,): h0 = sqrt(0.75), h1 = sqrt(0.25 / a1) with a1 = 1
    pv = build_projection_vector([0.75], n_cap=10)
    assert pv.m == 1
    assert pv.h[0] == pytest.approx(0.866025, abs=1e-6)
    assert pv.h[1] == pytest.approx(0.5, abs=1e-12)


def test_build_full_stick_is_identity():
    pv = build_projection_vector([1.0], n_cap=10)
    assert pv.m == 0
    assert pv.h.tolist() == [1.0]
    x = Series([0.4, -1.2, 3.3, 0.0, 2.2, -0.7, 1.1, 0.5])
    assert np.array_equal(project_series(x, pv).values, x.values)


def test_build_rejects_excess_mass():
    with pytest.raises(ValueError):
        build_projection_vector([0.7, 0.7], n_cap=10)
    with pytest.raises(ValueError):
        build_projection_vector([0.1, -0.2], n_cap=10)


def test_weighted_norm_is_one():
    rng = RngStream(38)
    for a1, a2 in ((100.0, 1.0), (2.0, 7.0)):
        params = StickBreakingParams(a1, a2, n_cap=100, delta=1e-15)
        for _ in range(200):
            pv = draw_projection_vector(params, rng)
            assert abs(pv.weighted_norm_sq() - 1.0) <= 1e-12
            assert np.all(pv.h >= 0.0)


def test_projection_ragged_start_example():
    pv = build_projection_vector([0.75], n_cap=10)
    x = Series(np.ones(6))
    y = project_series(x, pv).values
    assert y[0] == pytest.approx(0.866025, abs=1e-6)
    # later positions add h1 * a1 * 1 = 0.5
    assert np.allclose(y[1:], 0.866025 + 0.5, atol=1e-6)


def test_projection_length_and_linearity():
    rng = RngStream(39)
    params = StickBreakingParams(2.0, 7.0, n_cap=60, delta=1e-15)
    pv = draw_projection_vector(params, rng)
    xv = rng.standard_normal(60)
    zv = rng.standard_normal(60)
    a, b = 1.7, -0.3
    lhs = project_series(Series(a * xv + b * zv), pv).values
    rhs = a * project_series(Series(xv), pv).values + b * project_series(Series(zv), pv).values
    assert lhs.size == 60
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)
