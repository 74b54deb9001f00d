import math

import numpy as np
import pytest

from oracles import ks_critical, ks_distance, reference_fractions, reference_stick_breaking
from rpgauss import RngStream, Series
from rpgauss import projection
from rpgauss.projection import (StickBreakingParams, build_projection_vector,
                                draw_projection_vector, project_series, stick_breaking)


def test_params_validation():
    for delta in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="delta must lie in"):
            StickBreakingParams(1.0, 1.0, n_cap=10, delta=delta)
    # Beta parameters must be positive integers: a NaN would give NaN sticks
    # and an infinite alpha2 all-zero ones
    for bad in (0.0, -1.0, math.nan, math.inf, 2.5, 0.5):
        with pytest.raises(ValueError, match="alpha1 must be a positive integer"):
            StickBreakingParams(bad, 1.0, n_cap=5)
        with pytest.raises(ValueError, match="alpha2 must be a positive integer"):
            StickBreakingParams(2.0, bad, n_cap=5)
        with pytest.raises(ValueError, match="n_cap must be a positive integer"):
            StickBreakingParams(2.0, 7.0, n_cap=bad)
    assert StickBreakingParams(2, 7, n_cap=5) == StickBreakingParams(2.0, 7.0, n_cap=5)


def test_stick_breaking_matches_per_stick_draws():
    # the vectorised blocks give, bit for bit, the sticks of the per-stick
    # oracle on the same uniforms, and leave the stream at the same place
    past_first_block = 0
    for alpha1, alpha2 in ((100.0, 1.0), (2.0, 7.0), (1.0, 1.0), (1.0, 3.0)):
        for n_cap in (1, 5, 100, 130, 1000, 10_000):
            for delta in (1e-300, 1e-15, 0.5, 1.0 - 1e-12):
                # more seeds where directions can run past the first block
                for seed in range(4 if n_cap <= projection._FIRST_BLOCK else 12):
                    mine, ref = RngStream(seed, n_cap), RngStream(seed, n_cap)
                    params = StickBreakingParams(alpha1, alpha2, n_cap=n_cap, delta=delta)
                    sticks = stick_breaking(params, mine)
                    expected = reference_stick_breaking(alpha1, alpha2, n_cap, delta, ref)
                    where = (alpha1, alpha2, n_cap, delta, seed)
                    assert sticks.tobytes() == expected.tobytes(), where
                    assert mine.random() == ref.random(), where
                    past_first_block += alpha2 != 1.0 and sticks.size > projection._FIRST_BLOCK
    assert past_first_block >= 50


def _uniforms_used(alpha1, alpha2, n_cap, sticks):
    """Uniforms behind a direction: one per Beta(a1, 1) stick, else
    a1 + a2 - 1 per row of every block drawn (128, 256, ... rows)."""
    if alpha2 == 1:
        return sticks
    rows, block = 0, projection._FIRST_BLOCK
    while rows < sticks:
        rows, block = rows + min(block, n_cap - rows), 2 * block
    return rows * int(alpha1 + alpha2 - 1)


def test_a_direction_uses_a_fixed_count_of_uniforms():
    # the next draw after a direction is the next one of a fresh stream that
    # skipped exactly the uniforms of its sticks
    for alpha1, alpha2 in ((100.0, 1.0), (2.0, 7.0), (1.0, 3.0)):
        for n_cap, delta in ((5, 1e-15), (100, 1e-15), (1000, 1e-15), (1000, 1e-300)):
            params = StickBreakingParams(alpha1, alpha2, n_cap=n_cap, delta=delta)
            for seed in range(5):
                rng, fresh = RngStream(seed, 2), RngStream(seed, 2)
                sticks = stick_breaking(params, rng).size
                fresh.randoms(_uniforms_used(alpha1, alpha2, n_cap, sticks))
                assert rng.random() == fresh.random(), (alpha1, alpha2, n_cap, delta, seed)


@pytest.mark.parametrize("alpha1, alpha2, cdf", [
    pytest.param(2.0, 7.0, lambda x: 1.0 - (1.0 - x) ** 8 - 8.0 * x * (1.0 - x) ** 7, id="2-7"),
    pytest.param(100.0, 1.0, lambda x: x**100, id="100-1"),
    pytest.param(1.0, 1.0, lambda x: x, id="1-1"),
])
def test_first_stick_has_the_exact_beta_law(alpha1, alpha2, cdf):
    # the first stick is the first fraction: KS at 1% against its exact CDF
    params = StickBreakingParams(alpha1, alpha2, n_cap=100)
    rng = RngStream(41)
    first = [stick_breaking(params, rng)[0] for _ in range(4000)]
    assert ks_distance(first, cdf) < ks_critical(0.01, len(first))


def test_weights_are_the_formula_inside_and_beyond_the_table():
    # a_0 = 1 and a_i = 1/(i*i), bit for bit, as read-only arrays
    table = projection._WEIGHTS.size
    for count in (1, table, table + 1, 10_000):
        idx = np.arange(count, dtype=float)
        idx[0] = 1.0
        got = projection._weights(count)
        assert got.dtype == np.float64 and got.tobytes() == (1.0 / (idx * idx)).tobytes(), count
        assert not got.flags.writeable, count


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
    # replayed on a twin stream: each stick is its fraction times the mass
    # left, prod (1 - f_j) multiplied up one fraction at a time, and only the
    # last stick leaves at most delta (unless the cap binds)
    for (alpha1, alpha2), seed in (((100.0, 1.0), 33), ((2.0, 7.0), 40)):
        params = StickBreakingParams(alpha1, alpha2, n_cap=1000, delta=1e-15)
        for stream_id in range(100):
            sticks = stick_breaking(params, RngStream(seed, stream_id)).tolist()
            fracs = reference_fractions(alpha1, alpha2, 1000, RngStream(seed, stream_id))
            left, lefts = 1.0, []
            for stick, frac in zip(sticks, fracs):
                assert stick == frac * left
                left *= 1.0 - frac
                lefts.append(left)
            assert lefts[-1] <= 1e-15 or len(sticks) == 1000
            assert all(value > 1e-15 for value in lefts[:-1])


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
