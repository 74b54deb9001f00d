import math

import numpy as np
import pytest

from rpgauss import InnovationFamily, RngStream
from rpgauss.projection import StickBreakingParams
from rpgauss.rng import sample_abs_normal, sample_innovations


def test_equal_seeds_reproduce_draws():
    a = RngStream(1234, 5)
    b = RngStream(1234, 5)
    xa = [a.random() for _ in range(200)] + list(a.standard_normal(200))
    xb = [b.random() for _ in range(200)] + list(b.standard_normal(200))
    assert xa == xb


def test_distinct_stream_ids_differ():
    a = RngStream(1234, 0)
    b = RngStream(1234, 1)
    assert list(a.standard_normal(50)) != list(b.standard_normal(50))


def test_cross_stream_correlation_negligible():
    a = RngStream(99, 0).standard_normal(100_000)
    b = RngStream(99, 1).standard_normal(100_000)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.01


def test_substream_ids_distinct_and_reproducible():
    root = RngStream(7)
    ids = [root.substream(i).stream_id for i in range(64)]
    assert len(set(ids)) == 64
    assert ids == [RngStream(7).substream(i).stream_id for i in range(64)]


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1)


def test_beta_domain():
    # Beta fractions are drawn from the stream by stick breaking, whose
    # parameters reject a non-positive Beta parameter before any draw
    with pytest.raises(ValueError):
        StickBreakingParams(0.0, 1.0, n_cap=10)
    with pytest.raises(ValueError):
        StickBreakingParams(2.0, -1.0, n_cap=10)


def _assert_mean_within(draws, target, n_se=3.0):
    draws = np.asarray(draws)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - target) <= n_se * se, (draws.mean(), target, se)


def test_uniform_innovations_support():
    rng = RngStream(14)
    draws = sample_innovations(InnovationFamily.UNIFORM_01, 10_000, rng)
    assert np.all((draws >= 0.0) & (draws <= 1.0))


def test_innovation_means():
    rng = RngStream(15)
    _assert_mean_within(sample_innovations(InnovationFamily.CHI_SQ_1, 100_000, rng), 1.0)
    _assert_mean_within(sample_innovations(InnovationFamily.CHI_SQ_10, 100_000, rng), 10.0)
    _assert_mean_within(sample_innovations(InnovationFamily.STUDENT_T10, 100_000, rng), 0.0)
    _assert_mean_within(sample_innovations(InnovationFamily.BETA_2_1, 100_000, rng), 2.0 / 3.0)
    _assert_mean_within(sample_innovations(InnovationFamily.STD_LOGNORMAL, 1_000_000, rng),
                        math.exp(0.5))


def test_abs_normal_nonnegative_and_mean():
    rng = RngStream(17)
    half_normal_mean = math.sqrt(2.0 / math.pi)
    draws1 = [sample_abs_normal(1.0, rng) for _ in range(100_000)]
    assert min(draws1) >= 0.0
    _assert_mean_within(draws1, half_normal_mean)
    draws2 = [sample_abs_normal(2.0, rng) for _ in range(100_000)]
    _assert_mean_within(draws2, 2.0 * half_normal_mean)


def test_abs_normal_domain():
    with pytest.raises(ValueError):
        sample_abs_normal(0.0, RngStream(1))
