import math

import numpy as np
import pytest

from rpgauss import InnovationFamily, RngStream
from rpgauss.rng import sample_abs_normal, sample_beta, sample_betas, sample_innovations

from oracles import ks_distance


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


def test_beta_1_1_is_uniform():
    rng = RngStream(11)
    draws = [sample_beta(1.0, 1.0, rng) for _ in range(10_000)]
    assert ks_distance(draws, lambda u: min(max(u, 0.0), 1.0)) < 0.02


def _assert_mean_within(draws, target, n_se=3.0):
    draws = np.asarray(draws)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - target) <= n_se * se, (draws.mean(), target, se)


def test_beta_mean_100_1():
    rng = RngStream(12)
    _assert_mean_within([sample_beta(100.0, 1.0, rng) for _ in range(100_000)], 100.0 / 101.0)


def test_beta_mean_2_7():
    rng = RngStream(13)
    _assert_mean_within([sample_beta(2.0, 7.0, rng) for _ in range(100_000)], 2.0 / 9.0)


def test_beta_domain():
    rng = RngStream(1)
    with pytest.raises(ValueError):
        sample_beta(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_beta(2.0, -1.0, rng)


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


_BETA_PAIRS = ((2.0, 7.0), (0.5, 0.5), (1.0, 3.0), (100.0, 0.5))


def test_sample_betas_are_the_sample_beta_draws():
    # the same values as count calls of sample_beta, and the stream left at
    # the same place (equal next draw)
    for a1, a2 in _BETA_PAIRS:
        for count in (0, 1, 2, 17, 300):
            for seed in range(5):
                block, single = RngStream(seed, 8), RngStream(seed, 8)
                got = sample_betas(a1, a2, count, block)
                assert got == [sample_beta(a1, a2, single) for _ in range(count)]
                assert block.random() == single.random()


def test_sample_betas_skip_zero_gamma_sums_like_sample_beta():
    # gamma draws of shape 1e-3 underflow to 0.0 about half the time, so many
    # pairs sum to zero and are redrawn
    block, single = RngStream(19), RngStream(19)
    got = sample_betas(1e-3, 1e-3, 200, block)
    assert got == [sample_beta(1e-3, 1e-3, single) for _ in range(200)]
    assert block.random() == single.random()


class _ScriptedGenerator:
    """Stands in for the numpy generator: serves a fixed script of gamma
    draws, checking the shape asked for each one."""

    def __init__(self, gammas):
        self.gammas = list(gammas)  # (shape, value) pairs

    def _gamma(self, shape):
        expected_shape, value = self.gammas.pop(0)
        assert shape == expected_shape
        return value

    def standard_gamma(self, shape, size=None):
        if size is None:
            return self._gamma(shape)
        shapes = np.broadcast_to(np.asarray(shape, dtype=float), size)
        return np.array([self._gamma(float(s)) for s in shapes.ravel()]).reshape(size)


def _scripted(monkeypatch, gammas):
    rng = RngStream(0)
    monkeypatch.setattr(rng, "_gen", _ScriptedGenerator(gammas))
    return rng


def test_sample_betas_redraw_rule_matches_sample_beta(monkeypatch):
    gammas = [(2.0, 1.0), (7.0, 3.0), (2.0, 0.0), (7.0, 0.0), (2.0, 0.5), (7.0, 0.5),
              (2.0, 0.0), (7.0, 0.0), (2.0, 0.0), (7.0, 0.0), (2.0, 4.0), (7.0, 1.0),
              (2.0, 2.0), (7.0, 6.0)]
    for count in range(1, 5):
        block = _scripted(monkeypatch, gammas)
        single = _scripted(monkeypatch, gammas)
        got = sample_betas(2.0, 7.0, count, block)
        assert got == [sample_beta(2.0, 7.0, single) for _ in range(count)]
        assert block._gen.gammas == single._gen.gammas
    # the three zero-sum pairs were skipped, two of them in top-up draws
    assert got == [0.25, 0.5, 0.8, 0.25]


def test_sample_betas_domain():
    with pytest.raises(ValueError):
        sample_betas(0.0, 1.0, 3, RngStream(1))
    with pytest.raises(ValueError):
        sample_betas(2.0, -1.0, 3, RngStream(1))
    with pytest.raises(ValueError):
        sample_betas(100.0, 1.0, 3, RngStream(1))


def test_stream_rewind_repeats_the_draws():
    rng = RngStream(23)
    rng.random()
    position = rng.position()
    first = [rng.random(), float(rng.standard_gamma(2.0)), float(rng.standard_normal())]
    rng.rewind(position)
    assert [rng.random(), float(rng.standard_gamma(2.0)), float(rng.standard_normal())] == first
