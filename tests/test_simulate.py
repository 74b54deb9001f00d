import math
import multiprocessing
import os
from statistics import NormalDist

import numpy as np
import pytest

from rpgauss import (Ar1Process, DegenerateSeriesError, InnovationFamily, NumericalError,
                     RngStream, rejection_rate)
from rpgauss import simulation
from rpgauss.rng import sample_innovations
from rpgauss.simulation import (WstarProcess, compute_p_value, parse_test_kind, simulate_ar1,
                                simulate_wstar, simulate_wstar_path)
from rpgauss.special import normal_quantile

from oracles import erf_norm_cdf, ks_critical, ks_distance, ks_two_sample, reference_ar1


def test_process_validation():
    with pytest.raises(ValueError):
        Ar1Process(q=1.0, innovation=InnovationFamily.STD_NORMAL, n=10)
    with pytest.raises(ValueError):
        Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=10, past=-1)
    with pytest.raises(ValueError):
        WstarProcess(p=9, n=10)
    with pytest.raises(ValueError):
        WstarProcess(p=1, n=10)


def test_process_size_bounds():
    max_n = simulation.MAX_N
    Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=max_n - 1000, past=1000)
    with pytest.raises(ValueError, match="past \\+ n must be at most"):
        Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=max_n - 999, past=1000)
    WstarProcess(p=5, n=max_n)
    with pytest.raises(ValueError, match="n must be at most"):
        WstarProcess(p=5, n=max_n + 1)
    # a Mersenne prime: rejected by size before any trial division
    with pytest.raises(ValueError, match="p must be at most"):
        WstarProcess(p=2**89 - 1, n=10)


def test_ar1_zero_q_reduces_to_innovations():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.CHI_SQ_1, n=10_000, past=50)
    sim = simulate_ar1(proc, RngStream(201)).values
    direct = sample_innovations(InnovationFamily.CHI_SQ_1, 10_000, RngStream(202))
    assert ks_two_sample(sim, direct) < 0.03


@pytest.mark.parametrize("q", [-0.9, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("past", [0, 1000])
def test_ar1_matches_indexed_recursion_bit_for_bit(q, past):
    # the float recursion in blocks of 2**16 gives the indexed array recursion's
    # values exactly; the longest paths cross a block boundary
    families = list(InnovationFamily)
    cases = [(family, n) for family in families for n in (1, 2, 7, 300)]
    cases += [(families[i % len(families)], n)
              for i, n in enumerate((2**16 - past - 1, 2**16 - past, 2**16 - past + 1,
                                     2**17 + 3)) if n >= 1]
    for i, (family, n) in enumerate(cases):
        stream = RngStream(205, i)
        got = simulate_ar1(Ar1Process(q=q, innovation=family, n=n, past=past), stream)
        eps = sample_innovations(family, past + n, RngStream(205, i))
        expected = reference_ar1(eps, q, past)
        assert got.values.shape == expected.shape
        assert np.array_equal(got.values, expected), (family, n)
    assert any(past + n > simulation._AR1_BLOCK + 1 for _, n in cases)


def test_ar1_returns_last_n():
    proc = Ar1Process(q=0.5, innovation=InnovationFamily.STD_NORMAL, n=100, past=30)
    assert simulate_ar1(proc, RngStream(203)).n == 100


def test_ar1_stationary_variance():
    proc = Ar1Process(q=0.9, innovation=InnovationFamily.STD_NORMAL, n=10_000, past=1000)
    var = simulate_ar1(proc, RngStream(204)).autocovariance(0)
    target = 1.0 / (1.0 - 0.81)
    assert abs(var - target) <= 0.15 * target


def test_ar1_without_burn_in_underdisperses():
    # with past=0 the early path has variance (1 - q^(2t)) / (1 - q^2) < stationary
    rng = RngStream(205)
    target = 1.0 / (1.0 - 0.81)
    proc = Ar1Process(q=0.9, innovation=InnovationFamily.STD_NORMAL, n=10, past=0)
    pooled = np.concatenate([simulate_ar1(proc, rng.for_replication(i)).values
                             for i in range(400)])
    # pooled variance over the first 10 positions is ~0.63 of the stationary one
    assert pooled.var() < 0.8 * target


def test_wstar_marginal_is_standard_normal():
    proc = WstarProcess(p=5, n=10_000)
    sample = simulate_wstar(proc, RngStream(206)).values
    assert ks_distance(sample, erf_norm_cdf) < ks_critical(0.01, 10_000)


def test_wstar_block_sums():
    # within every complete block the levels are a permutation of 0..p-1
    # whenever the increment is nonzero, so they sum to p(p-1)/2 exactly
    found = 0
    for seed in range(200):
        path = simulate_wstar_path(WstarProcess(p=5, n=103), RngStream(seed))
        if path.y0 == 0:
            continue
        found += 1
        p = 5
        start = (p - path.u) % p
        for lo in range(start, path.levels.size - p + 1, p):
            assert int(path.levels[lo:lo + p].sum()) == p * (p - 1) // 2
    assert found > 100


def test_wstar_adjacent_pairs_nearly_uncorrelated():
    # pairwise independence is an ensemble property (one long path is not
    # ergodic: conditional on the block increment, same-block neighbours are
    # deterministically linked), so sample one adjacent pair per realization
    rng = RngStream(207)
    pairs = np.empty((10_000, 2))
    proc = WstarProcess(p=5, n=2)
    for i in range(pairs.shape[0]):
        pairs[i] = simulate_wstar(proc, rng.for_replication(i)).values
    r = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert abs(r) < 0.03


def _wstar_matrix_draws(p: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels and uniforms of a w* path redrawn from the same stream, the
    levels read off the whole (blocks x p) matrix of block sequences."""
    rng = RngStream(seed)
    y0 = int(rng.integers(p))
    u = int(rng.integers(p))
    starts = np.asarray(rng.integers(p, size=(n + u + p - 1) // p))
    z = (starts[:, None] + np.arange(p)[None, :] * y0) % p
    return z.ravel()[u:u + n], rng.randoms(n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 1009])
@pytest.mark.parametrize("n", [1, 8, 50, 1000])
def test_wstar_levels_match_block_matrix(p, n):
    path = simulate_wstar_path(WstarProcess(p=p, n=n), RngStream(209))
    levels, _ = _wstar_matrix_draws(p, n, 209)
    assert np.array_equal(path.levels, levels)


def _wstar_exact_draws(p: int, n: int, seed: int) -> tuple[list[int], np.ndarray]:
    """Levels and uniforms of a w* path redrawn from the same stream, each
    level (z0 + k*y0) mod p of its block computed alone in Python ints, for
    any p up to the largest allowed."""
    rng = RngStream(seed)
    y0 = int(rng.integers(p))
    u = int(rng.integers(p))
    starts = np.asarray(rng.integers(p, size=(n + u + p - 1) // p)).tolist()
    levels = [(starts[j // p] + (j % p) * y0) % p for j in range(u, u + n)]
    return levels, rng.randoms(n)


def test_wstar_values_are_quantiles_of_levels():
    # bit for bit the stdlib's public quantile of (level + uniform) / p
    inv_cdf = NormalDist().inv_cdf
    for p, n in ((5, 1000), (1009, 200), (3037000493, 1000)):
        path = simulate_wstar_path(WstarProcess(p=p, n=n), RngStream(210))
        levels, uniforms = _wstar_exact_draws(p, n, 210)
        assert path.levels.tolist() == levels
        expected = [inv_cdf((k + uv) / p) for k, uv in zip(levels, uniforms.tolist())]
        assert path.series.values.tolist() == expected


def test_wstar_levels_exact_at_largest_prime():
    # the largest prime <= MAX_P, where z0 + k * y0 comes closest to 2**63;
    # within the first block, level j is (z0 + (u + j) * y0) mod p in exact ints
    p = 3037000493
    assert p <= simulation.MAX_P
    for seed in range(20):
        path = simulate_wstar_path(WstarProcess(p=p, n=8), RngStream(seed))
        z0 = (int(path.levels[0]) - path.u * path.y0) % p
        expected = [(z0 + k * path.y0) % p for k in range(path.u, min(path.u + 8, p))]
        assert path.levels[:len(expected)].tolist() == expected


def test_wstar_levels_match_values():
    path = simulate_wstar_path(WstarProcess(p=3, n=50), RngStream(208))
    qs = [-np.inf, normal_quantile(1.0 / 3.0), normal_quantile(2.0 / 3.0), np.inf]
    for level, value in zip(path.levels, path.series.values):
        assert qs[level] <= value <= qs[level + 1]


def test_parse_test_kind():
    assert parse_test_kind("E") == ("E", None)
    assert parse_test_kind("rp") == ("RP", None)
    assert parse_test_kind("RPmulti:4") == ("RPmulti", 4)
    with pytest.raises(ValueError):
        parse_test_kind("RPmulti:x")
    with pytest.raises(ValueError):
        parse_test_kind("Z")


def test_rate_alpha_one_rejects_everything():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=50, past=10)
    res = rejection_rate(proc, "G", reps=20, alpha=1.0, rng=RngStream(209))
    assert res.rate == 1.0


def test_rate_single_rep_is_binary():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=50, past=10)
    res = rejection_rate(proc, "G", reps=1, alpha=0.05, rng=RngStream(210))
    assert res.rate in (0.0, 1.0)


def test_rate_deterministic_and_thread_invariant():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=100, past=50)
    a = rejection_rate(proc, "GE", reps=30, alpha=0.05, rng=RngStream(211))
    b = rejection_rate(proc, "GE", reps=30, alpha=0.05, rng=RngStream(211))
    c = rejection_rate(proc, "GE", reps=30, alpha=0.05, rng=RngStream(211), workers=4)
    assert a == b == c


def test_rate_binomial_se():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=64, past=10)
    res = rejection_rate(proc, "G", reps=40, alpha=0.2, rng=RngStream(212))
    assert res.se == pytest.approx(math.sqrt(res.rate * (1 - res.rate) / res.reps))


def test_wstar_epps_under_rejects():
    proc = WstarProcess(p=5, n=1000)
    res = rejection_rate(proc, "E", reps=200, alpha=0.05, rng=RngStream(7))
    assert res.rate <= 0.05


def test_calibration_loop_back():
    # generated null paths pass the skewness-kurtosis test at roughly the level
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=500, past=200)
    res = rejection_rate(proc, "G", reps=200, alpha=0.05, rng=RngStream(213))
    assert 0.005 <= res.rate <= 0.12


def test_rate_rejects_bad_arguments():
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=64, past=10)
    for bad in ({"workers": 0}, {"workers": -5}, {"reps": 0},
                {"alpha": 1.5}, {"alpha": 0.0}, {"alpha": float("nan")}):
        kwargs = {"reps": 5, "alpha": 0.05, "workers": 1, **bad}
        with pytest.raises(ValueError):
            rejection_rate(proc, "G", rng=RngStream(1), **kwargs)
    short = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=7, past=10)
    with pytest.raises(ValueError, match="at least 8"):
        rejection_rate(short, "G", reps=5, alpha=0.05, rng=RngStream(1))


def test_error_budget_aborts(monkeypatch):
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=50, past=0)

    def always_fails(*args, **kwargs):
        raise DegenerateSeriesError("forced failure")

    monkeypatch.setattr("rpgauss.simulation.compute_p_value", always_fails)
    with pytest.raises(NumericalError):
        rejection_rate(proc, "G", reps=50, alpha=0.05, rng=RngStream(214))


def test_error_budget_tolerates_rare_failures(monkeypatch):
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=50, past=0)
    real = compute_p_value
    calls = {"count": 0}

    def flaky(series, kind, rng, **kwargs):
        calls["count"] += 1
        if calls["count"] == 3:
            raise DegenerateSeriesError("forced failure")
        return real(series, kind, rng, **kwargs)

    monkeypatch.setattr("rpgauss.simulation.compute_p_value", flaky)
    res = rejection_rate(proc, "G", reps=200, alpha=0.05, rng=RngStream(215))
    assert res.errors == 1
    assert res.reps == 199


@pytest.mark.parametrize("proc, test", [
    (Ar1Process(q=0.5, innovation=InnovationFamily.STD_LOGNORMAL, n=64, past=50), "RP"),
    (WstarProcess(p=5, n=64), "G"),
])
def test_rate_is_worker_invariant(proc, test):
    results = [rejection_rate(proc, test, reps=7, alpha=0.5, rng=RngStream(216), workers=w)
               for w in (1, 2, 3)]
    assert results[0] == results[1] == results[2]
    # more workers than replications: one process per replication
    few = [rejection_rate(proc, test, reps=3, alpha=0.5, rng=RngStream(216), workers=w)
           for w in (1, 8)]
    assert few[0] == few[1]


def _fail_on(monkeypatch, failing):
    """Make simulate fail on the replications (stream ids) in `failing`."""
    real = simulation.simulate

    def patched(process, stream):
        if stream.stream_id in failing:
            raise DegenerateSeriesError(f"forced failure on replication {stream.stream_id}")
        return real(process, stream)

    monkeypatch.setattr(simulation, "simulate", patched)


def test_failed_replications_are_worker_invariant(monkeypatch):
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=50, past=0)
    _fail_on(monkeypatch, {5})
    results = [rejection_rate(proc, "G", reps=150, alpha=0.5, rng=RngStream(217), workers=w)
               for w in (1, 2)]
    assert results[0] == results[1]
    assert results[0].errors == 1 and results[0].reps == 149
    _fail_on(monkeypatch, {5, 40})
    for workers in (1, 2):
        with pytest.raises(NumericalError, match="2 of 50"):
            rejection_rate(proc, "G", reps=50, alpha=0.5, rng=RngStream(217), workers=workers)


def test_worker_exception_reaches_the_caller(monkeypatch):
    parent = os.getpid()
    real = simulation.simulate

    def fails_in_a_worker(process, stream):
        if os.getpid() != parent:
            raise RuntimeError("raised in a worker")
        return real(process, stream)

    monkeypatch.setattr(simulation, "simulate", fails_in_a_worker)
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=50, past=0)
    with pytest.raises(RuntimeError, match="raised in a worker"):
        rejection_rate(proc, "G", reps=4, alpha=0.05, rng=RngStream(218), workers=2)


def test_workers_need_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    proc = Ar1Process(q=0.0, innovation=InnovationFamily.STD_NORMAL, n=50, past=0)
    with pytest.raises(ValueError, match="fork"):
        rejection_rate(proc, "G", reps=4, alpha=0.05, rng=RngStream(219), workers=2)
    assert rejection_rate(proc, "G", reps=4, alpha=0.05, rng=RngStream(219)).reps == 4
