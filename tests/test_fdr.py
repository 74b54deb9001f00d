import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpgauss.fdr import by_reject, combined_p

from oracles import fdr_p0, fdr_reject

p_lists = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)


def test_single_p_reduces_to_plain_threshold():
    assert by_reject([0.04], 0.05) == (True, 1)
    assert by_reject([0.06], 0.05) == (False, None)
    assert combined_p([0.3]) == pytest.approx(0.3)


def test_worked_example_thresholds():
    ps = [0.01, 0.04, 0.2, 0.5]
    # k*H_k = 4 * 25/12 = 25/3; thresholds i*alpha/(25/3)
    reject, witness = by_reject(ps, 0.05)
    assert not reject and witness is None
    reject, witness = by_reject(ps, 0.09)
    assert reject and witness == 1


def test_worked_example_combined():
    ps = [0.01, 0.04, 0.2, 0.5]
    assert combined_p(ps) == pytest.approx(25.0 / 3.0 * 0.01, abs=1e-12)
    assert combined_p(ps) == pytest.approx(0.083333, abs=1e-6)


def test_all_zero_rejects_everywhere():
    for alpha in (1e-9, 0.01, 0.5, 0.999):
        assert by_reject([0.0, 0.0, 0.0], alpha)[0]


def test_all_one_clamps():
    assert combined_p([1.0, 1.0, 1.0, 1.0]) == 1.0


def test_order_does_not_matter():
    ps = [0.9, 0.02, 0.4, 0.11]
    assert combined_p(ps) == combined_p(sorted(ps))
    assert by_reject(ps, 0.07) == by_reject(sorted(ps, reverse=True), 0.07)


def test_reject_and_combined_agree():
    # both sides computed independently of each other on random vectors
    gen = np.random.default_rng(51)
    alphas = np.linspace(0.001, 0.999, 1000)
    for _ in range(1000):
        k = int(gen.integers(1, 9))
        ps = gen.random(k) ** gen.uniform(0.5, 3.0)
        comb = combined_p(ps)
        # vectorized threshold check, written from the rejection rule directly
        ordered = np.sort(ps)
        harmonic = np.sum(1.0 / np.arange(1, k + 1))
        ranks = np.arange(1, k + 1)
        rejects = (ordered[None, :] <= ranks[None, :] * alphas[:, None] / (k * harmonic)).any(axis=1)
        assert np.array_equal(rejects, comb <= alphas)


def test_matches_independent_oracle():
    gen = np.random.default_rng(52)
    for _ in range(500):
        ps = gen.random(int(gen.integers(1, 10)))
        assert combined_p(ps) == pytest.approx(fdr_p0(ps), abs=1e-14)
        for alpha in (0.01, 0.05, 0.2):
            assert by_reject(ps, alpha)[0] == fdr_reject(ps, alpha)


@settings(max_examples=100, deadline=None)
@given(ps=p_lists, idx=st.integers(0, 100), factor=st.floats(0.0, 1.0))
def test_monotone_in_each_p(ps, idx, factor):
    base = combined_p(ps)
    lowered = list(ps)
    i = idx % len(lowered)
    lowered[i] = lowered[i] * factor
    assert combined_p(lowered) <= base + 1e-15


@settings(max_examples=100, deadline=None)
@given(ps=p_lists, seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(ps, seed):
    perm = list(np.random.default_rng(seed).permutation(ps))
    assert combined_p(perm) == combined_p(ps)


def test_input_validation():
    with pytest.raises(ValueError):
        combined_p([])
    with pytest.raises(ValueError):
        combined_p([1.2])
    with pytest.raises(ValueError):
        by_reject([0.5], 0.0)
    with pytest.raises(ValueError):
        by_reject([0.5], 1.0)
