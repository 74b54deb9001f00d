import json

import pytest

from rpgauss import DegenerateSeriesError, RngStream, Series, rp_test
from rpgauss.fdr import combined_p
from rpgauss.rp import EPPS, LV


def _series(seed=101, n=200):
    return Series(RngStream(seed).standard_normal(n))


def _layout(report):
    return [(rec.alpha1, rec.alpha2, rec.test) for rec in report.projections]


DEFAULT_LAYOUT = [(100.0, 1.0, EPPS), (100.0, 1.0, LV), (2.0, 7.0, EPPS), (2.0, 7.0, LV)]


def test_default_design():
    assert _layout(rp_test(_series(), rng=RngStream(7))) == DEFAULT_LAYOUT


def test_multi_plans_pairs_two_reproduces_default():
    assert _layout(rp_test(_series(), RngStream(7), k_pairs=2)) == DEFAULT_LAYOUT


def test_multi_plans_eight_projections():
    layout = _layout(rp_test(_series(), RngStream(7), k_pairs=4))
    assert len(layout) == 8
    assert [a1 for a1, _, _ in layout] == [100.0] * 4 + [2.0] * 4
    assert [a2 for _, a2, _ in layout] == [1.0] * 4 + [7.0] * 4
    assert [test for _, _, test in layout] == [EPPS, LV, EPPS, LV] * 2


def test_multi_plans_guard():
    for k_pairs in (0, -1, 1.5):
        with pytest.raises(ValueError, match="k_pairs"):
            rp_test(_series(), RngStream(1), k_pairs=k_pairs)


def test_report_structure_and_recomputable_combination():
    x = _series()
    report = rp_test(x, rng=RngStream(7), alpha=0.05)
    assert len(report.projections) == 4
    assert report.combined_p == combined_p(report.p_values())
    assert report.reject == (report.combined_p <= 0.05)
    assert _layout(report) == DEFAULT_LAYOUT
    for rec in report.projections:
        assert 0.0 <= rec.p_value <= 1.0
        if rec.test == EPPS:
            assert rec.lam is not None and len(rec.lam) == 2
        else:
            assert rec.lam is None


def test_projection_substreams_disjoint():
    report = rp_test(_series(), rng=RngStream(7))
    ids = [rec.stream_id for rec in report.projections]
    assert len(set(ids)) == len(ids)
    assert all(i != 0 for i in ids)  # none reuse the parent stream


def test_bit_level_determinism():
    x = _series()
    a = rp_test(x, rng=RngStream(12345), alpha=0.05)
    b = rp_test(x, rng=RngStream(12345), alpha=0.05)
    assert a.to_json() == b.to_json()
    c = rp_test(x, rng=RngStream(54321), alpha=0.05)
    assert a.to_json() != c.to_json()


def test_json_serialization_roundtrip():
    report = rp_test(_series(), rng=RngStream(41), alpha=0.1)
    data = json.loads(report.to_json())
    assert set(data) == {"projections", "combined_p", "alpha", "reject", "seed"}
    assert data["seed"] == {"master_seed": 41, "stream_id": 0}
    for rec in data["projections"]:
        assert {"alpha1", "alpha2", "test", "statistic", "p_value",
                "stream_id", "h", "lambda"} <= set(rec)


def test_combined_p_in_unit_interval():
    for seed in range(5):
        report = rp_test(_series(seed + 300, 120), RngStream(seed), k_pairs=3)
        assert 0.0 <= report.combined_p <= 1.0


def test_guards():
    with pytest.raises(ValueError):
        rp_test(_series(), rng=None)
    with pytest.raises(ValueError):
        rp_test(Series([1.0, 2.0, 3.0]), rng=RngStream(1))
    with pytest.raises(DegenerateSeriesError):
        rp_test(Series([2.0] * 50), rng=RngStream(1))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_location_shift_leaves_combined_p_unchanged():
    # The projection filters the raw path with the ragged prefix of the
    # direction at early t, so a mean offset leaks into the projected series.
    values = RngStream(3).standard_normal(100)
    a = rp_test(Series(values), rng=RngStream(9))
    b = rp_test(Series(values + 10.0), rng=RngStream(9))
    assert b.combined_p == pytest.approx(a.combined_p, rel=1e-9)
