import json

import numpy as np
import pytest

from rpgauss import DegenerateSeriesError, RngStream, Series, rp_test
from rpgauss.fdr import combined_p
from rpgauss.rp import ProjectionPlan, RpConfig, multi_projection_plans, rp_test_multi
from rpgauss.rp import DEFAULT_PLANS, EPPS, LV


def _series(seed=101, n=200):
    return Series(RngStream(seed).standard_normal(n))


def test_default_design():
    assert [(p.alpha1, p.alpha2, p.test) for p in DEFAULT_PLANS] == [
        (100.0, 1.0, EPPS), (100.0, 1.0, LV), (2.0, 7.0, EPPS), (2.0, 7.0, LV)]


def test_multi_plans_pairs_two_reproduces_default():
    assert multi_projection_plans(2) == DEFAULT_PLANS


def test_multi_plans_eight_projections():
    plans = multi_projection_plans(4)
    assert len(plans) == 8
    assert [p.alpha1 for p in plans] == [100.0] * 4 + [2.0] * 4
    assert [p.test for p in plans] == [EPPS, LV, EPPS, LV] * 2


def test_multi_plans_guard():
    with pytest.raises(ValueError):
        multi_projection_plans(0)


def test_report_structure_and_recomputable_combination():
    x = _series()
    report = rp_test(x, rng=RngStream(7), alpha=0.05)
    assert len(report.projections) == 4
    assert report.combined_p == combined_p(report.p_values())
    assert report.reject == (report.combined_p <= 0.05)
    for rec, plan in zip(report.projections, DEFAULT_PLANS):
        assert (rec.alpha1, rec.alpha2, rec.test) == (plan.alpha1, plan.alpha2, plan.test)
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


def test_multi_with_two_pairs_matches_plain():
    x = _series()
    a = rp_test(x, rng=RngStream(99))
    b = rp_test_multi(x, 2, RngStream(99))
    assert a.to_json() == b.to_json()


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
        report = rp_test_multi(_series(seed + 300, 120), 3, RngStream(seed))
        assert 0.0 <= report.combined_p <= 1.0


def test_guards():
    with pytest.raises(ValueError):
        rp_test(_series(), rng=None)
    with pytest.raises(ValueError):
        rp_test(Series([1.0, 2.0, 3.0]), rng=RngStream(1))
    with pytest.raises(DegenerateSeriesError):
        rp_test(Series([2.0] * 50), rng=RngStream(1))


def test_config_requires_plans():
    with pytest.raises(ValueError):
        RpConfig(plans=())


def test_custom_config_is_used():
    cfg = RpConfig(plans=(ProjectionPlan(5.0, 1.0, LV),), epps_mode="random")
    report = rp_test(_series(), cfg, RngStream(4))
    assert len(report.projections) == 1
    assert report.projections[0].test == LV
    # single p-value: combination reduces to it
    assert report.combined_p == pytest.approx(min(1.0, report.projections[0].p_value))
