"""Golden fixed-seed outputs of the command line (in tests/golden/), and the
link between its two front ends.

`rpgauss test` runs on two series: series.txt (n = 200), where some Beta(2, 7)
directions run past the first block of 128 sticks, and series_n100.txt, an
AR(1) q = 0.5 normal path of n = 100, where every Beta(2, 7) direction takes
all its 100 sticks from one block of uniforms.

`rpgauss simulate` must reproduce its CSV byte for byte. In the JSON of
`rpgauss test`, keys, strings, ints and statistics must be identical; the
p-value fields may move by 1e-13 relative, the drift allowed for the
chi-square survival function. `python tests/golden/regenerate.py` (with
src/ on PYTHONPATH) rewrites the JSON goldens and prints how far each field
moved.
"""

import json
import math
from pathlib import Path

import pytest

from rpgauss import RngStream, Series
from rpgauss.cli import main, read_values
from rpgauss.simulation import compute_p_value, parse_test_kind

GOLDEN = Path(__file__).parent / "golden"
KINDS = ("E", "G", "GE", "RP", "RPmulti:3")
# series file -> reports file and the test id prefix
REPORTS = {"series.txt": ("test_reports.json", ""),
           "series_n100.txt": ("test_reports_n100.json", "n100-")}
SERIES_KINDS = [pytest.param(name, kind, id=prefix + kind)
                for name, (_, prefix) in REPORTS.items() for kind in KINDS]
P_FIELDS = ("p_value", "combined_p")

SIMULATE = {
    "simulate_ar1.csv": ["simulate", "--test", "E,G,GE,RP,RPmulti:3", "--q", "0.5",
                         "--dist", "normal,lognormal", "--n", "64", "--reps", "12",
                         "--past", "50", "--alpha", "0.5", "--seed", "3"],
    "simulate_wstar.csv": ["simulate", "--process", "wstar", "--p", "5", "--test", "RP",
                           "--n", "64", "--reps", "12", "--alpha", "0.5", "--seed", "3"],
}


def _test_report(series, kind, capsys):
    assert main(["test", "--input", series, "--test", kind, "--seed", "5"]) == 0
    return json.loads(capsys.readouterr().out)


def _assert_same(got, want, path="report", key=None):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            _assert_same(got[k], want[k], f"{path}.{k}", k)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]", key)
    elif isinstance(want, float) and key in P_FIELDS:
        assert math.isclose(got, want, rel_tol=1e-13, abs_tol=0.0), (path, got, want)
    else:
        assert got == want, (path, got, want)


@pytest.mark.parametrize("name, workers", [
    pytest.param(name, workers, id=name if workers == 1 else f"{name}-workers{workers}")
    for name in sorted(SIMULATE) for workers in (1, 2, 3)])
def test_simulate_csv_matches_golden(name, workers, capsys):
    # any number of worker processes prints the same bytes as one
    assert main(SIMULATE[name] + ["--workers", str(workers)]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name, kind", SERIES_KINDS)
def test_test_json_matches_golden(name, kind, capsys):
    series = str(GOLDEN / name)
    report = _test_report(series, kind, capsys)
    assert report.pop("input") == series
    want = json.loads((GOLDEN / REPORTS[name][0]).read_text())[kind]
    _assert_same(report, want)


@pytest.mark.parametrize("name, kind", SERIES_KINDS)
def test_printed_p_value_is_compute_p_value(name, kind, capsys):
    # `rpgauss test` and a simulation replication run the same dispatch
    printed = _test_report(str(GOLDEN / name), kind, capsys)["result"]["p_value"]
    parsed, k_pairs = parse_test_kind(kind)
    series = Series(read_values(str(GOLDEN / name)))
    assert printed == compute_p_value(series, parsed, RngStream(5), k_pairs=k_pairs)
