"""Smoke test of the benchmark itself, at a tiny run length.

    python3 perfbench/smoke.py

Checks that every workload, untraced and traced, ends with the result
object and prints every metric declared in BENCHMARK.json with its unit;
that a deliberately corrupted p-value is counted as a failure and makes the
benchmark exit non-zero; and that the benchmark refuses to run without the
package sources. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SECONDS = "1"


def bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_outputs() -> None:
    declared = run.declared_metrics()
    for name in run.WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench(["--workload", name, "--seed", "3", "--seconds", SECONDS,
                          "--trace", trace], run.ROOT)
            assert proc.returncode == 0, (name, trace, proc.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (name, trace, proc.stdout)
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == set(declared[section]), (name, trace, sorted(metrics))
            for metric, unit in declared[section].items():
                assert metrics[metric]["unit"] == unit, (metric, metrics[metric])
                assert isinstance(metrics[metric]["value"], (int, float)), metric
                assert any(line.split()[:1] == [metric] and line.split()[-1] == unit
                           for line in lines[:-1]), (name, metric, "not printed with unit")
            print(f"ok  {name} --trace {trace}")


def check_corruption() -> None:
    rg = run.load_rpgauss()
    workload = run.WORKLOADS["rp_test_n10000"]
    run.WORK.mkdir(exist_ok=True)
    path = workload.write_series(3, 0)
    try:
        code, out, _ = workload.call(rg, workload.argv(path, 3, 0))
    finally:
        path.unlink()
    assert code == 0

    def failures(text: str) -> int:
        tally = run.Tally()
        run.check_cli_report(rg, text, workload.n, tally, "smoke")
        return tally.failed

    assert failures(out) == 0
    report = json.loads(out)
    report["result"]["projections"][1]["p_value"] = 1.5
    assert failures(json.dumps(report)) == 1, "out-of-range p-value not counted"
    report = json.loads(out)
    assert report["result"]["combined_p"] < 1.0
    for projection in report["result"]["projections"]:
        projection["p_value"] = 0.5  # their FDR combination is 1
    assert failures(json.dumps(report)) == 1, "mismatched combined p-value not counted"

    rec = run.spans.Recorder()
    rec.reports = [(0.2, (0.05, 1.2))]
    tally = run.Tally()
    run.check_traced(rg, rec, tally, "smoke")
    assert tally.failed == 1, "corrupted traced report not counted"
    print("ok  corrupted p-values are counted as failures")


def check_exit_code() -> None:
    """A run whose program prints a corrupted combined p-value reports the
    failure and exits 1."""
    rg = run.load_rpgauss()
    combined_p = rg.rp.combined_p
    rg.rp.combined_p = lambda parts: combined_p(parts) + 1.0
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "rp_test_n10000", "--seed", "3",
                             "--seconds", SECONDS, "--trace", "0"])
    finally:
        rg.rp.combined_p = combined_p
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1, code
    assert not result["correct"] and result["failed"] >= 1, result
    print("ok  a corrupted p-value makes the run exit 1")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for source in run.HERE.glob("*.py"):
            shutil.copy(source, bare / "perfbench")
        proc = bench(["--workload", "rp_cell_n100", "--seed", "1", "--seconds", SECONDS,
                      "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without src/")


if __name__ == "__main__":
    check_corruption()
    check_exit_code()
    check_bare_directory()
    check_outputs()
    print("smoke test passed")
