"""Rewrite the `rpgauss test` goldens and show how far each field moved.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs `rpgauss test --test KIND --seed 5` on each golden series for every kind
that tests/test_golden.py checks, writes test_reports.json and
test_reports_n100.json, and prints, per field (kind and path, list indices
dropped), the largest relative change against the file it replaces. A key,
string, int or bool that changes is printed as such. The simulate CSV goldens
are left alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from rpgauss.cli import main  # noqa: E402
from test_golden import GOLDEN, KINDS, REPORTS  # noqa: E402


def _report(series: Path, kind: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["test", "--input", str(series), "--test", kind, "--seed", "5"])
    if code != 0:
        raise SystemExit(f"rpgauss test --test {kind} on {series.name} exited {code}")
    report = json.loads(out.getvalue())
    report.pop("input")
    return report


def _changes(old, new, path: str, worst: dict) -> None:
    """Largest relative change per field path, or "changed" for anything but
    two floats that differ."""
    if isinstance(old, dict) and isinstance(new, dict) and sorted(old) == sorted(new):
        for key in old:
            _changes(old[key], new[key], f"{path}.{key}", worst)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for o, n in zip(old, new):
            _changes(o, n, path, worst)
    elif type(old) is float and type(new) is float:
        rel = abs(new - old) / abs(old) if old else (0.0 if new == old else float("inf"))
        if worst.get(path) != "changed":
            worst[path] = max(worst.get(path, 0.0), rel)
    elif old != new or type(old) is not type(new):
        worst[path] = "changed"
    else:
        worst.setdefault(path, 0.0)


def main_regenerate() -> int:
    for series_name, (reports_name, _) in REPORTS.items():
        path = GOLDEN / reports_name
        old = json.loads(path.read_text())
        new = {kind: _report(GOLDEN / series_name, kind) for kind in KINDS}
        worst: dict = {}
        for kind in KINDS:
            _changes(old.get(kind), new[kind], kind, worst)
        path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"{reports_name}:")
        unchanged = 0
        for field, change in worst.items():
            if change == 0.0:
                unchanged += 1
            elif change == "changed":
                print(f"  {field}: changed")
            else:
                print(f"  {field}: {change:.2g}")
        print(f"  {unchanged} fields unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main_regenerate())
