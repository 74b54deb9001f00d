"""Command-line front end: test a data file for Gaussianity, or run
rejection-rate studies, with machine-readable output.

Exit codes: 0 = computed (regardless of the accept/reject outcome),
2 = input error, 3 = numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .epps import FIXED, RANDOM
from .exceptions import NumericalError
from .lobato_velasco import LvConfig
from .rng import InnovationFamily, RngStream
from .series import Series
from .simulation import Ar1Process, WstarProcess, check_cell, rejection_rate, resolve_test, run_test

# Not called here: perfbench/spans.py patches these names in this module as well.
from .epps import epps_test  # noqa: F401
from .fdr import combined_p  # noqa: F401
from .lobato_velasco import lv_test  # noqa: F401
from .rp import rp_test as rp_test_multi  # noqa: F401

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def read_values(path: str) -> np.ndarray:
    """Parse one numeric value per line; a non-numeric first line is treated
    as a header and skipped; a value may carry commas (single-column CSV, so
    `1.5,` is read as 1.5), but a line with two or more values is rejected,
    and so is a value with underscore digit grouping (`1_000`)."""
    text = Path(path).read_text()
    if "_" in text:
        _reject_digit_grouping(text)
    values: list[float] = []
    header_ok = True  # until the first non-empty line has been read
    for number, line in enumerate(text.splitlines(), start=1):
        try:
            values.append(float(line))  # the common case: one bare value
            continue
        except ValueError:
            pass
        line = line.strip()
        if not line:
            continue
        tokens = [tok for tok in line.split(",") if tok.strip()]
        try:
            nums = [float(tok) for tok in tokens]
        except ValueError:
            if header_ok and not values:
                header_ok = False
                continue  # header line
            raise ValueError(f"non-numeric data at line {number}: {line!r}") from None
        header_ok = False
        if len(nums) > 1:
            raise ValueError(f"{len(nums)} values at line {number}, expected one per line "
                             f"(multi-column input is not supported): {line!r}")
        values.extend(nums)
    if header_ok and not values:
        raise ValueError("input file is empty")
    if len(values) < 8:
        raise ValueError(f"need at least 8 numeric values, found {len(values)}")
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("input contains non-finite values")
    return arr


def _reject_digit_grouping(text: str) -> None:
    """Raise at the first line holding a value that float() reads only
    because Python number literals allow `_` between digits."""
    for number, line in enumerate(text.splitlines(), start=1):
        for token in line.split(","):
            if "_" not in token:
                continue
            try:
                float(token)
            except ValueError:
                continue  # not a number at all: a header, or garbage reported later
            raise ValueError(f"digit grouping with '_' at line {number}: {line.strip()!r}")


def _lv_config(args) -> LvConfig:
    return LvConfig(c=args.c, beta0=args.beta0, variant=args.lv_variant)


def run_test_command(args) -> dict:
    _, kind, k_pairs = resolve_test(args.test, args.projections)
    series = Series(read_values(args.input))
    result = run_test(series, kind, RngStream(args.seed), k_pairs, args.epps_lambda,
                      _lv_config(args), alpha=args.alpha)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "test",
        "input": args.input,
        "n": series.n,
        "test": args.test,
        "alpha": args.alpha,
        "seed": args.seed,
        "result": result.as_dict(),
    }


def _parse_dist(token: str) -> InnovationFamily:
    try:
        return InnovationFamily(token.strip().lower())
    except ValueError:
        names = ", ".join(f.value for f in InnovationFamily)
        raise ValueError(f"unknown innovation family {token!r} (choose from {names})") from None


def _csv_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _cells_from_args(args) -> list[dict]:
    cells = []
    if args.process == "wstar":
        if args.p is None:
            raise ValueError("--p is required for the wstar process")
        for test in _csv_list(args.test):
            for n in _csv_list(args.n):
                cells.append({"process": "wstar", "p": int(args.p), "n": int(n),
                              "test": test, "reps": args.reps})
    else:
        for q in _csv_list(args.q):
            for dist in _csv_list(args.dist):
                for test in _csv_list(args.test):
                    for n in _csv_list(args.n):
                        cells.append({"process": "ar1", "q": float(q), "dist": dist,
                                      "n": int(n), "test": test, "reps": args.reps,
                                      "past": args.past})
    return cells


def _cells_from_file(path: str, args) -> list[dict]:
    experiment = json.loads(Path(path).read_text())
    if not isinstance(experiment, dict) or not isinstance(experiment.get("cells"), list):
        raise ValueError("experiment file must be a JSON object with a 'cells' list")
    if "seed" in experiment:
        args.seed = _integral(experiment["seed"], "seed")
    if "alpha" in experiment:
        args.alpha = _number(experiment["alpha"], "alpha")
    cells = []
    for i, cell in enumerate(experiment["cells"], start=1):
        if not isinstance(cell, dict):
            raise ValueError(f"cell {i} of the experiment file is not a JSON object")
        cells.append({"reps": args.reps, "past": args.past, **cell})
    return cells


def _number(value, name: str) -> float:
    """A JSON number as a float; "0.5", true and integers beyond the float
    range are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number, got {json.dumps(value)}")


def _integral(value, name: str) -> int:
    """An integral JSON number as an int; 64.7, "64" and true are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integral number, got {json.dumps(value)}")


def _prepare_cell(cell: dict, args) -> tuple:
    """(process, test label, q field, dist field, reps) of a validated cell."""
    label, _, _ = resolve_test(cell["test"], args.projections)
    process = cell.get("process", "ar1")
    if process == "wstar":
        proc = WstarProcess(p=_integral(cell["p"], "p"), n=_integral(cell["n"], "n"))
        q_field, dist_field = "", f"wstar(p={proc.p})"
    elif process == "ar1":
        family = _parse_dist(cell["dist"])
        proc = Ar1Process(q=_number(cell["q"], "q"), innovation=family,
                          n=_integral(cell["n"], "n"), past=_integral(cell["past"], "past"))
        q_field, dist_field = repr(proc.q), family.value
    else:
        raise ValueError(f"unknown process {process!r} (choose ar1 or wstar)")
    reps = _integral(cell["reps"], "reps")
    check_cell(proc, label, reps, args.alpha, args.workers)
    return proc, label, q_field, dist_field, reps


def run_simulate_command(args, out) -> None:
    if args.experiment:
        cells = _cells_from_file(args.experiment, args)
    else:
        cells = _cells_from_args(args)
    if not cells:
        raise ValueError("no simulation cells requested")
    lv_cfg = _lv_config(args)
    rng = RngStream(args.seed)
    # validate every cell first, so that bad input fails before any output
    prepared = []
    for i, cell in enumerate(cells, start=1):
        try:
            prepared.append(_prepare_cell(cell, args))
        except KeyError as exc:
            raise ValueError(f"cell {i} {json.dumps(cell)}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:  # e.g. a number where text belongs
            raise ValueError(f"cell {i} {json.dumps(cell)}: {exc}") from None

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["q", "dist", "test", "n", "reps", "rate", "se"])
    for proc, label, q_field, dist_field, reps in prepared:
        res = rejection_rate(proc, label, reps=reps, alpha=args.alpha, rng=rng,
                             epps_mode=args.epps_lambda, lv=lv_cfg, workers=args.workers)
        if res.errors:
            print(f"note: {res.errors} failed replications excluded "
                  f"({dist_field}, {label}, n={proc.n})", file=sys.stderr)
        writer.writerow([q_field, dist_field, label, proc.n, res.reps,
                         f"{res.rate:.6f}", f"{res.se:.6f}"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpgauss",
        description="Random-projection test of Gaussianity for stationary time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--c", type=float, default=1.0,
                        help="lag-window constant of the skewness-kurtosis test (default 1)")
    common.add_argument("--beta0", type=float, default=0.5,
                        help="lag-window exponent of the skewness-kurtosis test (default 0.5)")
    common.add_argument("--lv-variant", choices=["modified", "original"], default="modified",
                        help="skewness-kurtosis variant (default modified)")
    common.add_argument("--epps-lambda", choices=[FIXED, RANDOM], default=None,
                        help="frequency mode of the CF test (default: fixed for E, "
                             "random inside GE/RP)")
    common.add_argument("--projections", type=int, default=4,
                        help="total projections for the RP test, even (default 4)")

    p_test = sub.add_parser("test", parents=[common],
                            help="test a data file (JSON report on stdout)")
    p_test.add_argument("--input", required=True, help="file with one numeric value per line")
    p_test.add_argument("--test", default="RP",
                        help="E | G | GE | RP | RPmulti:k (2k projections); default RP")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="estimate rejection rates (CSV on stdout)")
    p_sim.add_argument("--test", default="RP", help="comma list of test kinds (default RP)")
    p_sim.add_argument("--n", default="100", help="comma list of sample sizes (default 100)")
    p_sim.add_argument("--q", default="0", help="comma list of AR coefficients (default 0)")
    p_sim.add_argument("--dist", default="normal",
                       help="comma list of innovation families (default normal): "
                            + ", ".join(f.value for f in InnovationFamily))
    p_sim.add_argument("--reps", type=int, default=500, help="replications per cell (default 500)")
    p_sim.add_argument("--past", type=int, default=1000, help="burn-in length (default 1000)")
    p_sim.add_argument("--process", choices=["ar1", "wstar"], default="ar1",
                       help="generator family (default ar1)")
    p_sim.add_argument("--p", type=int, default=None, help="prime for the wstar process")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="worker processes for replications (default 1)")
    p_sim.add_argument("--experiment", default=None,
                       help="JSON experiment file (overrides the cell flags)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "test":
            report = run_test_command(args)
            print(json.dumps(report, sort_keys=True, indent=2))
        else:
            run_simulate_command(args, sys.stdout)
        return EXIT_OK
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        # DegenerateSeriesError subclasses ValueError: short/constant/unreadable input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
