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
from .simulation import (DEFAULT_PAST, Ar1Process, WstarProcess, check_alpha, check_cell,
                         check_projections, check_workers, rejection_rate, resolve_test, run_test)

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
    and so is a value with underscore digit grouping (`1_000`). The file is
    read as UTF-8, and a leading byte-order mark is ignored."""
    text = Path(path).read_text(encoding="utf-8-sig")
    if not text.strip():
        raise ValueError("input file is empty")
    if "_" in text:
        _reject_digit_grouping(text)
    lines = text.splitlines()
    try:
        # the common case, every line one bare value, in one pass
        values = np.fromiter(map(float, lines), float, count=len(lines))
    except ValueError:
        values = _parse_lines(lines)
    if len(values) < 8:
        raise ValueError(f"need at least 8 numeric values, found {len(values)}")
    if not np.all(np.isfinite(values)):
        raise ValueError("input contains non-finite values")
    return values


def _parse_lines(lines: list[str]) -> np.ndarray:
    """The values of lines that are not all bare values, at least one of
    them not blank (see read_values)."""
    values: list[float] = []
    header_ok = True  # until the first non-empty line has been read
    for number, line in enumerate(lines, start=1):
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
    return np.asarray(values, dtype=float)


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
    seed, alpha = _flag(args, "seed"), _flag(args, "alpha")
    result = run_test(series, kind, RngStream(seed), k_pairs, args.epps_lambda,
                      _lv_config(args), alpha=alpha)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "test",
        "input": args.input,
        "n": series.n,
        "test": args.test,
        "alpha": alpha,
        "seed": seed,
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


# The keys of an experiment file, and of a cell of each process in it. Each
# key but cells and reps is also a flag that is None when not given, so that
# a run can tell it given: the flags of the other process are rejected, and so
# is every cell flag but --past beside --experiment, and --seed or --alpha
# beside a file that sets seed or alpha.
_EXPERIMENT_KEYS = ("seed", "alpha", "cells")
_CELL_KEYS = {"ar1": ("process", "q", "dist", "n", "test", "reps", "past"),
              "wstar": ("process", "p", "n", "test", "reps")}
_FLAG_DEFAULTS = {"process": "ar1", "test": "RP", "n": "100", "q": "0", "dist": "normal",
                  "past": DEFAULT_PAST, "seed": 0, "alpha": 0.05}
_FILE_CELL_FLAGS = ("process", "p", "q", "dist", "n", "test")  # given in each file cell


def _flag(args, name: str):
    value = getattr(args, name)
    return _FLAG_DEFAULTS[name] if value is None else value


def _cells_from_args(args) -> list[dict]:
    process = _flag(args, "process")
    own = _CELL_KEYS[process]
    for other, keys in _CELL_KEYS.items():
        given = [f"--{key}" for key in keys if key not in own and getattr(args, key) is not None]
        if given:
            raise ValueError(f"--process {process} takes no {', '.join(given)} "
                             f"(flags of --process {other})")
    tests, sizes = _csv_list(_flag(args, "test")), _csv_list(_flag(args, "n"))
    cells = []
    if process == "wstar":
        if args.p is None:
            raise ValueError("--p is required for the wstar process")
        for test in tests:
            for n in sizes:
                cells.append({"process": "wstar", "p": int(args.p), "n": int(n),
                              "test": test, "reps": args.reps})
    else:
        for q in _csv_list(_flag(args, "q")):
            for dist in _csv_list(_flag(args, "dist")):
                for test in tests:
                    for n in sizes:
                        cells.append({"process": "ar1", "q": float(q), "dist": dist,
                                      "n": int(n), "test": test, "reps": args.reps,
                                      "past": _flag(args, "past")})
    return cells


def _cells_from_file(path: str, args) -> list[dict]:
    given = [f"--{name}" for name in _FILE_CELL_FLAGS if getattr(args, name) is not None]
    if given:
        raise ValueError(f"--experiment takes no {', '.join(given)} "
                         "(the cells of the experiment file set them)")
    experiment = json.loads(Path(path).read_text())
    if not isinstance(experiment, dict) or not isinstance(experiment.get("cells"), list):
        raise ValueError("experiment file must be a JSON object with a 'cells' list")
    unknown = [key for key in experiment if key not in _EXPERIMENT_KEYS]
    if unknown:
        raise ValueError(f"experiment file: unknown key {', '.join(map(repr, unknown))} "
                         f"(it takes {', '.join(_EXPERIMENT_KEYS)})")
    given = [key for key in ("seed", "alpha")
             if key in experiment and getattr(args, key) is not None]
    if given:
        raise ValueError(f"--experiment takes no {', '.join('--' + key for key in given)} "
                         f"(the experiment file sets {', '.join(given)})")
    if "seed" in experiment:
        args.seed = _integral(experiment["seed"], "seed")
    if "alpha" in experiment:
        args.alpha = _number(experiment["alpha"], "alpha")
        check_alpha(args.alpha, "alpha of the experiment file")
    for i, cell in enumerate(experiment["cells"], start=1):
        if not isinstance(cell, dict):
            raise ValueError(f"cell {i} of the experiment file is not a JSON object")
    return experiment["cells"]


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
    """(process, test label, q field, dist field, reps) of a validated cell;
    reps and past default to the flags."""
    process = cell.get("process", "ar1")
    if process not in tuple(_CELL_KEYS):  # a tuple: a JSON list or object is not hashable
        raise ValueError(f"unknown process {process!r} (choose ar1 or wstar)")
    unknown = [key for key in cell if key not in _CELL_KEYS[process]]
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))} "
                         f"({process} cells take {', '.join(_CELL_KEYS[process])})")
    label, _, _ = resolve_test(cell["test"], args.projections)
    if process == "wstar":
        proc = WstarProcess(p=_integral(cell["p"], "p"), n=_integral(cell["n"], "n"))
        q_field, dist_field = "", f"wstar(p={proc.p})"
    else:
        family = _parse_dist(cell["dist"])
        past = _integral(cell.get("past", _flag(args, "past")), "past")
        proc = Ar1Process(q=_number(cell["q"], "q"), innovation=family,
                          n=_integral(cell["n"], "n"), past=past)
        q_field, dist_field = repr(proc.q), family.value
    reps = _integral(cell.get("reps", args.reps), "reps")
    check_cell(proc, label, reps, args.alpha, args.workers)
    return proc, label, q_field, dist_field, reps


def run_simulate_command(args, out) -> None:
    if args.experiment:
        cells = _cells_from_file(args.experiment, args)
    else:
        cells = _cells_from_args(args)
    args.seed, args.alpha = _flag(args, "seed"), _flag(args, "alpha")
    if not cells:
        raise ValueError("no simulation cells requested")
    # the values every cell shares are checked once, by their flag; an alpha
    # of the experiment file was checked as it was read
    lv_cfg = _lv_config(args)
    check_projections(args.projections)
    check_alpha(args.alpha, "--alpha")
    check_workers(args.workers, "--workers")
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
    # --seed and --alpha default to None, so that simulate can tell them given (_flag)
    common.add_argument("--alpha", type=float, default=None,
                        help=f"test level (default {_FLAG_DEFAULTS['alpha']})")
    common.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default {_FLAG_DEFAULTS['seed']})")
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
    # the cell flags default to None, so that a run can tell them given (_flag)
    p_sim.add_argument("--test", default=None,
                       help=f"comma list of test kinds (default {_FLAG_DEFAULTS['test']})")
    p_sim.add_argument("--n", default=None,
                       help=f"comma list of sample sizes (default {_FLAG_DEFAULTS['n']})")
    p_sim.add_argument("--q", default=None,
                       help=f"comma list of AR coefficients (default {_FLAG_DEFAULTS['q']})")
    p_sim.add_argument("--dist", default=None,
                       help=f"comma list of innovation families (default "
                            f"{_FLAG_DEFAULTS['dist']}): "
                            + ", ".join(f.value for f in InnovationFamily))
    p_sim.add_argument("--reps", type=int, default=500, help="replications per cell (default 500)")
    p_sim.add_argument("--past", type=int, default=None,
                       help=f"burn-in length (default {_FLAG_DEFAULTS['past']})")
    p_sim.add_argument("--process", choices=["ar1", "wstar"], default=None,
                       help=f"generator family (default {_FLAG_DEFAULTS['process']})")
    p_sim.add_argument("--p", type=int, default=None, help="prime for the wstar process")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="worker processes for replications (default 1)")
    p_sim.add_argument("--experiment", default=None,
                       help="JSON experiment file of cells; takes none of "
                            + ", ".join(f"--{name}" for name in _FILE_CELL_FLAGS)
                            + "; --reps and --past are the defaults of cells without "
                              "reps or past")
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
