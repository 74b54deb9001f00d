import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rpgauss import InnovationFamily, RngStream
from rpgauss.rng import sample_innovations
from rpgauss.cli import main, read_values


def _write_series(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


def _normal_file(tmp_path, seed=1, n=1000, name="data.txt"):
    vals = RngStream(seed).standard_normal(n)
    return _write_series(tmp_path / name, vals)


# -- input parsing ----------------------------------------------------------------

def test_read_plain_column(tmp_path):
    path = _write_series(tmp_path / "x.txt", range(10))
    assert read_values(path).tolist() == [float(v) for v in range(10)]


def test_read_skips_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("value\n1\n2\n3\n4\n5\n6\n7\n8\n")
    assert read_values(str(p)).tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_read_rejects_multi_column(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1, 2, 3, 4\n5, 6, 7, 8\n")
    with pytest.raises(ValueError, match="line 1"):
        read_values(str(p))


def test_read_single_column_csv(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("value,\n" + "".join(f"{v}.5,\n" for v in range(8)))
    assert read_values(str(p)).tolist() == [v + 0.5 for v in range(8)]


def test_read_errors_name_the_file_line(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("value\n1\n\n2\n3\n4,5\n6\n7\n8\n9\n")
    with pytest.raises(ValueError, match="line 6"):
        read_values(str(p))
    p.write_text("1\n\n2\nhello\n4\n5\n6\n7\n8\n")
    with pytest.raises(ValueError, match="line 4"):
        read_values(str(p))


def test_read_rejects_short_input(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("1\n2\n3\n4\n5\n")
    with pytest.raises(ValueError):
        read_values(str(p))


def test_read_rejects_mid_file_garbage(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("1\n2\nhello\n4\n5\n6\n7\n8\n")
    with pytest.raises(ValueError):
        read_values(str(p))


def test_read_rejects_digit_grouping(tmp_path, capsys):
    # float() reads "1_000" as 1000; a data file must not
    p = tmp_path / "x.txt"
    p.write_text("1\n2\n1_000\n4\n5\n6\n7\n8\n9\n")
    with pytest.raises(ValueError, match="line 3"):
        read_values(str(p))
    p.write_text("1_000\n2\n3\n4\n5\n6\n7\n8\n9\n")  # not taken for a header
    with pytest.raises(ValueError, match="line 1"):
        read_values(str(p))
    p.write_text("1\n2\n3\n4\n5\n6,\n7\n8\n9_0,\n")
    assert main(["test", "--input", str(p), "--test", "G"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "line 9" in captured.err
    p.write_text("my_value\n1\n2\n3\n4\n5\n6\n7\n8\n")  # a header may hold '_'
    assert read_values(str(p)).tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_read_rejects_nan(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("\n".join(["1"] * 10 + ["nan"]))
    with pytest.raises(ValueError):
        read_values(str(p))


def test_read_ignores_byte_order_mark(tmp_path):
    # a BOM must not turn the first value into a skipped "header"
    for header in ("", "value\n"):
        text = header + "".join(f"{v}.25\n" for v in range(20))
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert read_values(str(marked)).tolist() == read_values(str(plain)).tolist()
        assert len(read_values(str(marked))) == 20


def test_read_rejects_empty_file(tmp_path):
    p = tmp_path / "x.txt"
    for text in ("", "\n", " \n\t\n\n"):
        p.write_text(text)
        with pytest.raises(ValueError, match="input file is empty"):
            read_values(str(p))


def test_read_bare_lines_equal_the_line_parser(tmp_path):
    # one pass over bare values, or the line-by-line parser for a file with a
    # header, commas and blank lines: the same floats
    values = [repr(v) for v in RngStream(3).standard_normal(50).tolist()] + ["1e308", "-0.0"]
    bare, mixed = tmp_path / "bare.txt", tmp_path / "mixed.txt"
    bare.write_text("\n".join(values) + "\n")
    mixed.write_text("value\n" + "\n".join(f" {v}," for v in values) + "\n\n")
    got = read_values(str(bare))
    assert got.tobytes() == read_values(str(mixed)).tobytes()
    assert got.tolist() == [float(v) for v in values]


# -- test command -----------------------------------------------------------------

def test_cmd_test_short_file_exits_2(tmp_path, capsys):
    p = tmp_path / "short.txt"
    p.write_text("1\n2\n3\n4\n5\n")
    assert main(["test", "--input", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_cmd_test_multi_column_file_exits_2(tmp_path, capsys):
    p = tmp_path / "pairs.csv"
    p.write_text("1,2\n3,4\n5,6\n7,8\n")
    assert main(["test", "--input", str(p), "--test", "G"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cmd_test_constant_file_exits_2(tmp_path, capsys):
    path = _write_series(tmp_path / "const.txt", [3.0] * 100)
    assert main(["test", "--input", path, "--test", "G"]) == 2


@pytest.mark.parametrize("scale, kinds, code, message", [
    # f_hat_k's float ** overflowed into an OverflowError traceback
    (1e40, ("G", "GE", "RP"), 3, "long-run variance estimator f4_hat overflowed"),
    (1e150, ("G", "RP"), 3, "long-run variance estimator f3_hat overflowed"),
    # the variance overflowed to inf: RuntimeWarnings, then misleading messages
    (1e170, ("E", "G", "GE", "RP"), 3, "sample variance overflowed"),
    # the squares underflowed: "constant input", or a subnormal variance used
    (1e-155, ("E", "G", "RP"), 2, "sample variance underflowed"),
    (1e-170, ("E", "G", "GE", "RP"), 2, "sample variance underflowed"),
    # "long-run variance estimator vanished (constant series?)"
    (1e-60, ("G", "RP"), 2, "long-run variance estimator f3_hat underflowed"),
])
def test_cmd_test_extreme_scales_fail_by_name(tmp_path, capsys, scale, kinds, code, message):
    path = _write_series(tmp_path / "scaled.txt", RngStream(1).standard_normal(200) * scale)
    for kind in kinds:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            assert main(["test", "--input", path, "--test", kind]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err, (kind, captured.err)


def test_cmd_test_large_scale_still_runs_the_cf_test(tmp_path, capsys):
    # the CF test is scale-free and has no fourth powers: E still runs at 1e150
    path = _write_series(tmp_path / "scaled.txt", RngStream(1).standard_normal(200) * 1e150)
    assert main(["test", "--input", path, "--test", "E"]) == 0
    assert 0.0 <= json.loads(capsys.readouterr().out)["result"]["p_value"] <= 1.0


def test_cmd_test_cf_p_value_is_scale_free_near_the_smallest_variance(tmp_path, capsys):
    # random frequencies near 1e153 were squared and overflowed: p = 0.0587 at
    # 10^-153.6 against 0.0357 at 10^-153.7, with a RuntimeWarning
    p_values = []
    for exponent in (-153.6, -153.7):
        path = _write_series(tmp_path / f"scaled{exponent}.txt",
                             RngStream(1).standard_normal(200) * 10.0 ** exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", "--input", path, "--test", "E", "--epps-lambda", "random",
                         "--seed", "5"]) == 0
        p_values.append(json.loads(capsys.readouterr().out)["result"]["p_value"])
    assert p_values[1] == pytest.approx(p_values[0], rel=1e-9, abs=0.0)


def test_cmd_test_missing_file_exits_2(tmp_path, capsys):
    assert main(["test", "--input", str(tmp_path / "nope.txt")]) == 2


def test_cmd_test_json_report(tmp_path, capsys):
    path = _normal_file(tmp_path, n=300)
    assert main(["test", "--input", path, "--test", "RP", "--seed", "9"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["n"] == 300
    assert report["seed"] == 9
    assert len(report["result"]["projections"]) == 4
    assert 0.0 <= report["result"]["p_value"] <= 1.0


def test_cmd_test_all_kinds(tmp_path, capsys):
    path = _normal_file(tmp_path, n=200)
    for kind in ("E", "G", "GE", "RP", "RPmulti:3"):
        assert main(["test", "--input", path, "--test", kind]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["result"]["p_value"] <= 1.0


def test_cmd_test_epps_lambda_override(tmp_path, capsys):
    path = _normal_file(tmp_path, n=200)
    assert main(["test", "--input", path, "--test", "E", "--epps-lambda", "random"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["epps"]["mode"] == "random"


def test_cmd_test_bad_projection_count(tmp_path, capsys):
    # checked for every kind, not only where RP reads it
    path = _normal_file(tmp_path, n=200)
    for kind, count in (("RP", "5"), ("G", "7"), ("E", "-2"), ("RPmulti:3", "5")):
        argv = ["test", "--input", path, "--test", kind, "--projections", count]
        assert main(argv) == 2, kind
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--projections" in captured.err


def test_cmd_test_bad_alpha_exits_2(tmp_path, capsys):
    path = _normal_file(tmp_path, n=200)
    for alpha in ("7", "nan", "inf", "0", "-0.1"):
        for kind in ("G", "RP"):
            assert main(["test", "--input", path, "--test", kind, "--alpha", alpha]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "alpha" in captured.err


def test_cmd_test_non_finite_c_exits_2(tmp_path, capsys):
    path = _normal_file(tmp_path, n=200)
    for c in ("inf", "nan", "-inf"):
        for kind in ("G", "RP"):
            assert main(["test", "--input", path, "--test", kind, f"--c={c}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "c must be finite and positive" in captured.err


def test_cmd_test_huge_c_clamps_tau(tmp_path, capsys):
    # c * sqrt(n) overflows to inf; tau is clamped to n - 1 as for any c beyond n
    path = _normal_file(tmp_path, n=200)
    for c in ("1e308", "1e6"):
        assert main(["test", "--input", path, "--test", "G", "--c", c]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["lv"]["tau"] == 199


def test_cmd_test_deterministic_output(tmp_path, capsys):
    path = _normal_file(tmp_path, n=400)
    argv = ["test", "--input", path, "--test", "RP", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cmd_test_rp_leaves_numpy_ma_unloaded():
    # importing numpy.ma costs a fresh interpreter milliseconds and a
    # megabyte or more; no step of `rpgauss test --test RP` needs it
    series = Path(__file__).parent / "golden" / "series.txt"
    script = ("import contextlib, io, sys\n"
              "from rpgauss.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    assert main(['test', '--input', {str(series)!r}, '--test', 'RP']) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cmd_test_null_calibration(tmp_path, capsys):
    # seeded standard-normal files: the combined p-value rarely falls below .01
    clear = 0
    for seed in range(100):
        path = _normal_file(tmp_path, seed=seed, n=1000, name=f"n{seed}.txt")
        assert main(["test", "--input", path, "--seed", str(seed)]) == 0
        report = json.loads(capsys.readouterr().out)
        if report["result"]["p_value"] > 0.01:
            clear += 1
    assert clear >= 95


def test_cmd_test_lognormal_power(tmp_path, capsys):
    hits = 0
    for seed in range(100):
        vals = sample_innovations(InnovationFamily.STD_LOGNORMAL, 1000, RngStream(seed))
        path = _write_series(tmp_path / f"ln{seed}.txt", vals)
        assert main(["test", "--input", path, "--seed", str(seed)]) == 0
        report = json.loads(capsys.readouterr().out)
        if report["result"]["p_value"] < 0.05:
            hits += 1
    assert hits >= 95


# -- simulate command ---------------------------------------------------------------

def test_cmd_simulate_single_cell(capsys):
    argv = ["simulate", "--test", "G", "--n", "100", "--q", "0", "--dist", "normal",
            "--reps", "25", "--past", "100", "--seed", "5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "q,dist,test,n,reps,rate,se"
    fields = lines[1].split(",")
    assert fields[:5] == ["0.0", "normal", "G", "100", "25"]


def test_cmd_simulate_rep_one_rate_binary(capsys):
    argv = ["simulate", "--test", "G", "--n", "64", "--reps", "1", "--past", "50"]
    assert main(argv) == 0
    rate = capsys.readouterr().out.strip().splitlines()[1].split(",")[5]
    assert float(rate) in (0.0, 1.0)


def test_cmd_simulate_deterministic(capsys):
    argv = ["simulate", "--test", "GE", "--n", "100", "--q", "0,0.5",
            "--dist", "normal,uniform", "--reps", "10", "--past", "100", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    # 2 q values x 2 dists -> 4 cells
    assert len(first.strip().splitlines()) == 5


def test_cmd_simulate_wstar(capsys):
    argv = ["simulate", "--process", "wstar", "--p", "5", "--test", "G",
            "--n", "100", "--reps", "10"]
    assert main(argv) == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert line.startswith(",wstar(p=5),G,100,10,")


def test_cmd_simulate_wstar_needs_p(capsys):
    assert main(["simulate", "--process", "wstar", "--test", "G", "--n", "100"]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--process", "wstar", "--p", "5", "--q", "0.9", "--dist", "lognormal", "--past", "7"],
     "--process wstar takes no --q, --dist, --past"),
    (["--process", "wstar", "--p", "5", "--past", "1000"], "--process wstar takes no --past"),
    (["--process", "wstar", "--p", "5", "--dist", "normal"], "--process wstar takes no --dist"),
    (["--process", "ar1", "--p", "5"], "--process ar1 takes no --p"),
    (["--p", "5"], "--process ar1 takes no --p"),
])
def test_cmd_simulate_rejects_flags_of_the_other_process(flags, message, capsys):
    argv = ["simulate", "--test", "G", "--n", "64", "--reps", "2", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cmd_simulate_bad_dist(capsys):
    assert main(["simulate", "--dist", "cauchy", "--n", "50", "--reps", "5"]) == 2


def test_cmd_simulate_experiment_file(tmp_path, capsys):
    experiment = {
        "seed": 17,
        "alpha": 0.05,
        "cells": [
            {"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G",
             "reps": 10, "past": 50},
            {"process": "wstar", "p": 3, "n": 64, "test": "G", "reps": 10},
        ],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(experiment))
    assert main(["simulate", "--experiment", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "normal"
    assert lines[2].split(",")[1] == "wstar(p=3)"


def test_cmd_simulate_malformed_experiment(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text("[1, 2, 3]")
    assert main(["simulate", "--experiment", str(path)]) == 2


def _simulated_row(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out.strip().splitlines()[1].split(",")


def test_cmd_simulate_projections_sets_rp_size(capsys):
    base = ["simulate", "--n", "64", "--q", "0.5", "--dist", "chisq10",
            "--reps", "40", "--past", "50", "--seed", "23"]
    wide = _simulated_row(base + ["--test", "RP", "--projections", "8"], capsys)
    multi = _simulated_row(base + ["--test", "RPmulti:4"], capsys)
    assert wide == multi
    assert wide[2] == "RPmulti:4"
    default = _simulated_row(base + ["--test", "RP"], capsys)
    assert default[2] == "RP"
    assert default[5] != wide[5]   # the cell is large enough to tell 4 from 8 projections


def test_cmd_simulate_bad_projection_count(capsys):
    for test, count in (("G,RP", "5"), ("G,RP", "0"), ("G", "3")):
        argv = ["simulate", "--test", test, "--n", "64", "--reps", "2", "--past", "50",
                "--projections", count]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--projections" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("flags, cell", [
    (["--q", "0,1.0"], "cell 2"),
    (["--n", "100,5"], "cell 2"),
    # a value every cell shares is blamed on its flag, not on a cell
    (["--alpha", "1.5"], "--alpha"),
    (["--alpha", "nan"], "--alpha"),
    (["--reps", "0"], "cell 1"),
    (["--workers", "0"], "--workers"),
    (["--workers", "-5"], "--workers"),
    (["--process", "wstar", "--p", "9"], "cell 1"),
])
def test_cmd_simulate_bad_cell_fails_before_output(flags, cell, capsys):
    # no --past: it would be rejected with --process wstar before any cell
    argv = ["simulate", "--test", "G", "--n", "64", "--reps", "2", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cell} ")


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "0"], "--alpha must lie in (0, 1], got 0.0"),
    (["--workers", "0"], "--workers must be positive, got 0"),
    (["--projections", "3"], "--projections must be an even number >= 2, got 3"),
    (["--c", "nan"], "c must be finite and positive, got nan"),
])
@pytest.mark.parametrize("source", ["flags", "experiment"])
def test_cmd_simulate_run_flag_is_named_not_a_cell(tmp_path, capsys, flags, message, source):
    if source == "flags":
        argv = ["simulate", "--test", "G", "--n", "64", "--reps", "2", *flags]
    else:
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"seed": 1, "cells": [
            {"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": 2}]}))
        argv = ["simulate", "--experiment", str(path), *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("alpha", [0, 1.5, -0.5])
def test_cmd_simulate_experiment_alpha_out_of_range_names_the_key(tmp_path, capsys, alpha):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"alpha": alpha, "cells": [
        {"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": 2}]}))
    assert main(["simulate", "--experiment", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: alpha of the experiment file must lie in (0, 1], "
                            f"got {float(alpha)!r}\n")


@pytest.mark.parametrize("flags", [
    ["--process", "wstar"], ["--process", "ar1"], ["--p", "5"], ["--q", "0.9"],
    ["--dist", "lognormal"], ["--n", "5000"], ["--test", "RP"],
    ["--process", "wstar", "--p", "5", "--q", "0.9", "--dist", "lognormal", "--n", "5000",
     "--test", "RP"],
])
def test_cmd_simulate_experiment_rejects_cell_flags(tmp_path, capsys, flags):
    # the cells of the file set these; a flag beside it would be ignored
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"seed": 1, "cells": [
        {"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": 2}]}))
    assert main(["simulate", "--experiment", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    named = [flag for flag in flags if flag.startswith("--")]
    assert captured.err == f"error: --experiment takes no {', '.join(named)} " \
                           "(the cells of the experiment file set them)\n"


@pytest.mark.parametrize("keys, flags, named", [
    ({"seed": 3}, ["--seed", "99"], "--seed"),
    ({"alpha": 0.5}, ["--alpha", "0.1"], "--alpha"),
    ({"seed": 3, "alpha": 0.5}, ["--alpha", "0.1", "--seed", "99"], "--seed, --alpha"),
])
def test_cmd_simulate_experiment_rejects_a_flag_its_file_sets(tmp_path, capsys, keys, flags,
                                                               named):
    # the file's value would silently replace the flag's
    cell = {"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": 40}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**keys, "cells": [cell]}))
    assert main(["simulate", "--experiment", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --experiment takes no {named} "
                            f"(the experiment file sets {named.replace('--', '')})\n")


def test_cmd_simulate_experiment_keeps_the_flags_its_file_does_not_set(tmp_path, capsys):
    cell = {"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": 40}
    path = tmp_path / "exp.json"
    rows = []
    for keys, flags in (({"seed": 3}, ["--alpha", "0.1"]), ({"alpha": 0.1}, ["--seed", "3"])):
        path.write_text(json.dumps({**keys, "cells": [cell]}))
        assert main(["simulate", "--experiment", str(path), *flags]) == 0
        rows.append(capsys.readouterr().out)
    argv = ["simulate", "--q", "0", "--n", "64", "--test", "G", "--reps", "40", "--seed", "3",
            "--alpha", "0.1"]
    assert main(argv) == 0
    assert rows == [capsys.readouterr().out] * 2


def test_cmd_simulate_experiment_takes_reps_and_past_as_defaults(tmp_path, capsys):
    cell = {"process": "ar1", "q": 0.5, "dist": "normal", "n": 64, "test": "G"}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"seed": 4, "cells": [cell, {**cell, "reps": 5, "past": 80}]}))
    assert main(["simulate", "--experiment", str(path), "--reps", "3", "--past", "80"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[4] for row in rows] == ["3", "5"]
    # the flag's past is the first cell's: its rate is the one of the cell's own past 80
    argv = ["simulate", "--q", "0.5", "--n", "64", "--test", "G", "--reps", "3", "--past", "80",
            "--seed", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",") == rows[0]


@pytest.mark.parametrize("c", ["inf", "nan"])
def test_cmd_simulate_non_finite_c_fails_before_output(c, capsys):
    argv = ["simulate", "--test", "G", "--n", "64", "--reps", "2", "--past", "50", "--c", c]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c must be finite and positive" in captured.err


@pytest.mark.parametrize("bad, message", [
    ({"process": "ar1", "q": 0.0, "dist": "normal", "test": "G"}, "missing key 'n'"),
    ({"process": "wstar", "n": 64, "test": "G"}, "missing key 'p'"),
    ({"process": "arma", "q": 0.0, "dist": "normal", "n": 64, "test": "G"}, "unknown process"),
    ({"process": "ar1", "q": None, "dist": "normal", "n": 64, "test": "G"}, "cell 2"),
    ({"process": "ar1", "q": 0.0, "dist": 5, "n": 64, "test": "G"}, "cell 2"),
    ("G", "cell 2 of the experiment file is not a JSON object"),
    ({"process": "ar1", "q": 0.0, "dist": "normal", "n": 64.7, "test": "G"},
     "n must be an integral number, got 64.7"),
    ({"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": 2.5},
     "reps must be an integral number, got 2.5"),
    ({"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": True},
     "reps must be an integral number, got true"),
    ({"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "past": 50.5},
     "past must be an integral number, got 50.5"),
    ({"process": "wstar", "p": 5.5, "n": 64, "test": "G"}, "p must be an integral number"),
    ({"process": "wstar", "p": 5, "n": "64", "test": "G"}, "n must be an integral number"),
    ({"process": "ar1", "q": "0.5", "dist": "normal", "n": 64, "test": "G"},
     'q must be a number, got "0.5"'),
    ({"process": "ar1", "q": True, "dist": "normal", "n": 64, "test": "G"},
     "q must be a number, got true"),
    ({"process": "ar1", "q": 10**400, "dist": "normal", "n": 64, "test": "G"},
     "q must be a number, got 1000"),
    # sizes are bounded before anything is allocated or printed
    ({"process": "ar1", "q": 0.0, "dist": "normal", "n": 10**11, "test": "G"},
     "past + n must be at most 10000000"),
    ({"process": "ar1", "q": 0.0, "dist": "normal", "n": 10**30, "test": "G"},
     "past + n must be at most 10000000"),
    ({"process": "ar1", "q": 0.0, "dist": "normal", "n": 10**7 - 999, "test": "G",
      "past": 1000}, "past + n must be at most 10000000, got 10000001"),
    ({"process": "wstar", "p": 5, "n": 10**7 + 1, "test": "G"},
     "n must be at most 10000000"),
    ({"process": "wstar", "p": 2**89 - 1, "n": 64, "test": "G"}, "p must be at most"),
    # a key outside the cell's process is rejected, not ignored
    ({"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "repz": 7},
     "unknown key 'repz' (ar1 cells take process, q, dist, n, test, reps, past)"),
    ({"q": 0.0, "dist": "normal", "n": 64, "test": "G", "alpha": 0.5}, "unknown key 'alpha'"),
    ({"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "p": 5},
     "unknown key 'p'"),
    ({"process": "wstar", "p": 5, "n": 64, "test": "G", "past": 50},
     "unknown key 'past' (wstar cells take process, p, n, test, reps)"),
    ({"process": "wstar", "p": 5, "n": 64, "test": "G", "q": 0.9, "dist": "lognormal"},
     "unknown key 'q', 'dist'"),
])
def test_cmd_simulate_bad_experiment_cell(tmp_path, capsys, bad, message):
    good = {"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": 2}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"seed": 1, "cells": [good, bad]}))
    assert main(["simulate", "--experiment", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cell 2" in captured.err and message in captured.err


def test_cmd_simulate_experiment_rejects_unknown_top_level_key(tmp_path, capsys):
    cell = {"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": 7}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"seed": 3, "alpah": 0.5, "cells": [cell]}))
    assert main(["simulate", "--experiment", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown key 'alpah' (it takes seed, alpha, cells)" in captured.err


def test_cmd_simulate_experiment_seed_is_integral(tmp_path, capsys):
    cell = {"process": "ar1", "q": 0.0, "dist": "normal", "n": 64, "test": "G", "reps": 4}
    path = tmp_path / "exp.json"
    rows = []
    for seed, n in ((3, 64), (3.0, 64.0)):  # an integral float is the same number
        path.write_text(json.dumps({"seed": seed, "cells": [{**cell, "n": n}]}))
        assert main(["simulate", "--experiment", str(path)]) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]
    for seed in (2.5, True, "3"):
        path.write_text(json.dumps({"seed": seed, "cells": [cell]}))
        assert main(["simulate", "--experiment", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be an integral number" in captured.err


def test_cmd_simulate_experiment_alpha_is_a_number(tmp_path, capsys):
    cell = {"process": "ar1", "q": 0, "dist": "normal", "n": 64, "test": "G", "reps": 4}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"seed": 3, "alpha": 0.5, "cells": [cell]}))
    assert main(["simulate", "--experiment", str(path)]) == 0
    assert capsys.readouterr().out.count("\n") == 2
    for alpha in (True, "0.05"):
        path.write_text(json.dumps({"seed": 3, "alpha": alpha, "cells": [cell]}))
        assert main(["simulate", "--experiment", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"alpha must be a number, got {json.dumps(alpha)}" in captured.err
