"""Benchmark of rpgauss: rejection-rate cells and single-series CLI tests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each workload is a closed loop with one caller: the next call
starts when the previous one has returned. Inputs (cell master seeds, CLI
input files) are derived from ``--seed``.

With ``--trace 0`` the run measures the end-to-end metrics declared in
BENCHMARK.json. With ``--trace 1`` it traces every other call, reports the
per-layer metrics of the traced calls and the tracing overhead against the
untraced ones, and writes the spans to ``perfbench/out/``.

Every run checks the outputs; a failed check, an errored replication or a
non-zero CLI exit code counts as failed. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
exit code is 1 when anything failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
OUT = HERE / "out"

ALPHA = 0.05
SETUP_REPEATS = 15


def load_rpgauss():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "rpgauss" / "__init__.py").is_file():
        sys.exit("error: no rpgauss package in src/ of this checkout")
    sys.path.insert(0, str(SRC))
    import rpgauss
    from rpgauss import (cli, epps, exceptions, fdr, lobato_velasco, rng, rp, series,
                         simulation)
    if Path(rpgauss.__file__).resolve().parent != (SRC / "rpgauss").resolve():
        sys.exit(f"error: imported rpgauss from {rpgauss.__file__}, not from src/")
    return types.SimpleNamespace(cli=cli, epps=epps, exceptions=exceptions, fdr=fdr,
                                 lobato_velasco=lobato_velasco, rng=rng, rp=rp,
                                 series=series, simulation=simulation)


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


class Tally:
    """Counts attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        self.add(1, 0 if ok else 1, note)


def master_seed(seed: int, k: int) -> int:
    """Master seed of the program's input for call k of a run."""
    return seed * 1_000_003 + k


def _in_unit_interval(p) -> bool:
    return isinstance(p, float) and 0.0 <= p <= 1.0


def check_combination(rg, combined, parts, tally: Tally, where: str) -> None:
    """An RP report's combined p-value is the FDR combination of its parts."""
    ok = (bool(parts) and all(_in_unit_interval(p) for p in parts)
          and _in_unit_interval(combined) and combined == rg.fdr.combined_p(parts))
    tally.check(ok, f"{where}: combined_p {combined!r} does not combine {list(parts)!r}")


def check_cli_report(rg, text: str, n: int, tally: Tally, where: str) -> None:
    """The JSON printed by ``rpgauss test --test RP`` is a consistent report."""
    try:
        report = json.loads(text)
        result = report["result"]
        parts = [proj["p_value"] for proj in result["projections"]]
        combined = result["combined_p"]
    except (ValueError, KeyError, TypeError) as exc:
        tally.check(False, f"{where}: unreadable report ({exc!r})")
        return
    tally.check(report.get("n") == n and result.get("p_value") == combined,
                f"{where}: report n={report.get('n')!r} or p_value disagrees")
    check_combination(rg, combined, parts, tally, where)


def check_traced(rg, rec: spans.Recorder | None, tally: Tally, where: str) -> None:
    """Check, then forget, the RP reports captured by the tracer."""
    if rec is None:
        return
    for combined, parts in rec.reports:
        check_combination(rg, combined, parts, tally, where)
    rec.reports = []


class Cell:
    """One rejection_rate call of `reps` replications per operation. The
    first measured cell is recomposed replication by replication at the end."""

    unit = "replications"

    def __init__(self, make_process, test: str, reps: int, workers: int):
        self.make_process = make_process
        self.test = test
        self.reps = reps
        self.workers = workers
        self.results = {}

    def prepare(self, rg, seed: int) -> None:
        self.process = self.make_process(rg)
        self.results = {}

    def first_call(self, rg, seed: int) -> None:
        rg.simulation.rejection_rate(self.make_process(rg), self.test, reps=1, alpha=ALPHA,
                                     rng=rg.rng.RngStream(seed), workers=self.workers)

    def op(self, rg, seed: int, k: int, tally: Tally, rec, timer) -> int:
        """Run and check cell k inside ``timer``; returns replications done."""
        try:
            with timer:
                stream = rg.rng.RngStream(master_seed(seed, k))
                res = rg.simulation.rejection_rate(self.process, self.test, reps=self.reps,
                                                   alpha=ALPHA, rng=stream, workers=self.workers)
        except Exception as exc:  # a failed cell is counted, and the loop goes on
            tally.add(self.reps, self.reps, f"cell {k}: {exc!r}")
            check_traced(rg, rec, tally, f"cell {k}")
            return 0
        tally.add(self.reps, res.errors, f"cell {k}: {res.errors} replications errored")
        tally.check(res.reps + res.errors == self.reps and 0.0 <= res.rate <= 1.0
                    and res.rate == res.rejected / res.reps,
                    f"cell {k}: inconsistent result {res!r}")
        check_traced(rg, rec, tally, f"cell {k}")
        if not self.results:
            self.results[k] = res
        return res.reps

    def finish(self, rg, seed: int, tally: Tally) -> None:
        """Recompose the first measured cell replication by replication:
        rng.for_replication(i) -> simulate -> compute_p_value."""
        kind, k_pairs = rg.simulation.parse_test_kind(self.test)
        errors = (rg.exceptions.DegenerateSeriesError, rg.exceptions.NumericalError)
        for k, res in self.results.items():
            master = rg.rng.RngStream(master_seed(seed, k))
            p_values = []
            for i in range(self.reps):
                stream = master.for_replication(i)
                try:
                    path = rg.simulation.simulate(self.process, stream)
                    p_values.append(rg.simulation.compute_p_value(path, kind, stream,
                                                                  k_pairs=k_pairs))
                except errors:
                    continue
            rejected = sum(p <= ALPHA for p in p_values)
            tally.check(all(_in_unit_interval(p) for p in p_values)
                        and len(p_values) == res.reps and rejected == res.rejected
                        and rejected / len(p_values) == res.rate,
                        f"cell {k}: recomposed rate {rejected}/{len(p_values)} "
                        f"differs from {res.rate!r}")


class CliTest:
    """One in-process ``rpgauss test --test RP`` call per operation, each on a
    freshly written file of an AR(1) path with lognormal innovations."""

    unit = "CLI tests"

    def __init__(self, n: int, q: float, past: int = 1000):
        self.n = n
        self.q = q
        self.past = past

    def write_series(self, seed: int, k: int) -> Path:
        import numpy as np

        x = np.exp(np.random.default_rng([seed, k]).standard_normal(self.past + self.n)).tolist()
        for t in range(1, len(x)):
            x[t] += self.q * x[t - 1]
        path = WORK / f"series_{seed}_{k}.txt"
        path.write_text("\n".join(map(repr, x[self.past:])) + "\n")
        return path

    def argv(self, path: Path, seed: int, k: int) -> list[str]:
        return ["test", "--input", str(path), "--test", "RP",
                "--seed", str(master_seed(seed, k))]

    def call(self, rg, argv: list[str]) -> tuple[int, str, str]:
        """(exit code, standard output, standard error) of one CLI call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rg.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def probe_path(self, seed: int) -> Path:
        return WORK / f"series_{seed}_probe.txt"

    def prepare(self, rg, seed: int) -> None:
        WORK.mkdir(exist_ok=True)
        self.write_series(seed, 0).rename(self.probe_path(seed))

    def first_call(self, rg, seed: int) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rg.cli.main(self.argv(self.probe_path(seed), seed, 0))

    def op(self, rg, seed: int, k: int, tally: Tally, rec, timer) -> int:
        """Run and check CLI call k inside ``timer``; returns calls done."""
        path = self.write_series(seed, k)
        argv = self.argv(path, seed, k)
        where = f"call {k}"
        try:
            with timer:
                code, out, err = self.call(rg, argv)
        except Exception as exc:  # a crashed call is counted, and the loop goes on
            tally.check(False, f"{where}: {exc!r}")
            return 0
        finally:
            path.unlink()
        tally.check(code == 0, f"{where}: exit code {code}: {err.strip()}")
        if code != 0:
            return 0
        check_cli_report(rg, out, self.n, tally, where)
        check_traced(rg, rec, tally, where)
        return 1

    def finish(self, rg, seed: int, tally: Tally) -> None:
        """Two same-seed calls print byte-identical JSON."""
        path = self.probe_path(seed)
        try:
            first = self.call(rg, self.argv(path, seed, 0))
            second = self.call(rg, self.argv(path, seed, 0))
        finally:
            path.unlink()
        tally.check(first[0] == 0 and first == second,
                    "two same-seed CLI calls printed different output")


def _rp_n100(rg):
    return rg.simulation.Ar1Process(q=0.5, innovation=rg.rng.InnovationFamily.STD_NORMAL, n=100)


def _wstar_n1000(rg):
    return rg.simulation.WstarProcess(p=5, n=1000)


# Cells run at the size the program serves: 500 replications, the default of
# `rpgauss simulate --reps`. A run holds only a few of them, so the tail of a
# cell's call time falls back to its median (see stats.tail); the tail of the
# replication times is a per-layer metric of the traced run.
CELL_REPS = 500

WORKLOADS = {
    "rp_cell_n100": Cell(_rp_n100, "RP", reps=CELL_REPS, workers=1),
    "rp_cell_n100_w2": Cell(_rp_n100, "RP", reps=CELL_REPS, workers=2),
    "rp_test_n10000": CliTest(n=10000, q=0.9),
    "g_cell_wstar_n1000": Cell(_wstar_n1000, "G", reps=CELL_REPS, workers=1),
}


# -- machine speed -----------------------------------------------------------------
#
# On a shared virtual machine the same call can take 1.6 times longer, for a
# fraction of a second up to minutes at a time, and the guest sees no steal
# time. While a call is timed, an interval timer interrupts it every
# REF_INTERVAL_S to time a fixed reference kernel, which slows down with the
# machine. A call's wall time, less the time spent in the kernel, is rescaled
# to the speed at which the kernel takes REF_NOMINAL_S, by the machine's mean
# speed (the harmonic mean of the kernel times) sampled during the call and up
# to REF_WINDOW_S around it. The raw wall times are printed beside the
# rescaled ones.

REF_NOMINAL_S = 0.002   # about the kernel's time on a 2.1 GHz x86-64 core
REF_INTERVAL_S = 0.1
REF_WINDOW_S = 0.5


def reference_seconds() -> float:
    """Time of a fixed mix of interpreted arithmetic and small numpy matrix
    products, the two kinds of work rpgauss spends its time in."""
    import numpy as np

    a = np.arange(400.0).reshape(4, 100)
    t0 = time.perf_counter()
    x = 0.0
    for i in range(15000):
        x += math.sin(i * 0.001)
    for _ in range(300):
        a @ a.T
    return time.perf_counter() - t0


class Timer:
    """Wall time of one call, less the reference samples taken inside it."""

    def __init__(self, clock: "SpeedClock"):
        self.clock = clock
        self.start = self.end = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self.clock.active = True
        self._spent = self.clock.spent
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.clock.active = False
        self.elapsed = self.end - self.start - (self.clock.spent - self._spent)


class SpeedClock:
    """Samples the reference kernel every REF_INTERVAL_S of wall time while a
    Timer is open. Use it as a context manager around the timed loop."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, kernel seconds)
        self.spent = 0.0  # seconds spent sampling inside open timers
        self.active = False

    def _tick(self, signum, frame) -> None:
        if self.active:
            t0 = time.perf_counter()
            self.samples.append((t0, reference_seconds()))
            self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, timer: Timer) -> float:
        """Harmonic mean of the kernel times around the timed call, or over
        the whole run when no sample fell near it."""
        lo, hi = timer.start - REF_WINDOW_S, timer.end + REF_WINDOW_S
        near = [ref for t, ref in self.samples if lo <= t <= hi]
        return statistics.harmonic_mean(near or [ref for _, ref in self.samples]
                                        or [reference_seconds()])


def rescale(latencies: list[float], refs: list[float]) -> list[float]:
    """Each latency at nominal machine speed."""
    return [latency * REF_NOMINAL_S / ref for latency, ref in zip(latencies, refs)]


def measure(workload, rg, seed: int, seconds: float, tally: Tally, rec=None):
    """Closed loop for `seconds`. With a recorder, every other call is traced,
    and there are at least two calls. Returns one (traced, latency, units
    done, reference time) row per call."""
    calls = []
    min_calls = 1 if rec is None else 2
    with SpeedClock() as clock:
        deadline = time.perf_counter() + seconds
        k = 1
        while len(calls) < min_calls or time.perf_counter() < deadline:
            traced = rec is not None and k % 2 == 0
            patches = []
            if traced:
                rec.op = k
                patches = spans.install(rec, rg)
            timer = Timer(clock)
            try:
                done = workload.op(rg, seed, k, tally, rec if traced else None, timer)
            finally:
                spans.uninstall(patches)
            calls.append((traced, timer, done))
            k += 1
    return [(traced, timer.elapsed, done, clock.reference(timer))
            for traced, timer, done in calls]


# -- set-up time in fresh interpreters ---------------------------------------------
#
# Set-up is mostly imports: reading, mapping and linking files, work that the
# arithmetic reference kernel above does not track. Each set-up probe is
# paired with a fresh interpreter that only imports numpy, and the probe's
# time is rescaled to the speed at which that import takes IMPORT_NOMINAL_S.

IMPORT_NOMINAL_S = 0.075  # about numpy 2.4's import time on that same core
IMPORT_REFERENCE = ("import time; t0 = time.perf_counter(); import numpy; "
                    "print(repr(time.perf_counter() - t0))")


def probe(name: str, seed: int) -> float:
    """Import rpgauss and make the workload's first call; seconds taken."""
    t0 = time.perf_counter()
    rg = load_rpgauss()
    WORKLOADS[name].first_call(rg, seed)
    return time.perf_counter() - t0


def fresh_interpreter(code: str, *args: str) -> float | None:
    """Seconds printed by ``code`` in a fresh interpreter; None if it failed."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        print(f"fresh interpreter exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    return float(proc.stdout.split()[-1])


def setup_times(name: str, seed: int, tally: Tally) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh interpreters: (raw, rescaled by the numpy
    import measured just before each)."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import run; " \
           "print(repr(run.probe(sys.argv[2], int(sys.argv[3]))))"
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        ref = fresh_interpreter(IMPORT_REFERENCE)
        elapsed = fresh_interpreter(code, str(HERE), name, str(seed))
        tally.check(ref is not None and elapsed is not None, "a set-up probe failed")
        if ref is not None and elapsed is not None:
            raw.append(elapsed)
            scaled.append(elapsed * IMPORT_NOMINAL_S / ref)
    return raw, scaled


# -- environment -------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
    }


# -- runs ----------------------------------------------------------------------------

def run_untraced(name: str, rg, seed: int, seconds: float, tally: Tally) -> dict:
    workload = WORKLOADS[name]
    workload.prepare(rg, seed)
    setup_raw, setup = setup_times(name, seed, tally)
    workload.first_call(rg, seed)  # warm-up, not timed
    rows = measure(workload, rg, seed, seconds, tally)
    workload.finish(rg, seed, tally)

    raw = [latency for _, latency, _, _ in rows]
    refs = [ref for *_, ref in rows]
    latencies = rescale(raw, refs)
    units = sum(done for _, _, done, _ in rows)
    pct, tail_s = stats.tail(latencies)
    print(f"{len(rows)} calls, {units} {workload.unit} in {sum(raw):.3f} s of wall time; "
          f"reference median {statistics.median(refs) * 1e3:.4f} ms "
          f"(nominal {REF_NOMINAL_S * 1e3:g} ms)")
    print(f"wall time, not rescaled: throughput {units / sum(raw):.6g}/s, "
          f"call p50 {statistics.median(raw) * 1e3:.6g} ms, "
          f"call p{stats.tail(raw)[0]:g} {stats.tail(raw)[1] * 1e3:.6g} ms, "
          f"set-up {setup_raw} s")
    print(f"call_ms_tail is p{pct:g} of {len(latencies)} samples")
    return {
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "throughput_per_s": units / sum(latencies),
        "call_ms_p50": statistics.median(latencies) * 1e3,
        "call_ms_tail": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(name: str, rg, seed: int, seconds: float, tally: Tally) -> dict:
    workload = WORKLOADS[name]
    workload.prepare(rg, seed)
    workload.first_call(rg, seed)  # warm-up, not timed
    rec = spans.Recorder()
    # Traced and untraced calls alternate, so that both see the same changes
    # in machine speed and their difference is the tracing overhead.
    rows = measure(workload, rg, seed, seconds, tally, rec)
    workload.finish(rg, seed, tally)

    refs = [ref for *_, ref in rows]
    latencies = rescale([latency for _, latency, _, _ in rows], refs)
    timed = {False: [0.0, 0], True: [0.0, 0]}  # traced? -> [seconds, units]
    for (traced, _, done, _), latency in zip(rows, latencies):
        timed[traced][0] += latency
        timed[traced][1] += done
    (u_time, u_units), (t_time, t_units) = timed[False], timed[True]
    u_rate, t_rate = u_units / u_time, t_units / t_time
    # Span times are rescaled by the run's median reference time. They include
    # the reference samples taken inside them, about 2.5% of the traced time.
    speed = REF_NOMINAL_S / statistics.median(refs)
    metrics = spans.per_layer_metrics(rec, t_units, speed)
    metrics["trace.overhead_pct"] = (u_rate - t_rate) / u_rate * 100.0
    shares = spans.self_time_shares(rec, t_units, speed)

    print(f"untraced {u_rate:.3f}/s, traced {t_rate:.3f}/s over {t_units} units; "
          f"traced self times sum to {sum(ms for _, ms, _ in shares):.4f} ms per unit "
          f"against {1e3 / u_rate:.4f} ms untraced; by layer:")
    for layer, ms, share in shares:
        print(f"  {layer:<42} {ms:10.4f} ms {100 * share:6.2f} %")
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans_{name}_seed{seed}.jsonl")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    rg = load_rpgauss()
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    print("environment:", json.dumps(environment(), sort_keys=True))
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    values = run(args.workload, rg, args.seed, args.seconds, tally)
    if set(values) != set(declared):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from "
                           f"BENCHMARK.json {sorted(declared)}")

    for note in tally.notes[:20]:
        print("FAILED:", note)
    print(f"fail_frac {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} attempted)")
    for metric, value in values.items():
        print(f"{metric:<44} {value:14.6g} {declared[metric]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": declared[metric]}
                    for metric, value in values.items()},
    }))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
