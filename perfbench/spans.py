"""In-memory span recorder and the wrappers that put it around rpgauss.

Every wrapper is installed at the module (or class) attribute where the
calling code looks the function up, so the package itself is not edited:
``rpgauss.rp.epps_test`` is the name ``rp_test`` calls, and so on. A span
records its name, start, end, parent span and trace identifier (the
benchmark operation and, inside a rejection-rate cell, the replication
index). Counters record work done at the same boundaries. Spans stay in
memory until ``Recorder.write`` is called at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import Counter, defaultdict

import stats

REPLICATION = "simulation.replication"
CELL = "simulation.rejection_rate"


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace", "thread")

    def __init__(self, name, start, parent, trace, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.trace = trace
        self.thread = thread


class Recorder:
    """Collects spans and counters from every thread that runs traced code.

    The pool threads of ``rejection_rate`` start with an empty span stack;
    their replication spans take the enclosing cell span as parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0                    # benchmark operation index, set by the caller
        self.cell: Span | None = None  # the open rejection_rate span, if any
        self.cell_workers: list[tuple[Span, int]] = []
        self.reports: list[tuple[float, tuple[float, ...]]] = []
        self._stacks: dict[int, list[Span]] = {}  # thread ident -> open spans
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name: str, trace=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.cell
        if trace is None:
            trace = parent.trace if parent is not None else (self.op, None)
        span = Span(name, time.perf_counter_ns(), parent, trace, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def end_replication(self) -> None:
        """Close the replication span left open by ``for_replication``."""
        stack = self._stack()
        if stack and stack[-1].name == REPLICATION:
            self.close(stack[-1])

    def close_since(self, first: int, end: int) -> None:
        """Close, at time ``end``, every span from index ``first`` on that is
        still open, on any thread, and drop them from the open-span stacks."""
        for span in self.spans[first:]:
            if span.end is None:
                span.end = end
        for stack in self._stacks.values():
            stack[:] = [span for span in stack if span.end is None]

    def count(self, name: str, amount: int = 1) -> None:
        try:
            counter = self._local.counter
        except AttributeError:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        counter[name] += amount

    def counts(self) -> Counter:
        total = Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    def write(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": None if s.parent is None else ids.get(id(s.parent)),
                    "trace": list(s.trace), "thread": s.thread}) + "\n")


# -- wrappers --------------------------------------------------------------------

def _spanned(rec: Recorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(args, kwargs, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _counted(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def _lag_window(n: int) -> int:
    # floor(n^(2/5)), the lag cap of spectral_density_at_zero
    c = int(n ** 0.4)
    while (c + 1) ** 5 <= n * n:
        c += 1
    while c ** 5 > n * n:
        c -= 1
    return c


def spectral_flops(n: int, n_freq: int) -> int:
    """Multiply-add flops of the lag-window sum: 2 (2N)^2 per lagged product."""
    rows = 2 * n_freq
    cap = _lag_window(n)
    products = n + sum(n - i for i in range(1, min(cap, n)))
    return 2 * rows * rows * products


def install(rec: Recorder, rg) -> list:
    """Wrap the layer boundaries; returns what ``uninstall`` needs to undo it.

    ``rg`` is a namespace holding the rpgauss modules (cli, simulation, rp,
    epps, lobato_velasco, rng, series).
    """
    patches = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def keep_report(args, kwargs, report):
        rec.reports.append((report.combined_p, tuple(report.p_values())))

    def count_sticks(args, kwargs, direction):
        rec.count("projection.draws")
        rec.count("projection.sticks", direction.sticks.size)

    def count_flops(args, kwargs, _):
        y, lam = args[0], args[1]
        rec.count("epps.spectral.calls")
        rec.count("epps.spectral.flops", spectral_flops(y.n, lam.count))

    for mod in (rg.cli, rg.simulation, rg.rp):
        patch(mod, "epps_test", _spanned(rec, "epps.epps_test", mod.epps_test))
        patch(mod, "lv_test", _spanned(rec, "lobato_velasco.lv_test", mod.lv_test))
        patch(mod, "combined_p", _spanned(rec, "fdr.combined_p", mod.combined_p))
    for mod in (rg.cli, rg.simulation):
        patch(mod, "rp_test_multi", _spanned(rec, "rp.rp_test_multi", mod.rp_test_multi))
    patch(rg.cli, "main", _spanned(rec, "cli.main", rg.cli.main))
    patch(rg.cli, "run_test_command",
          _spanned(rec, "cli.run_test_command", rg.cli.run_test_command))
    patch(rg.cli, "read_values", _spanned(rec, "cli.read_values", rg.cli.read_values))
    patch(rg.rp, "rp_test", _spanned(rec, "rp.rp_test", rg.rp.rp_test, keep_report))
    patch(rg.rp, "draw_projection_vector",
          _spanned(rec, "projection.draw_projection_vector", rg.rp.draw_projection_vector,
                   count_sticks))
    patch(rg.rp, "project_series",
          _spanned(rec, "projection.project_series", rg.rp.project_series))
    patch(rg.epps, "minimize_q", _spanned(rec, "epps.minimize_q", rg.epps.minimize_q))
    patch(rg.epps, "empirical_cf_vector",
          _spanned(rec, "epps.empirical_cf_vector", rg.epps.empirical_cf_vector))
    patch(rg.epps, "spectral_density_at_zero",
          _spanned(rec, "epps.spectral_density_at_zero", rg.epps.spectral_density_at_zero,
                   count_flops))
    patch(rg.epps, "pseudo_inverse", _spanned(rec, "epps.pseudo_inverse", rg.epps.pseudo_inverse))
    patch(rg.epps, "gaussian_cf_vector",
          _counted(rec, "epps.gaussian_cf_vector", rg.epps.gaussian_cf_vector))
    for mod in (rg.epps, rg.lobato_velasco):
        patch(mod, "chi_square_sf", _spanned(rec, "special.chi_square_sf", mod.chi_square_sf))
    patch(rg.series.Series, "autocovariance",
          _counted(rec, "series.autocovariance", rg.series.Series.autocovariance))

    stream_init = rg.rng.RngStream.__init__

    def rng_init(self, *args, **kwargs):
        rec.count("rng.streams")
        span = rec.open("rng.RngStream")
        try:
            stream_init(self, *args, **kwargs)
        finally:
            rec.close(span)

    patch(rg.rng.RngStream, "__init__", rng_init)

    # A replication has no function of its own (it is a closure inside
    # rejection_rate): it runs from for_replication(i) until compute_p_value
    # returns, until simulate or compute_p_value raises, until the same thread
    # starts the next replication, or at the latest until the cell ends.
    for_replication = rg.rng.RngStream.for_replication

    def start_replication(self, index):
        rec.end_replication()
        rec.open(REPLICATION, trace=(rec.op, index))
        return for_replication(self, index)

    patch(rg.rng.RngStream, "for_replication", start_replication)

    simulate = rg.simulation.simulate

    def traced_simulate(*args, **kwargs):
        span = rec.open("simulation.simulate")
        try:
            path = simulate(*args, **kwargs)
        except BaseException:
            rec.close(span)
            rec.end_replication()
            raise
        rec.close(span)
        return path

    patch(rg.simulation, "simulate", traced_simulate)

    compute_p_value = rg.simulation.compute_p_value

    def traced_compute_p_value(*args, **kwargs):
        span = rec.open("simulation.compute_p_value")
        try:
            p = compute_p_value(*args, **kwargs)
        finally:
            rec.close(span)
            rec.end_replication()
        return p

    patch(rg.simulation, "compute_p_value", traced_compute_p_value)

    rejection_rate = rg.simulation.rejection_rate

    def traced_rejection_rate(*args, **kwargs):
        first = len(rec.spans)
        span = rec.open(CELL)
        rec.cell = span
        rec.cell_workers.append((span, kwargs.get("workers", 1)))
        try:
            return rejection_rate(*args, **kwargs)
        finally:
            rec.cell = None
            rec.close(span)
            rec.close_since(first, span.end)

    patch(rg.simulation, "rejection_rate", traced_rejection_rate)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(s)] = s.end - s.start - covered
    return out


def layer_table(rec: Recorder) -> dict[str, dict]:
    """Per span name: calls, total duration and total self time (ns)."""
    selfs = self_times(rec.spans)
    table = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for s in rec.spans:
        row = table[s.name]
        row["calls"] += 1
        row["total_ns"] += s.end - s.start
        row["self_ns"] += selfs[id(s)]
    return dict(table)


def per_layer_metrics(rec: Recorder, units: int, speed: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of the traced calls; ``units`` is the number of
    operations they completed (replications in a cell, CLI calls otherwise)
    and ``speed`` the factor that rescales times to nominal machine speed.

    ``.ms``/``.us`` are mean span durations per call and ``self_ms`` mean self
    times. The fit is minimize_q's self time: the simplex search and its model
    evaluations, which are counted, not spanned. A layer the workload never
    reaches reads 0."""
    table = layer_table(rec)
    counts = rec.counts()

    def mean(name, field, scale):
        row = table.get(name)
        return row[field] / row["calls"] / scale * speed if row else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    fits = table.get("epps.minimize_q", {}).get("calls", 0)
    reps = [s.end - s.start for s in rec.spans if s.name == REPLICATION]
    _, rep_tail = stats.tail(reps) if reps else (None, 0.0)
    busy = sum(reps)
    capacity = sum((span.end - span.start) * workers for span, workers in rec.cell_workers)
    cell_self = table.get(CELL, {}).get("self_ns", 0)
    return {
        "epps.fit.self_ms": mean("epps.minimize_q", "self_ns", 1e6),
        "epps.fit.model_evals": ratio(counts["epps.gaussian_cf_vector"], fits),
        "epps.spectral_density_at_zero.ms": mean("epps.spectral_density_at_zero", "total_ns", 1e6),
        "epps.empirical_cf_vector.ms": mean("epps.empirical_cf_vector", "total_ns", 1e6),
        "epps.pseudo_inverse.ms": mean("epps.pseudo_inverse", "total_ns", 1e6),
        "epps.spectral.flops_computed": ratio(counts["epps.spectral.flops"],
                                              counts["epps.spectral.calls"]),
        "lobato_velasco.lv_test.ms": mean("lobato_velasco.lv_test", "total_ns", 1e6),
        "series.autocovariance.calls": ratio(counts["series.autocovariance"], units),
        "simulation.simulate.ms": mean("simulation.simulate", "total_ns", 1e6),
        "projection.draw_projection_vector.ms":
            mean("projection.draw_projection_vector", "total_ns", 1e6),
        "projection.sticks_per_draw": ratio(counts["projection.sticks"],
                                            counts["projection.draws"]),
        "projection.project_series.ms": mean("projection.project_series", "total_ns", 1e6),
        "rng.streams_per_rep": ratio(counts["rng.streams"], units),
        "rng.RngStream.us": mean("rng.RngStream", "total_ns", 1e3),
        "rp.rp_test.self_ms": mean("rp.rp_test", "self_ns", 1e6),
        "fdr.combined_p.us": mean("fdr.combined_p", "total_ns", 1e3),
        "special.chi_square_sf.us": mean("special.chi_square_sf", "total_ns", 1e3),
        "simulation.rejection_rate.self_ms_per_rep": ratio(cell_self / 1e6, len(reps)) * speed,
        "simulation.replication.ms_p50": statistics.median(reps) / 1e6 * speed if reps else 0.0,
        "simulation.replication.ms_tail": rep_tail / 1e6 * speed,
        "simulation.pool_busy_frac": ratio(busy, capacity),
        "cli.read_values.ms": mean("cli.read_values", "total_ns", 1e6),
        "cli.run_test_command.self_ms": mean("cli.run_test_command", "self_ns", 1e6),
        "cli.emit.ms": mean("cli.main", "self_ns", 1e6),
    }


def self_time_shares(rec: Recorder, units: int,
                     speed: float = 1.0) -> list[tuple[str, float, float]]:
    """(layer, self ms per operation, share of all self time), largest first."""
    table = layer_table(rec)
    total = sum(row["self_ns"] for row in table.values())
    rows = [(name, row["self_ns"] / units / 1e6 * speed,
             row["self_ns"] / total if total else 0.0)
            for name, row in table.items()]
    return sorted(rows, key=lambda r: -r[1])
