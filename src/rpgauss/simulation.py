"""Generators for the experimental processes and the rejection-rate harness.

Two generators: an AR(1) recursion with a configurable innovation family and
a burn-in, and a strictly stationary pairwise-independent process with exact
standard-normal marginal built from modular arithmetic over a prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import rp
from .epps import FIXED, RANDOM, EppsResult, epps_test
from .exceptions import DegenerateSeriesError, NumericalError
from .fdr import combined_p
from .lobato_velasco import LvConfig, LvResult, lv_test
from .rng import InnovationFamily, RngStream, sample_innovations
from .rp import RpReport
from .series import Series
from .special import normal_quantile

# Not called here: perfbench/spans.py patches this name in this module as well.
from .rp import rp_test as rp_test_multi  # noqa: F401

DEFAULT_PAST = 1000
MIN_N = 8  # the shortest series every test accepts
# The most values one path may generate (AR(1): past + n), 80 MB per float
# array, so a mistyped size fails before any output, not in an allocation.
MAX_N = 10**7
# The largest w* p allowed: (p-1)**2 < 2**63, so the levels z0 + k*y0 <= p*(p-1)
# fit in int64.
MAX_P = math.isqrt(2**63 - 1) + 1


@dataclass(frozen=True)
class Ar1Process:
    """X_1 = e_1, X_t = q X_{t-1} + e_t; the first `past` values are discarded."""

    q: float
    innovation: InnovationFamily
    n: int
    past: int = DEFAULT_PAST

    def __post_init__(self):
        if not -1.0 < self.q < 1.0:
            raise ValueError("q must lie in (-1, 1)")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.past < 0:
            raise ValueError("past must be non-negative")
        if self.past + self.n > MAX_N:
            raise ValueError(f"past + n must be at most {MAX_N}, got {self.past + self.n}")


_AR1_BLOCK = 1 << 16  # values per Python-float block of the AR(1) recursion


def simulate_ar1(proc: Ar1Process, rng: RngStream) -> Series:
    """Generate past + n values by the recursion and return the last n.

    The recursion runs on Python floats, one block of at most 2**16 values at
    a time, written back over the innovations in place; the floating-point
    operations are those of x[t] = q * x[t - 1] + eps[t] on the array.
    """
    total = proc.past + proc.n
    x = sample_innovations(proc.innovation, total, rng)
    q = proc.q
    prev = x[0].item()  # X_1 = e_1
    for start in range(1, total, _AR1_BLOCK):
        block = [prev := q * prev + e for e in x[start:start + _AR1_BLOCK].tolist()]
        x[start:start + len(block)] = block
    return Series(x[proc.past:])


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class WstarProcess:
    """Pairwise-independent process with standard-normal marginal, prime p."""

    p: int
    n: int

    def __post_init__(self):
        if self.p > MAX_P:  # checked first: trial division of a huge p never ends
            raise ValueError(f"p must be at most {MAX_P}, got {self.p!r}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.n > MAX_N:
            raise ValueError(f"n must be at most {MAX_N}, got {self.n}")


@dataclass(frozen=True)
class WstarPath:
    """A realized path plus the integer levels it was binned from.

    `levels[j]` is the uniform level in {0..p-1} behind `series.values[j]`;
    `y0` is the block increment and `u` the stationarity shift, kept so the
    block-sum structure can be audited exactly."""

    series: Series
    levels: np.ndarray
    y0: int
    u: int


def simulate_wstar_path(proc: WstarProcess, rng: RngStream) -> WstarPath:
    """Draw the process: per block of length p the levels are z0 + k*y0 mod p,
    shifted by u; level k maps to the normal quantile of (k + u01)/p, an exact
    draw from N(0,1) conditioned between the k/p and (k+1)/p quantiles."""
    p, n = proc.p, proc.n
    y0 = int(rng.integers(p))
    u = int(rng.integers(p))
    blocks = (n + u + p - 1) // p
    starts = np.asarray(rng.integers(p, size=blocks))
    # position j of the concatenated blocks is step j % p of block j // p
    j = np.arange(u, u + n)
    levels = (starts[j // p] + (j % p) * y0) % p
    uniforms = rng.randoms(n)
    args = (levels + uniforms) / p
    values = np.fromiter(map(normal_quantile, args.tolist()), dtype=float, count=n)
    return WstarPath(series=Series(values), levels=levels, y0=y0, u=u)


def simulate_wstar(proc: WstarProcess, rng: RngStream) -> Series:
    return simulate_wstar_path(proc, rng).series


Process = Ar1Process | WstarProcess


def simulate(proc: Process, rng: RngStream) -> Series:
    if isinstance(proc, Ar1Process):
        return simulate_ar1(proc, rng)
    if isinstance(proc, WstarProcess):
        return simulate_wstar(proc, rng)
    raise TypeError(f"unknown process type: {type(proc).__name__}")


def parse_test_kind(text: str) -> tuple[str, int | None]:
    """Parse a test-kind token: E, G, GE, RP, or RPmulti:k (2k projections)."""
    token = text.strip()
    upper = token.upper()
    if upper in ("E", "G", "GE", "RP"):
        return upper, None
    if upper.startswith("RPMULTI:"):
        try:
            k = int(token.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed test kind {text!r}") from None
        if k < 1:
            raise ValueError("RPmulti needs a positive pair count")
        return "RPmulti", k
    raise ValueError(f"unknown test kind {text!r}")


def _label(kind: str, k_pairs: int | None) -> str:
    return f"RPmulti:{k_pairs}" if kind == "RPmulti" else kind


def resolve_test(token: str, projections: int = 4) -> tuple[str, str, int | None]:
    """(label, kind, k_pairs) of a test token. RP runs `projections` (even,
    >= 2) projections, as RPmulti:projections/2 when that is not 4; the label
    is the canonical token of what runs. `projections` is checked for every
    kind, also one that ignores it."""
    if projections % 2 != 0 or projections < 2:
        raise ValueError(f"--projections must be an even number >= 2, got {projections}")
    kind, k_pairs = parse_test_kind(token)
    if kind == "RP" and projections != 4:
        kind, k_pairs = "RPmulti", projections // 2
    return _label(kind, k_pairs), kind, k_pairs


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:  # also false for NaN
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")


@dataclass(frozen=True)
class KindResult:
    """One test kind run on one series: its p-value, the decision at alpha
    (None without alpha) and the results behind them, which only as_dict
    turns into JSON."""

    kind: str
    p_value: float
    reject: bool | None
    epps: EppsResult | None = None
    lv: LvResult | None = None
    rp: RpReport | None = None

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "p_value": self.p_value, "reject": self.reject}
        if self.rp is not None:
            out.update(self.rp.as_dict())
        if self.epps is not None:
            out["epps"] = self.epps.as_dict()
        if self.lv is not None:
            out["lv"] = self.lv.as_dict()
        return out


def run_test(series: Series, kind: str, rng: RngStream, k_pairs: int | None = None,
             epps_mode: str | None = None, lv: LvConfig = LvConfig(),
             alpha: float | None = None) -> KindResult:
    """Run one test kind on one series; the only place that switches on kind.

    E runs the characteristic-function test (fixed frequencies unless
    overridden); G the skewness-kurtosis test; GE combines one random-frequency
    CF test with one skewness-kurtosis test by the FDR rule; RP / RPmulti run
    the projection test with 4 / 2*k_pairs projections.
    """
    if alpha is not None:
        _check_alpha(alpha)
    if kind in ("RP", "RPmulti"):
        if kind == "RPmulti" and k_pairs is None:
            raise ValueError("RPmulti needs k_pairs")
        # through the module, where perfbench/spans.py wraps rp_test
        report = rp.rp_test(series, rng, 2 if kind == "RP" else k_pairs, alpha=alpha,
                            epps_mode=epps_mode or RANDOM, lv=lv)
        return KindResult(_label(kind, k_pairs), report.combined_p, report.reject, rp=report)
    if kind not in ("E", "G", "GE"):
        raise ValueError(f"unknown test kind {kind!r}")
    epps = lv_res = None
    if kind != "G":
        epps = epps_test(series, epps_mode or (FIXED if kind == "E" else RANDOM), rng)
    if kind != "E":
        lv_res = lv_test(series, lv)
    p = combined_p([epps.p_value, lv_res.p_value]) if kind == "GE" else (epps or lv_res).p_value
    return KindResult(kind, p, None if alpha is None else p <= alpha, epps=epps, lv=lv_res)


def compute_p_value(series: Series, kind: str, rng: RngStream,
                    k_pairs: int | None = None, epps_mode: str | None = None,
                    lv: LvConfig = LvConfig()) -> float:
    """p-value of one test kind on one series (see run_test)."""
    return run_test(series, kind, rng, k_pairs, epps_mode, lv).p_value


def check_cell(process: Process, test: str, reps: int, alpha: float,
               workers: int = 1) -> tuple[str, int | None]:
    """Validate a rejection-rate cell before it runs; returns the parsed kind.

    The series must have at least MIN_N values, the shortest every test
    accepts; reps and workers must be positive, and more than one worker
    needs the fork start method.
    """
    if process.n < MIN_N:
        raise ValueError(f"n must be at least {MIN_N}, got {process.n}")
    if reps < 1:
        raise ValueError("reps must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError("workers > 1 needs the fork start method, "
                             "which this platform lacks")
    _check_alpha(alpha)
    return parse_test_kind(test)


@dataclass(frozen=True)
class RateResult:
    rate: float
    se: float
    reps: int
    rejected: int
    errors: int


def _run_replications(indices: range, process: Process, kind: str, k_pairs: int | None,
                      alpha: float, rng: RngStream, epps_mode: str | None,
                      lv: LvConfig) -> list[tuple[bool, bool]]:
    """(rejected, failed) of each replication in `indices`, in that order."""
    outcomes = []
    for i in indices:
        stream = rng.for_replication(i)
        try:
            path = simulate(process, stream)
            p = compute_p_value(path, kind, stream, k_pairs=k_pairs,
                                epps_mode=epps_mode, lv=lv)
            outcomes.append((p <= alpha, False))
        except (DegenerateSeriesError, NumericalError):
            outcomes.append((False, True))
    return outcomes


def rejection_rate(process: Process, test: str, reps: int, alpha: float,
                   rng: RngStream, epps_mode: str | None = None,
                   lv: LvConfig = LvConfig(), workers: int = 1) -> RateResult:
    """Fraction of replications whose p-value is <= alpha, with binomial SE.

    Replication i runs on the stream (master_seed, stream_id=i): the generator
    and the test consume that stream in sequence, so the result depends only
    on the master seed, never on `workers`. Failed replications (degenerate
    series, numerical breakdown) are dropped from the denominator when they
    stay within 1% of reps; beyond that the run aborts.

    With workers > 1 the replications run in min(workers, reps) processes
    forked for this call, worker w taking replications w, w + workers, ...;
    their outcomes are put back in replication order. Fork, not spawn: the
    workers start with the caller's modules loaded instead of importing them
    again, and as with any fork the caller should run no other threads. Any
    other exception in a worker is raised here, as it would be in one
    process. More workers than cores gain nothing.
    """
    kind, k_pairs = check_cell(process, test, reps, alpha, workers)
    run = partial(_run_replications, process=process, kind=kind, k_pairs=k_pairs,
                  alpha=alpha, rng=rng, epps_mode=epps_mode, lv=lv)
    workers = min(workers, reps)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        shards = [range(w, reps, workers) for w in range(workers)]
        outcomes = [None] * reps
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            for shard, shard_outcomes in zip(shards, pool.map(run, shards)):
                outcomes[shard.start::workers] = shard_outcomes
    else:
        outcomes = run(range(reps))

    errors = sum(1 for _, failed in outcomes if failed)
    if errors > 0.01 * reps:
        raise NumericalError(f"{errors} of {reps} replications failed")
    used = reps - errors
    rejected = sum(1 for hit, failed in outcomes if hit and not failed)
    rate = rejected / used
    se = math.sqrt(rate * (1.0 - rate) / used)
    return RateResult(rate=rate, se=se, reps=used, rejected=rejected, errors=errors)
