"""Wide oracle sweep of the Gaussian-CF fit (not collected by pytest).

    PYTHONPATH=src python tests/fit_sweep.py [--seed S] [--per-cell R]

Fits the CF statistic on random-frequency projections of AR(1) q=0.5 paths:
{normal, lognormal, chisq1} innovations x n in {100, 1000} x both Beta plans,
R fits per cell (150 by default, 1800 fits), and compares each n * Q with
the brute-force minimum of `oracles.dense_grid_fit`. Prints the number of
fits that end more than 1e-6 above it, the worst gap and the model
evaluations per fit, and exits 1 on any miss.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from oracles import dense_grid_fit
from rpgauss import Ar1Process, InnovationFamily, RngStream, epps
from rpgauss.epps import draw_lambda, empirical_cf_vector, pseudo_inverse, spectral_density_at_zero
from rpgauss.projection import StickBreakingParams, draw_projection_vector, project_series
from rpgauss.simulation import simulate_ar1

FAMILIES = {"normal": InnovationFamily.STD_NORMAL, "lognormal": InnovationFamily.STD_LOGNORMAL,
            "chisq1": InnovationFamily.CHI_SQ_1}
PLANS = ((100.0, 1.0), (2.0, 7.0))
TOLERANCE = 1e-6


def fit_cases(seed: int, per_cell: int):
    """(label, n, fit arguments) for every projected series of the sweep."""
    rng = RngStream(seed)
    stream_id = 0
    for name, family in FAMILIES.items():
        for n in (100, 1000):
            proc = Ar1Process(q=0.5, innovation=family, n=n, past=1000)
            for alpha1, alpha2 in PLANS:
                params = StickBreakingParams(alpha1, alpha2, n_cap=n)
                for _ in range(per_cell):
                    stream = rng.for_replication(stream_id)
                    stream_id += 1
                    y = project_series(simulate_ar1(proc, stream),
                                       draw_projection_vector(params, stream))
                    gamma0 = y.autocovariance(0)
                    lam = draw_lambda(gamma0, "random", stream)
                    g_plus = pseudo_inverse(2.0 * math.pi * spectral_density_at_zero(y, lam))
                    label = f"{name} n={n} Beta({alpha1:g},{alpha2:g})"
                    yield label, n, (empirical_cf_vector(y, lam), g_plus, lam, y.mean(), gamma0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1717)
    parser.add_argument("--per-cell", type=int, default=150)
    args = parser.parse_args(argv)

    evaluations = [0]
    checked_q = epps._checked_q

    def counted(q):
        evaluations[0] += 1
        return checked_q(q)

    epps._checked_q = counted
    gaps, counts, misses = [], [], []
    start = time.perf_counter()
    for label, n, case in fit_cases(args.seed, args.per_cell):
        evaluations[0] = 0
        _, _, q_fit = epps._fit_gaussian_cf(*case)
        counts.append(evaluations[0])
        _, _, q_grid = dense_grid_fit(case[0], case[1], case[2].values, case[3], case[4])
        gaps.append(n * (q_fit - q_grid))
        if gaps[-1] > TOLERANCE:
            misses.append((label, gaps[-1]))
    epps._checked_q = checked_q

    for label, gap in misses:
        print(f"miss: {label}: n*Q {gap:.3g} above the oracle")
    print(f"fits: {len(gaps)} (seed {args.seed})")
    print(f"misses above {TOLERANCE:g} in n*Q: {len(misses)}")
    print(f"worst n*Q gap (fit - oracle): {max(gaps):.3g}; lowest: {min(gaps):.3g}")
    print(f"model evaluations per fit: mean {np.mean(counts):.1f}, "
          f"median {np.median(counts):.0f}, max {max(counts)}")
    print(f"wall time: {time.perf_counter() - start:.1f} s")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
