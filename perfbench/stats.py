"""Tail percentile shared by the benchmark and its tracer."""

from __future__ import annotations

import math
import statistics

# Tail percentiles tried from the highest down; the first one with at least
# ten samples beyond it is reported. The steps are a decade apart, so that
# a run's percentile stays put when its call count changes by up to 10x.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile (nearest rank) with
    at least ten samples above it; the median when there are too few."""
    v = sorted(values)
    n = len(v)
    for pct in TAIL_LADDER:
        rank = math.ceil(n * pct / 100.0)
        if n - rank >= TAIL_BEYOND:
            return pct, float(v[rank - 1])
    return 50.0, statistics.median(v)
