"""Summary statistics shared by the harness and ``compare.py``."""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def headline(values, stat) -> float:
    """A metric's headline value: the median, or the ``stat``-th
    percentile."""
    return statistics.median(values) if stat == "median" else percentile(values, stat)


def tail_percentile(values):
    """``(p, value)`` for the highest percentile on :data:`TAIL_LADDER`
    with at least ten samples above its rank, or ``None`` when there
    are fewer than twenty samples."""
    n = len(values)
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100 * n)) >= 10:
            return p, percentile(values, p)
    return None


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; both equal the value itself for a single sample."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when the
    median is 0)."""
    mid = statistics.median(values)
    if not mid:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(mid)
