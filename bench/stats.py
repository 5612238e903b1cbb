"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

#: percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_values, p: float) -> float:
    """p-th percentile (0 < p <= 100) of ascending values, nearest-rank method."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail_percentile(values) -> tuple[str, float] | None:
    """Highest ladder percentile with MIN_BEYOND samples beyond it.

    Returns (label, value), the label spelled as in metric names ("p99",
    "p99.9"), or None when even the lowest rung lacks the samples.
    """
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if samples_beyond(len(ordered), p) >= MIN_BEYOND:
            return f"p{p:g}", nearest_rank(ordered, p)
    return None


def relative_spread(values) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
