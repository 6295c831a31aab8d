"""Order statistics used by the benchmark and the comparison report."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples that must lie above a reported percentile


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile.

    Refuses (ValueError) unless at least MIN_BEYOND samples lie beyond it,
    so p90 needs 100 samples and p99 needs 1000.
    """
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(xs)))
    if len(xs) - rank < MIN_BEYOND:
        raise ValueError(f"p{p:g} of {len(xs)} samples has fewer than "
                         f"{MIN_BEYOND} samples beyond it")
    return xs[rank - 1]


def samples_needed(p: float) -> int:
    """Fewest samples for which percentile(values, p) is defined."""
    n = 1
    while n - max(1, math.ceil(p / 100 * n)) < MIN_BEYOND:
        n += 1
    return n


def median_and_quartiles(values):
    """(median, first quartile, third quartile), quartiles as
    statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    med, q1, q3 = median_and_quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
