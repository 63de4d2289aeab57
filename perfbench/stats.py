"""Statistics helpers of the benchmark (tested by test_stats.py).

Latency samples are lists of floats in which a failed or rejected request is
`math.inf`: it misses every latency limit, so it counts as infinitely slow
rather than being dropped from the sample.
"""

import math
import statistics

# A failed request: slower than any limit.
FAILED = math.inf

# Percentiles tried, in increasing order, for the highest reportable tail.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def nearest_rank(values, p):
    """Nearest-rank p-th percentile of `values`, with its sample count.

    Returns (value, count). The rank is ceil(p/100 * count), so the result
    is always one of the samples. An empty sample gives (None, 0).
    """
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    n = len(values)
    if n == 0:
        return None, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return ordered[rank - 1], n


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_tail(values, min_beyond=10, grid=TAIL_GRID):
    """Highest percentile in `grid` with at least `min_beyond` samples
    beyond it, as (p, value, count); (None, None, count) when even the
    median has fewer."""
    n = len(values)
    best = None
    for p in grid:
        if samples_beyond(n, p) >= min_beyond:
            best = p
    if best is None:
        return None, None, n
    value, _ = nearest_rank(values, best)
    return best, value, n


def segmented(values, segments, p):
    """Nearest-rank p-th percentile inside each segment, median across the
    segments. `segments` labels each value (a window iteration or a slice of
    the serving phase); a stall that hits fewer than half of the segments
    does not move the result. Returns (value, segment count)."""
    groups = {}
    for v, seg in zip(values, segments):
        groups.setdefault(seg, []).append(v)
    if not groups:
        return None, 0
    per = [nearest_rank(g, p)[0] for g in groups.values()]
    return statistics.median(per), len(per)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, the way
    statistics.quantiles(values, n=4) cuts them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
