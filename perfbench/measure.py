"""Summary statistics and span arithmetic shared by the benchmark and tracer.

Pure functions only: percentiles with the sample-count rule that decides how
many units a run must time, and the interval union behind self time.
"""

import math

__all__ = ["percentile", "tail_count", "min_samples", "union_length", "self_time"]


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (position q*(n-1)),
    the 'inclusive' method of `statistics.quantiles`."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0,1], got {q}")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_count(n: int, q: float) -> int:
    """Samples that sit strictly beyond the q-th percentile's position among
    n sorted samples."""
    if n < 1:
        return 0
    return n - 1 - math.floor(q * (n - 1))


def min_samples(q: float, tail: int = 10) -> int:
    """Smallest sample count that leaves at least `tail` samples beyond the
    q-th percentile, so that percentile may be reported."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must be in [0,1), got {q}")
    n = 1
    while tail_count(n, q) < tail:
        n += 1
    return n


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of [start, end] its children cover."""
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children]
    return (end - start) - union_length(clipped)
