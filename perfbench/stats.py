"""The benchmark's arithmetic: percentiles, failure shares, parallel
efficiency and run-to-run spread. Kept apart from run.py so that
test_stats.py can pin it without building anything."""

import math
import statistics


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    the two nearest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if pos == lo:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n sorted samples lie strictly above the q-th percentile's
    interpolation position."""
    if n == 0:
        return 0
    return n - 1 - math.floor(q / 100.0 * (n - 1))


def tail_percentile(values, q, min_beyond=10):
    """The q-th percentile and whether at least `min_beyond` samples lie
    beyond it, so that it rests on more than a handful of outliers."""
    return percentile(values, q), samples_beyond(len(values), q) >= min_beyond


def failed_share(attempted, failed):
    """Failed operations (errors plus rejects) over those attempted."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def ok_share(attempted, failed):
    """The end-to-end form of failed_share: operations that succeeded over
    those attempted. It is 1 on a healthy run and never 0 unless every
    operation failed, so its spread and regression bound stay defined."""
    return 1.0 - failed_share(attempted, failed)


def parallel_efficiency(busy_s, threads, wall_s):
    """Summed layer self-time over (threads x wall) of the batch: 1.0 when
    every worker was busy in a layer for the whole batch."""
    if threads < 1 or wall_s <= 0:
        raise ValueError("need at least one thread and a positive wall time")
    return busy_s / (threads * wall_s)


def ratio(num, den):
    """num / den, or 0 when nothing was counted (a layer the workload does
    not reach)."""
    return num / den if den else 0.0


def spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
