"""Arithmetic shared by the report and the spread check: medians,
percentiles, quartile spreads and span self time."""

import statistics


def median(xs):
    return statistics.median(xs)


def percentile(xs, p):
    """The p-th percentile (0..100), interpolating linearly between the two
    closest ranks of the sorted sample."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of an empty sample")
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartile_spread(xs):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as `statistics.quantiles(xs, n=4)` gives them."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0
    end = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Span id -> its duration minus the part of it its direct children
    cover. Spans are dicts with id, parent, start_ns and end_ns."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    return {s["id"]: (s["end_ns"] - s["start_ns"])
            - covered(children.get(s["id"], []), s["start_ns"], s["end_ns"])
            for s in spans}
