"""Exact order statistics over raw samples.

Percentiles use the nearest-rank definition on the raw per-request samples,
never histogram buckets: the p-th percentile of n sorted samples is the
sample at rank ceil(p/100 * n). Each percentile is reported together with
the number of samples strictly above it, so a reader can see how many
observations the tail rests on.
"""

import math
import statistics

#: Percentiles tried, highest first, when picking the highest one a sample
#: supports (at least ``MIN_BEYOND`` samples above it).
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank percentile of ``samples`` -> ``(value, beyond)``.

    ``beyond`` counts the samples strictly greater than the value. Failed
    requests enter as ``math.inf``, so they sit above every limit.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for s in ordered if s > value)
    return value, beyond


def highest_supported(samples):
    """The highest of ``TAIL_PERCENTILES`` with >= ``MIN_BEYOND`` samples
    above it, as ``(p, value, beyond)``; ``None`` when even p50 has fewer."""
    for p in TAIL_PERCENTILES:
        value, beyond = percentile(samples, p)
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    return None


def quietest(items, noise, share):
    """The ``share`` of ``items`` (at least one) with the least ``noise(item)``,
    in their original order; ties keep the earlier item."""
    keep = max(1, math.ceil(len(items) * share))
    ranked = sorted(range(len(items)), key=lambda i: (noise(items[i]), i))[:keep]
    return [items[i] for i in sorted(ranked)]


def median(samples):
    return statistics.median(samples)

