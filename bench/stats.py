"""Order statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
from statistics import median

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def supported_percentile(samples, q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when the sample is too small.

    "Too small" means fewer than ``MIN_BEYOND`` samples lie beyond the
    percentile (p95 needs 200 samples, p50 needs 20): a tail read off
    three points is noise with a name.  Nearest-rank, no interpolation,
    so the value is always one that was measured.
    """
    n = len(samples)
    if n * min(q, 100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    return ordered[min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))]


def cycle_percentile(per_cycle: list[list[float]], q: float) -> float | None:
    """Median over cycles of each cycle's ``q``-th percentile.

    The pooled sample decides whether the percentile is supported at all
    (``MIN_BEYOND``); the value is taken per cycle and then as the median
    over cycles, like the rates, because one cycle caught in a slow phase
    of the machine would otherwise own the pooled upper tail.
    """
    pooled = [sample for cycle in per_cycle for sample in cycle]
    if supported_percentile(pooled, q) is None:
        return None
    values = []
    for cycle in per_cycle:
        if cycle:
            ordered = sorted(cycle)
            rank = math.ceil(q / 100.0 * len(ordered)) - 1
            values.append(ordered[min(len(ordered) - 1, max(0, rank))])
    return median(values)


def rate_median(work: list[float], seconds: list[float]) -> float | None:
    """Median over cycles of ``work / seconds`` (robust to wall spikes)."""
    rates = [w / s for w, s in zip(work, seconds) if s > 0]
    return median(rates) if rates else None
