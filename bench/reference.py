"""The co-measured reference kernel: times are reported machine-normalised.

This sandbox's single-thread speed wanders by about +-20 % on a
seconds timescale (host neighbours; CPU time wanders with wall time, so
it is clock speed, not steal).  A 12 s measurement can sit entirely
inside a fast or a slow phase, and medians over its cycles then move
with the machine, not with the program: raw run-to-run spreads of
10-35 % were measured, above every bound the benchmark wants to hold.

So every timed interval is bracketed by two runs of a small fixed
kernel -- interpreter work, allocation, JSON encoding and a numpy sort,
the same instruction mix as the program -- and its duration is scaled by
``NOMINAL_S / mean(kernel before, kernel after)``: the time the interval
would have taken with the machine in its usual state.  A program change
moves the interval and not the kernel, so gains and regressions read
through unchanged; a machine phase moves both and cancels.  Raw wall
times stay in the run artifact next to the scaled ones.
"""

from __future__ import annotations

from json import dumps
from time import perf_counter

import numpy as np

#: What one kernel run takes on this sandbox in its usual state (the
#: median of 3 000 runs spread over two minutes: 9.7 ms).  A constant, so that
#: scaled times remain seconds and repeat across runs; on another
#: machine every scaled time shifts by one common factor.
NOMINAL_S = 0.0097

_BLOCK = np.random.default_rng(0).uniform(0.0, 1000.0, 60_000)


class _Probe:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def kernel() -> int:
    table: dict[str, _Probe] = {}
    total = 0
    for i in range(2600):
        key = f"u{i % 257}"
        probe = table[key] = _Probe(i * 0.5, i * 0.25)
        total += len(dumps({"user": key, "x": probe.x, "y": probe.y}, sort_keys=True))
    block = _BLOCK.copy()
    block.sort()
    return total + int(block[0])


def sample() -> float:
    """Seconds one kernel run takes right now."""
    started = perf_counter()
    kernel()
    return perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor that turns a wall duration bracketed by two samples into
    its machine-normalised duration."""
    return NOMINAL_S / ((before + after) / 2.0)
