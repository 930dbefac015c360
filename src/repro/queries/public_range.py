"""Public range queries over private data (Section 6.2.2, Figure 6a).

An untrusted party (say, an administrator) asks "how many mobile users are
inside window Q?".  The server stores only cloaked regions, so each private
object contributes *probabilistically*: under the paper's stated assumption
that the exact location is uniform inside the cloaked region, object ``i``
with region ``R_i`` lies in Q with probability

    p_i = area(R_i ∩ Q) / area(R_i).

The naive alternative the paper criticises — treat every overlapping region
as a full member — is provided as :func:`naive_range_count` and is the
baseline of experiment E7 (on the paper's own Figure 6a it answers 5 where
the probabilistic answer is 2.7).
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.stores import PrivateStore
from repro.geometry.rect import Rect
from repro.queries.probabilistic import CountAnswer


def _axis_fraction(lo: float, hi: float, window_lo: float, window_hi: float) -> float:
    """Fraction of the uniform mass on [lo, hi] falling inside the window.

    A zero-length side is an exact coordinate: fraction is 0 or 1 by
    (inclusive) containment.
    """
    if hi == lo:
        return 1.0 if window_lo <= lo <= window_hi else 0.0
    overlap = min(hi, window_hi) - max(lo, window_lo)
    return min(1.0, max(0.0, overlap) / (hi - lo))


def membership_probability(region: Rect, window: Rect) -> float:
    """P(an object uniform in ``region`` lies inside ``window``).

    Computed per axis and multiplied, which (a) equals the area ratio for
    proper rectangles, (b) treats regions degenerate in one axis as the
    1-D uniform segments they are (the area ratio would be 0/0), and (c)
    survives denormal sides whose area product underflows to zero.
    """
    return _axis_fraction(
        region.min_x, region.max_x, window.min_x, window.max_x
    ) * _axis_fraction(region.min_y, region.max_y, window.min_y, window.max_y)


def _axis_fractions(
    lo: np.ndarray, hi: np.ndarray, window_lo: float, window_hi: float
) -> np.ndarray:
    """Vectorised :func:`_axis_fraction` over aligned side arrays.

    Applies the identical operation sequence (clamp, divide, clamp), so
    each element is bit-identical to the scalar function's result.
    """
    length = hi - lo
    overlap = np.minimum(hi, window_hi) - np.maximum(lo, window_lo)
    safe_length = np.where(length > 0.0, length, 1.0)
    proper = np.minimum(1.0, np.maximum(0.0, overlap) / safe_length)
    degenerate = ((window_lo <= lo) & (lo <= window_hi)).astype(np.float64)
    return np.where(length > 0.0, proper, degenerate)


def membership_probabilities(bounds: np.ndarray, window: Rect) -> np.ndarray:
    """Vectorised :func:`membership_probability` for many regions at once.

    Args:
        bounds: ``(n, 4)`` array of ``(min_x, min_y, max_x, max_y)`` rows
            (the layout of :meth:`PrivateStore.snapshot_arrays`).
        window: the public query window.

    Returns:
        Array of ``n`` per-region inclusion probabilities, each equal to
        the scalar :func:`membership_probability` of the same region.
    """
    fx = _axis_fractions(bounds[:, 0], bounds[:, 2], window.min_x, window.max_x)
    fy = _axis_fractions(bounds[:, 1], bounds[:, 3], window.min_y, window.max_y)
    return fx * fy


def public_range_count(store: PrivateStore, window: Rect) -> CountAnswer:
    """Probabilistic count of private objects inside ``window``.

    Returns a :class:`CountAnswer` carrying all three of the paper's answer
    formats (expected value, interval, exact PMF).  Objects whose region
    does not touch ``window`` have probability zero and are omitted.
    """
    # Every id returned by the store intersects the window, so each one is
    # geometrically possible and belongs in the answer — including regions
    # that merely touch the window (probability 0 under the uniform model,
    # but still a legitimate "possible" member for the interval format).
    probabilities: dict[Hashable, float] = {
        object_id: membership_probability(store.region_of(object_id), window)
        for object_id in store.overlapping(window)
    }
    return CountAnswer(probabilities)


def naive_range_count(store: PrivateStore, window: Rect) -> int:
    """The paper's criticised baseline: count every overlapping region.

    "Dealing with each object as a non-zero size object would return five
    as the query answer, which is totally inaccurate."
    """
    return len(store.overlapping(window))


def exact_range_count(
    exact_locations: dict[Hashable, "object"], window: Rect
) -> int:
    """Ground truth count from exact locations (evaluation only).

    The server never has this information; the experiment harness uses it
    to score the probabilistic answers.
    """
    return sum(1 for p in exact_locations.values() if window.contains_point(p))
