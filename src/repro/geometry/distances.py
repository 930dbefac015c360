"""Distance primitives between points and rectangles.

These are the building blocks of the privacy-aware query processor
(Section 6 of the paper):

* ``min_dist`` / ``max_dist`` between a point and a rectangle drive the
  dominance pruning of public-NN-over-private-data queries (Figure 6b).
* ``min_dist_rects`` / ``max_dist_rects`` drive private-NN-over-public-data
  candidate filtering (Figure 5b) where the query itself is a cloaked
  rectangle.
* ``within_distance_of_rect`` is the *exact* membership test for the
  "rounded rectangle" candidate region of a private range query
  (Figure 5a); ``Rect.expanded`` is its MBR approximation.

The array forms (``axis_gaps``, ``min_dist_axes`` / ``max_dist_axes``,
``hypot_at_most``, ``kth_smallest_hypot``) evaluate the same definitions
over an ``(n, 4)`` bounds column.  The per-axis terms are exact (one
subtraction, ``abs`` and ``max`` each, like the scalar forms), but
``np.hypot`` is not ``math.hypot``: the two differ in the last ulp on a
fraction of a percent of inputs.  So a decision compares squared
distances, which cannot err by more than a few ulps, and every row whose
square lies within a relative :data:`BAND` of the limit is decided by
``math.hypot`` on the row's own terms — the answer is the scalar answer,
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: Relative width of the band around a limit inside which a squared
#: distance is too close to call and ``math.hypot`` decides.  Rounding
#: moves a square by a few parts in 1e16; the band is 1e4 times wider.
BAND = 1e-12
#: Absolute floor of the band, for squares that underflow.
_BAND_FLOOR = 1e-300


def _axis_gap(value: float, lo: float, hi: float) -> float:
    """Distance from ``value`` to the interval ``[lo, hi]`` (0 if inside)."""
    if value < lo:
        return lo - value
    if value > hi:
        return value - hi
    return 0.0


def min_dist(p: Point, r: Rect) -> float:
    """Smallest distance from ``p`` to any point of ``r`` (0 if inside)."""
    dx = _axis_gap(p.x, r.min_x, r.max_x)
    dy = _axis_gap(p.y, r.min_y, r.max_y)
    return math.hypot(dx, dy)


def max_dist(p: Point, r: Rect) -> float:
    """Largest distance from ``p`` to any point of ``r``.

    Attained at the corner of ``r`` farthest from ``p``.
    """
    dx = max(abs(p.x - r.min_x), abs(p.x - r.max_x))
    dy = max(abs(p.y - r.min_y), abs(p.y - r.max_y))
    return math.hypot(dx, dy)


def axis_gaps(values, lo, hi) -> np.ndarray:
    """Array form of :func:`_axis_gap` (broadcasting)."""
    return np.maximum(0.0, np.maximum(np.subtract(lo, values), np.subtract(values, hi)))


def min_dist_axes(p: Point, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(dx, dy)`` that :func:`min_dist` takes the ``hypot`` of, for
    ``p`` against every ``(min_x, min_y, max_x, max_y)`` row of ``bounds``."""
    return (
        axis_gaps(p.x, bounds[:, 0], bounds[:, 2]),
        axis_gaps(p.y, bounds[:, 1], bounds[:, 3]),
    )


def max_dist_axes(p: Point, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(dx, dy)`` of :func:`max_dist`, for every row of ``bounds``."""
    return (
        np.maximum(np.abs(p.x - bounds[:, 0]), np.abs(p.x - bounds[:, 2])),
        np.maximum(np.abs(p.y - bounds[:, 1]), np.abs(p.y - bounds[:, 3])),
    )


def _split(d2: np.ndarray, limit2) -> tuple[np.ndarray, np.ndarray]:
    """``(below, band)`` masks of squares clearly under ``limit2`` and too
    close to it to call; the rest are clearly over.  A limit that is not
    finite puts every row in the band."""
    slack = BAND * limit2 + _BAND_FLOOR
    below = d2 < limit2 - slack
    above = d2 > limit2 + slack
    return below, ~(below | above)


def hypot_at_most(dx: np.ndarray, dy: np.ndarray, limit) -> np.ndarray:
    """Elementwise ``math.hypot(dx, dy) <= limit``, exactly.

    ``limit`` broadcasts against ``dx`` / ``dy``.  Only rows inside the
    confirm band call ``math.hypot``.
    """
    below, band = _split(dx * dx + dy * dy, np.multiply(limit, limit))
    out = below & (np.asarray(limit) >= 0.0)
    rows = np.nonzero(band)
    if rows[0].size:
        limits = np.broadcast_to(limit, band.shape)[rows]
        out[rows] = [
            math.hypot(x, y) <= bound
            for x, y, bound in zip(dx[rows].tolist(), dy[rows].tolist(), limits.tolist())
        ]
    return out


def kth_smallest_hypot(dx: np.ndarray, dy: np.ndarray, k: int) -> float:
    """``sorted(map(math.hypot, dx, dy))[k - 1]``, exactly, for ``1 <= k <= n``.

    The k-th smallest square ``t`` is within rounding of the answer's
    square, so every row clearly below ``t`` ranks before the answer and
    every row clearly above ranks after it: the answer is the right-ranked
    ``math.hypot`` of the rows in the band around ``t``.
    """
    d2 = dx * dx + dy * dy
    below, band = _split(d2, np.partition(d2, k - 1)[k - 1])
    rows = np.flatnonzero(band)
    near = sorted(map(math.hypot, dx[rows].tolist(), dy[rows].tolist()))
    return near[k - 1 - int(np.count_nonzero(below))]


def min_dist_rects(a: Rect, b: Rect) -> float:
    """Smallest distance between any point of ``a`` and any point of ``b``."""
    dx = _axis_gap_intervals(a.min_x, a.max_x, b.min_x, b.max_x)
    dy = _axis_gap_intervals(a.min_y, a.max_y, b.min_y, b.max_y)
    return math.hypot(dx, dy)


def max_dist_rects(a: Rect, b: Rect) -> float:
    """Largest distance between any point of ``a`` and any point of ``b``.

    Attained at a pair of opposite corners.
    """
    dx = max(abs(a.min_x - b.max_x), abs(a.max_x - b.min_x))
    dy = max(abs(a.min_y - b.max_y), abs(a.max_y - b.min_y))
    return math.hypot(dx, dy)


def min_max_dist_rect(a: Rect, b: Rect) -> float:
    """Upper bound on the NN distance from the worst-case point of ``a``.

    ``min_max_dist_rect(a, b)`` = max over points p in ``a`` of
    min over points q in ``b`` of dist(p, q), i.e. the distance from the
    point of ``a`` that is *farthest from the region* ``b`` to its closest
    point of ``b``.  For any point of ``a``, *some* point of ``b`` is within
    this distance.  It is the directed Hausdorff distance from ``a`` to
    ``b`` and gives a sound pruning radius for private NN queries: an
    object farther than ``min_max_dist_rect(query, object_region)`` from
    every point of the query region can never be required.

    For axis-aligned rectangles the maximising point of ``a`` is a corner.
    """
    return max(min_dist(corner, b) for corner in a.corners)


def _axis_gap_intervals(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> float:
    """Distance between the intervals ``[a_lo, a_hi]`` and ``[b_lo, b_hi]``."""
    if a_hi < b_lo:
        return b_lo - a_hi
    if b_hi < a_lo:
        return a_lo - b_hi
    return 0.0


def within_distance_of_rect(p: Point, r: Rect, distance: float) -> bool:
    """Exact test: is ``p`` within ``distance`` of some point of ``r``?

    The set of such points is the Minkowski sum of ``r`` with a disc — the
    paper's "rounded rectangle" of Figure 5a.  The MBR approximation
    (``r.expanded(distance)``) admits extra points near the four rounded
    corners; this predicate does not.
    """
    return min_dist(p, r) <= distance


def rounded_rect_area(r: Rect, distance: float) -> float:
    """Area of the Minkowski sum of ``r`` with a disc of radius ``distance``.

    area(r) + perimeter(r) * d + pi * d^2.  Used to quantify how much the
    MBR approximation over-covers the exact candidate region (ablation A1).
    """
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return r.area + r.perimeter * distance + math.pi * distance * distance
