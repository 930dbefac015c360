"""Vectorised batch kernels over snapshot arrays.

Each kernel evaluates one predicate for a whole batch of queries against
the frozen object arrays at once, replacing per-query index traversals
with a (queries x objects) broadcast.  The work matrix is processed in
row chunks of at most :data:`CHUNK_CELLS` cells so memory stays bounded
(a few tens of MB) no matter how large the batch is.

On top of the broadcast kernels, :class:`PointGrid` bins the snapshot
points into a uniform grid once per snapshot (the payoff of snapshot
reuse) so the hot public-over-public kernels touch only the cells a
query can see instead of every object: ``points_in_windows_grid`` and
``knn_points_grid`` return exactly the same rows as their brute-force
counterparts — the conformance suite holds them to that — while doing
selectivity-proportional work.

Numeric contract: membership decisions agree exactly — not just
approximately — with the per-query path.  Containment and k-NN ranking
apply the same IEEE operation sequence as their scalar counterparts
(``Rect.contains_point``, ``Point.squared_distance_to``).  The radius
test cannot: ``min_dist`` ends in ``math.hypot``, which numpy does not
reproduce bit for bit.  It compares squared distances instead and lets
``math.hypot`` decide every row whose square lies within a relative
:data:`~repro.geometry.distances.BAND` of the squared radius (the
confirm rule of :func:`repro.geometry.distances.hypot_at_most`).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.distances import axis_gaps, hypot_at_most

#: Upper bound on queries x objects cells materialised at once (~32 MB of
#: float64 per chunk).
CHUNK_CELLS = 1 << 22


def _row_chunks(n_queries: int, n_objects: int) -> Iterator[tuple[int, int]]:
    """Yield ``[lo, hi)`` query ranges keeping ``rows * n_objects`` bounded."""
    rows = max(1, CHUNK_CELLS // max(1, n_objects))
    for lo in range(0, n_queries, rows):
        yield lo, min(n_queries, lo + rows)


def _estimate_chunks(estimate: np.ndarray) -> Iterator[tuple[int, int]]:
    """Yield ``[lo, hi)`` ranges whose estimated workloads sum to a chunk.

    Like :func:`_row_chunks` but for kernels whose per-query cost varies
    (grid gathers scale with the query's cell block, not the object
    count); ``estimate[i]`` is query ``i``'s predicted element count.
    """
    total = np.cumsum(estimate)
    lo = 0
    n = len(estimate)
    while lo < n:
        base = total[lo - 1] if lo else 0.0
        hi = int(np.searchsorted(total, base + CHUNK_CELLS, side="left")) + 1
        hi = max(lo + 1, min(hi, n))
        yield lo, hi
        lo = hi


def windows_array(rects: Sequence) -> np.ndarray:
    """Pack ``Rect`` instances into an ``(n, 4)`` float64 bounds array."""
    out = np.empty((len(rects), 4))
    for row, rect in enumerate(rects):
        out[row, 0] = rect.min_x
        out[row, 1] = rect.min_y
        out[row, 2] = rect.max_x
        out[row, 3] = rect.max_y
    return out


def points_in_windows(
    xs: np.ndarray, ys: np.ndarray, windows: np.ndarray
) -> list[np.ndarray]:
    """Rows of points inside each closed query window.

    Args:
        xs / ys: object coordinates, aligned.
        windows: ``(q, 4)`` window bounds.

    Returns:
        One ascending index array per window (snapshot order).
    """
    out: list[np.ndarray] = []
    for lo, hi in _row_chunks(len(windows), xs.size):
        w = windows[lo:hi]
        inside = (
            (xs >= w[:, 0:1])
            & (xs <= w[:, 2:3])
            & (ys >= w[:, 1:2])
            & (ys <= w[:, 3:4])
        )
        out.extend(np.nonzero(row)[0] for row in inside)
    return out


def count_points_in_windows(
    xs: np.ndarray, ys: np.ndarray, windows: np.ndarray
) -> np.ndarray:
    """Point counts per closed query window (same test, counts only).

    The counting form of :func:`points_in_windows` — identical inclusive
    comparisons, so the counts equal ``len(points_in_windows(...)[i])``
    and, by extension, :meth:`repro.cloaking.base.Cloaker.count_in` over
    the same arrays.  Used by the bulk cloaking kernels, where only the
    achieved ``k`` is needed, never the member rows.
    """
    out = np.empty(len(windows), dtype=np.int64)
    for lo, hi in _row_chunks(len(windows), xs.size):
        w = windows[lo:hi]
        inside = (
            (xs >= w[:, 0:1])
            & (xs <= w[:, 2:3])
            & (ys >= w[:, 1:2])
            & (ys <= w[:, 3:4])
        )
        out[lo:hi] = inside.sum(axis=1)
    return out


def points_within_radius(
    xs: np.ndarray,
    ys: np.ndarray,
    regions: np.ndarray,
    radii: np.ndarray,
) -> list[np.ndarray]:
    """Rows of points within ``radii[i]`` of query rectangle ``regions[i]``.

    The exact "rounded rectangle" membership test of a private range
    query: per-axis gap to the rectangle, then ``hypot(dx, dy) <= r``
    decided by :func:`~repro.geometry.distances.hypot_at_most` — the
    vector form of ``min_dist(point, region) <= radius``.
    """
    out: list[np.ndarray] = []
    for lo, hi in _row_chunks(len(regions), xs.size):
        r = regions[lo:hi]
        dx = axis_gaps(xs, r[:, 0:1], r[:, 2:3])
        dy = axis_gaps(ys, r[:, 1:2], r[:, 3:4])
        within = hypot_at_most(dx, dy, radii[lo:hi, None])
        out.extend(np.nonzero(row)[0] for row in within)
    return out


def knn_points(
    xs: np.ndarray,
    ys: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    ks: Sequence[int],
) -> list[np.ndarray]:
    """The ``ks[i]`` nearest points to query ``i``, nearest-first.

    Distance ties are broken by snapshot row (ascending), making the
    answer canonical: any object strictly closer than the last member is
    always included, and equidistant objects win by rank.
    """
    out: list[np.ndarray] = []
    for lo, hi in _row_chunks(len(qx), xs.size):
        d2 = (xs - qx[lo:hi, None]) ** 2 + (ys - qy[lo:hi, None]) ** 2
        for offset, row in enumerate(d2):
            out.append(_smallest_k(row, ks[lo + offset]))
    return out


def _smallest_k(d2: np.ndarray, k: int) -> np.ndarray:
    """Rows of the ``k`` smallest distances, nearest-first, rank ties."""
    n = d2.size
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= n:
        selected = np.arange(n)
    else:
        # argpartition finds the k-smallest cheaply but breaks boundary
        # ties arbitrarily; rebuild the selection as "everything strictly
        # inside the boundary distance, then boundary ties by rank".
        partition = np.argpartition(d2, k - 1)[:k]
        boundary = d2[partition].max()
        strict = np.nonzero(d2 < boundary)[0]
        ties = np.nonzero(d2 == boundary)[0]
        selected = np.concatenate((strict, ties[: k - strict.size]))
    order = np.lexsort((selected, d2[selected]))
    return selected[order]


class PointGrid:
    """Uniform grid over snapshot points, built once and reused per batch.

    Points are bucketed into ``g x g`` cells over their bounding box
    (about ``target_per_cell`` points each) and stored sorted by cell, so
    the points of any rectangular block of cells are a handful of
    contiguous slices of :attr:`order` — the gather that powers the
    grid-accelerated range and k-NN kernels.
    """

    __slots__ = ("xs", "ys", "n", "g", "min_x", "min_y", "inv_w", "inv_h",
                 "cell_w", "cell_h", "order", "starts")

    def __init__(
        self, xs: np.ndarray, ys: np.ndarray, target_per_cell: float = 8.0
    ) -> None:
        self.xs = xs
        self.ys = ys
        self.n = int(xs.size)
        self.g = max(1, int(math.sqrt(self.n / target_per_cell)))
        if self.n == 0:
            self.min_x = self.min_y = 0.0
            self.cell_w = self.cell_h = 1.0
            self.inv_w = self.inv_h = 1.0
            self.order = np.empty(0, dtype=np.intp)
            self.starts = np.zeros(self.g * self.g + 1, dtype=np.intp)
            return
        self.min_x = float(xs.min())
        self.min_y = float(ys.min())
        span_x = float(xs.max()) - self.min_x or 1.0
        span_y = float(ys.max()) - self.min_y or 1.0
        self.cell_w = span_x / self.g
        self.cell_h = span_y / self.g
        self.inv_w = 1.0 / self.cell_w
        self.inv_h = 1.0 / self.cell_h
        cx = np.minimum(((xs - self.min_x) * self.inv_w).astype(np.intp), self.g - 1)
        cy = np.minimum(((ys - self.min_y) * self.inv_h).astype(np.intp), self.g - 1)
        cell = cx * self.g + cy
        self.order = np.argsort(cell, kind="stable")
        counts = np.bincount(cell, minlength=self.g * self.g)
        self.starts = np.concatenate(
            (np.zeros(1, dtype=np.intp), np.cumsum(counts, dtype=np.intp))
        )

    def cell_x(self, x: np.ndarray) -> np.ndarray:
        """Column indices covering coordinates ``x`` (monotone, clipped)."""
        return np.clip(
            np.floor((x - self.min_x) * self.inv_w), 0, self.g - 1
        ).astype(np.intp)

    def cell_y(self, y: np.ndarray) -> np.ndarray:
        return np.clip(
            np.floor((y - self.min_y) * self.inv_h), 0, self.g - 1
        ).astype(np.intp)


def _gather_blocks(
    grid: PointGrid,
    cx0: np.ndarray,
    cx1: np.ndarray,
    cy0: np.ndarray,
    cy1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Point rows inside each query's cell block, as one flat gather.

    Args:
        cx0 / cx1 / cy0 / cy1: inclusive cell bounds per query.

    Returns:
        ``(rows, seg)`` — global point rows and, aligned, the query index
        each row belongs to.  Rows within a query are unordered.
    """
    g = grid.g
    n_cols = cx1 - cx0 + 1
    col_seg = np.repeat(np.arange(len(cx0)), n_cols)
    offsets = np.cumsum(n_cols) - n_cols
    col_x = cx0[col_seg] + (np.arange(int(n_cols.sum())) - offsets[col_seg])
    base = col_x * g
    starts = grid.starts[base + cy0[col_seg]]
    ends = grid.starts[base + cy1[col_seg] + 1]
    lens = ends - starts
    total = int(lens.sum())
    run_off = np.cumsum(lens) - lens
    flat = np.arange(total) - np.repeat(run_off, lens) + np.repeat(starts, lens)
    return grid.order[flat], np.repeat(col_seg, lens)


def points_in_windows_grid(
    grid: PointGrid, windows: np.ndarray
) -> list[np.ndarray]:
    """Grid-accelerated :func:`points_in_windows` (same rows, same order).

    Gathers only the cells each window overlaps, then applies the exact
    closed-window test — work proportional to window selectivity instead
    of the object count.
    """
    n_q = len(windows)
    if grid.n == 0 or n_q == 0:
        return [np.empty(0, dtype=np.intp) for _ in range(n_q)]
    out: list[np.ndarray] = []
    all_cx0 = grid.cell_x(windows[:, 0])
    all_cx1 = grid.cell_x(windows[:, 2])
    all_cy0 = grid.cell_y(windows[:, 1])
    all_cy1 = grid.cell_y(windows[:, 3])
    per_cell = max(1.0, grid.n / (grid.g * grid.g))
    estimate = (all_cx1 - all_cx0 + 1) * (all_cy1 - all_cy0 + 1) * per_cell
    for lo, hi in _estimate_chunks(estimate):
        w = windows[lo:hi]
        rows, seg = _gather_blocks(
            grid, all_cx0[lo:hi], all_cx1[lo:hi], all_cy0[lo:hi], all_cy1[lo:hi]
        )
        keep = (
            (grid.xs[rows] >= w[seg, 0])
            & (grid.xs[rows] <= w[seg, 2])
            & (grid.ys[rows] >= w[seg, 1])
            & (grid.ys[rows] <= w[seg, 3])
        )
        rows = rows[keep]
        seg = seg[keep]
        order = np.lexsort((rows, seg))
        rows = rows[order]
        bounds = np.searchsorted(seg[order], np.arange(hi - lo + 1))
        out.extend(rows[bounds[i] : bounds[i + 1]] for i in range(hi - lo))
    return out


def knn_points_grid(
    grid: PointGrid, qx: np.ndarray, qy: np.ndarray, ks: Sequence[int]
) -> list[np.ndarray]:
    """Grid-accelerated :func:`knn_points` (same rows, same order).

    One vectorised pass gathers a cell block around every query sized for
    its ``k``; a query is resolved when its k-th candidate distance is
    strictly inside the gathered block's guard ring (no outside point can
    beat or tie into the answer).  The few unresolved queries fall back
    to per-query ring expansion — exact in all cases.
    """
    n_q = len(qx)
    if n_q == 0:
        return []
    if grid.n == 0:
        return [np.empty(0, dtype=np.intp) for _ in range(n_q)]
    ks_arr = np.minimum(np.asarray(ks, dtype=np.intp), grid.n)
    per_cell = max(1.0, grid.n / (grid.g * grid.g))
    # Initial block radius: enough cells for ~2k candidates on average.
    k_max = int(ks_arr.max())
    radius = max(1, math.ceil((math.sqrt(2.0 * k_max / per_cell) - 1.0) / 2.0))
    results: list[np.ndarray] = [None] * n_q  # type: ignore[list-item]
    side = 2 * radius + 1
    for lo, hi in _row_chunks(n_q, int(per_cell * side * side)):
        cx = grid.cell_x(qx[lo:hi])
        cy = grid.cell_y(qy[lo:hi])
        cx0 = np.maximum(cx - radius, 0)
        cx1 = np.minimum(cx + radius, grid.g - 1)
        cy0 = np.maximum(cy - radius, 0)
        cy1 = np.minimum(cy + radius, grid.g - 1)
        rows, seg = _gather_blocks(grid, cx0, cx1, cy0, cy1)
        d2 = (grid.xs[rows] - qx[lo:hi][seg]) ** 2 + (
            grid.ys[rows] - qy[lo:hi][seg]
        ) ** 2
        order = np.lexsort((rows, d2, seg))
        rows = rows[order]
        d2 = d2[order]
        bounds = np.searchsorted(seg[order], np.arange(hi - lo + 1))
        guard = _block_guard(grid, qx[lo:hi], qy[lo:hi], cx0, cx1, cy0, cy1)
        for i in range(hi - lo):
            k = int(ks_arr[lo + i])
            start, end = int(bounds[i]), int(bounds[i + 1])
            # Strict inequality: an ungathered point at exactly the guard
            # distance could still tie into the answer by rank.
            if end - start >= k and (k == 0 or d2[start + k - 1] < guard[i]):
                results[lo + i] = rows[start : start + k]
            else:
                results[lo + i] = _knn_one(
                    grid, float(qx[lo + i]), float(qy[lo + i]), k, radius + 1
                )
    return results


def _block_guard(
    grid: PointGrid,
    qx: np.ndarray,
    qy: np.ndarray,
    cx0: np.ndarray,
    cx1: np.ndarray,
    cy0: np.ndarray,
    cy1: np.ndarray,
) -> np.ndarray:
    """Squared distance below which no point outside the block can lie.

    Per query: the smallest distance from the query point to a block edge
    that still has cells beyond it (edges flush with the grid border have
    nothing beyond and are ignored).  Negative distances (query outside
    the block) clamp to 0, resolving nothing.
    """
    inf = np.inf
    left = np.where(cx0 > 0, qx - (grid.min_x + cx0 * grid.cell_w), inf)
    right = np.where(
        cx1 < grid.g - 1, (grid.min_x + (cx1 + 1) * grid.cell_w) - qx, inf
    )
    bottom = np.where(cy0 > 0, qy - (grid.min_y + cy0 * grid.cell_h), inf)
    top = np.where(
        cy1 < grid.g - 1, (grid.min_y + (cy1 + 1) * grid.cell_h) - qy, inf
    )
    guard = np.maximum(
        np.minimum(np.minimum(left, right), np.minimum(bottom, top)), 0.0
    )
    return guard * guard


def _knn_one(grid: PointGrid, x: float, y: float, k: int, radius: int) -> np.ndarray:
    """Exact k-NN for one query by ring expansion (the rare fallback)."""
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    g = grid.g
    cx = int(grid.cell_x(np.array([x]))[0])
    cy = int(grid.cell_y(np.array([y]))[0])
    while True:
        cx0, cx1 = max(cx - radius, 0), min(cx + radius, g - 1)
        cy0, cy1 = max(cy - radius, 0), min(cy + radius, g - 1)
        parts = [
            grid.order[grid.starts[col * g + cy0] : grid.starts[col * g + cy1 + 1]]
            for col in range(cx0, cx1 + 1)
        ]
        rows = np.concatenate(parts) if len(parts) > 1 else parts[0]
        whole_grid = cx0 == 0 and cy0 == 0 and cx1 == g - 1 and cy1 == g - 1
        if rows.size >= k or whole_grid:
            rows = np.sort(rows)
            d2 = (grid.xs[rows] - x) ** 2 + (grid.ys[rows] - y) ** 2
            guard = _block_guard(
                grid,
                np.array([x]),
                np.array([y]),
                np.array([cx0]),
                np.array([cx1]),
                np.array([cy0]),
                np.array([cy1]),
            )[0]
            if rows.size >= k and (k == 0 or np.partition(d2, k - 1)[k - 1] < guard):
                return rows[_smallest_k(d2, k)]
            if whole_grid:
                return rows[_smallest_k(d2, min(k, rows.size))]
        radius += 1


def rects_intersecting_window(bounds: np.ndarray, windows: np.ndarray) -> list[np.ndarray]:
    """Rows of rectangles intersecting each closed query window."""
    out: list[np.ndarray] = []
    for lo, hi in _row_chunks(len(windows), len(bounds)):
        w = windows[lo:hi]
        overlap = (
            (bounds[:, 0] <= w[:, 2:3])
            & (w[:, 0:1] <= bounds[:, 2])
            & (bounds[:, 1] <= w[:, 3:4])
            & (w[:, 1:2] <= bounds[:, 3])
        )
        out.extend(np.nonzero(row)[0] for row in overlap)
    return out
