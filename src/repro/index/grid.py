"""A uniform grid index over points.

The grid backs the fixed-partitioning cloaking of Figure 4b: locate the
user's cell, return it if it already satisfies the privacy profile, else
merge neighbouring cells until it does.  Cell occupancy counts are
maintained eagerly so cloaking never scans points.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator


from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import ItemId, SpatialIndex


class GridIndex(SpatialIndex):
    """Uniform ``cols x rows`` grid of buckets over a fixed universe.

    Args:
        bounds: the universe rectangle.
        cols: number of columns (> 0).
        rows: number of rows (> 0); defaults to ``cols``.
    """

    def __init__(self, bounds: Rect, cols: int, rows: int | None = None) -> None:
        if cols < 1 or (rows is not None and rows < 1):
            raise ValueError("grid must have at least one column and row")
        if bounds.is_degenerate:
            raise ValueError("bounds must have positive area")
        self.bounds = bounds
        self.cols = cols
        self.rows = rows if rows is not None else cols
        self._cell_w = bounds.width / self.cols
        self._cell_h = bounds.height / self.rows
        self._cells: list[dict[ItemId, Point]] = [
            {} for _ in range(self.cols * self.rows)
        ]
        self._locations: dict[ItemId, Point] = {}

    # ------------------------------------------------------------------
    # Cell arithmetic
    # ------------------------------------------------------------------

    def cell_of(self, p: Point) -> tuple[int, int]:
        """``(col, row)`` of the cell containing ``p``.

        Points on the far boundary belong to the last cell.
        """
        if not self.bounds.contains_point(p):
            raise ValueError(f"{p} outside universe {self.bounds}")
        col = min(int((p.x - self.bounds.min_x) / self._cell_w), self.cols - 1)
        row = min(int((p.y - self.bounds.min_y) / self._cell_h), self.rows - 1)
        return col, row

    def cell_rect(self, col: int, row: int) -> Rect:
        """The rectangle of cell ``(col, row)``.

        The last column and row end on the bound itself, not on
        ``min + n * cell``: that product may round a hair short of the
        bound (``cols=97`` on a 100-wide world), and a point on the far
        boundary — which :meth:`cell_of` assigns to the last cell — would
        then lie outside its own cell.
        """
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise ValueError(f"cell ({col}, {row}) outside {self.cols}x{self.rows} grid")
        bounds = self.bounds
        return Rect(
            bounds.min_x + col * self._cell_w,
            bounds.min_y + row * self._cell_h,
            bounds.max_x
            if col == self.cols - 1
            else bounds.min_x + (col + 1) * self._cell_w,
            bounds.max_y
            if row == self.rows - 1
            else bounds.min_y + (row + 1) * self._cell_h,
        )

    def block_rect(self, col_lo: int, row_lo: int, col_hi: int, row_hi: int) -> Rect:
        """Rectangle covering the inclusive cell block."""
        lo = self.cell_rect(col_lo, row_lo)
        hi = self.cell_rect(col_hi, row_hi)
        return Rect(lo.min_x, lo.min_y, hi.max_x, hi.max_y)

    def cell_count(self, col: int, row: int) -> int:
        """Number of points currently in cell ``(col, row)``."""
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise ValueError(f"cell ({col}, {row}) outside {self.cols}x{self.rows} grid")
        return len(self._cells[row * self.cols + col])

    def block_count(self, col_lo: int, row_lo: int, col_hi: int, row_hi: int) -> int:
        """Total points in the inclusive cell block."""
        total = 0
        for row in range(row_lo, row_hi + 1):
            for col in range(col_lo, col_hi + 1):
                total += len(self._cells[row * self.cols + col])
        return total

    # ------------------------------------------------------------------
    # SpatialIndex API
    # ------------------------------------------------------------------

    def insert(self, item_id: ItemId, geom: Rect) -> None:
        if geom.width != 0 or geom.height != 0:
            raise ValueError("GridIndex stores points; insert degenerate rectangles")
        self.insert_point(item_id, Point(geom.min_x, geom.min_y))

    def insert_point(self, item_id: ItemId, point: Point) -> None:
        if item_id in self._locations:
            raise ValueError(f"duplicate item id: {item_id!r}")
        col, row = self.cell_of(point)
        self._cells[row * self.cols + col][item_id] = point
        self._locations[item_id] = point

    def move_point(self, item_id: ItemId, point: Point) -> None:
        """Move a stored point in one cell step: ``delete`` then
        ``insert_point`` with one bounds check, and the old and new cells
        computed once each.  A move within its cell is one dict store."""
        locations = self._locations
        old = locations.get(item_id)
        if old is None:
            raise KeyError(item_id)
        bounds = self.bounds
        if not bounds.contains_point(point):
            raise ValueError(f"{point} outside universe {bounds}")
        cols, last_col, last_row = self.cols, self.cols - 1, self.rows - 1
        min_x, min_y = bounds.min_x, bounds.min_y
        cell_w, cell_h = self._cell_w, self._cell_h
        before = min(int((old.y - min_y) / cell_h), last_row) * cols + min(
            int((old.x - min_x) / cell_w), last_col
        )
        after = min(int((point.y - min_y) / cell_h), last_row) * cols + min(
            int((point.x - min_x) / cell_w), last_col
        )
        locations[item_id] = point
        if after != before:
            del self._cells[before][item_id]
        self._cells[after][item_id] = point

    def delete(self, item_id: ItemId) -> None:
        point = self._locations.pop(item_id, None)
        if point is None:
            raise KeyError(item_id)
        col, row = self.cell_of(point)
        del self._cells[row * self.cols + col][item_id]

    def range_query(self, window: Rect) -> list[ItemId]:
        clipped = window.intersection(self.bounds)
        if clipped is None:
            return []
        col_lo = min(int((clipped.min_x - self.bounds.min_x) / self._cell_w), self.cols - 1)
        col_hi = min(int((clipped.max_x - self.bounds.min_x) / self._cell_w), self.cols - 1)
        row_lo = min(int((clipped.min_y - self.bounds.min_y) / self._cell_h), self.rows - 1)
        row_hi = min(int((clipped.max_y - self.bounds.min_y) / self._cell_h), self.rows - 1)
        result: list[ItemId] = []
        visits = 0
        scans = 0
        for row in range(row_lo, row_hi + 1):
            for col in range(col_lo, col_hi + 1):
                cell = self._cells[row * self.cols + col]
                visits += 1
                scans += len(cell)
                result.extend(i for i, p in cell.items() if window.contains_point(p))
        counters = self.counters
        counters.range_queries += 1
        counters.node_visits += visits
        counters.leaf_scans += scans
        return result

    def nearest(self, point: Point, k: int = 1) -> list[ItemId]:
        """k-NN by expanding ring search over grid cells."""
        if k < 1:
            raise ValueError("k must be positive")
        if not self._locations:
            return []
        col, row = self.cell_of(point)
        best: list[tuple[float, ItemId]] = []
        visits = 0
        for radius in range(max(self.cols, self.rows) + 1):
            for c, r in self._ring(col, row, radius):
                visits += 1
                for item_id, p in self._cells[r * self.cols + c].items():
                    best.append((point.distance_to(p), item_id))
            # Stop only when no unvisited cell can beat or tie the k-th
            # best: its distance must lie strictly inside the guard, the
            # gap from the query to the nearest edge of the visited block
            # that still has cells beyond it.
            if len(best) >= k:
                kth = heapq.nsmallest(k, best, key=lambda pair: pair[0])[-1][0]
                if kth < self._guard(point, col, row, radius):
                    break
        best.sort(key=lambda pair: pair[0])
        counters = self.counters
        counters.nn_queries += 1
        counters.node_visits += visits
        counters.leaf_scans += len(best)
        counters.distance_computations += len(best)
        return [item_id for _, item_id in best[:k]]

    def geometry_of(self, item_id: ItemId) -> Rect:
        return Rect.from_point(self._locations[item_id])

    def location_of(self, item_id: ItemId) -> Point:
        """The exact stored point for ``item_id``."""
        return self._locations[item_id]

    def __len__(self) -> int:
        return len(self._locations)

    def __iter__(self) -> Iterator[ItemId]:
        return iter(self._locations)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _guard(self, point: Point, col: int, row: int, radius: int) -> float:
        """Distance below which no point outside the visited block lies.

        The block is the cells within Chebyshev ``radius`` of
        ``(col, row)``; edges flush with the grid border have nothing
        beyond them and are ignored (``inf`` once the grid is covered).
        """
        guard = math.inf
        if col - radius > 0:
            edge = self.bounds.min_x + (col - radius) * self._cell_w
            guard = min(guard, point.x - edge)
        if col + radius < self.cols - 1:
            edge = self.bounds.min_x + (col + radius + 1) * self._cell_w
            guard = min(guard, edge - point.x)
        if row - radius > 0:
            edge = self.bounds.min_y + (row - radius) * self._cell_h
            guard = min(guard, point.y - edge)
        if row + radius < self.rows - 1:
            edge = self.bounds.min_y + (row + radius + 1) * self._cell_h
            guard = min(guard, edge - point.y)
        return guard

    def _ring(self, col: int, row: int, radius: int) -> Iterator[tuple[int, int]]:
        """Cells at Chebyshev distance ``radius`` from ``(col, row)``."""
        if radius == 0:
            yield col, row
            return
        for c in range(col - radius, col + radius + 1):
            for r in (row - radius, row + radius):
                if 0 <= c < self.cols and 0 <= r < self.rows:
                    yield c, r
        for r in range(row - radius + 1, row + radius):
            for c in (col - radius, col + radius):
                if 0 <= c < self.cols and 0 <= r < self.rows:
                    yield c, r


def square_grid_for_density(bounds: Rect, n_points: int, points_per_cell: float) -> GridIndex:
    """A square grid sized so the average cell holds ``points_per_cell``."""
    if n_points < 0 or points_per_cell <= 0:
        raise ValueError("n_points must be >= 0 and points_per_cell > 0")
    cells_needed = max(1, n_points / points_per_cell)
    side = max(1, int(math.sqrt(cells_needed)))
    return GridIndex(bounds, cols=side, rows=side)
