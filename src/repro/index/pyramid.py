"""A complete multi-level grid (pyramid) index.

This is the paper's proposed optimisation of fixed-grid cloaking
(Section 5.2, Figure 4b: "Keeping fixed multi-level grids would be an
optimization") and the structure the follow-up Casper system adopted.
Level ``h`` partitions the universe into ``2^h x 2^h`` cells; level 0 is the
whole space.  Every level maintains exact occupancy counts, so bottom-up
cloaking inspects O(height) counters per request and location updates cost
O(height) counter adjustments.
"""

from __future__ import annotations

import math
from typing import Iterator


from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import ItemId, SpatialIndex


class PyramidGrid(SpatialIndex):
    """Complete pyramid of ``height + 1`` grid levels over ``bounds``.

    Args:
        bounds: the universe rectangle.
        height: index of the finest level; level ``h`` has ``2^h``
            cells per side.
    """

    def __init__(self, bounds: Rect, height: int = 8) -> None:
        if height < 0:
            raise ValueError("height must be non-negative")
        if bounds.is_degenerate:
            raise ValueError("bounds must have positive area")
        self.bounds = bounds
        self.height = height
        # counts[h] maps (col, row) -> occupancy; absent keys mean zero.
        self._counts: list[dict[tuple[int, int], int]] = [
            {} for _ in range(height + 1)
        ]
        self._locations: dict[ItemId, Point] = {}
        # Bottom-level bucket contents, for range/NN queries.
        self._buckets: dict[tuple[int, int], dict[ItemId, Point]] = {}

    # ------------------------------------------------------------------
    # Cell arithmetic
    # ------------------------------------------------------------------

    def cells_per_side(self, level: int) -> int:
        self._check_level(level)
        return 1 << level

    def cell_at(self, level: int, p: Point) -> tuple[int, int]:
        """``(col, row)`` of the level-``level`` cell containing ``p``."""
        self._check_level(level)
        if not self.bounds.contains_point(p):
            raise ValueError(f"{p} outside universe {self.bounds}")
        side = 1 << level
        col = min(int((p.x - self.bounds.min_x) / self.bounds.width * side), side - 1)
        row = min(int((p.y - self.bounds.min_y) / self.bounds.height * side), side - 1)
        return col, row

    def cell_rect(self, level: int, col: int, row: int) -> Rect:
        """Rectangle of cell ``(col, row)`` at ``level``."""
        self._check_level(level)
        side = 1 << level
        if not (0 <= col < side and 0 <= row < side):
            raise ValueError(f"cell ({col}, {row}) outside level {level}")
        w = self.bounds.width / side
        h = self.bounds.height / side
        return Rect(
            self.bounds.min_x + col * w,
            self.bounds.min_y + row * h,
            self.bounds.min_x + (col + 1) * w,
            self.bounds.min_y + (row + 1) * h,
        )

    def cell_count(self, level: int, col: int, row: int) -> int:
        """Occupancy of cell ``(col, row)`` at ``level``."""
        self._check_level(level)
        return self._counts[level].get((col, row), 0)

    def path_up(self, p: Point) -> list[tuple[int, Rect, int]]:
        """``(level, cell_rect, count)`` from the finest level up to level 0.

        Bottom-up cloaking walks this list and stops at the first cell whose
        count and area satisfy the privacy profile.
        """
        path = []
        for level in range(self.height, -1, -1):
            col, row = self.cell_at(level, p)
            path.append((level, self.cell_rect(level, col, row), self.cell_count(level, col, row)))
        return path

    # ------------------------------------------------------------------
    # SpatialIndex API
    # ------------------------------------------------------------------

    def insert(self, item_id: ItemId, geom: Rect) -> None:
        if geom.width != 0 or geom.height != 0:
            raise ValueError("PyramidGrid stores points; insert degenerate rectangles")
        self.insert_point(item_id, Point(geom.min_x, geom.min_y))

    def insert_point(self, item_id: ItemId, point: Point) -> None:
        if item_id in self._locations:
            raise ValueError(f"duplicate item id: {item_id!r}")
        if not self.bounds.contains_point(point):
            raise ValueError(f"{point} outside universe {self.bounds}")
        self._locations[item_id] = point
        for level in range(self.height + 1):
            cell = self.cell_at(level, point)
            self._counts[level][cell] = self._counts[level].get(cell, 0) + 1
        self._buckets.setdefault(self.cell_at(self.height, point), {})[item_id] = point

    def delete(self, item_id: ItemId) -> None:
        point = self._locations.pop(item_id, None)
        if point is None:
            raise KeyError(item_id)
        for level in range(self.height + 1):
            cell = self.cell_at(level, point)
            remaining = self._counts[level][cell] - 1
            if remaining:
                self._counts[level][cell] = remaining
            else:
                del self._counts[level][cell]
        bottom = self.cell_at(self.height, point)
        bucket = self._buckets[bottom]
        del bucket[item_id]
        if not bucket:
            del self._buckets[bottom]

    def range_query(self, window: Rect) -> list[ItemId]:
        clipped = window.intersection(self.bounds)
        if clipped is None:
            return []
        side = 1 << self.height
        col_lo, row_lo = self.cell_at(self.height, Point(clipped.min_x, clipped.min_y))
        col_hi, row_hi = self.cell_at(self.height, Point(clipped.max_x, clipped.max_y))
        result: list[ItemId] = []
        visits = 0
        scans = 0
        for row in range(row_lo, min(row_hi, side - 1) + 1):
            for col in range(col_lo, min(col_hi, side - 1) + 1):
                visits += 1
                bucket = self._buckets.get((col, row))
                if bucket:
                    scans += len(bucket)
                    result.extend(
                        i for i, p in bucket.items() if window.contains_point(p)
                    )
        counters = self.counters
        counters.range_queries += 1
        counters.node_visits += visits
        counters.leaf_scans += scans
        return result

    def count_in_window(self, window: Rect) -> int:
        """Count points in ``window`` using pyramid counters for full cells.

        Windows that coincide with a pyramid cell — every cloaked region
        this structure emits — are answered from a single counter in O(1).
        """
        cell = self.cell_for_rect(window)
        if cell is not None:
            self.counters.node_visits += 1
            return self.cell_count(*cell)
        return self._count_recursive(0, 0, 0, window)

    def cell_for_rect(self, rect: Rect, tolerance: float = 1e-9) -> tuple[int, int, int] | None:
        """``(level, col, row)`` when ``rect`` is (numerically) a pyramid cell."""
        if rect.width <= 0 or rect.height <= 0:
            return None
        ratio = self.bounds.width / rect.width
        # A cell is at most 2^height times smaller than the universe; far
        # thinner rectangles (ratio huge or infinite) cannot be cells.
        if not 1.0 <= ratio <= 2.0 ** (self.height + 1):
            return None
        level = round(math.log2(ratio))
        if not 0 <= level <= self.height:
            return None
        col, row = self.cell_at(level, rect.center)
        candidate = self.cell_rect(level, col, row)
        if (
            abs(candidate.min_x - rect.min_x) <= tolerance
            and abs(candidate.min_y - rect.min_y) <= tolerance
            and abs(candidate.max_x - rect.max_x) <= tolerance
            and abs(candidate.max_y - rect.max_y) <= tolerance
        ):
            return level, col, row
        return None

    def nearest(self, point: Point, k: int = 1) -> list[ItemId]:
        """k-NN by brute force over bottom buckets in expanding windows."""
        if k < 1:
            raise ValueError("k must be positive")
        if not self._locations:
            return []
        # Expand a window around the point until it holds >= k candidates,
        # then add a safety margin ring and rank exactly.
        cell_w = self.bounds.width / (1 << self.height)
        cell_h = self.bounds.height / (1 << self.height)
        radius = max(cell_w, cell_h)
        while True:
            window = Rect.from_center(point, 2 * radius, 2 * radius)
            ids = self.range_query(window)
            if len(ids) >= k or window.contains_rect(self.bounds):
                break
            radius *= 2.0
        safe = self.range_query(Rect.from_center(point, 4 * radius, 4 * radius))
        ranked = sorted(safe, key=lambda i: point.distance_to(self._locations[i]))
        counters = self.counters
        counters.nn_queries += 1
        counters.distance_computations += len(safe)
        return ranked[:k]

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

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.height:
            raise ValueError(f"level {level} outside [0, {self.height}]")

    def _count_recursive(self, level: int, col: int, row: int, window: Rect) -> int:
        self.counters.node_visits += 1
        count = self.cell_count(level, col, row)
        if count == 0:
            return 0
        rect = self.cell_rect(level, col, row)
        if not rect.intersects(window):
            return 0
        if window.contains_rect(rect):
            return count
        if level == self.height:
            bucket = self._buckets.get((col, row), {})
            return sum(1 for p in bucket.values() if window.contains_point(p))
        total = 0
        for dc in (0, 1):
            for dr in (0, 1):
                total += self._count_recursive(
                    level + 1, 2 * col + dc, 2 * row + dr, window
                )
        return total
