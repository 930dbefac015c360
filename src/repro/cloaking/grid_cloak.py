"""Fixed-grid cloaking with neighbour merging (Figure 4b).

The space is partitioned into a fixed uniform grid.  The user's cell is the
starting region; while it fails the privacy profile the region grows by
annexing one full line of adjacent cells (left / right / below / above) at a
time.  The growth direction is chosen greedily: the candidate line bringing
the most users per unit of added area is annexed first, which keeps the
final region small in skewed populations.

Because cell boundaries are fixed, the region is independent of the exact
user position inside the starting cell — all users of one cell with the same
requirement receive the *same* region, which is what makes shared execution
(Section 5.3) and reciprocity-style guarantees possible.
"""

from __future__ import annotations

from typing import Hashable

from repro.cloaking.base import Cloaker, UserId
from repro.core.profiles import PrivacyRequirement
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import GridIndex


class GridCloaker(Cloaker):
    """Uniform-grid cloaker with greedy block merging.

    Args:
        bounds: the universe rectangle.
        cols: grid columns (cells per side when ``rows`` is omitted).
        rows: grid rows; defaults to ``cols``.
    """

    name = "grid"
    data_dependent = False

    def __init__(self, bounds: Rect, cols: int = 32, rows: int | None = None) -> None:
        super().__init__(bounds)
        self._grid = GridIndex(bounds, cols=cols, rows=rows)

    def config(self) -> dict:
        return {"cols": self._grid.cols, "rows": self._grid.rows}

    def spatial_index(self) -> GridIndex:
        return self._grid

    def _on_add(self, user_id: UserId, point: Point) -> None:
        self._grid.insert_point(user_id, point)

    def _on_remove(self, user_id: UserId, point: Point) -> None:
        self._grid.delete(user_id)

    def _cloak(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Rect:
        grid = self._grid
        col, row = grid.cell_of(point)
        col_lo = col_hi = col
        row_lo = row_hi = row
        count = grid.cell_count(col, row)

        def block() -> Rect:
            return grid.block_rect(col_lo, row_lo, col_hi, row_hi)

        while count < requirement.k or block().area < requirement.min_area:
            best_gain = -1.0
            best = None
            # Candidate annexations: one full line of cells per direction.
            if col_lo > 0:
                added = grid.block_count(col_lo - 1, row_lo, col_lo - 1, row_hi)
                best_gain, best = _better(best_gain, best, added, "left")
            if col_hi < grid.cols - 1:
                added = grid.block_count(col_hi + 1, row_lo, col_hi + 1, row_hi)
                best_gain, best = _better(best_gain, best, added, "right")
            if row_lo > 0:
                added = grid.block_count(col_lo, row_lo - 1, col_hi, row_lo - 1)
                best_gain, best = _better(best_gain, best, added, "down")
            if row_hi < grid.rows - 1:
                added = grid.block_count(col_lo, row_hi + 1, col_hi, row_hi + 1)
                best_gain, best = _better(best_gain, best, added, "up")
            if best is None:
                break  # whole grid annexed; best effort
            if best == "left":
                col_lo -= 1
            elif best == "right":
                col_hi += 1
            elif best == "down":
                row_lo -= 1
            else:
                row_hi += 1
            count = grid.block_count(col_lo, row_lo, col_hi, row_hi)
        return block()

    def partition_key(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Hashable:
        return self._grid.cell_of(point)


def _better(best_gain: float, best: str | None, added: int, direction: str):
    """Keep the direction annexing the most users (first wins ties)."""
    if added > best_gain:
        return float(added), direction
    return best_gain, best
