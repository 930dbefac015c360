"""Multi-level grid (pyramid) cloaking.

Section 5.2 closes with: "Keeping fixed multi-level grids would be an
optimization for Figure 4b."  This module implements that optimisation —
the structure the follow-up Casper system adopted.  The pyramid maintains
occupancy counters at every grid level; a cloak request walks the user's
cell column and returns the finest cell satisfying the profile.

Two search directions are provided for ablation A3:

* ``bottom_up`` (default, Casper-style): start at the finest cell and climb
  until satisfied.  Cost is proportional to how far up the answer lies —
  cheap in dense areas.
* ``top_down``: start at the whole space and descend while the child cell
  containing the user still satisfies the profile — cheap when the answer
  is coarse (sparse areas / large k).

Both directions return the *same* region because occupancy and area are
monotone along the cell column; only the number of counter probes differs.

An optional Casper-style *neighbour merge* tries combining the failing cell
with one adjacent sibling (horizontally, then vertically) before climbing a
full level, trading a couple of extra probes for materially smaller regions.
"""

from __future__ import annotations

from typing import Hashable

from repro.cloaking.base import Cloaker, UserId
from repro.core.profiles import PrivacyRequirement
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.pyramid import PyramidGrid


class PyramidCloaker(Cloaker):
    """Bottom-up (or top-down) multi-level grid cloaker.

    Args:
        bounds: the universe rectangle.
        height: pyramid height; the finest level has ``2^height`` cells
            per side.
        bottom_up: search direction (ablation A3).
        neighbor_merge: try merging with one adjacent cell at the current
            level before climbing (Casper's optimisation).
    """

    name = "pyramid"
    data_dependent = False

    def __init__(
        self,
        bounds: Rect,
        height: int = 8,
        bottom_up: bool = True,
        neighbor_merge: bool = False,
    ) -> None:
        super().__init__(bounds)
        self._pyramid = PyramidGrid(bounds, height=height)
        self._bottom_up = bottom_up
        self._neighbor_merge = neighbor_merge

    @property
    def pyramid(self) -> PyramidGrid:
        """The backing pyramid index (read-only use)."""
        return self._pyramid

    def config(self) -> dict:
        return {
            "height": self._pyramid.height,
            "bottom_up": self._bottom_up,
            "neighbor_merge": self._neighbor_merge,
        }

    def spatial_index(self) -> PyramidGrid:
        return self._pyramid

    def _on_add(self, user_id: UserId, point: Point) -> None:
        self._pyramid.insert_point(user_id, point)

    def _on_remove(self, user_id: UserId, point: Point) -> None:
        self._pyramid.delete(user_id)

    def count_in(self, region: Rect) -> int:
        # Pyramid counters answer this in O(cells touched); for regions that
        # are pyramid cells (every region this cloaker emits) it is O(1) per
        # level, which is what makes incremental revalidation cheap.
        return self._pyramid.count_in_window(region)

    def _cloak(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Rect:
        if self._bottom_up or self._neighbor_merge:
            # Neighbour merging scans levels finest-first by construction,
            # so it always uses the bottom-up walk.
            return self._cloak_bottom_up(point, requirement)
        return self._cloak_top_down(point, requirement)

    def _cloak_bottom_up(self, point: Point, requirement: PrivacyRequirement) -> Rect:
        pyramid = self._pyramid
        probes = 0
        for level in range(pyramid.height, -1, -1):
            col, row = pyramid.cell_at(level, point)
            probes += 1
            cell = pyramid.cell_rect(level, col, row)
            if self._satisfies(pyramid.cell_count(level, col, row), cell, requirement):
                self._note_probes(probes)
                return cell
            if self._neighbor_merge and level > 0:
                merged = self._try_neighbor_merge(level, col, row, requirement)
                probes += 2
                if merged is not None:
                    self._note_probes(probes)
                    return merged
        self._note_probes(probes)
        return pyramid.bounds

    def _cloak_top_down(self, point: Point, requirement: PrivacyRequirement) -> Rect:
        pyramid = self._pyramid
        chosen = pyramid.bounds
        probes = 0
        for level in range(0, pyramid.height + 1):
            col, row = pyramid.cell_at(level, point)
            probes += 1
            cell = pyramid.cell_rect(level, col, row)
            if self._satisfies(pyramid.cell_count(level, col, row), cell, requirement):
                chosen = cell
            else:
                break
        self._note_probes(probes)
        return chosen

    def partition_key(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Hashable:
        return self._pyramid.cell_at(self._pyramid.height, point)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _satisfies(count: int, cell: Rect, requirement: PrivacyRequirement) -> bool:
        return count >= requirement.k and cell.area >= requirement.min_area

    def _try_neighbor_merge(
        self, level: int, col: int, row: int, requirement: PrivacyRequirement
    ) -> Rect | None:
        """Merge the failing cell with its quad sibling (H then V)."""
        pyramid = self._pyramid
        own = pyramid.cell_count(level, col, row)
        # Horizontal sibling inside the same parent cell.
        sib_col = col + 1 if col % 2 == 0 else col - 1
        h_rect = pyramid.cell_rect(level, min(col, sib_col), row).union_mbr(
            pyramid.cell_rect(level, max(col, sib_col), row)
        )
        if (
            own + pyramid.cell_count(level, sib_col, row) >= requirement.k
            and h_rect.area >= requirement.min_area
        ):
            return h_rect
        sib_row = row + 1 if row % 2 == 0 else row - 1
        v_rect = pyramid.cell_rect(level, col, min(row, sib_row)).union_mbr(
            pyramid.cell_rect(level, col, max(row, sib_row))
        )
        if (
            own + pyramid.cell_count(level, col, sib_row) >= requirement.k
            and v_rect.area >= requirement.min_area
        ):
            return v_rect
        return None

    def _note_probes(self, probes: int) -> None:
        totals = self.stats.extra
        totals["probes"] = totals.get("probes", 0) + probes
