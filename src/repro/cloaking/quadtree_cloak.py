"""Space-dependent quadtree cloaking (Figure 4a).

The anonymizer starts from the whole space and keeps descending into the
quadrant containing the user while that quadrant still satisfies the user's
requirements (k users, area >= A_min); the deepest satisfying quadrant is
the cloaked region.  Because quadrant boundaries are fixed by the space
partitioning — not by user locations — the region reveals nothing about
*where inside it* the user is (the paper's requirement 2).

Backed by a :class:`~repro.index.quadtree.QuadTree` with per-node counts,
one cloak request is a single O(depth) root-to-leaf walk.
"""

from __future__ import annotations

from typing import Hashable

from repro.cloaking.base import Cloaker, UserId
from repro.core.profiles import PrivacyRequirement
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.quadtree import QuadTree


class QuadtreeCloaker(Cloaker):
    """Top-down adaptive quadrant cloaker.

    Args:
        bounds: the universe rectangle.
        capacity: leaf capacity of the backing quadtree.  Smaller leaves
            give a finer partitioning and therefore tighter regions, at a
            higher maintenance cost per location update.
        max_depth: depth limit of the backing quadtree.
    """

    name = "quadtree"
    data_dependent = False

    def __init__(self, bounds: Rect, capacity: int = 4, max_depth: int = 16) -> None:
        super().__init__(bounds)
        self._tree = QuadTree(bounds, capacity=capacity, max_depth=max_depth)

    def config(self) -> dict:
        return {
            "capacity": self._tree._capacity,
            "max_depth": self._tree._max_depth,
        }

    def spatial_index(self) -> QuadTree:
        return self._tree

    def _on_add(self, user_id: UserId, point: Point) -> None:
        self._tree.insert_point(user_id, point)

    def _on_remove(self, user_id: UserId, point: Point) -> None:
        self._tree.delete(user_id)

    def count_in(self, region: Rect) -> int:
        # Subtree counters prune fully-contained nodes, so counting a
        # region that is itself a quadtree node costs O(depth).
        return self._tree.count_in_window(region)

    def _cloak(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Rect:
        chosen = self.bounds
        for rect, count in self._tree.node_path(point):
            if count >= requirement.k and rect.area >= requirement.min_area:
                chosen = rect
            else:
                break
        return chosen

    def partition_key(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Hashable:
        # Two users in the same quadtree leaf walk the same node path, so
        # the leaf rectangle identifies the shared computation.
        rect, _ = self._tree.node_path(point)[-1]
        return rect.as_tuple()
