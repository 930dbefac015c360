"""A PR (point-region) quadtree with per-subtree counts.

The quadtree is the anonymizer-side index: space-dependent cloaking
(Figure 4a of the paper) descends from the whole space into successively
smaller quadrants while the quadrant still satisfies the user's privacy
profile.  Keeping an exact point count in every node makes that descent a
single O(depth) walk (:meth:`QuadTree.node_path`).

The index stores *points* (degenerate rectangles); the paper's anonymizer
only ever indexes exact user locations.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator


from repro.geometry.distances import min_dist
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import ItemId, SpatialIndex


class _QNode:
    __slots__ = ("rect", "points", "children", "count")

    def __init__(self, rect: Rect) -> None:
        self.rect = rect
        self.points: dict[ItemId, Point] | None = {}
        self.children: list["_QNode"] | None = None
        self.count = 0

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _quadrant_index(rect: Rect, p: Point) -> int:
    """Index of the quadrant of ``rect`` containing ``p`` (SW/SE/NW/NE).

    Points exactly on a split line go to the higher quadrant, matching the
    half-open convention of :meth:`Rect.quadrants` traversal.
    """
    cx, cy = rect.center.x, rect.center.y
    east = p.x >= cx
    north = p.y >= cy
    return (2 if north else 0) + (1 if east else 0)


class QuadTree(SpatialIndex):
    """PR quadtree over points within a fixed ``bounds`` universe.

    Args:
        bounds: the universe rectangle; every inserted point must lie inside.
        capacity: maximum points in a leaf before it splits.
        max_depth: depth limit; leaves at the limit never split, so
            coincident points cannot recurse forever.
    """

    def __init__(self, bounds: Rect, capacity: int = 8, max_depth: int = 20) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        if bounds.is_degenerate:
            raise ValueError("bounds must have positive area")
        self.bounds = bounds
        self._capacity = capacity
        self._max_depth = max_depth
        self._root = _QNode(bounds)
        self._locations: dict[ItemId, Point] = {}

    # ------------------------------------------------------------------
    # SpatialIndex API
    # ------------------------------------------------------------------

    def insert(self, item_id: ItemId, geom: Rect) -> None:
        if not geom.is_degenerate or geom.width != 0 or geom.height != 0:
            raise ValueError("QuadTree stores points; insert degenerate rectangles")
        self.insert_point(item_id, Point(geom.min_x, geom.min_y))

    def insert_point(self, item_id: ItemId, point: Point) -> None:
        if item_id in self._locations:
            raise ValueError(f"duplicate item id: {item_id!r}")
        if not self.bounds.contains_point(point):
            raise ValueError(f"{point} outside universe {self.bounds}")
        self._locations[item_id] = point
        node = self._root
        depth = 0
        while True:
            node.count += 1
            if node.is_leaf:
                node.points[item_id] = point
                if len(node.points) > self._capacity and depth < self._max_depth:
                    self._split(node)
                return
            node = node.children[_quadrant_index(node.rect, point)]
            depth += 1

    def delete(self, item_id: ItemId) -> None:
        point = self._locations.pop(item_id, None)
        if point is None:
            raise KeyError(item_id)
        node = self._root
        path = [node]
        while not node.is_leaf:
            node = node.children[_quadrant_index(node.rect, point)]
            path.append(node)
        del node.points[item_id]
        for n in path:
            n.count -= 1
        # Collapse sparse internal nodes back into leaves.
        for n in reversed(path[:-1]):
            if not n.is_leaf and n.count <= self._capacity:
                merged: dict[ItemId, Point] = {}
                self._collect_points(n, merged)
                n.children = None
                n.points = merged

    def range_query(self, window: Rect) -> list[ItemId]:
        result: list[ItemId] = []
        stack = [self._root]
        visits = 0
        scans = 0
        while stack:
            node = stack.pop()
            visits += 1
            if node.count == 0 or not node.rect.intersects(window):
                continue
            if node.is_leaf:
                scans += len(node.points)
                result.extend(
                    i for i, p in node.points.items() if window.contains_point(p)
                )
            else:
                stack.extend(node.children)
        counters = self.counters
        counters.range_queries += 1
        counters.node_visits += visits
        counters.leaf_scans += scans
        return result

    def count_in_window(self, window: Rect) -> int:
        """Count points in ``window``; prunes with whole-node containment."""
        total = 0
        stack = [self._root]
        visits = 0
        scans = 0
        while stack:
            node = stack.pop()
            visits += 1
            if node.count == 0 or not node.rect.intersects(window):
                continue
            if window.contains_rect(node.rect):
                total += node.count
            elif node.is_leaf:
                scans += len(node.points)
                total += sum(1 for p in node.points.values() if window.contains_point(p))
            else:
                stack.extend(node.children)
        counters = self.counters
        counters.node_visits += visits
        counters.leaf_scans += scans
        return total

    def nearest(self, point: Point, k: int = 1) -> list[ItemId]:
        if k < 1:
            raise ValueError("k must be positive")
        counter = itertools.count()
        heap: list[tuple[float, int, object]] = [(0.0, next(counter), self._root)]
        result: list[ItemId] = []
        visits = 0
        scans = 0
        distances = 0
        while heap and len(result) < k:
            dist, _, element = heapq.heappop(heap)
            if isinstance(element, _QNode):
                visits += 1
                if element.count == 0:
                    continue
                if element.is_leaf:
                    scans += len(element.points)
                    distances += len(element.points)
                    for item_id, p in element.points.items():
                        heapq.heappush(
                            heap, (point.distance_to(p), next(counter), (item_id,))
                        )
                else:
                    distances += len(element.children)
                    for child in element.children:
                        heapq.heappush(
                            heap,
                            (min_dist(point, child.rect), next(counter), child),
                        )
            else:
                result.append(element[0])
        counters = self.counters
        counters.nn_queries += 1
        counters.node_visits += visits
        counters.leaf_scans += scans
        counters.distance_computations += distances
        return result

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
    # Cloaking support
    # ------------------------------------------------------------------

    def node_path(self, point: Point) -> list[tuple[Rect, int]]:
        """``(node_rect, point_count)`` from the root down to ``point``'s leaf.

        Space-dependent cloaking walks this path top-down and returns the
        deepest rectangle still satisfying the privacy profile.
        """
        if not self.bounds.contains_point(point):
            raise ValueError(f"{point} outside universe {self.bounds}")
        node = self._root
        path = [(node.rect, node.count)]
        while not node.is_leaf:
            node = node.children[_quadrant_index(node.rect, point)]
            path.append((node.rect, node.count))
        return path

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _split(self, node: _QNode) -> None:
        sw, se, nw, ne = node.rect.quadrants()
        node.children = [_QNode(sw), _QNode(se), _QNode(nw), _QNode(ne)]
        for item_id, p in node.points.items():
            child = node.children[_quadrant_index(node.rect, p)]
            child.points[item_id] = p
            child.count += 1
        node.points = None

    def _collect_points(self, node: _QNode, out: dict[ItemId, Point]) -> None:
        if node.is_leaf:
            out.update(node.points)
        else:
            for child in node.children:
                self._collect_points(child, out)
