"""A k-d tree over points (bulk-loaded, with lazy rebuilding).

The R-tree handles fully dynamic workloads; the k-d tree is the
read-optimised alternative for mostly-static public data (POI catalogues
change rarely).  Bulk loading by median splits yields a balanced tree with
O(log n) point queries and classic branch-and-bound k-NN.  Updates are
collected in a small overflow buffer and folded in by a rebuild once the
buffer exceeds a fraction of the tree — the standard logarithmic-method
compromise.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator


from repro.geometry.distances import min_dist
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import ItemId, SpatialIndex


class _KDNode:
    __slots__ = ("item_id", "point", "axis", "left", "right", "bbox")

    def __init__(self, item_id: ItemId, point: Point, axis: int) -> None:
        self.item_id = item_id
        self.point = point
        self.axis = axis
        self.left: "_KDNode | None" = None
        self.right: "_KDNode | None" = None
        self.bbox: Rect = Rect.from_point(point)


class KDTree(SpatialIndex):
    """Point k-d tree with median bulk-build and buffered updates.

    Args:
        rebuild_fraction: rebuild when the overflow buffer exceeds this
            fraction of the total size (smaller = more rebuilds, better
            query balance).
    """

    def __init__(self, rebuild_fraction: float = 0.25) -> None:
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ValueError("rebuild_fraction must be in (0, 1]")
        self._rebuild_fraction = rebuild_fraction
        self._root: _KDNode | None = None
        self._points: dict[ItemId, Point] = {}
        self._buffer: dict[ItemId, Point] = {}
        self._tombstones: set[ItemId] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, items: dict[ItemId, Point], **kwargs) -> "KDTree":
        """Bulk-load a balanced tree from an id -> point mapping."""
        tree = cls(**kwargs)
        tree._points = dict(items)
        tree._root = tree._build(list(items.items()), axis=0)
        return tree

    def _build(self, items: list[tuple[ItemId, Point]], axis: int) -> _KDNode | None:
        if not items:
            return None
        items.sort(key=lambda kv: (kv[1].x if axis == 0 else kv[1].y, repr(kv[0])))
        mid = len(items) // 2
        item_id, point = items[mid]
        node = _KDNode(item_id, point, axis)
        node.left = self._build(items[:mid], axis ^ 1)
        node.right = self._build(items[mid + 1 :], axis ^ 1)
        node.bbox = Rect.from_points(
            [point]
            + ([Point(node.left.bbox.min_x, node.left.bbox.min_y),
                Point(node.left.bbox.max_x, node.left.bbox.max_y)] if node.left else [])
            + ([Point(node.right.bbox.min_x, node.right.bbox.min_y),
                Point(node.right.bbox.max_x, node.right.bbox.max_y)] if node.right else [])
        )
        return node

    def _maybe_rebuild(self) -> None:
        pending = len(self._buffer) + len(self._tombstones)
        if pending > max(8, self._rebuild_fraction * max(1, len(self._points))):
            self.rebuild()

    def rebuild(self) -> None:
        """Fold the buffer and tombstones into a fresh balanced tree."""
        self._buffer.clear()
        self._tombstones.clear()
        self._root = self._build(list(self._points.items()), axis=0)

    # ------------------------------------------------------------------
    # SpatialIndex API
    # ------------------------------------------------------------------

    def insert(self, item_id: ItemId, geom: Rect) -> None:
        if geom.width != 0 or geom.height != 0:
            raise ValueError("KDTree stores points; insert degenerate rectangles")
        self.insert_point(item_id, Point(geom.min_x, geom.min_y))

    def insert_point(self, item_id: ItemId, point: Point) -> None:
        if item_id in self._points:
            raise ValueError(f"duplicate item id: {item_id!r}")
        self._points[item_id] = point
        self._buffer[item_id] = point
        self._tombstones.discard(item_id)
        self._maybe_rebuild()

    def delete(self, item_id: ItemId) -> None:
        if item_id not in self._points:
            raise KeyError(item_id)
        del self._points[item_id]
        if item_id in self._buffer:
            del self._buffer[item_id]
        else:
            self._tombstones.add(item_id)
        self._maybe_rebuild()

    def range_query(self, window: Rect) -> list[ItemId]:
        result = [
            i
            for i, p in self._buffer.items()
            if window.contains_point(p)
        ]
        scans = len(self._buffer)
        stack = [self._root]
        visits = 0
        while stack:
            node = stack.pop()
            if node is None or not node.bbox.intersects(window):
                continue
            visits += 1
            scans += 1
            if (
                node.item_id not in self._tombstones
                and node.item_id not in self._buffer
                and window.contains_point(node.point)
            ):
                result.append(node.item_id)
            stack.append(node.left)
            stack.append(node.right)
        counters = self.counters
        counters.range_queries += 1
        counters.node_visits += visits
        counters.leaf_scans += scans
        return result

    def nearest(self, point: Point, k: int = 1) -> list[ItemId]:
        if k < 1:
            raise ValueError("k must be positive")
        counter = itertools.count()
        heap: list[tuple[float, int, object]] = []
        visits = 0
        distances = len(self._buffer)
        if self._root is not None:
            distances += 1
            heapq.heappush(
                heap, (min_dist(point, self._root.bbox), next(counter), self._root)
            )
        for item_id, p in self._buffer.items():
            heapq.heappush(heap, (point.distance_to(p), next(counter), (item_id,)))
        result: list[ItemId] = []
        while heap and len(result) < k:
            dist, _, element = heapq.heappop(heap)
            if isinstance(element, _KDNode):
                visits += 1
                if (
                    element.item_id not in self._tombstones
                    and element.item_id not in self._buffer
                ):
                    distances += 1
                    heapq.heappush(
                        heap,
                        (point.distance_to(element.point), next(counter), (element.item_id,)),
                    )
                for child in (element.left, element.right):
                    if child is not None:
                        distances += 1
                        heapq.heappush(
                            heap, (min_dist(point, child.bbox), next(counter), child)
                        )
            else:
                result.append(element[0])
        counters = self.counters
        counters.nn_queries += 1
        counters.node_visits += visits
        counters.leaf_scans += visits
        counters.distance_computations += distances
        return result

    def geometry_of(self, item_id: ItemId) -> Rect:
        return Rect.from_point(self._points[item_id])

    def location_of(self, item_id: ItemId) -> Point:
        """The exact stored point for ``item_id``."""
        return self._points[item_id]

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[ItemId]:
        return iter(self._points)

    @property
    def buffered(self) -> int:
        """Pending (unindexed) inserts — exposed for tests."""
        return len(self._buffer)
