"""A from-scratch R-tree with quadratic split (Guttman, SIGMOD 1984).

This is the workhorse index of the location-based database server: the
public data store (POIs, moving public objects) and the private data store
(cloaked rectangles) are both R-trees.  It supports dynamic insert/delete,
window queries, and best-first k-nearest-neighbour search ordered by
``min_dist`` (Roussopoulos et al., SIGMOD 1995 / Hjaltason & Samet's
incremental variant).
"""

from __future__ import annotations

import heapq
import itertools
import math
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.geometry.distances import min_dist
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import ItemId, SpatialIndex


_SIDES = attrgetter("min_x", "min_y", "max_x", "max_y")


def _sides(rects: Iterable[Rect], n: int) -> np.ndarray:
    """The ``(n, 4)`` array of ``n`` rectangles' ``(min_x, min_y, max_x, max_y)``."""
    flat = np.fromiter(chain.from_iterable(map(_SIDES, rects)), float, 4 * n)
    return flat.reshape(n, 4)


class _Node:
    """An R-tree node; leaves hold ``(item_id, Rect)``, internals hold children."""

    __slots__ = ("leaf", "entries", "mbr", "parent")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        # Leaf entries: list[tuple[ItemId, Rect]].
        # Internal entries: list[_Node].
        self.entries: list = []
        self.mbr: Rect | None = None
        self.parent: "_Node | None" = None

    def recompute_mbr(self) -> bool:
        """Set ``mbr`` to the tight bound of the entries; True when it changed.

        The bound is folded on the four floats; a ``Rect`` is built only
        when the value differs from the one already held.
        """
        entries = self.entries
        old = self.mbr
        if not entries:
            self.mbr = None
            return old is not None
        rects = [rect for _, rect in entries] if self.leaf else [c.mbr for c in entries]
        first = rects[0]
        x0, y0, x1, y1 = first.min_x, first.min_y, first.max_x, first.max_y
        for r in rects:
            if r.min_x < x0:
                x0 = r.min_x
            if r.min_y < y0:
                y0 = r.min_y
            if r.max_x > x1:
                x1 = r.max_x
            if r.max_y > y1:
                y1 = r.max_y
        if (
            old is not None
            and old.min_x == x0
            and old.min_y == y0
            and old.max_x == x1
            and old.max_y == y1
        ):
            return False
        self.mbr = Rect(x0, y0, x1, y1)
        return True


def _str_groups(bounds: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """One level of the STR tiling over ``(n, 4)`` rectangle sides.

    Returns the permutation that puts the entries in tiling order and
    the start of each run of at most ``capacity`` entries in it.  The
    order is that of a stable sort by centre x, cut into
    ``ceil(sqrt(ceil(n / capacity)))`` slabs of ``ceil(n / slab_count)``
    entries, each slab stably sorted by centre y; a run never crosses a
    slab, so a slab's last run may be short.
    """
    n = len(bounds)
    n_groups = math.ceil(n / capacity)
    slab_count = max(1, math.ceil(math.sqrt(n_groups)))
    slab_size = math.ceil(n / slab_count)
    # ``Rect.center``'s float ops, one column at a time.
    by_x = np.argsort((bounds[:, 0] + bounds[:, 2]) / 2.0, kind="stable")
    centre_y = (bounds[by_x, 1] + bounds[by_x, 3]) / 2.0
    slab = np.arange(n) // slab_size
    order = by_x[np.lexsort((centre_y, slab))]
    starts = np.concatenate(
        [np.arange(s, min(s + slab_size, n), capacity) for s in range(0, n, slab_size)]
    )
    return order, starts


def _pack(
    entries: list, bounds: np.ndarray, capacity: int, leaf: bool
) -> tuple[list[_Node], np.ndarray]:
    """Tile ``entries`` (rows of ``bounds``) into nodes of one STR level.

    Returns the nodes, in tiling order, and their ``(m, 4)`` MBR sides;
    each node's MBR folds its entries' sides with ``minimum`` /
    ``maximum.reduceat``, the bound ``_Node.recompute_mbr`` computes.
    """
    order, starts = _str_groups(bounds, capacity)
    tiled = list(map(entries.__getitem__, order.tolist()))
    sides = bounds[order]
    mbrs = np.hstack(
        [
            np.minimum.reduceat(sides[:, :2], starts, axis=0),
            np.maximum.reduceat(sides[:, 2:], starts, axis=0),
        ]
    )
    cuts = starts.tolist()
    nodes = []
    for start, stop, mbr in zip(cuts, cuts[1:] + [len(tiled)], mbrs.tolist()):
        node = _Node(leaf=leaf)
        node.entries = tiled[start:stop]
        node.mbr = Rect(*mbr)
        if not leaf:
            for child in node.entries:
                child.parent = node
        nodes.append(node)
    return nodes, mbrs


class RTree(SpatialIndex):
    """Dynamic R-tree over ``(item_id, Rect)`` entries.

    Args:
        max_entries: node capacity M (split when exceeded).
        min_entries: minimum fill m (condense when underfull); defaults to
            ``max_entries // 2``.
    """

    def __init__(self, max_entries: int = 8, min_entries: int | None = None) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self._max = max_entries
        self._min = min_entries if min_entries is not None else max_entries // 2
        if not 1 <= self._min <= self._max // 2:
            raise ValueError("min_entries must be in [1, max_entries // 2]")
        self._root = _Node(leaf=True)
        self._geoms: dict[ItemId, Rect] = {}
        # Leaf directory: the leaf holding each id, so delete and update
        # start at the entry instead of searching for it from the root.
        self._leaf_of: dict[ItemId, _Node] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def insert(self, item_id: ItemId, geom: Rect) -> None:
        if item_id in self._geoms:
            raise ValueError(f"duplicate item id: {item_id!r}")
        self._geoms[item_id] = geom
        self._place(item_id, geom)

    def delete(self, item_id: ItemId) -> None:
        if item_id not in self._geoms:
            raise KeyError(item_id)
        del self._geoms[item_id]
        leaf = self._leaf_of.pop(item_id)
        leaf.entries = [entry for entry in leaf.entries if entry[0] != item_id]
        self._condense(leaf)
        # Shrink the tree when the root has a single internal child.
        while not self._root.leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0]
            self._root.parent = None

    def update(self, item_id: ItemId, geom: Rect) -> None:
        """Move an existing entry, in place when its leaf already covers it.

        A new rectangle inside the leaf's MBR is written over the old
        entry and the MBRs on the path are tightened for as long as they
        change.  That can only shrink them, so no amount of in-place
        updates makes sibling nodes overlap more than inserts left them.
        Any other move is a delete plus an insert from the root.  An
        unknown id raises ``KeyError`` and an unchanged geometry returns,
        both without touching the tree.
        """
        old = self._geoms[item_id]
        if geom == old:
            return
        self._geoms[item_id] = geom
        leaf = self._leaf_of[item_id]
        if not leaf.mbr.contains_rect(geom):
            self.delete(item_id)
            self.insert(item_id, geom)
            return
        entries = leaf.entries
        for pos, entry in enumerate(entries):
            if entry[0] == item_id:
                entries[pos] = (item_id, geom)
                break
        node = leaf
        while node is not None and node.recompute_mbr():
            node = node.parent

    def range_query(self, window: Rect) -> list[ItemId]:
        result: list[ItemId] = []
        stack = [self._root]
        visits = 0
        scans = 0
        while stack:
            node = stack.pop()
            visits += 1
            if node.mbr is None or not node.mbr.intersects(window):
                continue
            if node.leaf:
                scans += len(node.entries)
                result.extend(i for i, r in node.entries if r.intersects(window))
            else:
                stack.extend(node.entries)
        counters = self.counters
        counters.range_queries += 1
        counters.node_visits += visits
        counters.leaf_scans += scans
        return result

    def nearest(self, point: Point, k: int = 1) -> list[ItemId]:
        if k < 1:
            raise ValueError("k must be positive")
        return [item_id for item_id, _ in itertools.islice(self.nearest_iter(point), k)]

    def nearest_iter(self, point: Point) -> Iterator[tuple[ItemId, float]]:
        """Incremental best-first NN: yields ``(item_id, min_dist)`` in order.

        The incremental form lets the private-NN query processor consume
        neighbours until its region-dependent stopping radius is reached
        without committing to a k up front.
        """
        counters = self.counters
        counters.nn_queries += 1
        counter = itertools.count()  # tie-breaker: heap never compares nodes
        heap: list[tuple[float, int, object]] = []
        if self._root.mbr is not None:
            counters.distance_computations += 1
            heapq.heappush(heap, (min_dist(point, self._root.mbr), next(counter), self._root))
        while heap:
            dist, _, element = heapq.heappop(heap)
            if isinstance(element, _Node):
                counters.node_visits += 1
                if element.leaf:
                    counters.leaf_scans += len(element.entries)
                    counters.distance_computations += len(element.entries)
                    for item_id, rect in element.entries:
                        heapq.heappush(
                            heap, (min_dist(point, rect), next(counter), (item_id,))
                        )
                else:
                    for child in element.entries:
                        if child.mbr is not None:
                            counters.distance_computations += 1
                            heapq.heappush(
                                heap, (min_dist(point, child.mbr), next(counter), child)
                            )
            else:
                yield element[0], dist

    def discard(self) -> None:
        """Let the tree go: drop every node's parent link.

        Parent links make a tree a reference cycle, which only a full
        collector pass frees.  Without them the nodes are freed by
        reference counting once the last reference to the tree goes.
        The tree must not be used afterwards.
        """
        stack = [self._root]
        while stack:
            node = stack.pop()
            node.parent = None
            if not node.leaf:
                stack.extend(node.entries)

    def geometry_of(self, item_id: ItemId) -> Rect:
        return self._geoms[item_id]

    def __len__(self) -> int:
        return len(self._geoms)

    def __iter__(self) -> Iterator[ItemId]:
        return iter(self._geoms)

    @property
    def height(self) -> int:
        """Tree height (1 for a lone leaf root); exposed for tests."""
        h = 1
        node = self._root
        while not node.leaf:
            h += 1
            node = node.entries[0]
        return h

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        items: Mapping[ItemId, Rect],
        max_entries: int = 8,
        min_entries: int | None = None,
        *,
        bounds: np.ndarray | None = None,
    ) -> "RTree":
        """Build a packed R-tree with the STR algorithm.

        Sort-Tile-Recursive (Leutenegger et al., ICDE 1997): sort by
        centre x, cut into vertical slabs of ~sqrt(n/M) leaves each, sort
        every slab by centre y, pack runs of M entries into leaves, then
        recurse on the leaf MBRs.  Produces near-100 % fill and tight
        node MBRs, the right trade for static POI catalogues; the tree
        remains fully dynamic afterwards.

        Each level is tiled by stable numpy argsorts of the centre
        columns, so equal centres keep ``items``' order.  ``bounds`` is
        the ``(n, 4)`` ``(min_x, min_y, max_x, max_y)`` of ``items``'
        rectangles in ``items``' order, for a caller that already holds
        them; otherwise they are read from the rectangles.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        if not items:
            return tree
        tree._geoms = dict(items)
        entries = list(tree._geoms.items())
        if bounds is None:
            bounds = _sides(tree._geoms.values(), len(entries))
        leaves, level_bounds = _pack(
            entries, np.asarray(bounds, dtype=float), max_entries, leaf=True
        )
        level = leaves
        while len(level) > 1:
            level, level_bounds = _pack(level, level_bounds, max_entries, leaf=False)
        tree._root = level[0]
        runs = list(map(attrgetter("entries"), leaves))
        tree._leaf_of = dict(
            zip(
                map(itemgetter(0), chain.from_iterable(runs)),
                chain.from_iterable(map(repeat, leaves, map(len, runs))),
            )
        )
        return tree

    # ------------------------------------------------------------------
    # Insertion internals
    #
    # Choose-leaf, MBR growth and the split work on the four floats of a
    # rectangle with the expressions ``Rect`` itself uses —
    # ``(max_x - min_x) * (max_y - min_y)`` for an area, union area minus
    # area for an enlargement, ``b if b < a else a`` for ``min(a, b)`` —
    # and keep the first-minimum / first-maximum tie-breaks, so every
    # decision is the one the ``Rect`` arithmetic takes.  A ``Rect`` is
    # built only for an MBR that really changes.
    # ------------------------------------------------------------------

    def _place(self, item_id: ItemId, rect: Rect) -> None:
        """Put an entry into the leaf chosen from the root.  ``_geoms`` is
        the caller's: a reinserted orphan never lost its registration."""
        leaf = self._choose_leaf(self._root, rect)
        leaf.entries.append((item_id, rect))
        self._leaf_of[item_id] = leaf
        self._adjust_upward(leaf, rect)

    def _choose_leaf(self, node: _Node, rect: Rect) -> _Node:
        """Descend by least enlargement, then least area; first wins ties."""
        rx0, ry0, rx1, ry1 = rect.min_x, rect.min_y, rect.max_x, rect.max_y
        while not node.leaf:
            best = None
            best_grow = best_area = 0.0
            for child in node.entries:
                mbr = child.mbr
                x0, y0, x1, y1 = mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y
                area = (x1 - x0) * (y1 - y0)
                grow = (
                    ((rx1 if rx1 > x1 else x1) - (rx0 if rx0 < x0 else x0))
                    * ((ry1 if ry1 > y1 else y1) - (ry0 if ry0 < y0 else y0))
                    - area
                )
                if (
                    best is None
                    or grow < best_grow
                    or (grow == best_grow and area < best_area)
                ):
                    best, best_grow, best_area = child, grow, area
            node = best
        return node

    def _adjust_upward(self, node: _Node, rect: Rect) -> None:
        """Grow MBRs up the path; split overflowing nodes as we go."""
        rx0, ry0, rx1, ry1 = rect.min_x, rect.min_y, rect.max_x, rect.max_y
        split_below = False
        while node is not None:
            mbr = node.mbr
            if mbr is None:
                node.mbr = rect
            else:
                x0, y0, x1, y1 = mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y
                if rx0 < x0 or ry0 < y0 or rx1 > x1 or ry1 > y1:
                    node.mbr = Rect(
                        rx0 if rx0 < x0 else x0,
                        ry0 if ry0 < y0 else y0,
                        rx1 if rx1 > x1 else x1,
                        ry1 if ry1 > y1 else y1,
                    )
                elif not split_below and len(node.entries) <= self._max:
                    return  # covered before and no new entry: so is everything above
            split_below = len(node.entries) > self._max
            if split_below:
                self._split(node)
            node = node.parent

    def _split(self, node: _Node) -> None:
        """Quadratic split of an overflowing node."""
        entries = node.entries
        rects = [e[1] for e in entries] if node.leaf else [e.mbr for e in entries]
        boxes = [(r.min_x, r.min_y, r.max_x, r.max_y) for r in rects]
        areas = [(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in boxes]
        count = len(entries)

        # Pick the two seeds wasting the most area if grouped together.
        worst = -1.0
        seed_a, seed_b = 0, 1
        for i in range(count):
            ix0, iy0, ix1, iy1 = boxes[i]
            area_i = areas[i]
            for j in range(i + 1, count):
                jx0, jy0, jx1, jy1 = boxes[j]
                waste = (
                    ((jx1 if jx1 > ix1 else ix1) - (jx0 if jx0 < ix0 else ix0))
                    * ((jy1 if jy1 > iy1 else iy1) - (jy0 if jy0 < iy0 else iy0))
                    - area_i
                    - areas[j]
                )
                if waste > worst:
                    worst = waste
                    seed_a, seed_b = i, j

        group_a, box_a = [], list(boxes[seed_a])
        group_b, box_b = [], list(boxes[seed_b])

        def assign(group: list, box: list[float], i: int) -> None:
            group.append(entries[i])
            x0, y0, x1, y1 = boxes[i]
            if x0 < box[0]:
                box[0] = x0
            if y0 < box[1]:
                box[1] = y0
            if x1 > box[2]:
                box[2] = x1
            if y1 > box[3]:
                box[3] = y1

        assign(group_a, box_a, seed_a)
        assign(group_b, box_b, seed_b)
        remaining = [i for i in range(count) if i != seed_a and i != seed_b]

        while remaining:
            # Force assignment when one group must take all leftovers to
            # reach minimum fill.
            short = None
            if len(group_a) + len(remaining) == self._min:
                short = group_a, box_a
            elif len(group_b) + len(remaining) == self._min:
                short = group_b, box_b
            if short is not None:
                for i in remaining:
                    assign(*short, i)
                break
            # Pick the entry with the strongest group preference.
            ax0, ay0, ax1, ay1 = box_a
            bx0, by0, bx1, by1 = box_b
            area_a = (ax1 - ax0) * (ay1 - ay0)
            area_b = (bx1 - bx0) * (by1 - by0)
            pick, strongest = -1, 0.0
            for pos, i in enumerate(remaining):
                x0, y0, x1, y1 = boxes[i]
                to_a = (
                    ((x1 if x1 > ax1 else ax1) - (x0 if x0 < ax0 else ax0))
                    * ((y1 if y1 > ay1 else ay1) - (y0 if y0 < ay0 else ay0))
                    - area_a
                )
                to_b = (
                    ((x1 if x1 > bx1 else bx1) - (x0 if x0 < bx0 else bx0))
                    * ((y1 if y1 > by1 else by1) - (y0 if y0 < by0 else by0))
                    - area_b
                )
                preference = abs(to_a - to_b)
                if pick < 0 or preference > strongest:
                    pick, strongest, grow_a, grow_b = pos, preference, to_a, to_b
            if (grow_a, area_a, len(group_a)) <= (grow_b, area_b, len(group_b)):
                assign(group_a, box_a, remaining.pop(pick))
            else:
                assign(group_b, box_b, remaining.pop(pick))

        sibling = _Node(leaf=node.leaf)
        node.entries = group_a
        sibling.entries = group_b
        node.mbr = Rect(*box_a)
        sibling.mbr = Rect(*box_b)
        if node.leaf:
            for item_id, _ in group_b:
                self._leaf_of[item_id] = sibling
        else:
            for child in group_b:
                child.parent = sibling

        if node.parent is None:
            new_root = _Node(leaf=False)
            new_root.entries = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            new_root.recompute_mbr()
            self._root = new_root
        else:
            parent = node.parent
            sibling.parent = parent
            parent.entries.append(sibling)
            parent.recompute_mbr()

    # ------------------------------------------------------------------
    # Deletion internals
    # ------------------------------------------------------------------

    def _condense(self, node: _Node) -> None:
        """Remove underfull nodes up the path and reinsert their entries."""
        orphans: list[tuple[ItemId, Rect]] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self._min:
                parent.entries.remove(node)
                orphans.extend(self._collect_leaf_entries(node))
            else:
                node.recompute_mbr()
            node = parent
        node.recompute_mbr()
        for item_id, rect in orphans:
            self._place(item_id, rect)

    def _collect_leaf_entries(self, node: _Node) -> list[tuple[ItemId, Rect]]:
        if node.leaf:
            return list(node.entries)
        collected: list[tuple[ItemId, Rect]] = []
        for child in node.entries:
            collected.extend(self._collect_leaf_entries(child))
        return collected
