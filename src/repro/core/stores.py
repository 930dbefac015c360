"""Data stores of the privacy-aware location-based database server.

Section 6.1 of the paper splits server-side data into:

* **public data** — exact locations that need no protection: stationary
  facilities (gas stations, hospitals) and moving public objects (police
  cars, on-site workers).  Held in :class:`PublicStore`.
* **private data** — mobile users represented *only* by their cloaked
  spatial regions; the server never sees their exact points.  Held in
  :class:`PrivateStore`.

Each store is a table of rows — an ids column, the geometry objects
queries read, the same geometry as numpy coordinate columns, and an
id -> row map — with an R-tree keyed by id as the index over it.  Rows
are kept in first-insertion order: a write to a known id overwrites its
row in place, a new id appends one, and a removal leaves a hole that the
next capture (or :meth:`items`) compacts without reordering what
remains.  That one order
is the order of :meth:`items`, of a captured snapshot's rows and of
every canonical answer.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Iterator, Mapping

import numpy as np

from repro.core.errors import RegistrationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import IndexCounters, ItemId
from repro.index.rtree import RTree

#: A batch covering at least this fraction of the resulting private store
#: rebuilds the R-tree by STR bulk loading instead of per-item updates.
REBUILD_FRACTION = 0.5

_SIDES = attrgetter("min_x", "min_y", "max_x", "max_y")


def _sides(rects, n: int) -> np.ndarray:
    """The ``(n, 4)`` array of ``n`` rectangles' ``(min_x, min_y, max_x, max_y)``."""
    flat = np.fromiter(chain.from_iterable(map(_SIDES, rects)), float, 4 * n)
    return flat.reshape(n, 4)


class _Store:
    """The table both stores keep: rows, their index and their frozen view.

    Row ``r`` is ``_ids[r]``, its geometry object ``_geoms[r]`` (the
    point or rectangle queries read) and the same geometry as numbers in
    ``_cols[r]`` (what a snapshot copies).  ``_row`` maps each live id to
    its row and iterates in row order; ``_holes`` lists the rows removals
    emptied.  ``_view`` is the read-only copy of the table as of the
    current version, made on the first read after a write.
    """

    #: Coordinates per row: ``(x, y)`` or ``(min_x, min_y, max_x, max_y)``.
    _WIDTH = 0
    #: The paper's name for the data a store holds, for error messages.
    _KIND = ""

    def __init__(self, max_entries: int = 16) -> None:
        self._max_entries = max_entries
        self._rtree = RTree(max_entries=max_entries)
        self._version = 0
        self._ids: list[ItemId] = []
        self._geoms: list = []
        self._row: dict[ItemId, int] = {}
        self._cols = np.empty((16, self._WIDTH))
        self._holes: list[int] = []
        self._view: tuple | None = None

    def _touch(self, writes: int = 1) -> None:
        self._version += writes
        self._view = None

    def _append(self, ids: list, geoms: list) -> range:
        """Give each new id the next row; returns the rows, numbers unset."""
        start = len(self._ids)
        stop = start + len(ids)
        if stop > len(self._cols):
            grown = np.empty((max(stop, 2 * len(self._cols)), self._WIDTH))
            grown[:start] = self._cols[:start]
            self._cols = grown
        self._ids.extend(ids)
        self._geoms.extend(geoms)
        self._row.update(zip(ids, range(start, stop)))
        return range(start, stop)

    def _compact(self) -> None:
        """Drop the holes; the remaining rows keep their relative order.

        numpy and C-level copies only, nothing per row in Python.
        """
        if not self._holes:
            return
        keep = np.ones(len(self._ids), dtype=bool)
        keep[self._holes] = False
        mask = keep.tolist()
        n = mask.count(True)
        self._cols[:n] = self._cols[: len(mask)][keep]
        self._ids = list(compress(self._ids, mask))
        self._geoms = list(compress(self._geoms, mask))
        self._row = dict(zip(self._ids, range(n)))
        self._holes = []

    def remove(self, object_id: ItemId) -> None:
        if object_id not in self._row:
            raise RegistrationError(f"unknown {self._KIND} object: {object_id!r}")
        self._rtree.delete(object_id)
        self._holes.append(self._row.pop(object_id))
        self._touch()

    def restore(self, index: RTree, version: int) -> None:
        """Become the store ``index`` describes, at mutation count ``version``.

        Rows follow the index's iteration order — the checkpoint's sorted
        entry order on recovery.  The mutation counter is restored
        verbatim so replayed updates advance it exactly as the uncrashed
        run did.
        """
        ids = list(index)
        rects = list(map(index.geometry_of, ids))
        self._rtree = index
        self._version = version
        self._ids, self._geoms, self._row, self._holes = [], [], {}, []
        self._cols = np.empty((16, self._WIDTH))
        self._view = None
        rows = self._append(ids, self._geometries(rects))
        self._cols[rows] = _sides(rects, len(ids))[:, : self._WIDTH]

    def _geometries(self, rects: list[Rect]) -> list:
        """The geometry objects the index's rectangles stand for."""
        raise NotImplementedError

    def _frozen(self) -> tuple:
        """``(ids, rank, columns)`` as of this version, read-only: copies
        of the compacted columns, nothing per row in Python."""
        if self._view is None:
            self._compact()
            columns = self._copy_columns(self._cols[: len(self._ids)])
            for column in columns:
                column.flags.writeable = False
            self._view = (tuple(self._ids), dict(self._row), columns)
        return self._view

    def _copy_columns(self, block: np.ndarray) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    @property
    def version(self) -> int:
        """Monotonic mutation counter (snapshot-cache invalidation key)."""
        return self._version

    @property
    def rank(self) -> Mapping[ItemId, int]:
        """id -> row of the current snapshot view: the canonical answer order."""
        return self._frozen()[1]

    @property
    def index_counters(self) -> IndexCounters:
        """Cumulative work counters of the backing R-tree (observability)."""
        return self._rtree.counters

    def items(self) -> Iterator[tuple]:
        """``(id, geometry)`` in row order."""
        self._compact()
        return zip(self._ids, self._geoms)

    def __len__(self) -> int:
        return len(self._row)

    def __iter__(self) -> Iterator[ItemId]:
        return iter(self._row)

    def __contains__(self, object_id: ItemId) -> bool:
        return object_id in self._row


class PublicStore(_Store):
    """Exact point objects (the paper's "public data")."""

    _WIDTH = 2
    _KIND = "public"

    @classmethod
    def from_points(
        cls, points: dict[ItemId, Point], max_entries: int = 16
    ) -> "PublicStore":
        """Bulk-load a store from a full catalogue (STR-packed R-tree).

        The right constructor for static POI datasets: a packed tree is
        shallower and tighter than one grown by repeated inserts.
        """
        store = cls(max_entries=max_entries)
        store.restore(
            RTree.bulk_load(
                {object_id: Rect.from_point(p) for object_id, p in points.items()},
                max_entries=max_entries,
            ),
            0,
        )
        return store

    def add(self, object_id: ItemId, point: Point) -> None:
        """Register a public object at ``point``."""
        if object_id in self._row:
            raise RegistrationError(f"duplicate public object: {object_id!r}")
        self._rtree.insert(object_id, Rect.from_point(point))
        [row] = self._append([object_id], [point])
        self._cols[row] = (point.x, point.y)
        self._touch()

    def move(self, object_id: ItemId, point: Point) -> None:
        """Update a moving public object (e.g. a police car)."""
        row = self._row.get(object_id)
        if row is None:
            raise RegistrationError(f"unknown public object: {object_id!r}")
        self._rtree.update(object_id, Rect.from_point(point))
        self._geoms[row] = point
        self._cols[row] = (point.x, point.y)
        self._touch()

    def _geometries(self, rects: list[Rect]) -> list:
        return [Point(rect.min_x, rect.min_y) for rect in rects]

    def _copy_columns(self, block: np.ndarray) -> tuple[np.ndarray, ...]:
        return block[:, 0].copy(), block[:, 1].copy()

    def snapshot_arrays(
        self,
    ) -> tuple[tuple[ItemId, ...], np.ndarray, np.ndarray]:
        """Point-in-time ``(ids, xs, ys)`` view of every public object.

        The columns as of the current version, copied once on the first
        read after a write and shared by every read until the next one.
        The arrays are immutable (non-writeable).
        """
        ids, _, (xs, ys) = self._frozen()
        return ids, xs, ys

    def point_of(self, object_id: ItemId) -> Point:
        try:
            return self._geoms[self._row[object_id]]
        except KeyError:
            raise RegistrationError(f"unknown public object: {object_id!r}") from None

    def range_query(self, window: Rect) -> list[ItemId]:
        """Objects whose exact point lies in ``window``."""
        return self._rtree.range_query(window)

    def nearest(self, point: Point, k: int = 1) -> list[ItemId]:
        return self._rtree.nearest(point, k)

    def nearest_iter(self, point: Point) -> Iterator[tuple[ItemId, float]]:
        """Incremental nearest-first iteration of ``(id, distance)``."""
        return self._rtree.nearest_iter(point)


class PrivateStore(_Store):
    """Cloaked-region objects (the paper's "private data").

    The paper stresses that privacy is managed *before* storage: "we aim
    not to store the data at all.  Instead, we store perturbed version of
    the data."  Accordingly this store accepts only regions; there is no
    API through which an exact private location could even enter.
    """

    _WIDTH = 4
    _KIND = "private"

    def set_region(self, object_id: ItemId, region: Rect) -> None:
        """Insert or replace the cloaked region of ``object_id``."""
        row = self._row.get(object_id)
        if row is None:
            self._rtree.insert(object_id, region)
            [row] = self._append([object_id], [region])
        else:
            self._rtree.update(object_id, region)
            self._geoms[row] = region
        self._cols[row] = _SIDES(region)
        self._touch()

    def set_regions(self, regions: Mapping[ItemId, Rect]) -> None:
        """Insert or replace many cloaked regions in one batch.

        The bulk publication step of the vectorized anonymizer path: the
        batch lands in the coordinate columns as one vectorised
        assignment.  When it covers at least :data:`REBUILD_FRACTION` of
        the resulting store, the backing R-tree is rebuilt by STR bulk
        loading (near-100 % fill, tight MBRs) instead of churned item by
        item — the dominant case, since a reporting round republishes
        everybody.  The version advances by one per region either way.
        """
        if not regions:
            return
        ids = list(regions)
        geoms = list(regions.values())
        rows = np.fromiter(map(self._row.get, ids, repeat(-1)), np.intp, len(ids))
        is_new = rows < 0
        fresh = is_new.tolist()
        rebuild = len(ids) >= REBUILD_FRACTION * (len(self._row) + fresh.count(True))
        if not rebuild:
            for object_id, region, new in zip(ids, geoms, fresh):
                if new:
                    self._rtree.insert(object_id, region)
                else:
                    self._rtree.update(object_id, region)
        for row, region in zip(rows.tolist(), geoms):
            if row >= 0:
                self._geoms[row] = region
        added = self._append(list(compress(ids, fresh)), list(compress(geoms, fresh)))
        rows[is_new] = added
        self._cols[rows] = _sides(geoms, len(ids))
        if rebuild:
            rebuilt = RTree.bulk_load(dict(self.items()), max_entries=self._max_entries)
            rebuilt._obs_counters = self._rtree.counters
            self._rtree = rebuilt
        self._touch(len(ids))

    def _geometries(self, rects: list[Rect]) -> list:
        return rects

    def _copy_columns(self, block: np.ndarray) -> tuple[np.ndarray, ...]:
        return (block.copy(),)

    def snapshot_arrays(self) -> tuple[tuple[ItemId, ...], np.ndarray]:
        """Point-in-time ``(ids, bounds)`` view of every cloaked region.

        ``bounds`` is an immutable ``(n, 4)`` array of ``(min_x, min_y,
        max_x, max_y)`` rows aligned with ``ids``; frozen per store
        version like :meth:`PublicStore.snapshot_arrays`.
        """
        ids, _, (bounds,) = self._frozen()
        return ids, bounds

    def region_of(self, object_id: ItemId) -> Rect:
        try:
            return self._geoms[self._row[object_id]]
        except KeyError:
            raise RegistrationError(f"unknown private object: {object_id!r}") from None

    def overlapping(self, window: Rect) -> list[ItemId]:
        """Objects whose cloaked region intersects ``window``."""
        return self._rtree.range_query(window)
