"""Data stores of the privacy-aware location-based database server.

Section 6.1 of the paper splits server-side data into:

* **public data** — exact locations that need no protection: stationary
  facilities (gas stations, hospitals) and moving public objects (police
  cars, on-site workers).  Held in :class:`PublicStore`.
* **private data** — mobile users represented *only* by their cloaked
  spatial regions; the server never sees their exact points.  Held in
  :class:`PrivateStore`.

Both stores are thin R-tree wrappers: they add identity bookkeeping and the
iteration hooks the query processors need.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, Mapping

import numpy as np

from repro.core.errors import RegistrationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import IndexCounters, ItemId
from repro.index.rtree import RTree

#: Mutations each store remembers for incremental snapshot deltas; gaps
#: wider than this force a full snapshot re-capture (bounded memory).
CHANGELOG_KEEP = 4096

#: A batch covering at least this fraction of the resulting private store
#: rebuilds the R-tree by STR bulk loading instead of per-item updates.
REBUILD_FRACTION = 0.5


class _Store:
    """What both stores keep besides their entries: the backing R-tree, a
    mutation counter, the bounded changelog snapshot deltas read, and the
    cached snapshot every mutation invalidates."""

    def __init__(self, max_entries: int) -> None:
        self._rtree = RTree(max_entries=max_entries)
        self._version = 0
        self._snapshot: tuple | None = None
        self._changelog: deque[tuple[ItemId, Point | Rect | None]] = deque(
            maxlen=CHANGELOG_KEEP
        )

    def _touch(self, object_id: ItemId, payload: Point | Rect | None) -> None:
        self._version += 1
        self._snapshot = None
        self._changelog.append((object_id, payload))

    def restore(self, index: RTree, version: int) -> None:
        """Become the store a checkpoint recorded: ``index`` holds the entries.

        The mutation counter is restored verbatim so replayed updates
        advance it exactly as the uncrashed run did; the changelog starts
        empty, so the first batch after a recovery captures its engine
        snapshot from the restored store, as after any bulk tick.
        """
        self._rtree = index
        self._version = version
        self._snapshot = None
        self._changelog.clear()

    @property
    def version(self) -> int:
        """Monotonic mutation counter (snapshot-cache invalidation key)."""
        return self._version

    def changes_since(self, version: int) -> list | None:
        """Mutations after ``version``, oldest-first (``None`` payload =
        removal); ``None`` when the changelog no longer covers the gap
        and callers must re-capture.

        Versions advance by exactly one per logged mutation, so the gap
        *is* the entry count.
        """
        delta = self._version - version
        if delta < 0 or delta > len(self._changelog):
            return None
        if delta == 0:
            return []
        return list(islice(self._changelog, len(self._changelog) - delta, None))

    @property
    def index_counters(self) -> IndexCounters:
        """Cumulative work counters of the backing R-tree (observability)."""
        return self._rtree.counters


class PublicStore(_Store):
    """Exact point objects (the paper's "public data")."""

    def __init__(self, max_entries: int = 16) -> None:
        super().__init__(max_entries)
        self._points: dict[ItemId, Point] = {}

    @classmethod
    def from_points(
        cls, points: dict[ItemId, Point], max_entries: int = 16
    ) -> "PublicStore":
        """Bulk-load a store from a full catalogue (STR-packed R-tree).

        The right constructor for static POI datasets: a packed tree is
        shallower and tighter than one grown by repeated inserts.
        """
        store = cls(max_entries=max_entries)
        store._points = dict(points)
        store._rtree = RTree.bulk_load(
            {object_id: Rect.from_point(p) for object_id, p in points.items()},
            max_entries=max_entries,
        )
        return store

    def add(self, object_id: ItemId, point: Point) -> None:
        """Register a public object at ``point``."""
        if object_id in self._points:
            raise RegistrationError(f"duplicate public object: {object_id!r}")
        self._points[object_id] = point
        self._rtree.insert(object_id, Rect.from_point(point))
        self._touch(object_id, point)

    def move(self, object_id: ItemId, point: Point) -> None:
        """Update a moving public object (e.g. a police car)."""
        if object_id not in self._points:
            raise RegistrationError(f"unknown public object: {object_id!r}")
        self._rtree.update(object_id, Rect.from_point(point))
        self._points[object_id] = point
        self._touch(object_id, point)

    def remove(self, object_id: ItemId) -> None:
        if object_id not in self._points:
            raise RegistrationError(f"unknown public object: {object_id!r}")
        self._rtree.delete(object_id)
        del self._points[object_id]
        self._touch(object_id, None)

    def restore(self, index: RTree, version: int) -> None:
        super().restore(index, version)
        self._points = {}
        for object_id in index:
            rect = index.geometry_of(object_id)
            self._points[object_id] = Point(rect.min_x, rect.min_y)

    def snapshot_arrays(
        self,
    ) -> tuple[tuple[ItemId, ...], np.ndarray, np.ndarray]:
        """Point-in-time ``(ids, xs, ys)`` view of every public object.

        Built once per store version via the backing index's bulk export
        (:meth:`~repro.index.base.SpatialIndex.snapshot_rects`) and reused
        until the next mutation, so consecutive batches over a quiescent
        store pay nothing.  The arrays are immutable (non-writeable).
        """
        if self._snapshot is None:
            ids, bounds = self._rtree.snapshot_rects()
            xs = bounds[:, 0].copy()
            ys = bounds[:, 1].copy()
            xs.flags.writeable = False
            ys.flags.writeable = False
            self._snapshot = (tuple(ids), xs, ys)
        return self._snapshot

    def point_of(self, object_id: ItemId) -> Point:
        try:
            return self._points[object_id]
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

    def items(self) -> Iterator[tuple[ItemId, Point]]:
        return iter(self._points.items())

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[ItemId]:
        return iter(self._points)

    def __contains__(self, object_id: ItemId) -> bool:
        return object_id in self._points


class PrivateStore(_Store):
    """Cloaked-region objects (the paper's "private data").

    The paper stresses that privacy is managed *before* storage: "we aim
    not to store the data at all.  Instead, we store perturbed version of
    the data."  Accordingly this store accepts only regions; there is no
    API through which an exact private location could even enter.
    """

    def __init__(self, max_entries: int = 16) -> None:
        super().__init__(max_entries)
        self._max_entries = max_entries
        self._regions: dict[ItemId, Rect] = {}

    def set_region(self, object_id: ItemId, region: Rect) -> None:
        """Insert or replace the cloaked region of ``object_id``."""
        if object_id in self._regions:
            self._rtree.update(object_id, region)
        else:
            self._rtree.insert(object_id, region)
        self._regions[object_id] = region
        self._touch(object_id, region)

    def set_regions(self, regions: Mapping[ItemId, Rect]) -> None:
        """Insert or replace many cloaked regions in one batch.

        The bulk publication step of the vectorized anonymizer path.  When
        the batch covers at least :data:`REBUILD_FRACTION` of the
        resulting store, the backing R-tree is rebuilt by STR bulk loading
        (near-100 % fill, tight MBRs) instead of churned item by item —
        the dominant case, since a reporting round republishes everybody.
        The changelog stays one entry per version bump either way, so
        incremental snapshot deltas keep working across bulk rounds.
        """
        if not regions:
            return
        fresh = sum(
            1 for object_id in regions if object_id not in self._regions
        )
        total = len(self._regions) + fresh
        if len(regions) >= REBUILD_FRACTION * total:
            self._regions.update(regions)
            rebuilt = RTree.bulk_load(
                self._regions, max_entries=self._max_entries
            )
            rebuilt._obs_counters = self._rtree.counters
            self._rtree = rebuilt
        else:
            for object_id, region in regions.items():
                if object_id in self._regions:
                    self._rtree.update(object_id, region)
                else:
                    self._rtree.insert(object_id, region)
                self._regions[object_id] = region
        self._version += len(regions)
        self._snapshot = None
        self._changelog.extend(regions.items())

    def remove(self, object_id: ItemId) -> None:
        if object_id not in self._regions:
            raise RegistrationError(f"unknown private object: {object_id!r}")
        self._rtree.delete(object_id)
        del self._regions[object_id]
        self._touch(object_id, None)

    def restore(self, index: RTree, version: int) -> None:
        super().restore(index, version)
        self._regions = {object_id: index.geometry_of(object_id) for object_id in index}

    def snapshot_arrays(self) -> tuple[tuple[ItemId, ...], np.ndarray]:
        """Point-in-time ``(ids, bounds)`` view of every cloaked region.

        ``bounds`` is an immutable ``(n, 4)`` array of ``(min_x, min_y,
        max_x, max_y)`` rows aligned with ``ids``; cached per store
        version like :meth:`PublicStore.snapshot_arrays`.
        """
        if self._snapshot is None:
            ids, bounds = self._rtree.snapshot_rects()
            bounds.flags.writeable = False
            self._snapshot = (tuple(ids), bounds)
        return self._snapshot

    def region_of(self, object_id: ItemId) -> Rect:
        try:
            return self._regions[object_id]
        except KeyError:
            raise RegistrationError(f"unknown private object: {object_id!r}") from None

    def overlapping(self, window: Rect) -> list[ItemId]:
        """Objects whose cloaked region intersects ``window``."""
        return self._rtree.range_query(window)

    def items(self) -> Iterator[tuple[ItemId, Rect]]:
        return iter(self._regions.items())

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[ItemId]:
        return iter(self._regions)

    def __contains__(self, object_id: ItemId) -> bool:
        return object_id in self._regions
