"""Common interface for the spatial indexes.

Every index stores ``(item_id, geometry)`` entries where the geometry is a
:class:`~repro.geometry.rect.Rect` (points are stored as degenerate
rectangles).  Storing rectangles uniformly lets the same index back both the
public data store (exact POI points) and the private data store (cloaked
regions) of the location-based database server.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import Hashable, Iterator


from repro.geometry.point import Point
from repro.geometry.rect import Rect

ItemId = Hashable


@dataclass
class IndexCounters:
    """Cumulative per-index work accounting (observability layer).

    Implementations accumulate into local variables during a query and
    flush once on return, so the cost is a handful of integer adds per
    query, not per node.

    Attributes:
        range_queries / nn_queries: number of queries answered.
        node_visits: internal structure elements examined (tree nodes,
            grid cells, pyramid buckets).
        leaf_scans: stored entries tested against the query predicate.
        distance_computations: exact point/rect distance evaluations.
    """

    range_queries: int = 0
    nn_queries: int = 0
    node_visits: int = 0
    leaf_scans: int = 0
    distance_computations: int = 0

    def snapshot(self) -> dict[str, int]:
        return asdict(self)

    def reset(self) -> None:
        self.range_queries = 0
        self.nn_queries = 0
        self.node_visits = 0
        self.leaf_scans = 0
        self.distance_computations = 0


class SpatialIndex(ABC):
    """Abstract dynamic spatial index over ``(item_id, Rect)`` entries."""

    @property
    def counters(self) -> IndexCounters:
        """Work counters, created lazily so subclasses need no super().__init__."""
        counters = getattr(self, "_obs_counters", None)
        if counters is None:
            counters = IndexCounters()
            self._obs_counters = counters
        return counters

    @abstractmethod
    def insert(self, item_id: ItemId, geom: Rect) -> None:
        """Add an entry.  ``item_id`` must not already be present."""

    @abstractmethod
    def delete(self, item_id: ItemId) -> None:
        """Remove an entry.  Raises ``KeyError`` if absent."""

    @abstractmethod
    def range_query(self, window: Rect) -> list[ItemId]:
        """Ids of all entries whose geometry intersects ``window``."""

    @abstractmethod
    def nearest(self, point: Point, k: int = 1) -> list[ItemId]:
        """Ids of the ``k`` entries with smallest min-distance to ``point``.

        Returned nearest-first.  Fewer than ``k`` ids are returned when the
        index holds fewer entries.
        """

    @abstractmethod
    def geometry_of(self, item_id: ItemId) -> Rect:
        """The stored geometry for ``item_id``.  Raises ``KeyError`` if absent."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of entries."""

    @abstractmethod
    def __iter__(self) -> Iterator[ItemId]:
        """Iterate over all stored ids (no particular order)."""

    def update(self, item_id: ItemId, geom: Rect) -> None:
        """Move an existing entry to a new geometry (delete + insert).

        All or nothing: an unknown id raises ``KeyError``, and a geometry
        the backend refuses (outside its universe, not a point) raises
        its ``ValueError`` with the old entry back in place.
        """
        old = self.geometry_of(item_id)
        self.delete(item_id)
        try:
            self.insert(item_id, geom)
        except ValueError:
            self.insert(item_id, old)
            raise

    def insert_point(self, item_id: ItemId, point: Point) -> None:
        """Convenience: insert a point as a degenerate rectangle."""
        self.insert(item_id, Rect.from_point(point))

    def __contains__(self, item_id: ItemId) -> bool:
        try:
            self.geometry_of(item_id)
        except KeyError:
            return False
        return True
