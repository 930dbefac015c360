"""The privacy-aware location-based database server (Section 6).

The server supports all four combinations of Section 6.1's data/query
taxonomy:

=================== ======================= ============================
query \\ data        public data             private data
=================== ======================= ============================
public query        classic spatio-temporal  probabilistic range / NN
                    range & NN               (Figure 6)
private query       candidate-set range & NN reducible to the other two
                    (Figure 5)               (see paper, end of §6.1)
=================== ======================= ============================

It never receives exact private locations: private data arrives only as
cloaked regions pushed by the :class:`~repro.core.anonymizer.LocationAnonymizer`.

Every question is a :class:`~repro.queries.spec.QuerySpec`, answered
through :attr:`LocationServer.planner`, which accounts it under its
:func:`~repro.queries.spec.native_kind` and runs it through its kind's
runner (:data:`repro.engine.batch.RUNNERS`), one spec at a time or many
at once on the batch engine (:meth:`LocationServer.execute_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.core.errors import QueryError
from repro.core.stores import PrivateStore, PublicStore
from repro.engine.batch import BatchEngine, BatchResult
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry, get_telemetry
from repro.obs.events import (
    MONITOR_DROPPED,
    MONITOR_REGISTERED,
    POI_ADDED,
    POI_MOVED,
    POI_REMOVED,
)
from repro.queries.continuous import ContinuousCountMonitor
from repro.queries.spec import QuerySpec


@dataclass(frozen=True)
class ServerStats:
    """Typed operational snapshot — counts are ints, never coerced to float.

    Attributes:
        public_objects / private_regions / monitors: store sizes now.
        region_updates: cloaked-region pushes received over the lifetime.
        queries_served: total queries, with the per-kind breakdown in
            ``queries_by_kind``.
    """

    public_objects: int
    private_regions: int
    monitors: int
    region_updates: int
    queries_served: int
    queries_by_kind: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        """Flat ``{name: int}`` form (telemetry snapshots, exporters)."""
        out = {
            "public_objects": self.public_objects,
            "private_regions": self.private_regions,
            "monitors": self.monitors,
            "region_updates": self.region_updates,
            "queries_served": self.queries_served,
        }
        for kind, count in sorted(self.queries_by_kind.items()):
            out[f"queries_{kind}"] = count
        return out


class LocationServer:
    """Privacy-aware location-based database server.

    Args:
        telemetry: observability sink for spans and query metrics; the
            process-global telemetry is used when omitted (a
            :class:`~repro.core.system.PrivacySystem` injects its own).
    """

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.public = PublicStore()
        self.private = PrivateStore()
        self._monitors: dict[Hashable, ContinuousCountMonitor] = {}
        self._engine: BatchEngine | None = None
        self._planner = None
        self.queries_served = 0
        self.queries_by_kind: dict[str, int] = {}
        self.region_updates_received = 0

    def stats(self) -> ServerStats:
        """Operational snapshot: store sizes, update and query counters."""
        return ServerStats(
            public_objects=len(self.public),
            private_regions=len(self.private),
            monitors=len(self._monitors),
            region_updates=self.region_updates_received,
            queries_served=self.queries_served,
            queries_by_kind=dict(self.queries_by_kind),
        )

    def record_query(self, kind: str, n: int = 1) -> None:
        """Count ``n`` served queries under their native ``kind``.

        Called by the planner for each decision it runs, before the
        ``planner.decision`` record that makes the count durable, so a
        question counts under one name whatever route answers it.
        """
        self._count_queries(kind, n)
        self.telemetry.count("server.queries", amount=n, kind=kind)

    def _count_queries(self, kind: str, n: int) -> None:
        """Applier of ``planner.decision``: the served-query counters (no
        telemetry; crash recovery replays it)."""
        self.queries_served += n
        self.queries_by_kind[kind] = self.queries_by_kind.get(kind, 0) + n

    # ------------------------------------------------------------------
    # Public data maintenance (exact locations, no privacy)
    # ------------------------------------------------------------------

    def add_public_object(self, object_id: Hashable, point: Point) -> None:
        """Register a stationary or moving public object."""
        self.public.add(object_id, point)
        self.telemetry.emit(
            POI_ADDED, object=str(object_id), x=point.x, y=point.y
        )

    def move_public_object(self, object_id: Hashable, point: Point) -> None:
        self.public.move(object_id, point)
        self.telemetry.emit(
            POI_MOVED, object=str(object_id), x=point.x, y=point.y
        )

    def remove_public_object(self, object_id: Hashable) -> None:
        self.public.remove(object_id)
        self.telemetry.emit(POI_REMOVED, object=str(object_id))

    # ------------------------------------------------------------------
    # Private data maintenance (cloaked regions from the anonymizer)
    # ------------------------------------------------------------------

    def receive_region(self, pseudonym: Hashable, region: Rect) -> None:
        """Store/refresh a cloaked region and wake affected monitors."""
        self.region_updates_received += 1
        self.private.set_region(pseudonym, region)
        for monitor in self._monitors.values():
            monitor.on_region_update(pseudonym, region)

    def receive_regions(
        self, pseudonyms: Sequence[Hashable], bounds: np.ndarray
    ) -> None:
        """Store/refresh a whole batch of cloaked regions at once.

        The bulk counterpart of :meth:`receive_region` for the vectorized
        anonymizer path, as columns: distinct ``pseudonyms`` and their
        ``(n, 4)`` ``(min_x, min_y, max_x, max_y)`` ``bounds``, row for
        row.  One store-level batch insert (which may rebuild the
        backing R-tree by STR packing), one snapshot invalidation, and
        the same monitor wake-ups per region.
        """
        n = len(pseudonyms)
        if not n:
            return
        self.region_updates_received += n
        with self.telemetry.span("server.receive_regions", n=n):
            self.private.set_regions(pseudonyms, bounds)
        if self._monitors:
            region_of = self.private.region_of
            for pseudonym in pseudonyms:
                region = region_of(pseudonym)
                for monitor in self._monitors.values():
                    monitor.on_region_update(pseudonym, region)

    def forget_region(self, pseudonym: Hashable) -> None:
        """Drop a pseudonym (user unsubscribed or pseudonym rotated)."""
        self.private.remove(pseudonym)
        for monitor in self._monitors.values():
            monitor.on_object_removed(pseudonym)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    @property
    def engine(self) -> BatchEngine:
        """The server's batch executor (snapshot cache shared across calls)."""
        if self._engine is None:
            self._engine = BatchEngine(self)
        return self._engine

    @property
    def planner(self):
        """The server's query planner (created lazily).

        Lazy import keeps :mod:`repro.planner` out of the core import
        graph for callers that never plan.
        """
        if self._planner is None:
            from repro.planner import QueryPlanner

            self._planner = QueryPlanner(self)
        return self._planner

    def execute_batch(
        self,
        specs: list[QuerySpec],
        *,
        routes: "list[bool] | None" = None,
    ) -> list[BatchResult]:
        """Answer a heterogeneous batch of public or region-bound specs.

        Every query sees the same frozen snapshot of both stores; results
        align with the input order and equal the single-query answers
        (see ``docs/batch_engine.md``).  Nothing is counted here: the
        planner's ``execute_batch`` counts, and passes ``routes``, its
        per-query vectorized/scalar vector (``BatchEngine.execute``).
        """
        return self.engine.execute(specs, routes=routes)

    # ------------------------------------------------------------------
    # Continuous queries
    # ------------------------------------------------------------------

    def register_count_monitor(
        self, monitor_id: Hashable, window: Rect
    ) -> ContinuousCountMonitor:
        """Install a standing probabilistic count over ``window``.

        The monitor is seeded with the current private data and then
        maintained incrementally on every region update.
        """
        if monitor_id in self._monitors:
            raise QueryError(f"duplicate monitor id: {monitor_id!r}")
        monitor = ContinuousCountMonitor(window)
        monitor.seed_from_store(self.private)
        self._monitors[monitor_id] = monitor
        self.telemetry.emit(
            MONITOR_REGISTERED,
            monitor=str(monitor_id),
            min_x=window.min_x,
            min_y=window.min_y,
            max_x=window.max_x,
            max_y=window.max_y,
        )
        return monitor

    def drop_count_monitor(self, monitor_id: Hashable) -> None:
        if monitor_id not in self._monitors:
            raise QueryError(f"unknown monitor id: {monitor_id!r}")
        del self._monitors[monitor_id]
        self.telemetry.emit(MONITOR_DROPPED, monitor=str(monitor_id))

    def monitor(self, monitor_id: Hashable) -> ContinuousCountMonitor:
        try:
            return self._monitors[monitor_id]
        except KeyError:
            raise QueryError(f"unknown monitor id: {monitor_id!r}") from None
