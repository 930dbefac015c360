"""Live planner statistics: what ``python -m repro plan`` prints.

The planner routes by kind (:data:`repro.planner.planner.ROUTE_TABLE`),
so nothing here feeds a decision.  A :class:`PlannerStats` snapshot is
the live state next to the decision table: store sizes and versions,
whether the batch engine's cached snapshot is fresh, and the native
stores' cumulative :class:`~repro.index.base.IndexCounters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import LocationServer


@dataclass
class PlannerStats:
    """One coherent snapshot of the server's stores."""

    n_public: int
    n_private: int
    public_version: int
    private_version: int
    snapshot_fresh: bool
    live_counters: dict[str, dict[str, int]]

    def to_dict(self) -> dict:
        return {
            "n_public": self.n_public,
            "n_private": self.n_private,
            "public_version": self.public_version,
            "private_version": self.private_version,
            "snapshot_fresh": self.snapshot_fresh,
            "live_counters": self.live_counters,
        }


class StatisticsCollector:
    """Reads :class:`PlannerStats` off the live server."""

    #: Always 0: the route table is never calibrated.  Kept because the
    #: frozen ``bench/`` harness reads it.
    calibrations = 0

    def __init__(self, server: "LocationServer") -> None:
        self.server = server

    def stats(self, snapshot=None) -> PlannerStats:
        """A fresh :class:`PlannerStats`.

        Args:
            snapshot: the engine's current ``ServerSnapshot`` (or
                ``None``), judged for freshness against the stores.
        """
        public = self.server.public
        private = self.server.private
        return PlannerStats(
            n_public=len(public),
            n_private=len(private),
            public_version=public.version,
            private_version=private.version,
            snapshot_fresh=bool(
                snapshot is not None and snapshot.matches(self.server)
            ),
            live_counters={
                "server.public": public.index_counters.snapshot(),
                "server.private": private.index_counters.snapshot(),
            },
        )
