"""Grid replicas of the server's stores.

The server's native stores are R-tree-backed.  To let the cost-based
planner route a query to a cheaper structure, the :class:`ReplicaSet`
maintains read-only uniform-grid copies of the store contents
(:class:`~repro.index.grid.GridIndex`, the one other backend the planner
picks, for dense uniform data), built lazily per store version and
rebuilt only after mutations.  Replicas are an *execution* alternative,
never an answer alternative: every backend is conformance-tested to
return the same result sets (``tests/conformance/``), and replica build
time is charged by the cost model so a cold replica is only chosen when
the batch is large enough to amortise it.

The grid needs a universe rectangle; the planner uses the system's world
bounds when attached to a :class:`~repro.core.system.PrivacySystem`, else
a padded bounding box of the data.  When the grid cannot represent the
current contents (true rectangles outside the R-tree, out-of-universe
data) it is simply not offered to the cost model.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index import GridIndex, RTree
from repro.index.base import SpatialIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import LocationServer

#: Every index backend the planner can route to, in display order.  The
#: native store backend is ``rtree``; ``grid`` is a replica.
BACKEND_NAMES: tuple[str, ...] = ("rtree", "grid")


def build_backend(name: str, bounds: Rect | None, n: int) -> SpatialIndex:
    """A fresh, empty index of backend ``name`` sized for ``n`` entries."""
    if name == "rtree":
        return RTree(max_entries=8)
    if name != "grid":
        raise ValueError(f"unknown backend {name!r}")
    if bounds is None or bounds.area <= 0.0:
        raise ValueError(f"backend {name!r} needs a positive-area universe")
    # ~4 entries per cell on uniform data.
    cols = max(2, int(np.ceil(np.sqrt(max(1, n) / 4.0))))
    return GridIndex(bounds, cols=cols)


def padded_extent(
    xs: np.ndarray, ys: np.ndarray, pad_fraction: float = 0.01
) -> Rect | None:
    """A slightly enlarged bounding box of the data (``None`` when empty).

    The pad keeps boundary points strictly inside the universe of
    the grid and gives degenerate extents a positive area.
    """
    if len(xs) == 0:
        return None
    min_x, max_x = float(xs.min()), float(xs.max())
    min_y, max_y = float(ys.min()), float(ys.max())
    pad = pad_fraction * max(max_x - min_x, max_y - min_y, 1.0)
    return Rect(min_x - pad, min_y - pad, max_x + pad, max_y + pad)


class Replica:
    """A replica index read through its native store's interface.

    Replicas hold ids and geometry only; the query processors also ask
    a store for an object's point or region, which the native store
    answers whatever backend did the search.
    """

    def __init__(self, index: SpatialIndex, store) -> None:
        self.index = index
        # Per-candidate lookups: bound straight to the store's own.
        self.point_of = getattr(store, "point_of", None)
        self.region_of = getattr(store, "region_of", None)

    def range_query(self, window: Rect) -> list:
        return self.index.range_query(window)

    overlapping = range_query

    def nearest(self, point: Point, k: int = 1) -> list:
        return self.index.nearest(point, k)


class ReplicaSet:
    """Lazily maintained per-backend copies of one server's stores.

    Args:
        server: the server whose stores are replicated.
        universe: world bounds for the grid; when ``None``,
            a padded data extent is used (and recomputed per version).
    """

    def __init__(
        self, server: "LocationServer", universe: Rect | None = None
    ) -> None:
        self.server = server
        self.universe = universe
        #: Seconds spent building each replica, keyed by ``(side, name)``
        #: — the cost model's measured build-amortisation input.
        self.build_seconds: dict[tuple[str, str], float] = {}
        self._built: dict[str, dict[str, tuple[int, Replica]]] = {
            "public": {},
            "private": {},
        }

    # ------------------------------------------------------------------
    # Universe / representability
    # ------------------------------------------------------------------

    def public_bounds(self) -> Rect | None:
        """Universe for a public grid replica (``None``: unbuildable)."""
        if self.universe is not None:
            return self.universe
        _, xs, ys = self.server.public.snapshot_arrays()
        return padded_extent(xs, ys)

    def private_bounds(self) -> Rect | None:
        """Universe for a private grid replica."""
        if self.universe is not None:
            return self.universe
        _, bounds = self.server.private.snapshot_arrays()
        if len(bounds) == 0:
            return None
        return padded_extent(
            np.concatenate([bounds[:, 0], bounds[:, 2]]),
            np.concatenate([bounds[:, 1], bounds[:, 3]]),
        )

    def private_degenerate(self) -> bool:
        """True when every cloaked region is a point (replicable in the
        point-oriented grid)."""
        _, bounds = self.server.private.snapshot_arrays()
        if len(bounds) == 0:
            return True
        return bool(
            np.all(bounds[:, 0] == bounds[:, 2])
            and np.all(bounds[:, 1] == bounds[:, 3])
        )

    # ------------------------------------------------------------------
    # Replica access
    # ------------------------------------------------------------------

    def fresh(self, side: str, name: str) -> bool:
        """True when ``name``'s replica of ``side`` matches the store version."""
        cached = self._built[side].get(name)
        return (
            cached is not None
            and cached[0] == getattr(self.server, side).version
        )

    def index(self, side: str, name: str):
        """What a scalar execution on backend ``name`` searches.

        The native ``public`` / ``private`` store for ``rtree``; otherwise
        the up-to-date replica (built on demand), read through the
        store's interface so one query processor serves every backend.
        """
        store = getattr(self.server, side)
        if name == "rtree":
            return store
        if self.fresh(side, name):
            return self._built[side][name][1]
        version = store.version
        if side == "public":
            ids, xs, ys = store.snapshot_arrays()
            bounds = self.public_bounds()
        else:
            if not self.private_degenerate():
                raise ValueError(
                    f"backend {name!r} stores points; the private store "
                    "holds true rectangles"
                )
            ids, rows = store.snapshot_arrays()
            xs, ys = rows[:, 0], rows[:, 1]
            bounds = self.private_bounds()
        start = time.perf_counter()
        index = build_backend(name, bounds, len(ids))
        for item, x, y in zip(ids, xs, ys):
            index.insert_point(item, Point(float(x), float(y)))
        self.build_seconds[(side, name)] = time.perf_counter() - start
        replica = Replica(index, store)
        self._built[side][name] = (version, replica)
        return replica

    def invalidate(self) -> None:
        """Drop every replica (tests / explicit refresh)."""
        for built in self._built.values():
            built.clear()
