"""The batch query executor and the one table of query runners.

:data:`RUNNERS` holds one row per native query kind
(:func:`repro.queries.spec.native_kind`): the span a single execution
opens, which store it searches, the scalar processor ``f(index, spec,
rank)`` — the same function on the native store and on any replica
backend — and the vectorised kernel where one exists.  The planner's
single-query path and this module's batch path both run through it, so
a kind has one scalar implementation and one kernel, wherever it is
called from.  Adding a query kind is one spec class plus one row here.

:class:`BatchEngine` answers a heterogeneous list of specs in one pass:
it freezes the server's object tables into a
:class:`~repro.engine.snapshot.ServerSnapshot` (reused across batches
while the stores are quiescent), groups the batch by kind and route, and
runs each group through its kernel — rectangle containment, radius
membership, k-NN distance ranking, probabilistic count — or, for kinds
and positions routed scalar, through the per-query processor.

Canonical result order: id lists follow snapshot row order (ranges,
counts, candidate sets) or nearest-first with snapshot-rank tie-breaks
(k-NN) on both routes, so the routes are interchangeable and
differential-testable.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.engine import kernels
from repro.engine.snapshot import ServerSnapshot
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.obs.events import (
    BATCH_EXECUTED,
    SNAPSHOT_CAPTURED,
    SNAPSHOT_REUSED,
)
from repro.queries.private_knn import private_knn_query
from repro.queries.private_nn import private_nn_query
from repro.queries.private_range import PrivateRangeResult, private_range_query
from repro.queries.probabilistic import CountAnswer
from repro.queries.public_nn import public_nn_query
from repro.queries.public_range import (
    membership_probabilities,
    public_range_count,
)
from repro.queries.spec import QuerySpec, native_kind, require_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import LocationServer

#: Result of one query, by kind: ``public_range`` / ``public_knn`` ->
#: tuple of ids, ``public_count`` -> :class:`CountAnswer`, ``public_nn``
#: -> :class:`PublicNNResult`, ``private_*`` -> the ``Private*Result``
#: with a rank-sorted candidate tuple.
BatchResult = object


# ----------------------------------------------------------------------
# Scalar processors: f(index, spec, rank) on a native store or a replica
# ----------------------------------------------------------------------


def _in_rank_order(items: Iterable, rank: Mapping) -> tuple:
    fallback = len(rank)
    return tuple(sorted(items, key=lambda item: rank.get(item, fallback)))


def _canonical_candidates(result, rank: Mapping):
    """Re-order a processor result's candidate tuple into snapshot order."""
    return dataclasses.replace(
        result, candidates=_in_rank_order(result.candidates, rank)
    )


def _public_range_scalar(index, spec, rank) -> tuple:
    return _in_rank_order(index.range_query(spec.window), rank)


def _public_knn_scalar(index, spec, rank) -> tuple:
    """k-NN on any backend, identical to the vectorized kernel.

    The kernel ranks by ``(squared distance, snapshot rank)``.  Any
    *valid* k-NN answer from the backend yields a sound threshold: its
    max squared distance is >= the true k-th smallest (if the backend's
    tie choices differ, it includes a farther point), so the window plus
    ``d2 <= threshold`` filter is a superset of the canonical answer,
    and the final sort/truncate is exact.
    """
    point = spec.point
    kk = min(spec.k, len(rank))
    if kk <= 0:
        return ()
    point_of = index.point_of
    raw = index.nearest(point, kk)
    threshold = max(point_of(i).squared_distance_to(point) for i in raw)
    # Pad the sqrt against rounding: a too-wide window is harmless, the
    # d2 filter below keeps exactness.
    half = math.sqrt(threshold) * (1.0 + 1e-12) + 1e-300
    window = Rect(point.x - half, point.y - half, point.x + half, point.y + half)
    kept = [
        (d2, rank[item], item)
        for item in index.range_query(window)
        if (d2 := point_of(item).squared_distance_to(point)) <= threshold
    ]
    kept.sort(key=lambda row: (row[0], row[1]))
    return tuple(item for _, _, item in kept[:kk])


def _public_count_scalar(index, spec, rank) -> CountAnswer:
    probabilities = public_range_count(index, spec.window).probabilities
    return CountAnswer(
        {
            item: probabilities[item]
            for item in _in_rank_order(probabilities, rank)
        }
    )


def _public_nn_scalar(index, spec, rank):
    return public_nn_query(
        index, spec.point, spec.samples, np.random.default_rng(spec.seed)
    )


def _private_range_scalar(index, spec, rank):
    return _canonical_candidates(
        private_range_query(index, spec.region, spec.radius, spec.method), rank
    )


def _private_nn_scalar(index, spec, rank):
    return _canonical_candidates(
        private_nn_query(index, spec.region, spec.method), rank
    )


def _private_knn_scalar(index, spec, rank):
    return _canonical_candidates(
        private_knn_query(index, spec.region, spec.k, spec.method), rank
    )


# ----------------------------------------------------------------------
# Vectorised kernels: f(snapshot, specs) over one homogeneous group
# ----------------------------------------------------------------------


def _public_range_kernel(snapshot: ServerSnapshot, specs: Sequence) -> list:
    windows = kernels.windows_array([s.window for s in specs])
    rows_per_query = kernels.points_in_windows_grid(
        snapshot.public_grid, windows
    )
    ids = snapshot.public_ids
    return [tuple(ids[row] for row in rows) for rows in rows_per_query]


def _public_knn_kernel(snapshot: ServerSnapshot, specs: Sequence) -> list:
    qx = np.array([s.point.x for s in specs])
    qy = np.array([s.point.y for s in specs])
    rows_per_query = kernels.knn_points_grid(
        snapshot.public_grid, qx, qy, [s.k for s in specs]
    )
    ids = snapshot.public_ids
    return [tuple(ids[row] for row in rows) for rows in rows_per_query]


def _public_count_kernel(snapshot: ServerSnapshot, specs: Sequence) -> list:
    windows = kernels.windows_array([s.window for s in specs])
    rows_per_query = kernels.rects_intersecting_window(
        snapshot.private_bounds, windows
    )
    answers = []
    ids = snapshot.private_ids
    for spec, rows in zip(specs, rows_per_query):
        probs = membership_probabilities(
            snapshot.private_bounds[rows], spec.window
        )
        answers.append(
            CountAnswer({ids[row]: float(p) for row, p in zip(rows, probs)})
        )
    return answers


def _private_range_kernel(snapshot: ServerSnapshot, specs: Sequence) -> list:
    regions = kernels.windows_array([s.region for s in specs])
    radii = np.array([s.radius for s in specs])
    rows_per_query: list = [None] * len(specs)
    # The exact method applies the rounded-rectangle distance test;
    # the mbr method keeps everything inside the expanded window.
    exact = [i for i, s in enumerate(specs) if s.method == "exact"]
    mbr = [i for i, s in enumerate(specs) if s.method != "exact"]
    if exact:
        for i, rows in zip(
            exact,
            kernels.points_within_radius(
                snapshot.public_xs,
                snapshot.public_ys,
                regions[exact],
                radii[exact],
            ),
        ):
            rows_per_query[i] = rows
    if mbr:
        expanded = regions[mbr].copy()
        expanded[:, 0] -= radii[mbr]
        expanded[:, 1] -= radii[mbr]
        expanded[:, 2] += radii[mbr]
        expanded[:, 3] += radii[mbr]
        for i, rows in zip(
            mbr,
            kernels.points_in_windows(
                snapshot.public_xs, snapshot.public_ys, expanded
            ),
        ):
            rows_per_query[i] = rows
    ids = snapshot.public_ids
    return [
        PrivateRangeResult(
            region=s.region,
            radius=s.radius,
            candidates=tuple(ids[row] for row in rows_per_query[i]),
            method=s.method,
        )
        for i, s in enumerate(specs)
    ]


# ----------------------------------------------------------------------
# The runner table
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Runner:
    """How one native query kind executes.

    Attributes:
        span: the stage a single execution is timed under.
        side: the store it searches (``public`` / ``private``), whose
            snapshot rank is its canonical result order.
        scalar: ``f(index, spec, rank)`` — ``index`` is the native store
            or a replica read through the store's interface.
        kernel: ``f(snapshot, specs)`` over a homogeneous group, or
            ``None`` for kinds that resist vectorisation (dominance /
            Voronoi filters, Monte-Carlo sampling).
        span_attrs: spec fields copied onto the span.
        candidates: True when the answer is a candidate set whose size
            is observed and logged as ``candidates.generated``.
    """

    span: str
    side: str
    scalar: Callable
    kernel: Callable | None = None
    span_attrs: tuple[str, ...] = ()
    candidates: bool = False


RUNNERS: dict[str, Runner] = {
    "public_range": Runner(
        "server.public_range", "public",
        _public_range_scalar, _public_range_kernel,
    ),
    "public_knn": Runner(
        "server.public_nn_exact", "public",
        _public_knn_scalar, _public_knn_kernel, ("k",),
    ),
    "public_count": Runner(
        "server.public_count", "private",
        _public_count_scalar, _public_count_kernel,
    ),
    "public_nn": Runner(
        "server.public_nn", "private", _public_nn_scalar, None, ("samples",)
    ),
    "private_range": Runner(
        "server.private_range", "public",
        _private_range_scalar, _private_range_kernel, ("method",), True,
    ),
    "private_nn": Runner(
        "server.private_nn", "public",
        _private_nn_scalar, None, ("method",), True,
    ),
    "private_knn": Runner(
        "server.private_knn", "public",
        _private_knn_scalar, None, ("method",), True,
    ),
}


class BatchEngine:
    """Executes query batches against a frozen snapshot of one server.

    Args:
        server: the :class:`~repro.core.server.LocationServer` to answer
            from.  The engine reads the server's stores; it never mutates
            them.
        telemetry: observability sink; the server's own when omitted.
    """

    def __init__(
        self, server: "LocationServer", telemetry: Telemetry | None = None
    ) -> None:
        self.server = server
        self.telemetry = telemetry if telemetry is not None else server.telemetry
        self._cached: ServerSnapshot | None = None

    # ------------------------------------------------------------------
    # Snapshot lifecycle
    # ------------------------------------------------------------------

    def snapshot(self) -> ServerSnapshot:
        """The current frozen view, recaptured only after store mutations."""
        cached = self._cached
        if cached is not None and cached.matches(self.server):
            self.telemetry.count("engine.snapshot", result="reused")
            self.telemetry.emit(
                SNAPSHOT_REUSED,
                n_public=cached.n_public,
                n_private=cached.n_private,
            )
            return cached
        with self.telemetry.span("engine.snapshot"):
            self._cached = ServerSnapshot.capture(self.server, cached)
        self.telemetry.count("engine.snapshot", result="captured")
        self.telemetry.emit(
            SNAPSHOT_CAPTURED,
            n_public=self._cached.n_public,
            n_private=self._cached.n_private,
        )
        return self._cached

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        specs: Iterable[QuerySpec],
        *,
        routes: Sequence[bool] | None = None,
    ) -> list[BatchResult]:
        """Answer every spec, results aligned with the input order.

        Args:
            specs: any mix of public or region-bound specs (user-bound
                ones need the anonymizer: ``PrivacySystem.query``).
            routes: optional per-spec route vector from the cost-based
                planner, aligned with ``specs`` (``True`` = vectorized
                kernel, ``False`` = scalar processor).  Without it every
                kind that has a kernel takes it; kinds without one stay
                scalar regardless.
        """
        batch = list(specs)
        if routes is not None and len(routes) != len(batch):
            raise ValueError(
                f"routes length {len(routes)} != batch size {len(batch)}"
            )
        groups: dict[tuple[str, bool], list[int]] = {}
        for position, spec in enumerate(batch):
            require_bound(spec)
            kind = native_kind(spec)
            vectorized = RUNNERS[kind].kernel is not None and (
                routes is None or bool(routes[position])
            )
            groups.setdefault((kind, vectorized), []).append(position)
        # Same batch scope as any enclosing system/server entry point —
        # a direct engine call mints its own batch id (repro.obs.correlate).
        with self.telemetry.correlate("b", reuse=True):
            with self.telemetry.span("engine.batch", size=len(batch)):
                snapshot = self.snapshot()
                self.telemetry.observe("engine.batch_size", len(batch))
                results: list[BatchResult] = [None] * len(batch)
                kinds: dict[str, int] = {}
                for (kind, vectorized), positions in groups.items():
                    kinds[kind] = kinds.get(kind, 0) + len(positions)
                    self.telemetry.count(
                        "engine.queries",
                        amount=len(positions),
                        kind=kind,
                        path="vectorized" if vectorized else "scalar",
                    )
                    runner = RUNNERS[kind]
                    members = [batch[p] for p in positions]
                    with self.telemetry.span(
                        f"engine.{kind}", n=len(positions)
                    ):
                        if vectorized:
                            answers = runner.kernel(snapshot, members)
                        else:
                            store = getattr(self.server, runner.side)
                            rank = getattr(snapshot, f"{runner.side}_rank")
                            answers = [
                                runner.scalar(store, spec, rank)
                                for spec in members
                            ]
                    for position, answer in zip(positions, answers):
                        results[position] = answer
            self.telemetry.emit(
                BATCH_EXECUTED,
                size=len(batch),
                kinds=dict(sorted(kinds.items())),
            )
        return results
