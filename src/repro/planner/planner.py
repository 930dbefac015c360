"""The query planner: one measured route table.

:class:`QueryPlanner` turns a declarative
:class:`~repro.queries.spec.QuerySpec` into an *execution decision* —
the per-query scalar processor over the native R-tree store, or the
vectorized snapshot kernel of the batch engine — and runs it.  The
decision is a pure function of the spec's native kind and of whether it
arrives in a batch (:data:`BATCH_KERNEL_KINDS`): in a batch the public
range, count and k-NN kinds run on their kernels, everything else and
every single spec runs scalar.  ``docs/planner.md`` records the
measurements behind each row.

The planner's contract is that planning never changes answers:

* every execution path normalises results to the engine's canonical
  order (snapshot rank for ranges/counts, ``(distance, rank)`` for
  k-NN), so both routes produce the same value;
* a forced ``route=`` must be eligible for the kind: scalar always is,
  vectorized exactly when the kind has a kernel
  (:func:`eligible_routes`);
* ``tests/conformance/test_planner_differential.py`` re-proves the
  contract against every forced route and the brute-force oracle.

Observability is a property of the question, not of the chosen route: a
spec is counted, spanned and grouped under its
:func:`~repro.queries.spec.native_kind` and executed by that kind's row
of :data:`repro.engine.batch.RUNNERS`.  :meth:`QueryPlanner.execute` is
the one place a single query's count -> span -> run -> measurement
sequence lives: the count's durable record is the decision, and the
measurement carries the candidate set's size for the private kinds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable

from repro.core.errors import QueryError
from repro.engine.batch import RUNNERS
from repro.obs.events import PLANNER_DECISION, PLANNER_MEASURED
from repro.planner.stats import PlannerStats, StatisticsCollector
from repro.queries.spec import QuerySpec, native_kind, require_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import LocationServer

#: Kinds a batch runs on the vectorized kernel.  Each was timed under
#: every route on the four pipeline workloads' own batches (19-800
#: specs, two densities) and the kernel won every cell;
#: ``private_range`` has a kernel too, but the R-tree beat it.
BATCH_KERNEL_KINDS = frozenset({"public_range", "public_count", "public_knn"})

#: Report envelope schema tag of :meth:`RouteCensus.report`.
ROUTES_SCHEMA = "repro.planner.routes/1"


def eligible_routes(kind: str) -> tuple[str, ...]:
    """The routes that can answer ``kind``: scalar always, vectorized
    exactly when the kind has a kernel."""
    if RUNNERS[kind].kernel is None:
        return ("scalar",)
    return ("scalar", "vectorized")


@dataclass(frozen=True)
class Decision:
    """One planning outcome for one spec (or one kind group of a batch).

    Attributes:
        kind: the native server query kind the spec maps to (the name
            it is counted under in :meth:`LocationServer.stats`).
        route: ``scalar`` or ``vectorized``.
        reason: the route-table row (or the caller) that chose it.
        pinned: True when the kind has no kernel, so scalar is its only
            route.
        forced: True when the caller chose the route.
        backend: always ``rtree``; kept because the frozen ``bench/``
            harness keys its route census on it.
    """

    kind: str
    route: str
    reason: str
    pinned: bool = False
    forced: bool = False
    backend: str = "rtree"  # kept only because the frozen bench/ keys on it

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "backend": self.backend,
            "route": self.route,
            "reason": self.reason,
            "pinned": self.pinned,
            "forced": self.forced,
        }


def _table_row(kind: str, batched: bool) -> Decision:
    if RUNNERS[kind].kernel is None:
        return Decision(kind, "scalar", "route table: no kernel", pinned=True)
    if not batched:
        return Decision(kind, "scalar", "route table: single spec")
    if kind in BATCH_KERNEL_KINDS:
        return Decision(kind, "vectorized", "route table: batch, kernel fastest")
    return Decision(kind, "scalar", "route table: batch, R-tree fastest")


#: ``(kind, batched) -> Decision``: every unforced decision there is.
ROUTE_TABLE: dict[tuple[str, bool], Decision] = {
    (kind, batched): _table_row(kind, batched)
    for kind in RUNNERS
    for batched in (False, True)
}


class RouteCensus:
    """Executions per ``(kind, backend, route)`` group.

    The planner's ``accuracy`` attribute, named for the frozen
    ``bench/`` harness that reads its :meth:`report`.  Kinds with a
    kernel are reported under ``groups``, kinds without one under
    ``pinned_groups``.
    """

    #: Always 0: there are no predictions to miss.  Kept because the
    #: frozen ``bench/`` harness reads it.
    mispredicts = 0

    def __init__(self) -> None:
        self._samples: dict[tuple[str, str, str], int] = {}

    @property
    def observed(self) -> int:
        return sum(self._samples.values())

    def record(self, decision: Decision, n: int) -> None:
        key = (decision.kind, decision.backend, decision.route)
        self._samples[key] = self._samples.get(key, 0) + n

    def report(self) -> dict:
        sections: dict[str, dict] = {"groups": {}, "pinned_groups": {}}
        for (kind, backend, route), samples in sorted(self._samples.items()):
            pinned = RUNNERS[kind].kernel is None
            section = sections["pinned_groups" if pinned else "groups"]
            section["/".join((kind, backend, route))] = {
                "kind": kind,
                "backend": backend,
                "route": route,
                "samples": samples,
            }
        return {
            "schema": ROUTES_SCHEMA,
            "observed": self.observed,
            "mispredicts": self.mispredicts,
            **sections,
        }

    def reset(self) -> None:
        self._samples.clear()


class QueryPlanner:
    """Route chooser and executor for one server.

    Args:
        server: the :class:`~repro.core.server.LocationServer` whose
            stores (and telemetry) the planner works against.
    """

    def __init__(self, server: "LocationServer") -> None:
        self.server = server
        self.collector = StatisticsCollector(server)
        self.accuracy = RouteCensus()  # the name the frozen bench/ reads

    def stats(self) -> PlannerStats:
        """The live store statistics ``python -m repro plan`` prints."""
        engine = self.server._engine
        return self.collector.stats(None if engine is None else engine._cached)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def decide(
        self, spec: QuerySpec, batch_size: int = 1, route: str | None = None
    ) -> Decision:
        """The route for ``spec``: its :data:`ROUTE_TABLE` row, or the
        forced ``route`` when it is eligible for the kind (otherwise
        :class:`QueryError`)."""
        kind = native_kind(spec)
        if route is None:
            return ROUTE_TABLE[kind, batch_size > 1]
        eligible = eligible_routes(kind)
        if route not in eligible:
            raise QueryError(
                f"forced route={route!r} is not an eligible execution for "
                f"{kind}; eligible: {list(eligible)}"
            )
        return Decision(
            kind, route, "forced by caller", pinned=len(eligible) == 1,
            forced=True,
        )

    def require_answerable(self, specs: Iterable[QuerySpec]) -> None:
        """Refuse the call, before anything is cloaked, counted or logged,
        when one of ``specs`` is a private NN or k-NN over an empty public
        store.  The planner's entry points and the system's front door
        run it."""
        if len(self.server.public):
            return
        for kind in map(native_kind, specs):
            if kind in ("private_nn", "private_knn"):
                raise QueryError(f"{kind} query over an empty public store")

    def _chosen(self, decision: Decision, batch: int, n: int) -> None:
        """Count a decision about to run over ``n`` specs, then log it: the
        one accounting record, which recovery replays (apply, then emit)."""
        self.server.record_query(decision.kind, n)
        self.server.telemetry.emit(
            PLANNER_DECISION,
            query=decision.kind,
            backend=decision.backend,
            route=decision.route,
            reason=decision.reason,
            pinned=decision.pinned,
            forced=decision.forced,
            batch=batch,
            n=n,
        )
        self.accuracy.record(decision, n)

    # ------------------------------------------------------------------
    # Execution — single spec
    # ------------------------------------------------------------------

    def execute(
        self,
        spec: QuerySpec,
        decision: Decision | None = None,
        route: str | None = None,
    ):
        """Answer one spec under a (possibly forced) decision.

        Results are canonical and route-independent:

        * public range / NN / k-NN -> tuple of ids,
        * count -> :class:`CountAnswer`,
        * private range / NN / k-NN (region-bound) -> the
          ``Private*Result`` with rank-sorted candidate tuples,
        * public NN over private data -> :class:`PublicNNResult`.

        User-bound private specs are resolved by
        :meth:`repro.core.system.PrivacySystem.query`, which cloaks the
        user and re-enters here with the region-bound form.
        """
        require_bound(spec)
        self.require_answerable([spec])
        telemetry = self.server.telemetry
        # Share the ambient query scope (system.query opened one) so the
        # decision and the measurement below join on the same qid; mint
        # a fresh one for direct planner callers.
        with telemetry.correlate("q", reuse=True):
            if decision is None:
                decision = self.decide(spec, route=route)
            self._chosen(decision, batch=1, n=1)
            runner = RUNNERS[decision.kind]
            # The kernel's work does not land in the stores' counters.
            counters = (
                getattr(self.server, runner.side).index_counters
                if decision.route == "scalar"
                else None
            )
            before = None if counters is None else counters.snapshot()
            start = perf_counter()
            result = self._run(spec, decision)
            # "query" not "kind": attrs flatten into the JSONL record,
            # where "kind" is the event's own identity.
            attrs: dict = {
                "query": decision.kind,
                "backend": decision.backend,
                "route": decision.route,
                "seconds": perf_counter() - start,
                "n": 1,
            }
            if counters is not None:
                after = counters.snapshot()
                for name in ("node_visits", "leaf_scans", "distance_computations"):
                    attrs[name] = after[name] - before[name]
            if runner.candidates:
                size = len(result.candidates)
                telemetry.observe("candidates", size, query=decision.kind)
                attrs["method"] = spec.method
                attrs["candidates"] = size
                attrs["region_area"] = spec.region.area
                if decision.kind == "private_range":
                    attrs["radius"] = spec.radius
            telemetry.emit(PLANNER_MEASURED, **attrs)
        return result

    def _run(self, spec: QuerySpec, decision: Decision):
        """One query through its kind's runner, under its span."""
        runner = RUNNERS[decision.kind]
        with self.server.telemetry.span(
            runner.span,
            **{name: getattr(spec, name) for name in runner.span_attrs},
            backend=decision.backend,
            route=decision.route,
        ):
            if decision.route == "vectorized":
                return self.server.engine.execute([spec])[0]
            store = getattr(self.server, runner.side)
            return runner.scalar(store, spec, store.rank)

    # ------------------------------------------------------------------
    # Execution — batches
    # ------------------------------------------------------------------

    def execute_batch(
        self, specs: Iterable[QuerySpec], route: str | None = None
    ) -> list:
        """Plan and answer a whole spec batch, results in input order.

        Every spec is checked, then one decision per native kind counts
        its specs, then one ``LocationServer.execute_batch`` call runs the
        per-spec route vector (no per-query candidate events), timed as a
        whole by one ``planner.measured``.
        """
        batch = list(specs)
        for spec in batch:
            require_bound(spec)
        self.require_answerable(batch)
        if not batch:
            return []
        telemetry = self.server.telemetry
        with telemetry.correlate("b", reuse=True):
            kinds = [native_kind(spec) for spec in batch]
            # One spec per kind: a decision reads only the spec's kind.
            decisions = {
                kind: self.decide(spec, len(batch), route)
                for kind, spec in dict(zip(kinds, batch)).items()
            }
            for kind, n in Counter(kinds).items():
                self._chosen(decisions[kind], batch=len(batch), n=n)
            start = perf_counter()
            results = self.server.execute_batch(
                batch,
                routes=[decisions[kind].route == "vectorized" for kind in kinds],
            )
            telemetry.emit(
                PLANNER_MEASURED, seconds=perf_counter() - start, n=len(batch)
            )
        return results
