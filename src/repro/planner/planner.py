"""The cost-based query planner.

:class:`QueryPlanner` turns a declarative
:class:`~repro.queries.spec.QuerySpec` into an *execution decision*:
which index backend answers it (the native R-tree store or one of the
four replica backends) and which route runs it (per-query scalar
processors or the vectorized snapshot kernels).  Decisions are driven
entirely by measured statistics (:mod:`repro.planner.stats`) through
the cost model (:mod:`repro.planner.cost`), recorded as
``planner.decision`` events, and renderable as
:class:`~repro.obs.explain.PlanNode` trees so EXPLAIN shows *chosen*
plans next to executed ones.

The planner's contract is that planning never changes answers:

* every execution path normalises results to the engine's canonical
  order (snapshot rank for ranges/counts, ``(distance, rank)`` for
  k-NN), so any backend x route produces the same value;
* backends are only *eligible* when result-identity is provable —
  bounded structures need the universe, point-oriented replicas of the
  private store need degenerate regions, and the private NN / k-NN /
  Monte-Carlo paths are pinned to the native store whose incremental
  and sampling machinery they require;
* ``tests/conformance/test_planner_differential.py`` re-proves the
  contract against every forced static choice and the brute-force
  oracle.

Observability is a property of the question, not of the chosen plan: a
spec is counted, spanned and grouped under its
:func:`~repro.queries.spec.native_kind` and executed by that kind's row
of :data:`repro.engine.batch.RUNNERS`, whatever backend or route ran.
:meth:`QueryPlanner.execute` is the one place a single query's
count -> span -> run -> ``candidates.generated`` sequence lives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Iterable

from repro.core.errors import QueryError
from repro.engine.batch import RUNNERS
from repro.geometry.rect import Rect
from repro.obs.accuracy import AccuracyMonitor
from repro.obs.events import (
    CANDIDATES_GENERATED,
    PLANNER_DECISION,
    PLANNER_MEASURED,
)
from repro.obs.explain import PlanNode
from repro.planner.cost import CostEstimate, CostModel
from repro.planner.replicas import ReplicaSet
from repro.planner.stats import PlannerStats, StatisticsCollector
from repro.queries.spec import QuerySpec, native_kind, require_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import LocationServer


@dataclass(frozen=True)
class Decision:
    """One planning outcome for one spec.

    Attributes:
        kind: the native server query kind the spec maps to (the name
            it is counted under in :meth:`LocationServer.stats`).
        backend: chosen index backend (``rtree`` for the native store
            and for the vectorized route, whose snapshot freezes it).
        route: ``scalar`` or ``vectorized``.
        seconds: the chosen candidate's estimated per-query cost.
        reason: one-line human rationale (pin reason or "cheapest").
        ranked: every eligible candidate, cheapest first.
        pinned: True when only one execution can prove result-identity.
        forced: True when the caller overrode the cost-based choice.
    """

    kind: str
    backend: str
    route: str
    seconds: float
    reason: str
    ranked: tuple[CostEstimate, ...] = ()
    pinned: bool = False
    forced: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "backend": self.backend,
            "route": self.route,
            "seconds": self.seconds,
            "reason": self.reason,
            "pinned": self.pinned,
            "forced": self.forced,
            "candidates": [c.to_dict() for c in self.ranked],
        }

    def to_plan_node(self) -> PlanNode:
        """The decision as an EXPLAIN subtree (chosen + rejected)."""
        root = PlanNode(
            "planner.decision",
            {
                "query": self.kind,
                "backend": self.backend,
                "route": self.route,
                "est_seconds": self.seconds,
                "reason": self.reason,
                "pinned": self.pinned,
                "forced": self.forced,
            },
        )
        for candidate in self.ranked:
            chosen = (
                candidate.backend == self.backend
                and candidate.route == self.route
            )
            root.add(
                "planner.chosen" if chosen else "planner.rejected",
                backend=candidate.backend,
                route=candidate.route,
                est_seconds=candidate.seconds,
            )
        return root


#: Kinds only the native store can answer, with the reason EXPLAIN shows.
_PINNED: dict[str, str] = {
    "private_nn": (
        "incremental nearest_iter + dominance/Voronoi filters need the "
        "native store"
    ),
    "private_knn": (
        "k-NN candidate generation needs the native store's "
        "pruning-radius machinery"
    ),
    "public_nn": (
        "Monte-Carlo sampling over cloaked regions has no kernel or "
        "replica execution"
    ),
}

#: Kinds whose scalar route runs query by query even inside a batch.  A
#: nearest-neighbour probe costs several times a range probe, and the
#: engine reports one mean time per call: folded into it, neither
#: group's measured cost would mean anything to the accuracy monitor.
_SINGLY_TIMED = frozenset({"public_knn", "private_knn", "public_nn"})


class QueryPlanner:
    """Cost-based backend/route chooser and executor for one server.

    Args:
        server: the :class:`~repro.core.server.LocationServer` whose
            stores (and telemetry) the planner works against.
        universe: world bounds for bounded replica backends; a
            :class:`~repro.core.system.PrivacySystem` injects its own
            via :meth:`set_universe`.
    """

    def __init__(
        self, server: "LocationServer", universe: Rect | None = None
    ) -> None:
        self.server = server
        self.replicas = ReplicaSet(server, universe)
        self.collector = StatisticsCollector(server, self.replicas)
        self.accuracy = AccuracyMonitor()
        self.last_decision: Decision | None = None

    # ------------------------------------------------------------------
    # Configuration / statistics
    # ------------------------------------------------------------------

    def set_universe(self, universe: Rect | None) -> None:
        """Install world bounds; invalidates replicas and calibration."""
        self.replicas.universe = universe
        self.replicas.invalidate()
        self.collector.reset()

    def stats(self) -> PlannerStats:
        """The live statistics snapshot the next decision would use."""
        engine = self.server._engine
        cached = None if engine is None else engine._cached
        return self.collector.stats(snapshot=cached)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def decide(
        self,
        spec: QuerySpec,
        batch_size: int = 1,
        backend: str | None = None,
        route: str | None = None,
    ) -> Decision:
        """Choose (backend, route) for ``spec``; emits ``planner.decision``.

        ``backend`` / ``route`` force the choice among the *eligible*
        candidates (conformance tests use this to pit every static
        choice against the planner); forcing an ineligible combination
        raises :class:`QueryError`.
        """
        stats = self.stats()
        model = CostModel(stats)
        kind, candidates, pin_reason = self._candidates(spec, model, batch_size)
        if pin_reason is not None:
            # Pinned groups cannot be fixed by route choice, so the
            # accuracy monitor corrects their cost constants directly
            # (see AccuracyMonitor.pinned_bias).
            candidates = [
                replace(est, seconds=est.seconds * bias)
                if (
                    bias := self.accuracy.pinned_bias(
                        kind, est.backend, est.route
                    )
                )
                != 1.0
                else est
                for est in candidates
            ]
        ranked = tuple(model.rank(candidates))
        chosen = ranked[0]
        reason = pin_reason or "cheapest estimated cost"
        forced = False
        if backend is not None or route is not None:
            matches = [
                c
                for c in ranked
                if (backend is None or c.backend == backend)
                and (route is None or c.route == route)
            ]
            if not matches:
                raise QueryError(
                    f"forced backend={backend!r} route={route!r} is not an "
                    f"eligible execution for {kind}; eligible: "
                    f"{[(c.backend, c.route) for c in ranked]}"
                )
            chosen = matches[0]
            forced = True
            reason = "forced by caller"
        decision = Decision(
            kind=kind,
            backend=chosen.backend,
            route=chosen.route,
            seconds=chosen.seconds,
            reason=reason,
            ranked=ranked,
            pinned=pin_reason is not None,
            forced=forced,
        )
        self.last_decision = decision
        self.server.telemetry.emit(
            PLANNER_DECISION,
            query=kind,
            backend=decision.backend,
            route=decision.route,
            est_seconds=decision.seconds,
            reason=reason,
            pinned=decision.pinned,
            forced=forced,
            batch=batch_size,
            candidates=[
                {"backend": c.backend, "route": c.route, "seconds": c.seconds}
                for c in ranked
            ],
        )
        return decision

    def _candidates(
        self, spec: QuerySpec, model: CostModel, batch: int
    ) -> tuple[str, list[CostEstimate], str | None]:
        """(native kind, eligible cost estimates, pin reason or None)."""
        kind = native_kind(spec)
        if kind in _PINNED:
            est = model.scalar_knn(
                "rtree", spec.k, True, batch
            ) or CostEstimate("rtree", "scalar", 0.0)
            return kind, [est], _PINNED[kind]
        side = RUNNERS[kind].side
        fresh = self.replicas.fresh
        if kind == "public_knn":
            sweep = "knn"
            out = [
                est
                for name in model.eligible_backends("public", point=spec.point)
                if (
                    est := model.scalar_knn(
                        name, spec.k, fresh("public", name), batch
                    )
                )
            ]
        else:
            sweep = "count" if kind == "public_count" else "range"
            if kind != "private_range":
                area = spec.window.area
            elif spec.region is not None:
                # The expanded cloak window drives selectivity.
                area = spec.region.expanded(spec.radius).area
            else:
                area = (2.0 * spec.radius) ** 2
            fraction = model.selectivity(area)
            out = [
                est
                for name in model.eligible_backends(
                    side, require_degenerate=side == "private"
                )
                if (
                    est := model.scalar_range(
                        name, fraction, side, fresh(side, name), batch
                    )
                )
            ]
        vec = model.vectorized(sweep, side, batch)
        if vec is not None:
            out.append(vec)
        return kind, out, None

    # ------------------------------------------------------------------
    # Execution — single spec
    # ------------------------------------------------------------------

    def execute(
        self,
        spec: QuerySpec,
        decision: Decision | None = None,
        backend: str | None = None,
        route: str | None = None,
    ):
        """Answer one spec under a (possibly forced) decision.

        Results are canonical and decision-independent:

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
        telemetry = self.server.telemetry
        # Share the ambient query scope (system.query opened one) so the
        # decision and the measurement below join on the same qid; mint
        # a fresh one for direct planner callers.
        with telemetry.correlate("q", reuse=True):
            if decision is None:
                decision = self.decide(spec, backend=backend, route=route)
            self.server.record_query(decision.kind)
            counters = self._work_counters(decision)
            before = counters.snapshot() if counters is not None else None
            start = perf_counter()
            result = self._run(spec, decision)
            self._observe_execution(
                decision, perf_counter() - start, counters, before
            )
        return result

    def _run(self, spec: QuerySpec, decision: Decision):
        """One query through its kind's runner: span, run, candidate log."""
        kind = decision.kind
        runner = RUNNERS[kind]
        telemetry = self.server.telemetry
        with telemetry.span(
            runner.span,
            **{name: getattr(spec, name) for name in runner.span_attrs},
            backend=decision.backend,
            route=decision.route,
        ):
            if decision.route == "vectorized":
                result = self.server.engine.execute([spec])[0]
            else:
                result = runner.scalar(
                    self.replicas.index(runner.side, decision.backend),
                    spec,
                    getattr(self.server, runner.side).rank,
                )
        if runner.candidates:
            telemetry.observe("candidates", len(result.candidates), query=kind)
            attrs = {
                "query": kind,
                "method": spec.method,
                "candidates": len(result.candidates),
                "region_area": spec.region.area,
            }
            if kind == "private_range":
                attrs["radius"] = spec.radius
            telemetry.emit(CANDIDATES_GENERATED, **attrs)
        return result

    # ------------------------------------------------------------------
    # Execution feedback (see repro.obs.accuracy)
    # ------------------------------------------------------------------

    def _work_counters(self, decision: Decision):
        """The native :class:`IndexCounters` the chosen execution hits.

        ``None`` for the vectorized and replica paths — their work does
        not land in the native stores' counters, and forcing a replica
        build just to snapshot its counters would distort the very cost
        being measured.
        """
        if decision.route != "scalar" or decision.backend != "rtree":
            return None
        return getattr(self.server, RUNNERS[decision.kind].side).index_counters

    def _observe_execution(
        self,
        decision: Decision,
        seconds: float,
        counters=None,
        before: dict | None = None,
        n: int = 1,
    ) -> None:
        """Emit ``planner.measured`` and feed the accuracy monitor.

        ``seconds`` is wall-clock *per query* (a batch passes its mean
        and ``n``).  A drift verdict from the monitor is forwarded to
        the statistics collector; recalibration then happens on the
        next :meth:`decide`'s statistics refresh.
        """
        telemetry = self.server.telemetry
        # "query" not "kind": attrs flatten into the JSONL record, where
        # "kind" is the event's own identity (see Event.to_dict).
        attrs: dict = {
            "query": decision.kind,
            "backend": decision.backend,
            "route": decision.route,
            "seconds": seconds,
            "est_seconds": decision.seconds,
            "n": n,
        }
        if counters is not None and before is not None:
            after = counters.snapshot()
            for field_name in (
                "node_visits",
                "leaf_scans",
                "distance_computations",
            ):
                attrs[field_name] = after[field_name] - before[field_name]
        telemetry.emit(PLANNER_MEASURED, **attrs)
        self.accuracy.observe(decision, seconds, n=n, emit=telemetry.emit)
        reason = self.accuracy.poll_recalibration()
        if reason is not None:
            self.collector.request_recalibration(reason)

    # ------------------------------------------------------------------
    # Execution — batches
    # ------------------------------------------------------------------

    def execute_batch(
        self,
        specs: Iterable[QuerySpec],
        backend: str | None = None,
        route: str | None = None,
    ) -> list:
        """Plan and answer a whole spec batch, results in input order.

        Specs decided onto the native store go through one
        ``LocationServer.execute_batch`` call with a per-query route
        vector (accounted per batch: one ``server.query`` record per
        kind, no per-query candidate events); replica-backend decisions
        and the scalar route of the :data:`_SINGLY_TIMED` kinds run
        through :meth:`execute`, accounted per query.
        """
        batch = list(specs)
        for spec in batch:
            require_bound(spec)
        with self.server.telemetry.correlate("b", reuse=True):
            decisions = [
                self.decide(
                    spec, batch_size=len(batch), backend=backend, route=route
                )
                for spec in batch
            ]
            results: list = [None] * len(batch)
            engine_positions: list[int] = []
            engine_routes: list[bool] = []
            for position, decision in enumerate(decisions):
                if decision.backend != "rtree":
                    continue
                vectorized = decision.route == "vectorized"
                if not vectorized and decision.kind in _SINGLY_TIMED:
                    continue
                engine_positions.append(position)
                engine_routes.append(vectorized)
            if engine_positions:
                start = perf_counter()
                answers = self.server.execute_batch(
                    [batch[p] for p in engine_positions], routes=engine_routes
                )
                per_query = (perf_counter() - start) / len(engine_positions)
                for position, answer in zip(engine_positions, answers):
                    results[position] = answer
                self._observe_engine_batch(
                    [decisions[p] for p in engine_positions], per_query
                )
            covered = set(engine_positions)
            for position, (spec, decision) in enumerate(zip(batch, decisions)):
                if position in covered:
                    continue
                results[position] = self.execute(spec, decision=decision)
        return results

    def _observe_engine_batch(
        self, engine_decisions: list[Decision], per_query_seconds: float
    ) -> None:
        """Measurement feedback for the engine-batched positions.

        The engine answers the whole group in one call, so individual
        durations do not exist; the mean per-query elapsed is attributed
        to each (kind, backend, route) group against its mean predicted
        cost — coarse, but unbiased in aggregate, which is all the drift
        detector needs.
        """
        groups: dict[tuple[str, str, str], list[Decision]] = {}
        for decision in engine_decisions:
            key = (decision.kind, decision.backend, decision.route)
            groups.setdefault(key, []).append(decision)
        for members in groups.values():
            mean_est = sum(d.seconds for d in members) / len(members)
            self._observe_execution(
                replace(members[0], seconds=mean_est),
                per_query_seconds,
                n=len(members),
            )

    # ------------------------------------------------------------------
    # Conformance
    # ------------------------------------------------------------------

    def conformance_backends(self, spec: QuerySpec) -> list[tuple[str, str]]:
        """Every eligible (backend, route) pair for ``spec`` right now."""
        stats = self.stats()
        model = CostModel(stats)
        _, candidates, _ = self._candidates(spec, model, 1)
        return [(c.backend, c.route) for c in model.rank(candidates)]
