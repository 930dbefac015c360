"""Per-query EXPLAIN: structured plan trees for every query path.

``EXPLAIN`` answers *why this answer cost what it cost*: which route the
planner chose, how many index nodes it visited, which pruning decisions
fired, and whether the batch engine took a vectorised kernel or the
scalar fallback.  A :class:`QueryExplainer` **executes the query for real**
against its server — the reported index counters are measured deltas of
the stores' :class:`~repro.index.base.IndexCounters`, not estimates, so
a plan's ``node_visits`` equals exactly the work a plain call would
have done (held by ``tests/property/test_prop_obs_events.py``).

Plans are :class:`PlanNode` trees rendered two ways: machine-readable
JSON (:func:`plan_to_json`) and an ASCII tree (:func:`render_plan`),
both behind ``python -m repro explain``.  The default CLI plan is the
paper's own Figure 6a count query, whose leaves carry the worked
example's membership probabilities 1.0 / 0.75 / 0.5 / 0.2 / 0.25.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.geometry.rect import Rect
from repro.index.base import IndexCounters
from repro.queries.spec import QuerySpec, native_kind, require_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import LocationServer

@dataclass
class PlanNode:
    """One operator of an executed query plan.

    Attributes:
        op: operator name (``"index.range_query"``, ``"filter.exact"``...).
        detail: the operator's measured facts (counts, parameters,
            decisions) — plain JSON-serialisable values.
        children: sub-operators in execution order.
    """

    op: str
    detail: dict = field(default_factory=dict)
    children: list["PlanNode"] = field(default_factory=list)

    def add(self, op: str, **detail: object) -> "PlanNode":
        """Append and return a child node (builder convenience)."""
        child = PlanNode(op, dict(detail))
        self.children.append(child)
        return child

    def find(self, op: str) -> list["PlanNode"]:
        """All nodes (depth-first, self included) with operator ``op``."""
        found = [self] if self.op == op else []
        for child in self.children:
            found.extend(child.find(op))
        return found

    def leaves(self) -> list["PlanNode"]:
        """Nodes with no children, depth-first."""
        if not self.children:
            return [self]
        out: list[PlanNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "detail": dict(self.detail),
            "children": [child.to_dict() for child in self.children],
        }


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def plan_to_json(plan: PlanNode, indent: int | None = 2) -> str:
    """The plan tree as a JSON document."""
    return json.dumps(plan.to_dict(), indent=indent, sort_keys=True, default=str)


def _fmt_value(value: object) -> str:
    if isinstance(value, float):
        return format(value, "g")
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt_value(v) for v in value) + "]"
    return str(value)


def render_plan(plan: PlanNode) -> str:
    """ASCII tree rendering: one line per operator, details inline."""
    lines: list[str] = []

    def walk(node: PlanNode, prefix: str, is_last: bool, is_root: bool) -> None:
        detail = "  ".join(f"{k}={_fmt_value(v)}" for k, v in node.detail.items())
        if is_root:
            lines.append(f"{node.op}" + (f"  {detail}" if detail else ""))
            child_prefix = ""
        else:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + node.op + (f"  {detail}" if detail else ""))
            child_prefix = prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(node.children):
            walk(child, child_prefix, i == len(node.children) - 1, False)

    walk(plan, "", True, True)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The explainer
# ----------------------------------------------------------------------

def _rect_list(rect: Rect) -> list[float]:
    return [rect.min_x, rect.min_y, rect.max_x, rect.max_y]


def _runner(kind: str):
    """The kind's row of :data:`repro.engine.batch.RUNNERS` (imported
    here: the engine imports this package)."""
    from repro.engine.batch import RUNNERS

    return RUNNERS[kind]


def _decision_plan(decision) -> PlanNode:
    """A planner :class:`~repro.planner.planner.Decision` as a subtree:
    its facts, then one chosen or rejected leaf per eligible route."""
    from repro.planner.planner import eligible_routes

    root = PlanNode(
        "planner.decision",
        {
            "query": decision.kind,
            "backend": decision.backend,
            "route": decision.route,
            "reason": decision.reason,
            "pinned": decision.pinned,
            "forced": decision.forced,
        },
    )
    for route in eligible_routes(decision.kind):
        root.add(
            "planner.chosen" if route == decision.route else "planner.rejected",
            route=route,
        )
    return root


# ----------------------------------------------------------------------
# Per-kind operator trees of the native (R-tree, scalar) execution
# ----------------------------------------------------------------------


def _public_range_plan(server, spec, ids, delta) -> PlanNode:
    plan = PlanNode(
        "public_range",
        {"window": _rect_list(spec.window), "matched": len(ids),
         "order": _runner("public_range").tie_break},
    )
    plan.add("index.range_query", index="rtree", store="public", **delta)
    return plan


def _public_knn_plan(server, spec, ids, delta) -> PlanNode:
    plan = PlanNode(
        "public_knn",
        {"point": [spec.point.x, spec.point.y], "k": spec.k,
         "answered": len(ids), "tie_break": _runner("public_knn").tie_break},
    )
    plan.add("index.nearest", index="rtree", store="public", **delta)
    return plan


def _public_count_plan(server, spec, answer, delta) -> PlanNode:
    """Figure 6a: one leaf per possible member."""
    lo, hi = answer.interval
    plan = PlanNode(
        "public_count",
        {"window": _rect_list(spec.window), "expected": answer.expected,
         "interval": [lo, hi], "possible": len(answer.probabilities)},
    )
    plan.add("index.range_query", index="rtree", store="private", **delta)
    # Leaves in store insertion order: deterministic regardless of the
    # backing index's internal layout (the Figure 6a golden relies on
    # this reading D, A, B, E, F).
    for object_id, region in server.private.items():
        probability = answer.probabilities.get(object_id)
        if probability is None:
            continue
        plan.add(
            "region.probability",
            object=object_id,
            probability=float(probability),
            region_area=region.area,
        )
    return plan


def _public_nn_plan(server, spec, result, delta) -> PlanNode:
    """Figure 6b."""
    plan = PlanNode(
        "public_nn",
        {"point": [spec.point.x, spec.point.y],
         "candidates": len(result.answer.probabilities),
         "samples": result.samples},
    )
    plan.add("index.nearest_iter", index="rtree", store="private", **delta)
    plan.add(
        "pruning.bound",
        m=result.pruning_bound,
        rule="keep o with min_dist(q, R_o) <= min_o' max_dist(q, R_o')",
    )
    plan.add(
        "estimate.monte_carlo",
        samples=result.samples,
        skipped=result.samples == 0,
    )
    return plan


def _private_range_plan(server, spec, result, delta) -> PlanNode:
    """Figure 5a."""
    plan = PlanNode(
        "private_range",
        {"region": _rect_list(spec.region), "radius": spec.radius,
         "method": spec.method, "candidates": len(result.candidates)},
    )
    plan.add(
        "expand.window",
        window=_rect_list(spec.region.expanded(spec.radius)),
        locus="rounded rectangle (Minkowski sum), prefiltered by its MBR",
    )
    plan.add("index.range_query", index="rtree", store="public", **delta)
    if spec.method == "exact":
        plan.add(
            "filter.exact",
            kept=len(result.candidates),
            predicate="min_dist(point, region) <= radius",
        )
    else:
        plan.add(
            "filter.mbr",
            kept=len(result.candidates),
            predicate="none (MBR superset shipped as-is)",
        )
    return plan


def _private_nn_plan(server, spec, result, delta) -> PlanNode:
    """Figure 5b."""
    method = spec.method
    plan = PlanNode(
        "private_nn",
        {"region": _rect_list(spec.region), "method": method,
         "candidates": len(result.candidates)},
    )
    plan.add("index.nearest_iter", index="rtree", store="public", **delta)
    plan.add(
        "pruning.radius",
        m=result.pruning_radius,
        rule="m = min_o max_dist(region, o); farther objects never win",
    )
    if method in ("filter", "exact"):
        plan.add(
            "filter.dominance",
            rule="prune o when one competitor beats it over all of region",
            survivors=len(result.candidates) if method == "filter" else None,
        )
    if method == "exact":
        plan.add(
            "voronoi.clip",
            rule="keep o iff its Voronoi cell intersects region",
            survivors=len(result.candidates),
        )
    return plan


def _private_knn_plan(server, spec, result, delta) -> PlanNode:
    plan = PlanNode(
        "private_knn",
        {"region": _rect_list(spec.region), "k": spec.k,
         "method": spec.method, "candidates": len(result.candidates)},
    )
    plan.add("index.nearest_iter", index="rtree", store="public", **delta)
    plan.add(
        "pruning.radius",
        m=result.pruning_radius,
        rule="max over corners of d_k(corner) + in_radius (1-Lipschitz bound)",
    )
    if spec.method == "filter":
        plan.add(
            "filter.corner_dominance",
            rule="prune o when k competitors beat it at all four corners",
            survivors=len(result.candidates),
        )
    return plan


_NATIVE_PLANS = {
    "public_range": _public_range_plan,
    "public_knn": _public_knn_plan,
    "public_count": _public_count_plan,
    "public_nn": _public_nn_plan,
    "private_range": _private_range_plan,
    "private_nn": _private_nn_plan,
    "private_knn": _private_knn_plan,
}


class QueryExplainer:
    """EXPLAIN for every query path of one :class:`LocationServer`.

    Every method takes the question as a
    :class:`~repro.queries.spec.QuerySpec` (public or region-bound; cloak
    a user-bound one first), runs it for real, measures the
    index-counter delta it caused, and returns the plan tree with the
    answer summary on the root node.
    """

    def __init__(self, server: "LocationServer") -> None:
        self.server = server

    @contextmanager
    def _measured(self, counters: IndexCounters, sink: dict) -> Iterator[None]:
        """Fill ``sink`` with the counter delta of the enclosed execution."""
        before = counters.snapshot()
        yield
        after = counters.snapshot()
        sink.update({name: after[name] - before[name] for name in after})

    def explain(self, spec: QuerySpec) -> PlanNode:
        """EXPLAIN one spec: decide its route, execute it, measure it.

        The root is the kind's own operator tree (pruning radius,
        dominance filter, Monte-Carlo estimate, one probability leaf per
        possible member ...), with the measured index work on its index
        operator.  Its first child is the ``planner.decision`` subtree
        (the route-table row, chosen and rejected routes), and its
        ``qid`` is the one the decision / measurement events carry, so
        the plan joins the event trail (:mod:`repro.obs.correlate`).
        """
        require_bound(spec)
        planner = self.server.planner
        with self.server.telemetry.correlate("q") as qid:
            decision = planner.decide(spec)
            delta: dict = {}
            store = getattr(self.server, _runner(decision.kind).side)
            with self._measured(store.index_counters, delta):
                result = planner.execute(spec, decision=decision)
        plan = _NATIVE_PLANS[decision.kind](self.server, spec, result, delta)
        plan.detail["qid"] = qid
        plan.children.insert(0, _decision_plan(decision))
        return plan

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def explain_batch(self, specs: Iterable[QuerySpec]) -> PlanNode:
        """One heterogeneous batch through the planner and the engine,
        per-kind groups on the routes the planner chose."""
        batch = list(specs)
        planner = self.server.planner
        engine = self.server.engine
        cached = engine._cached
        reused = cached is not None and cached.matches(self.server)
        planner.execute_batch(batch)
        snapshot = engine._cached
        plan = PlanNode("batch", {"size": len(batch)})
        plan.add(
            "snapshot",
            result="reused" if reused else "captured",
            n_public=snapshot.n_public if snapshot is not None else 0,
            n_private=snapshot.n_private if snapshot is not None else 0,
        )
        groups: dict[str, list[QuerySpec]] = {}
        for spec in batch:
            groups.setdefault(native_kind(spec), []).append(spec)
        for kind, members in groups.items():
            route = planner.decide(members[0], len(batch)).route
            runner = _runner(kind)
            plan.add(
                f"engine.{kind}",
                n=len(members),
                path=route,
                kernel=runner.kernel_label if route == "vectorized"
                else "per-query processor",
                tie_break=runner.tie_break,
            )
        return plan

    # ------------------------------------------------------------------
    # Bulk cloaking (the vectorized write path)
    # ------------------------------------------------------------------

    def explain_bulk_cloak(self, anonymizer, t: float = 0.0) -> PlanNode:
        """One vectorized population cloaking round end to end.

        Runs ``anonymizer.publish_all_bulk(t)`` against this explainer's
        server, measuring the private-store index work the bulk push
        caused, and renders the round's kernel path plus one
        ``cloak.group`` leaf per distinct requirement (the same
        aggregates the ``cloak.bulk`` events carry).
        """
        delta: dict = {}
        with self._measured(self.server.private.index_counters, delta):
            results = anonymizer.publish_all_bulk(t)
        outcome = anonymizer.last_bulk_outcome
        plan = PlanNode(
            "bulk_cloak",
            {"users": len(results), "t": t,
             "algo": outcome.algo, "path": outcome.path,
             "escalated": outcome.escalated, "degraded": outcome.degraded},
        )
        plan.add(
            "cloak.kernel",
            path=outcome.path,
            algo=outcome.algo,
            groups=len(outcome.groups),
            rule="one numpy pass per structure level; per-user cloaker is "
            "the differential oracle",
        )
        for group in outcome.groups:
            plan.add("cloak.group", **group)
        plan.add("store.set_regions", index="rtree", store="private", **delta)
        return plan


def explain_figure_6a() -> PlanNode:
    """The paper's Figure 6a count query as an executed plan.

    Builds the worked-example store (six cloaked objects A..F) and
    explains the count over its query window; the ``region.probability``
    leaves read exactly 1.0 (D), 0.75 (A), 0.5 (B), 0.2 (E), 0.25 (F) —
    the expected answer is 2.7 against the naive baseline's 5.
    """
    from repro.core.server import LocationServer
    from repro.evalx.experiments import figure_6a_store
    from repro.obs import Telemetry
    from repro.queries.spec import CountSpec

    store, window = figure_6a_store()
    server = LocationServer(telemetry=Telemetry(enabled=False))
    server.private = store
    return QueryExplainer(server).explain(CountSpec(window=window))
