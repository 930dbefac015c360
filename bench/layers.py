"""Where the layer boundaries are, and how spans become the layer budget.

A span is named ``<layer>.<operation>``; the layer is the module name
the ROADMAP's budget uses (``core.anonymizer``, ``engine``, ``obs`` ...).
``targets`` lists every public boundary call the tracer wraps;
``layer_metrics`` folds one traced run into the per-layer numbers that
``BENCHMARK.json`` names.  Seconds and call counts are *per cycle* (mean
over the traced cycles), so a budget read off a 6-cycle traced run and a
12-cycle one compare directly.  Span seconds are wall time as recorded,
not machine-normalised: a budget is read as shares of one run.
"""

from __future__ import annotations

from bench import trace as tr
from bench.stats import supported_percentile

LAYERS = (
    "mobility",
    "core.anonymizer",
    "cloaking",
    "engine",
    "core.server",
    "index",
    "planner",
    "queries",
    "core.system",
    "obs",
    "persist",
)
#: Sampled only: wrapping ``Rect.area`` would time the wrapper.
SAMPLED_ONLY = ("geometry",)

_INDEX_BACKENDS = (
    ("repro.index.base", "SpatialIndex"),
    ("repro.index.rtree", "RTree"),
    ("repro.index.grid", "GridIndex"),
    ("repro.index.kdtree", "KDTree"),
    ("repro.index.pyramid", "PyramidGrid"),
    ("repro.index.quadtree", "QuadTree"),
)


def targets(counts: dict) -> list[tuple]:
    """The boundary calls to wrap; hooks tally into ``counts``."""

    def add(key, amount=1):
        counts[key] = counts.get(key, 0) + amount

    def on_decide(decision):
        add(("route", decision.kind, decision.backend, decision.route))

    def on_bulk_cloak(outcome):
        add("bulk_rounds")
        add("bulk_users", len(outcome.results))
        add("bulk_groups", len(outcome.groups))
        add("bulk_kernel_rounds", outcome.path == "kernel")
        add("escalated", outcome.escalated)
        add("degraded", outcome.degraded)

    def on_planner_batch(results):
        add("planner_batch_specs", len(results))

    def on_server_batch(results):
        add("engine_batched_specs", len(results))

    system = "repro.core.system"
    anonymizer = ("repro.core.anonymizer", "LocationAnonymizer")
    server = ("repro.core.server", "LocationServer")
    out: list[tuple] = [
        ("repro.mobility.random_waypoint", "RandomWaypointModel", "step", "mobility.step"),
        (system, "PrivacySystem", "query", "core.system.query"),
        (system, "PrivacySystem", "execute_batch", "core.system.execute_batch"),
        (system, "PrivacySystem", "apply_movement", "core.system.apply_movement"),
        (system, "PrivacySystem", "publish_all", "core.system.publish_all"),
        (system, "PrivacySystem", "set_mode", "core.system.set_mode"),
        (system, "PrivacySystem", "checkpoint", "persist.checkpoint"),
        (*anonymizer, "update_location", "core.anonymizer.update_location"),
        (*anonymizer, "publish_all_bulk", "core.anonymizer.publish_bulk"),
        (*anonymizer, "publish", "core.anonymizer.publish"),
        (*anonymizer, "cloak_user", "core.anonymizer.cloak_user"),
        (*anonymizer, "register", "core.anonymizer.churn"),
        (*anonymizer, "unregister", "core.anonymizer.churn"),
        (*anonymizer, "update_profile", "core.anonymizer.churn"),
        ("repro.cloaking.base", "Cloaker", "cloak", "cloaking.cloak"),
        ("repro.cloaking.base", "Cloaker", "add_user", "cloaking.maintain"),
        ("repro.cloaking.base", "Cloaker", "move_user", "cloaking.maintain"),
        ("repro.cloaking.base", "Cloaker", "remove_user", "cloaking.maintain"),
        ("repro.engine.cloak", None, "bulk_cloak", "engine.bulk_cloak", on_bulk_cloak),
        ("repro.engine.batch", "BatchEngine", "snapshot", "engine.snapshot"),
        ("repro.engine.batch", "BatchEngine", "execute", "engine.execute"),
        (*server, "receive_regions", "core.server.receive_regions"),
        (*server, "receive_region", "core.server.receive_region"),
        (*server, "forget_region", "core.server.forget_region"),
        (*server, "record_query", "core.server.record_query"),
        (*server, "execute_batch", "core.server.execute_batch", on_server_batch),
        ("repro.core.stores", "PublicStore", "range_query", "core.server.scalar_query"),
        ("repro.core.stores", "PublicStore", "nearest", "core.server.scalar_query"),
        ("repro.core.stores", "PrivateStore", "overlapping", "core.server.scalar_query"),
        ("repro.index.rtree", "RTree", "bulk_load", "index.bulk_load"),
        ("repro.planner.replicas", None, "build_backend", "index.replica_build"),
        ("repro.planner.planner", "QueryPlanner", "decide", "planner.decide", on_decide),
        ("repro.planner.planner", "QueryPlanner", "execute", "planner.execute"),
        ("repro.planner.planner", "QueryPlanner", "execute_batch", "planner.execute_batch", on_planner_batch),
        ("repro.planner.stats", "StatisticsCollector", "calibrate", "planner.calibrate"),
        (system, None, "refine_range_candidates", "queries.refine"),
        (system, None, "refine_nn_candidates", "queries.refine"),
        (system, None, "refine_knn_candidates", "queries.refine"),
        (system, None, "exact_range_answer", "queries.truth"),
        ("repro.obs.events", "EventLog", "emit", "obs.emit"),
        ("repro.obs.timeseries", "TimeSeriesStore", "sample", "obs.sample"),
        ("repro.obs.risk", "PrivacyRiskMonitor", "score", "obs.risk_score"),
    ]
    # The scalar handlers the server exposes, and the query processors at
    # every name a caller imported them under.
    for handler in (
        "private_range", "private_nn", "public_count", "public_nn",
        "public_range_over_public", "public_nn_over_public",
    ):
        out.append((*server, handler, "core.server.scalar_query"))
    for module in ("repro.planner.planner", "repro.engine.batch", "repro.core.server"):
        for processor in (
            "private_range_query", "private_nn_query", "private_knn_query",
            "public_nn_query", "public_range_count",
        ):
            out.append((module, None, processor, "queries.candidates"))
    for module, cls in _INDEX_BACKENDS:
        for attr in ("range_query", "nearest", "count_in_window"):
            out.append((module, cls, attr, "index.query"))
        for attr in ("insert", "insert_point", "delete", "update"):
            out.append((module, cls, attr, "index.update"))
    return out


def layer_of_span(name: str) -> str:
    return name.rsplit(".", 1)[0]


def layer_metrics(
    spans,
    counts: dict,
    sampled: dict[str, float],
    cycles: int,
    facts: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``facts`` carries what spans cannot: counter deltas read off the
    program's own registry, WAL and checkpoint sizes, recovery numbers
    and the untraced reference cycle time.
    """
    rows = tr.fold(spans)
    per_cycle = 1.0 / max(1, cycles)

    def self_s(*names):
        return sum(rows[n]["self_s"] for n in names if n in rows) * per_cycle

    def inclusive_s(*names):
        return sum(rows[n]["inclusive_s"] for n in names if n in rows) * per_cycle

    def calls(*names):
        return sum(rows[n]["calls"] for n in names if n in rows) * per_cycle

    out: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n in rows if layer_of_span(n) == layer]
        out[f"{layer}.self_s"] = self_s(*names)
        out[f"{layer}.calls"] = calls(*names)
    for layer in LAYERS + SAMPLED_ONLY:
        out[f"{layer}.sampled_share"] = sampled.get(layer, 0.0)

    out["mobility.step_s"] = inclusive_s("mobility.step")

    out["core.anonymizer.admit_s"] = inclusive_s("core.anonymizer.update_location")
    out["core.anonymizer.publish_bulk_self_s"] = self_s("core.anonymizer.publish_bulk")
    publishes = [d * 1e3 for d in tr.durations(spans, "core.anonymizer.publish")]
    out["core.anonymizer.publish_p50_ms"] = supported_percentile(publishes, 50) or 0.0
    out["core.anonymizer.publish_p95_ms"] = supported_percentile(publishes, 95) or 0.0
    out["core.anonymizer.cloak_user_s"] = inclusive_s("core.anonymizer.cloak_user")
    out["core.anonymizer.churn_s"] = inclusive_s("core.anonymizer.churn")

    out["cloaking.cloak_self_s"] = self_s("cloaking.cloak")
    out["cloaking.cloak_calls"] = calls("cloaking.cloak")
    out["cloaking.maintain_s"] = inclusive_s("cloaking.maintain")
    out["cloaking.escalated"] = (
        counts.get("escalated", 0) + facts["events.cloak.escalated"]
    ) * per_cycle
    out["cloaking.degraded"] = (
        counts.get("degraded", 0) + facts["events.cloak.degraded"]
    ) * per_cycle

    bulk_users = counts.get("bulk_users", 0)
    bulk_rounds = counts.get("bulk_rounds", 0)
    bulk_s = inclusive_s("engine.bulk_cloak")
    out["engine.bulk_cloak_s"] = bulk_s
    out["engine.bulk_cloak_us_per_user"] = (
        bulk_s / per_cycle / bulk_users * 1e6 if bulk_users else 0.0
    )
    out["engine.bulk_groups"] = counts.get("bulk_groups", 0) * per_cycle
    out["engine.bulk_path_kernel"] = (
        counts.get("bulk_kernel_rounds", 0) / bulk_rounds if bulk_rounds else 0.0
    )
    out["engine.snapshot_s"] = inclusive_s("engine.snapshot")
    out["engine.snapshots_captured"] = facts["snapshots.captured"] * per_cycle
    out["engine.snapshots_absorbed"] = facts["snapshots.delta"] * per_cycle
    out["engine.snapshots_reused"] = facts["snapshots.reused"] * per_cycle
    out["engine.execute_s"] = inclusive_s("engine.execute")
    engine_queries = facts["engine.queries.vectorized"] + facts["engine.queries.scalar"]
    out["engine.batched_specs"] = counts.get("engine_batched_specs", 0) * per_cycle
    out["engine.vectorized_share"] = (
        facts["engine.queries.vectorized"] / engine_queries if engine_queries else 0.0
    )

    out["core.server.receive_regions_s"] = inclusive_s("core.server.receive_regions")
    out["core.server.rtree_rebuilds"] = calls("index.bulk_load")
    out["core.server.receive_region_s"] = inclusive_s("core.server.receive_region")
    out["core.server.scalar_query_s"] = inclusive_s("core.server.scalar_query")

    out["index.query_self_s"] = self_s("index.query")
    out["index.update_self_s"] = self_s("index.update", "index.bulk_load")
    for side in ("public", "private"):
        queries = facts[f"index.{side}.queries"]
        out[f"index.{side}.node_visits_per_query"] = (
            facts[f"index.{side}.node_visits"] / queries if queries else 0.0
        )
    out["index.replica_builds"] = calls("index.replica_build")

    decisions = rows.get("planner.decide", {}).get("calls", 0)
    out["planner.decide_s"] = inclusive_s("planner.decide")
    out["planner.decide_us_per_spec"] = (
        out["planner.decide_s"] / per_cycle / decisions * 1e6 if decisions else 0.0
    )
    out["planner.execute_self_s"] = self_s("planner.execute", "planner.execute_batch")
    planned = counts.get("planner_batch_specs", 0)
    out["planner.engine_batched_share"] = (
        counts.get("engine_batched_specs", 0) / planned if planned else 0.0
    )
    out["planner.routes_chosen"] = len(
        {key[2:] for key in counts if isinstance(key, tuple) and key[0] == "route"}
    )
    out["planner.calibrations"] = facts["planner.calibrations"]
    out["planner.mispredicts"] = facts["planner.mispredicts"]

    out["queries.refine_s"] = inclusive_s("queries.refine")
    out["queries.truth_s"] = inclusive_s("queries.truth")
    out["queries.candidates_per_query"] = facts["queries.candidates_per_query"]

    out["core.system.query_self_s"] = self_s("core.system.query")
    out["core.system.execute_batch_self_s"] = self_s("core.system.execute_batch")

    emits = rows.get("obs.emit", {}).get("calls", 0)
    out["obs.emit_calls"] = emits * per_cycle
    out["obs.emit_self_s"] = self_s("obs.emit")
    out["obs.emit_us_per_event"] = (
        out["obs.emit_self_s"] / per_cycle / emits * 1e6 if emits else 0.0
    )
    out["obs.sample_s"] = inclusive_s("obs.sample")
    out["obs.windows_cut"] = facts["obs.windows_cut"]
    out["obs.risk_score_s"] = inclusive_s("obs.risk_score")

    for key in (
        "persist.wal_bytes", "persist.wal_events", "persist.checkpoint_bytes",
        "persist.checkpoint_mb_per_s", "persist.checkpoint_stall_ms",
        "persist.tail_events_replayed", "persist.replay_events_per_s",
    ):
        out[key] = facts[key]

    # Reference-kernel samples sit inside the cycle span but are the
    # harness's own; coverage is over the rest of the cycle's wall.
    wall = inclusive_s("harness.cycle") - inclusive_s("harness.reference")
    out["trace.span_coverage"] = 1.0 - self_s("harness.cycle") / wall if wall else 0.0
    reference = facts["untraced_cycle_s"]
    out["trace.overhead_share"] = (
        facts["traced_cycle_s"] / reference - 1.0 if reference else 0.0
    )
    return out


def route_histogram(counts: dict) -> dict[str, int]:
    """``kind/backend/route -> decisions`` for the run artifact."""
    return {
        "/".join(key[1:]): n
        for key, n in sorted(counts.items(), key=str)
        if isinstance(key, tuple) and key[0] == "route"
    }
