"""EXPLAIN plan trees (repro.obs.explain) across every query path."""

import json

import pytest

from repro.core.server import LocationServer
from repro.core.stores import PublicStore
from repro.geometry import Point, Rect
from repro.obs import PlanNode, QueryExplainer, Telemetry, plan_to_json, render_plan
from repro.obs.explain import explain_figure_6a
from repro.queries.spec import (
    NATIVE_KINDS,
    CountSpec,
    KNNSpec,
    NNSpec,
    RangeSpec,
)

REGION = Rect(20, 20, 40, 40)


def private_range(region=REGION, radius=10.0, method="exact"):
    return RangeSpec(flavor="private", region=region, radius=radius, method=method)


def private_nn(region=REGION, method="filter"):
    return NNSpec(flavor="private", region=region, method=method)


def make_server(n=30) -> LocationServer:
    server = LocationServer(telemetry=Telemetry(enabled=False))
    server.public = PublicStore.from_points(
        {i: Point((i * 7) % 100, (i * 13) % 100) for i in range(n)}
    )
    for i in range(6):
        server.receive_region(f"r{i}", Rect(i * 10, i * 10, i * 10 + 8, i * 10 + 8))
    return server


class TestPlanNode:
    def test_add_and_find(self):
        root = PlanNode("root")
        child = root.add("index.range_query", node_visits=3)
        child.add("leaf")
        assert root.find("leaf")[0].op == "leaf"
        assert root.find("index.range_query")[0].detail["node_visits"] == 3
        assert root.find("missing") == []

    def test_to_dict_nests_children(self):
        root = PlanNode("root", {"a": 1})
        root.add("child")
        d = root.to_dict()
        assert d["op"] == "root" and d["detail"] == {"a": 1}
        assert d["children"][0]["op"] == "child"

    def test_leaves(self):
        root = PlanNode("root")
        root.add("a").add("a1")
        root.add("b")
        assert [n.op for n in root.leaves()] == ["a1", "b"]


class TestExporters:
    def test_plan_to_json_round_trips(self):
        root = PlanNode("root", {"n": 2})
        root.add("child", visits=5)
        parsed = json.loads(plan_to_json(root))
        assert parsed["children"][0]["detail"]["visits"] == 5

    def test_render_plan_ascii_tree(self):
        root = PlanNode("root", {"n": 2})
        root.add("first")
        root.add("last", k=1)
        text = render_plan(root)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert "├─ first" in lines[1]
        assert "└─ last  k=1" in lines[2]


class TestFigure6a:
    def test_leaf_probabilities_match_the_paper(self):
        plan = explain_figure_6a()
        leaves = plan.find("region.probability")
        assert [n.detail["probability"] for n in leaves] == [1.0, 0.75, 0.5, 0.2, 0.25]
        assert plan.detail["expected"] == pytest.approx(2.7)
        assert plan.detail["interval"] == [1, 5]

    def test_rendered_plan_carries_the_worked_example(self):
        text = render_plan(explain_figure_6a())
        assert "expected=2.7" in text
        assert "probability=0.75" in text


def assert_measured_single_spec_row(plan, counters):
    """The plan's index operator holds the store's whole counter totals
    (a fresh server ran exactly this query), and its decision child is
    the single-spec route-table row: scalar, not forced."""
    index_nodes = (
        plan.find("index.range_query")
        + plan.find("index.nearest")
        + plan.find("index.nearest_iter")
    )
    measured = index_nodes[0].detail
    totals = counters.snapshot()
    for name in ("node_visits", "leaf_scans", "distance_computations"):
        assert measured[name] == totals[name]
    decision = plan.children[0]
    assert decision.op == "planner.decision"
    assert (decision.detail["route"], decision.detail["forced"]) == ("scalar", False)
    return measured


class TestCountersMatchIndexWork:
    """EXPLAIN executes the real query once: its counter deltas are exact,
    for every native kind, under the route table's single-spec row."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda e: e.explain(RangeSpec(window=Rect(10, 10, 60, 60))),
            lambda e: e.explain(KNNSpec(point=Point(50, 50), k=3)),
            lambda e: e.explain(private_range()),
            lambda e: e.explain(private_nn()),
            lambda e: e.explain(KNNSpec(flavor="private", region=REGION, k=3)),
        ],
    )
    def test_public_store_deltas_equal_totals(self, run):
        server = make_server()
        counters = server.public.index_counters
        assert counters.snapshot()["node_visits"] == 0  # fresh server
        assert_measured_single_spec_row(run(QueryExplainer(server)), counters)

    def test_private_store_delta_for_count(self):
        server = make_server()
        plan = QueryExplainer(server).explain(CountSpec(window=Rect(0, 0, 50, 50)))
        measured = assert_measured_single_spec_row(
            plan, server.private.index_counters
        )
        assert measured["range_queries"] == 1

    def test_private_store_delta_for_public_nn(self):
        """Public NN finds its candidates in one pass over the private
        store's columns, not through its index: the plan names that scan
        and the rows it read, and claims no index operator."""
        server = make_server()
        plan = QueryExplainer(server).explain(
            NNSpec(point=Point(30, 30), dataset="private", samples=64)
        )
        (scan,) = plan.find("scan.nn_candidates")
        assert scan.detail["rows"] == len(server.private)
        assert scan.detail["function"] == "nn_candidate_users"
        assert not plan.find("index.nearest_iter") and not plan.find("index.nearest")
        decision = plan.children[0]
        assert (decision.detail["route"], decision.detail["forced"]) == ("scalar", False)


class TestQueryPaths:
    def test_public_range_plan(self):
        plan = QueryExplainer(make_server()).explain(
            RangeSpec(window=Rect(0, 0, 50, 50))
        )
        assert plan.op == "public_range"
        assert plan.detail["matched"] >= 1
        assert plan.find("index.range_query")

    def test_public_count_leaves_in_insertion_order(self):
        server = make_server()
        plan = QueryExplainer(server).explain(CountSpec(window=Rect(0, 0, 100, 100)))
        leaf_ids = [n.detail["object"] for n in plan.find("region.probability")]
        store_order = [oid for oid, _ in server.private.items() if oid in leaf_ids]
        assert leaf_ids == store_order

    def test_public_nn_plan_has_pruning_bound(self):
        plan = QueryExplainer(make_server()).explain(
            NNSpec(point=Point(30, 30), dataset="private", samples=64)
        )
        assert plan.find("pruning.bound")
        assert plan.find("estimate.monte_carlo")[0].detail["samples"] == 64

    def test_private_range_methods_differ_in_filter(self):
        explainer = QueryExplainer(make_server())
        exact = explainer.explain(private_range(method="exact"))
        mbr = explainer.explain(private_range(method="mbr"))
        assert exact.find("filter.exact") and not exact.find("filter.mbr")
        assert mbr.find("filter.mbr") and not mbr.find("filter.exact")

    def test_private_nn_exact_adds_voronoi_clip(self):
        explainer = QueryExplainer(make_server())
        assert explainer.explain(private_nn(method="exact")).find("voronoi.clip")
        assert not explainer.explain(private_nn(method="filter")).find("voronoi.clip")

    def test_private_nn_pruning_radius_from_result(self):
        server = make_server()
        plan = QueryExplainer(server).explain(private_nn())
        m = plan.find("pruning.radius")[0].detail["m"]
        result = server.planner.execute(private_nn())
        assert m == pytest.approx(result.pruning_radius)

    def test_dispatch_by_batch_query_value(self):
        """The plan's root operator is the spec's native kind, all seven."""
        explainer = QueryExplainer(make_server())
        small = Rect(1, 1, 9, 9)
        ops = [
            explainer.explain(spec).op
            for spec in (
                RangeSpec(window=Rect(0, 0, 50, 50)),
                KNNSpec(point=Point(5, 5), k=2),
                NNSpec(point=Point(5, 5)),
                CountSpec(window=Rect(0, 0, 50, 50)),
                NNSpec(point=Point(5, 5), dataset="private", samples=16),
                private_range(small, 5.0),
                private_nn(small),
                KNNSpec(flavor="private", region=small, k=2),
            )
        ]
        assert ops == [
            "public_range", "public_knn", "public_knn", "public_count",
            "public_nn", "private_range", "private_nn", "private_knn",
        ]
        assert set(ops) == set(NATIVE_KINDS)

    def test_user_bound_spec_rejected(self):
        from repro.core.errors import QueryError

        with pytest.raises(QueryError, match="anonymizer"):
            QueryExplainer(make_server()).explain(
                RangeSpec(flavor="private", user="alice", radius=5.0)
            )


class TestBatchPlans:
    BATCH = [
        RangeSpec(window=Rect(0, 0, 50, 50)),
        KNNSpec(point=Point(50, 50), k=2),
        CountSpec(window=Rect(0, 0, 50, 50)),
        private_nn(),
    ]

    def test_first_batch_captures_then_reuses_snapshot(self):
        explainer = QueryExplainer(make_server())
        first = explainer.explain_batch(self.BATCH)
        second = explainer.explain_batch(self.BATCH)
        assert first.find("snapshot")[0].detail["result"] == "captured"
        assert second.find("snapshot")[0].detail["result"] == "reused"

    def test_kernel_vs_scalar_paths(self):
        plan = QueryExplainer(make_server()).explain_batch(self.BATCH)
        by_op = {n.op: n.detail for n in plan.children}
        assert by_op["engine.public_range"]["kernel"] == "points_in_windows_grid"
        assert by_op["engine.public_knn"]["path"] == "vectorized"
        assert by_op["engine.private_nn"]["path"] == "scalar"

    def test_tie_break_policies_reported(self):
        plan = QueryExplainer(make_server()).explain_batch(self.BATCH)
        nn = [n for n in plan.children if n.op == "engine.public_knn"][0]
        assert nn.detail["tie_break"] == "distance, then snapshot rank"
