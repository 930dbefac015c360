"""Unit tests for the route-table query planner."""

import pytest

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.errors import QueryError
from repro.core.profiles import PrivacyProfile
from repro.core.server import LocationServer
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.obs.events import PLANNER_DECISION
from repro.planner import QueryPlanner
from repro.planner.planner import ROUTE_TABLE, eligible_routes
from repro.queries.probabilistic import CountAnswer
from repro.queries.spec import CountSpec, KNNSpec, NNSpec, RangeSpec

BOUNDS = Rect(0, 0, 100, 100)


@pytest.fixture
def system(uniform_points_500):
    system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
    for i, p in enumerate(uniform_points_500[:200]):
        system.add_user(MobileUser(i, p, PrivacyProfile.always(k=8)))
    for j in range(60):
        system.add_poi(("poi", j), Point((17 * j) % 100, (41 * j) % 100))
    system.publish_all()
    return system


@pytest.fixture
def planner(system):
    return system.planner


class TestDecisions:
    def test_ranked_candidates_cheapest_first(self, planner):
        # The route table, not a ranking: a single spec runs scalar.
        decision = planner.decide(RangeSpec(window=Rect(10, 10, 50, 50)))
        assert decision.kind == "public_range"
        assert decision == ROUTE_TABLE["public_range", False]
        assert (decision.backend, decision.route) == ("rtree", "scalar")
        assert decision.reason.startswith("route table")
        assert not decision.pinned and not decision.forced

    def test_all_backends_eligible_for_public_range(self):
        assert eligible_routes("public_range") == ("scalar", "vectorized")

    def test_decision_event_emitted(self, system, planner):
        planner.execute(CountSpec(window=Rect(0, 0, 40, 40)))
        events = list(system.obs.events.events(PLANNER_DECISION))
        assert events
        last = events[-1].attrs
        assert last["query"] == "public_count"
        assert last["backend"] == "rtree"
        assert last["route"] == "scalar"
        assert (last["batch"], last["n"]) == (1, 1)
        assert "candidates" not in last and "est_seconds" not in last

    def test_forcing_an_eligible_choice(self, planner):
        spec = KNNSpec(point=Point(50, 50), k=3)
        decision = planner.decide(spec, route="vectorized")
        assert decision.forced
        assert (decision.backend, decision.route) == ("rtree", "vectorized")
        assert decision.reason == "forced by caller"

    def test_forcing_ineligible_choice_raises(self, planner):
        spec = NNSpec(flavor="private", region=Rect(20, 20, 30, 30))
        with pytest.raises(QueryError, match="not an eligible execution"):
            planner.decide(spec, route="vectorized")
        with pytest.raises(QueryError, match="not an eligible execution"):
            planner.decide(RangeSpec(window=Rect(0, 0, 1, 1)), route="grid")

    def test_private_nn_pinned_to_native_store(self, planner):
        decision = planner.decide(
            NNSpec(flavor="private", region=Rect(20, 20, 30, 30)), batch_size=9
        )
        assert decision.pinned
        assert (decision.backend, decision.route) == ("rtree", "scalar")
        assert decision.kind == "private_nn"

    def test_private_knn_and_monte_carlo_pinned(self, planner):
        knn = planner.decide(
            KNNSpec(flavor="private", region=Rect(20, 20, 30, 30), k=3)
        )
        nn = planner.decide(NNSpec(dataset="private", point=Point(50, 50)))
        assert knn.pinned and knn.kind == "private_knn"
        assert nn.pinned and nn.kind == "public_nn"
        for decision in (knn, nn):
            assert (decision.backend, decision.route) == ("rtree", "scalar")

    def test_count_backends_need_degenerate_regions(self, planner):
        # Cloaked regions have area; counts still have both routes, both
        # over the native store's snapshot.
        assert eligible_routes("public_count") == ("scalar", "vectorized")
        decision = planner.decide(CountSpec(window=Rect(0, 0, 40, 40)), 2)
        assert (decision.backend, decision.route) == ("rtree", "vectorized")

    def test_to_plan_node_shows_chosen_and_rejected(self, planner):
        from repro.obs import QueryExplainer

        plan = QueryExplainer(planner.server).explain(
            RangeSpec(window=Rect(10, 10, 50, 50))
        )
        node = plan.children[0]
        assert node.op == "planner.decision"
        ops = [child.op for child in node.children]
        assert ops == ["planner.chosen", "planner.rejected"]
        assert node.children[0].detail["route"] == "scalar"
        assert node.children[1].detail["route"] == "vectorized"


class TestRouteTable:
    """Routing is a function of the question, not of the clock."""

    @staticmethod
    def mixed_batch():
        return [
            RangeSpec(window=Rect(10, 10, 50, 50)),
            KNNSpec(point=Point(50, 50), k=3),
            CountSpec(window=Rect(0, 0, 40, 40)),
            KNNSpec(point=Point(20, 70), k=5),
            RangeSpec(flavor="private", region=Rect(20, 20, 30, 30), radius=5.0),
            NNSpec(flavor="private", region=Rect(20, 20, 30, 30)),
            NNSpec(dataset="private", point=Point(50, 50), samples=32),
        ]

    def test_batched_public_knn_runs_on_the_kernel(self, system, planner):
        batch = self.mixed_batch()
        assert planner.decide(batch[1], batch_size=len(batch)).route == "vectorized"
        planner.execute_batch(batch)
        routes = {
            event.attrs["query"]: event.attrs["route"]
            for event in system.obs.events.events(PLANNER_DECISION)
        }
        assert routes == {
            "public_range": "vectorized",
            "public_knn": "vectorized",
            "public_count": "vectorized",
            "private_range": "scalar",
            "private_nn": "scalar",
            "public_nn": "scalar",
        }

    def test_single_spec_runs_scalar(self, planner):
        for spec in self.mixed_batch():
            assert planner.decide(spec).route == "scalar"

    def test_same_seed_same_decision_stream(self, uniform_points_500):
        def stream():
            system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
            for i, p in enumerate(uniform_points_500[:200]):
                system.add_user(MobileUser(i, p, PrivacyProfile.always(k=8)))
            for j in range(60):
                system.add_poi(("poi", j), Point((17 * j) % 100, (41 * j) % 100))
            system.publish_all()
            system.execute_batch(self.mixed_batch())
            system.query(KNNSpec(point=Point(50, 50), k=3))
            return [
                {k: v for k, v in event.attrs.items() if k not in ("qid", "bid")}
                for event in system.obs.events.events(PLANNER_DECISION)
            ]

        first = stream()
        assert len(first) == 7  # six kind groups, one single query
        assert stream() == first


class TestCalibration:
    """The live statistics ``repro plan`` prints (nothing is calibrated)."""

    def test_calibrated_event_and_stats_content(self, system, planner):
        stats = planner.stats()
        assert stats.n_public == 60
        assert stats.n_private == len(system.server.private)
        assert stats.snapshot_fresh is False
        system.execute_batch([RangeSpec(window=Rect(0, 0, 50, 50))] * 2)
        assert planner.stats().snapshot_fresh is True
        assert stats.live_counters["server.public"]["nn_queries"] >= 0
        assert planner.collector.calibrations == 0

    def test_stats_round_trip_to_dict(self, planner):
        record = planner.stats().to_dict()
        import json

        assert json.loads(json.dumps(record)) == record

    def test_cost_model_ranks_deterministically(self, planner):
        spec = RangeSpec(window=Rect(10, 10, 50, 50))
        assert planner.decide(spec) is planner.decide(spec)
        assert planner.decide(spec, 5) is planner.decide(spec, 500)


class TestExecution:
    def test_planned_query_counted_under_native_kind(self, system):
        before = system.server.stats().queries_by_kind.get("public_count", 0)
        answer = system.query(CountSpec(window=Rect(0, 0, 40, 40)))
        assert isinstance(answer, CountAnswer)
        after = system.server.stats().queries_by_kind["public_count"]
        assert after == before + 1

    def test_planned_count_matches_native_entry_point(self, system):
        from repro.queries.public_range import public_range_count

        window = Rect(0, 0, 40, 40)
        planned = system.query(CountSpec(window=window))
        native = public_range_count(system.server.private, window)
        assert planned.probabilities == native.probabilities

    def test_query_rejects_non_specs(self, system):
        with pytest.raises(QueryError, match="QuerySpec"):
            system.query(Rect(0, 0, 1, 1))

    def test_planner_rejects_user_bound_specs(self, planner):
        with pytest.raises(QueryError, match="PrivacySystem.query"):
            planner.execute(RangeSpec(flavor="private", user=0, radius=5.0))

    def test_user_bound_range_runs_full_pipeline(self, system):
        outcome, refined = system.query(
            RangeSpec(flavor="private", user=0, radius=10.0)
        )
        assert outcome.correct
        assert outcome.candidates >= outcome.answer_size == len(refined)

    def test_user_bound_knn_pipeline(self, system):
        outcome, refined = system.query(
            KNNSpec(flavor="private", user=3, k=4)
        )
        assert outcome.correct
        assert outcome.k == 4
        assert len(refined) == 4
        assert system.ledger.summary()["knn_accuracy"] == 1.0

    def test_execute_batch_specs_match_single_queries(self, system):
        specs = [
            RangeSpec(window=Rect(10, 10, 50, 50)),
            CountSpec(window=Rect(0, 0, 40, 40)),
            KNNSpec(point=Point(50, 50), k=3),
            RangeSpec(flavor="private", user=1, radius=8.0),
        ]
        batch = system.execute_batch(specs)
        assert batch[0] == system.query(specs[0])
        assert batch[1].probabilities == system.query(specs[1]).probabilities
        assert batch[2] == system.query(specs[2])
        outcome, refined = batch[3]
        assert outcome.correct and isinstance(refined, list)


class TestExplainSpec:
    def test_explain_spec_embeds_decision(self, system):
        from repro.obs import QueryExplainer

        explainer = QueryExplainer(system.server)
        plan = explainer.explain(CountSpec(window=Rect(0, 0, 40, 40)))
        assert plan.op == "public_count"
        decision = plan.children[0]
        assert decision.op == "planner.decision"
        assert decision.detail["query"] == "public_count"
        # The plan joins the event trail on its qid.
        logged = list(system.obs.events.events(PLANNER_DECISION))[-1]
        assert logged.attrs["qid"] == plan.detail["qid"]
        # The index work was measured on the store the kind searches.
        assert plan.find("index.range_query")[0].detail["store"] == "private"

    def test_explain_spec_rejects_user_bound(self, system):
        from repro.obs import QueryExplainer

        explainer = QueryExplainer(system.server)
        with pytest.raises(QueryError, match="user-bound"):
            explainer.explain(RangeSpec(flavor="private", user=0, radius=5.0))


class TestStandaloneServer:
    def test_empty_store_only_rtree_is_eligible(self):
        from repro.obs import Telemetry

        server = LocationServer(telemetry=Telemetry(enabled=False))
        planner = QueryPlanner(server)
        decision = planner.decide(RangeSpec(window=Rect(0, 0, 5, 5)))
        assert decision.backend == "rtree"
        for route in eligible_routes(decision.kind):
            spec = RangeSpec(window=Rect(0, 0, 5, 5))
            assert planner.execute(spec, route=route) == ()

    def test_engine_routes_length_mismatch_raises(self):
        from repro.obs import Telemetry

        server = LocationServer(telemetry=Telemetry(enabled=False))
        with pytest.raises(ValueError, match="routes length"):
            server.engine.execute(
                [RangeSpec(window=Rect(0, 0, 1, 1))], routes=[True, False]
            )
