"""Unit tests for the batch engine: snapshots, kernels, wiring, goldens."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.core.server import LocationServer
from repro.engine import BatchEngine, BruteForceOracle, ServerSnapshot
from repro.engine import kernels
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.queries.spec import CountSpec, KNNSpec, NNSpec, RangeSpec


def small_server() -> LocationServer:
    server = LocationServer(telemetry=Telemetry(enabled=False))
    for i, (x, y) in enumerate([(1, 1), (2, 5), (8, 3), (5, 5), (9, 9)]):
        server.add_public_object(f"o{i}", Point(float(x), float(y)))
    server.receive_region("u0", Rect(0, 0, 4, 4))
    server.receive_region("u1", Rect(6, 6, 10, 10))
    return server


class TestQueryValidation:
    """Bad queries fail at construction, before a batch runs."""

    def test_negative_radius_rejected(self):
        with pytest.raises(QueryError):
            RangeSpec(flavor="private", region=Rect(0, 0, 1, 1), radius=-1.0)

    def test_unknown_methods_rejected(self):
        with pytest.raises(QueryError):
            RangeSpec(
                flavor="private", region=Rect(0, 0, 1, 1), radius=1.0,
                method="voronoi",
            )
        with pytest.raises(QueryError):
            NNSpec(flavor="private", region=Rect(0, 0, 1, 1), method="bogus")

    def test_non_positive_k_rejected(self):
        with pytest.raises(QueryError):
            KNNSpec(point=Point(0, 0), k=0)

    def test_user_bound_spec_rejected(self):
        user_bound = RangeSpec(flavor="private", user="alice", radius=1.0)
        server = small_server()
        with pytest.raises(QueryError, match="anonymizer"):
            BatchEngine(server).execute([user_bound])
        # The server refuses the batch before accounting any of it.
        with pytest.raises(QueryError, match="anonymizer"):
            server.execute_batch([CountSpec(window=Rect(0, 0, 1, 1)), user_bound])
        assert server.stats().queries_served == 0


class TestSnapshot:
    def test_reused_while_quiescent(self):
        engine = BatchEngine(small_server())
        assert engine.snapshot() is engine.snapshot()

    def test_invalidated_by_each_mutation_kind(self):
        server = small_server()
        engine = BatchEngine(server)
        first = engine.snapshot()
        server.move_public_object("o0", Point(3, 3))
        second = engine.snapshot()
        assert second is not first
        server.receive_region("u0", Rect(1, 1, 2, 2))
        third = engine.snapshot()
        assert third is not second
        server.remove_public_object("o1")
        assert engine.snapshot() is not third

    def test_arrays_are_immutable(self):
        snapshot = BatchEngine(small_server()).snapshot()
        with pytest.raises(ValueError):
            snapshot.public_xs[0] = 99.0
        with pytest.raises(ValueError):
            snapshot.private_bounds[0, 0] = 99.0

    def test_point_in_time_isolation(self):
        """A captured snapshot never sees later store mutations."""
        server = small_server()
        engine = BatchEngine(server)
        snapshot = engine.snapshot()
        n_before = snapshot.n_public
        server.add_public_object("late", Point(0, 0))
        assert snapshot.n_public == n_before
        assert not snapshot.matches(server)

    def test_capture_matches_store_contents(self):
        server = small_server()
        snapshot = ServerSnapshot.capture(server)
        assert set(snapshot.public_ids) == set(server.public)
        assert set(snapshot.private_ids) == set(server.private)
        for item, row in snapshot.public_rank.items():
            p = server.public.point_of(item)
            assert (snapshot.public_xs[row], snapshot.public_ys[row]) == (p.x, p.y)

    def test_grid_shared_per_snapshot(self):
        snapshot = BatchEngine(small_server()).snapshot()
        assert snapshot.public_grid is snapshot.public_grid

    def test_capture_does_no_per_row_python(self, monkeypatch):
        """A capture after scalar writes copies columns: it walks no
        index, reads no geometry and builds no rectangle."""
        from repro.core.stores import PrivateStore, PublicStore
        from repro.index.rtree import RTree

        rng = np.random.default_rng(5)
        server = LocationServer(telemetry=Telemetry(enabled=False))
        coords = rng.uniform(0.0, 100.0, size=(5000, 2))
        for i, (x, y) in enumerate(coords):
            server.add_public_object(f"o{i}", Point(float(x), float(y)))
        server.receive_regions(
            {f"u{i}": Rect(x, y, x + 1.0, y + 1.0) for i, (x, y) in enumerate(coords)}
        )
        first = server.engine.snapshot()
        for i in range(50):
            server.move_public_object(f"o{i}", Point(50.0, float(i)))
            server.receive_region(f"u{i}", Rect(0.0, 0.0, 2.0, float(i + 2)))

        calls: dict[str, int] = {}

        def tally(name: str) -> None:
            calls[name] = calls.get(name, 0) + 1

        def spy(owner, name):
            raw = getattr(owner, name)

            def counted(*args, **kwargs):
                tally(name)
                return raw(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in [
            (RTree, "__iter__"), (RTree, "geometry_of"),
            (PublicStore, "items"), (PrivateStore, "items"),
            (PublicStore, "point_of"), (PrivateStore, "region_of"),
            (Rect, "__post_init__"),
        ]:
            spy(owner, name)

        def watched(table):
            """``table`` (a list or a dict) counting every read."""

            class Watched(type(table)):
                def __getitem__(self, key):
                    tally("geometry table")
                    return super().__getitem__(key)

                def __iter__(self):
                    tally("geometry table")
                    return super().__iter__()

            return Watched(table)

        # Both stores' geometry columns and both trees' geometry tables.
        for store in (server.public, server.private):
            store._geoms = watched(store._geoms)
            store._rtree._geoms = watched(store._rtree._geoms)
        fresh = server.engine.snapshot()
        assert calls == {}
        # The capture happened and saw every write ...
        assert fresh is not first and fresh.matches(server)
        assert (fresh.n_public, fresh.n_private) == (5000, 5000)
        assert fresh.public_xs[fresh.public_rank["o7"]] == 50.0
        assert fresh.private_bounds[fresh.private_rank["u7"]].tolist() == [
            0.0, 0.0, 2.0, 9.0,
        ]
        # ... and the spies see a per-row walk when there is one.
        server.public.point_of("o7")
        server.private.region_of("u7")
        dict(server.private.items())
        [server.private._rtree.geometry_of(item) for item in server.private._rtree]
        Rect(0.0, 0.0, 1.0, 1.0)
        assert {name: count > 0 for name, count in calls.items()} == {
            "point_of": True, "region_of": True, "items": True,
            "__iter__": True, "geometry_of": True, "__post_init__": True,
            "geometry table": True,
        }


class TestOneRowOrder:
    """A batch's answer does not depend on the engine's cache history:
    the cached snapshot, a fresh capture and the planned single query
    rank by the same rows."""

    @staticmethod
    def assert_every_path_agrees(server: LocationServer, spec) -> tuple:
        [batched] = server.execute_batch([spec])
        planned = server.planner.execute(spec)
        server.engine._cached = None
        [recaptured] = server.execute_batch([spec])
        assert batched == planned == recaptured
        return batched

    def test_knn_tie_after_a_move_in_place_and_an_add(self):
        server = LocationServer(telemetry=Telemetry(enabled=False))
        server.add_public_object("a", Point(1.0, 0.0))
        server.add_public_object("b", Point(0.0, 1.0))  # ties with a
        server.add_public_object("c", Point(5.0, 5.0))
        spec = KNNSpec(point=Point(0.0, 0.0), k=1)
        server.execute_batch([spec])  # the engine now holds a snapshot
        server.move_public_object("a", Point(1.0, 0.0))
        server.add_public_object("d", Point(9.0, 9.0))
        assert self.assert_every_path_agrees(server, spec) == ("a",)

    def test_range_after_a_move(self):
        server = LocationServer(telemetry=Telemetry(enabled=False))
        server.add_public_object("a", Point(1.0, 1.0))
        server.add_public_object("b", Point(2.0, 2.0))
        server.add_public_object("c", Point(8.0, 8.0))
        spec = RangeSpec(window=Rect(0.0, 0.0, 5.0, 5.0))
        server.execute_batch([spec])
        server.move_public_object("a", Point(4.0, 4.0))
        assert self.assert_every_path_agrees(server, spec) == ("a", "b")


class TestEngineExecution:
    def test_results_align_with_input_order(self):
        server = small_server()
        engine = BatchEngine(server)
        batch = [
            CountSpec(window=Rect(0, 0, 10, 10)),
            RangeSpec(window=Rect(0, 0, 10, 10)),
            KNNSpec(point=Point(0, 0), k=2),
            RangeSpec(window=Rect(0, 0, 3, 6)),
        ]
        results = engine.execute(batch)
        assert results[1] == ("o0", "o1", "o2", "o3", "o4")
        assert results[3] == ("o0", "o1")
        assert results[2] == ("o0", "o1")
        assert set(results[0].probabilities) == {"u0", "u1"}

    def test_knn_canonical_rank_tie_break(self):
        server = LocationServer(telemetry=Telemetry(enabled=False))
        for i in range(4):
            server.add_public_object(i, Point(1.0, 0.0))  # all equidistant
        engine = BatchEngine(server)
        spec = KNNSpec(point=Point(0, 0), k=2)
        [vec] = engine.execute([spec])
        [seq] = engine.execute([spec], routes=[False])
        assert vec == seq == (0, 1)  # earliest snapshot rows win exact ties

    def test_private_nn_uses_scalar_path_in_both_modes(self):
        server = small_server()
        engine = BatchEngine(server)
        spec = NNSpec(flavor="private", region=Rect(2, 2, 4, 4), method="exact")
        [vec] = engine.execute([spec], routes=[True])
        [seq] = engine.execute([spec], routes=[False])
        assert vec == seq

    def test_telemetry_counts_paths_and_snapshot_reuse(self):
        telemetry = Telemetry()
        server = small_server()
        engine = BatchEngine(server, telemetry=telemetry)
        batch = [
            RangeSpec(window=Rect(0, 0, 5, 5)),
            NNSpec(flavor="private", region=Rect(0, 0, 2, 2)),
        ]
        engine.execute(batch)
        engine.execute(batch)
        counters = telemetry.snapshot()["counters"]
        assert counters["engine.queries{kind=public_range,path=vectorized}"] == 2
        assert counters["engine.queries{kind=private_nn,path=scalar}"] == 2
        assert counters["engine.snapshot{result=captured}"] == 1
        assert counters["engine.snapshot{result=reused}"] == 1


class TestServerAndSystemWiring:
    def test_server_execute_batch_counts_stats(self):
        server = small_server()
        before = server.stats().queries_served
        server.execute_batch(
            [RangeSpec(window=Rect(0, 0, 1, 1)), CountSpec(window=Rect(0, 0, 1, 1))]
        )
        stats = server.stats()
        assert stats.queries_served == before + 2
        assert stats.queries_by_kind["public_range"] == 1
        assert stats.queries_by_kind["public_count"] == 1

    def test_server_engine_is_cached(self):
        server = small_server()
        assert server.engine is server.engine

    def test_system_execute_batch(self, bounds):
        from repro import MobileUser, PrivacyProfile, PrivacySystem, PyramidCloaker

        system = PrivacySystem(bounds, PyramidCloaker(bounds, height=4))
        system.add_poi("poi", Point(10, 10))
        system.add_user(
            MobileUser("alice", Point(20, 20), PrivacyProfile.always(k=1))
        )
        system.publish_all()
        rows, answer = system.execute_batch(
            [RangeSpec(window=Rect(0, 0, 50, 50)),
             CountSpec(window=Rect(0, 0, 50, 50))]
        )
        assert rows == ("poi",)
        assert answer.expected == pytest.approx(1.0)


class TestKernels:
    def test_chunking_matches_unchunked(self, monkeypatch):
        rng = np.random.default_rng(9)
        xs = rng.uniform(0, 100, 300)
        ys = rng.uniform(0, 100, 300)
        windows = np.column_stack(
            [xs[:40] - 5, ys[:40] - 5, xs[:40] + 5, ys[:40] + 5]
        )
        want = kernels.points_in_windows(xs, ys, windows)
        monkeypatch.setattr(kernels, "CHUNK_CELLS", 512)
        got = kernels.points_in_windows(xs, ys, windows)
        got_grid = kernels.points_in_windows_grid(
            kernels.PointGrid(xs, ys), windows
        )
        for w, g, gg in zip(want, got, got_grid):
            assert np.array_equal(w, g)
            assert np.array_equal(w, gg)

    def test_smallest_k_boundary_ties_by_rank(self):
        d2 = np.array([4.0, 1.0, 2.0, 2.0, 2.0])
        assert list(kernels._smallest_k(d2, 2)) == [1, 2]
        assert list(kernels._smallest_k(d2, 3)) == [1, 2, 3]
        assert list(kernels._smallest_k(d2, 0)) == []
        assert list(kernels._smallest_k(d2, 99)) == [1, 2, 3, 4, 0]

    def test_radius_membership_is_min_dist(self):
        """Radii exactly at, one ulp under and one ulp over each point's
        own ``min_dist``: the kernel decides them like the scalar test."""
        from repro.geometry.distances import min_dist

        rng = np.random.default_rng(23)
        xs = rng.uniform(0, 100, 400)
        ys = rng.uniform(0, 100, 400)
        region = Rect(40.0, 40.0, 52.5, 47.25)
        exact = np.array([min_dist(Point(x, y), region) for x, y in zip(xs.tolist(), ys.tolist())])
        regions = np.tile([40.0, 40.0, 52.5, 47.25], (3 * len(xs), 1))
        radii = np.concatenate(
            [exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)]
        )
        for radius, rows in zip(radii, kernels.points_within_radius(xs, ys, regions, radii)):
            assert rows.tolist() == np.flatnonzero(exact <= radius).tolist()

    def test_point_grid_degenerate_inputs(self):
        empty = kernels.PointGrid(np.empty(0), np.empty(0))
        assert kernels.points_in_windows_grid(
            empty, np.array([[0.0, 0.0, 1.0, 1.0]])
        )[0].size == 0
        assert kernels.knn_points_grid(
            empty, np.array([0.0]), np.array([0.0]), [3]
        )[0].size == 0
        # All points coincident: zero spans must not divide by zero.
        ones = np.ones(5)
        stacked = kernels.PointGrid(ones, ones)
        [rows] = kernels.knn_points_grid(
            stacked, np.array([1.0]), np.array([1.0]), [2]
        )
        assert list(rows) == [0, 1]


class TestPrivateRangeRoutesAgreeAtTheRadius:
    def test_corner_object_at_exactly_the_radius(self):
        """``np.hypot`` rounds this gap one ulp above ``math.hypot``: the
        kernel used to drop an object the scalar route and the oracle keep."""
        dx, dy = 8.804598989396311, 2.174857014319489
        server = LocationServer(telemetry=Telemetry(enabled=False))
        server.add_public_object("poi", Point(12 + dx, 12 + dy))
        spec = RangeSpec(
            flavor="private", region=Rect(0, 0, 12, 12),
            radius=math.hypot(dx, dy), method="exact",
        )
        oracle = BruteForceOracle.from_server(server)
        want = tuple(oracle.private_range(spec.region, spec.radius, spec.method))
        assert want == ("poi",)
        vectorized = server.planner.execute(spec, route="vectorized")
        scalar = server.planner.execute(spec, backend="rtree", route="scalar")
        assert vectorized.candidates == scalar.candidates == want


class TestOracle:
    def test_validate_knn_rejects_bad_answers(self):
        oracle = BruteForceOracle(
            public={"a": Point(0, 0), "b": Point(1, 0), "c": Point(5, 0)}
        )
        q = Point(0, 0)
        assert oracle.validate_knn(["a", "b"], q, 2)
        assert not oracle.validate_knn(["b", "a"], q, 2)      # not nearest-first
        assert not oracle.validate_knn(["a"], q, 2)           # wrong length
        assert not oracle.validate_knn(["a", "a"], q, 2)      # duplicate
        assert not oracle.validate_knn(["a", "c"], q, 2)      # skips b
        assert not oracle.validate_knn(["a", "x"], q, 2)      # unknown id

    def test_from_index_splits_tables(self):
        from repro.index import RTree

        index = RTree()
        index.insert("point", Rect(1, 1, 1, 1))
        index.insert("region", Rect(0, 0, 2, 2))
        oracle = BruteForceOracle.from_index(index)
        assert set(oracle.public) == {"point"}
        assert set(oracle.private) == {"point", "region"}


class TestFigure6aGoldenBatched:
    """The paper's Figure 6a numbers through the *batched* count path."""

    WINDOW = Rect(0, 0, 10, 10)
    REGIONS = {
        "D": Rect(1, 1, 3, 3),
        "C": Rect(20, 20, 22, 22),
        "A": Rect(-2, 0, 6, 4),
        "B": Rect(-5, 0, 5, 5),
        "E": Rect(5, -8, 10, 2),
        "F": Rect(6, 6, 14, 14),
    }
    GOLDEN = {"D": 1.0, "A": 0.75, "B": 0.5, "E": 0.2, "F": 0.25}

    def batched_answer(self, vectorized: bool):
        server = LocationServer(telemetry=Telemetry(enabled=False))
        for name, region in self.REGIONS.items():
            server.receive_region(name, region)
        [answer] = server.execute_batch(
            [CountSpec(window=self.WINDOW)], routes=[vectorized]
        )
        return answer

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_per_object_probabilities(self, vectorized):
        answer = self.batched_answer(vectorized)
        assert set(answer.probabilities) == set(self.GOLDEN)  # C excluded
        for name, probability in self.GOLDEN.items():
            assert answer.probabilities[name] == pytest.approx(probability)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_expected_and_interval(self, vectorized):
        answer = self.batched_answer(vectorized)
        assert answer.expected == pytest.approx(2.7)
        assert answer.interval == (1, 5)
