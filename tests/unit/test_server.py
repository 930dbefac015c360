"""Unit tests for the privacy-aware LocationServer."""

import pytest

from repro.core.errors import QueryError, RegistrationError
from repro.core.server import LocationServer
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.queries.public_range import naive_range_count
from repro.queries.spec import CountSpec, KNNSpec, NNSpec, RangeSpec


def private_nn(region: Rect) -> NNSpec:
    return NNSpec(flavor="private", region=region)


def private_range(region: Rect, radius: float) -> RangeSpec:
    return RangeSpec(flavor="private", region=region, radius=radius)


@pytest.fixture
def server(uniform_points_500):
    server = LocationServer()
    for i, p in enumerate(uniform_points_500[:100]):
        server.add_public_object(("poi", i), p)
    return server


class TestPublicData:
    def test_add_move_remove(self, server):
        server.add_public_object("car", Point(1, 1))
        server.move_public_object("car", Point(2, 2))
        assert server.public.point_of("car") == Point(2, 2)
        server.remove_public_object("car")
        assert "car" not in server.public

    def test_move_unknown_raises(self, server):
        with pytest.raises(RegistrationError):
            server.move_public_object("ghost", Point(0, 0))


class TestPrivateData:
    def test_receive_region(self, server):
        server.receive_region("anon-1", Rect(0, 0, 10, 10))
        assert server.private.region_of("anon-1") == Rect(0, 0, 10, 10)

    def test_refresh_region(self, server):
        server.receive_region("anon-1", Rect(0, 0, 10, 10))
        server.receive_region("anon-1", Rect(5, 5, 15, 15))
        assert server.private.region_of("anon-1") == Rect(5, 5, 15, 15)
        assert len(server.private) == 1

    def test_forget_region(self, server):
        server.receive_region("anon-1", Rect(0, 0, 10, 10))
        server.forget_region("anon-1")
        assert "anon-1" not in server.private


class TestQueries:
    def test_private_range(self, server, uniform_points_500):
        region = Rect(40, 40, 50, 50)
        result = server.planner.execute(private_range(region, 10.0))
        for c in result.candidates:
            assert server.public.point_of(c) is not None

    def test_private_nn(self, server):
        result = server.planner.execute(private_nn(Rect(40, 40, 50, 50)))
        assert len(result.candidates) >= 1

    def test_public_count_and_naive(self, server):
        server.receive_region("a", Rect(0, 0, 10, 10))
        server.receive_region("b", Rect(5, 5, 25, 25))
        window = Rect(0, 0, 10, 10)
        answer = server.planner.execute(CountSpec(window=window))
        assert answer.expected == pytest.approx(1.0 + 25.0 / 400.0)
        assert naive_range_count(server.private, window) == 2

    def test_public_nn(self, server):
        server.receive_region("a", Rect(40, 40, 45, 45))
        server.receive_region("b", Rect(80, 80, 90, 90))
        result = server.planner.execute(
            NNSpec(point=Point(42, 42), dataset="private")
        )
        assert result.answer.top == "a"

    def test_public_over_public_range(self, server, uniform_points_500):
        window = Rect(10, 10, 50, 50)
        expected = sorted(
            ("poi", i)
            for i, p in enumerate(uniform_points_500[:100])
            if window.contains_point(p)
        )
        got = server.planner.execute(RangeSpec(window=window))
        assert sorted(got) == expected

    def test_public_over_public_nn(self, server, uniform_points_500):
        q = Point(50, 50)
        got = server.planner.execute(KNNSpec(point=q, k=3))
        brute = sorted(
            range(100), key=lambda i: uniform_points_500[i].distance_to(q)
        )[:3]
        assert set(got) == {("poi", i) for i in brute}

    def test_public_over_public_nn_invalid_k(self, server):
        with pytest.raises(QueryError):
            server.planner.execute(KNNSpec(point=Point(0, 0), k=0))

    def test_queries_served_counter(self, server):
        before = server.queries_served
        server.planner.execute(private_nn(Rect(0, 0, 10, 10)))
        server.planner.execute(CountSpec(window=Rect(0, 0, 1, 1)))
        assert server.queries_served == before + 2

    def test_stats_snapshot(self, server):
        server.receive_region("anon-1", Rect(0, 0, 5, 5))
        server.planner.execute(private_nn(Rect(0, 0, 10, 10)))
        server.planner.execute(private_range(Rect(0, 0, 10, 10), 2.0))
        server.planner.execute(CountSpec(window=Rect(0, 0, 5, 5)))
        server.register_count_monitor("m", Rect(0, 0, 1, 1))
        stats = server.stats()
        assert stats.public_objects == 100
        assert isinstance(stats.public_objects, int)
        assert stats.private_regions == 1
        assert stats.monitors == 1
        assert stats.region_updates == 1
        assert stats.queries_by_kind == {
            "private_nn": 1,
            "private_range": 1,
            "public_count": 1,
        }
        assert stats.queries_served == 3
        flat = stats.as_dict()
        assert flat["queries_private_nn"] == 1
        assert all(isinstance(v, int) for v in flat.values())


class TestMonitors:
    def test_monitor_seeded_and_maintained(self, server):
        server.receive_region("a", Rect(0, 0, 10, 10))
        monitor = server.register_count_monitor("m", Rect(0, 0, 20, 20))
        assert monitor.expected_count == pytest.approx(1.0)
        server.receive_region("b", Rect(0, 0, 5, 5))
        assert monitor.expected_count == pytest.approx(2.0)
        server.forget_region("a")
        assert monitor.expected_count == pytest.approx(1.0)

    def test_monitor_lookup_and_drop(self, server):
        server.register_count_monitor("m", Rect(0, 0, 1, 1))
        assert server.monitor("m") is not None
        server.drop_count_monitor("m")
        with pytest.raises(QueryError):
            server.monitor("m")

    def test_duplicate_monitor_raises(self, server):
        server.register_count_monitor("m", Rect(0, 0, 1, 1))
        with pytest.raises(QueryError):
            server.register_count_monitor("m", Rect(0, 0, 2, 2))

    def test_drop_unknown_raises(self, server):
        with pytest.raises(QueryError):
            server.drop_count_monitor("ghost")

    def test_monitor_matches_recompute_under_updates(self, server, rng):
        monitor = server.register_count_monitor("m", Rect(20, 20, 60, 60))
        for i in range(50):
            cx, cy = rng.uniform(0, 100, 2)
            server.receive_region(
                ("u", i), Rect.from_center(Point(float(cx), float(cy)), 8, 8).clipped(Rect(0,0,100,100))
            )
        for _ in range(100):
            i = int(rng.integers(50))
            cx, cy = rng.uniform(0, 100, 2)
            server.receive_region(
                ("u", i), Rect.from_center(Point(float(cx), float(cy)), 8, 8).clipped(Rect(0,0,100,100))
            )
        assert monitor.expected_count == pytest.approx(
            monitor.recompute(server.private).expected
        )
