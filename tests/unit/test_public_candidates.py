"""Public NN / k-NN candidate generation over cloaked users (Figure 6b).

``knn_candidate_users`` evaluates ``max_dist`` / ``min_dist`` over the
private store's bounds column in numpy and lets ``math.hypot`` decide the
rows numpy cannot (``repro.geometry.distances``).  The definition it
replaced — two passes over ``store.items()`` with the scalar distances —
is kept below as ``naive_candidates``; the routine has to return its ids
in its order, with a ``repr``-equal bound, on every input.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.server import LocationServer
from repro.core.stores import PrivateStore
from repro.geometry import distances
from repro.geometry.distances import (
    BAND,
    hypot_at_most,
    kth_smallest_hypot,
    max_dist,
    max_dist_axes,
    min_dist,
    min_dist_axes,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.queries.public_knn import knn_candidate_users, public_knn_query
from repro.queries.public_nn import nn_candidate_users, public_nn_query
from repro.queries.spec import NNSpec


def naive_candidates(store, query, k):
    """The definition, one region at a time: the k-th smallest worst case
    is the bound, and every region whose best case reaches it survives."""
    k = min(k, len(store))
    worst_cases = sorted(max_dist(query, region) for _, region in store.items())
    bound = worst_cases[k - 1]
    candidates = [
        object_id
        for object_id, region in store.items()
        if min_dist(query, region) <= bound
    ]
    return candidates, bound


def make_store(regions) -> PrivateStore:
    store = PrivateStore()
    for object_id, region in enumerate(regions):
        store.set_region(object_id, region)
    return store


def assert_definition(store, query) -> None:
    n = len(store)
    for k in (1, 2, n, n + 3):
        want_ids, want_bound = naive_candidates(store, query, k)
        got_ids, got_bound = knn_candidate_users(store, query, k)
        assert got_ids == want_ids, k
        assert repr(got_bound) == repr(want_bound), k
    assert nn_candidate_users(store, query) == knn_candidate_users(store, query, 1)


board = st.integers(0, 12).map(float)


@st.composite
def integer_boards(draw):
    """Regions on a 13 x 13 board, some degenerate, some repeated, and a
    query that is as often on a region's edge or corner as off it."""
    regions = [
        Rect(x, y, x + w, y + h)
        for x, y, w, h in draw(
            st.lists(
                st.tuples(board, board, st.integers(0, 4), st.integers(0, 4)),
                min_size=1,
                max_size=20,
            )
        )
    ]
    regions += draw(st.lists(st.sampled_from(regions), max_size=6))
    if draw(st.booleans()):
        region = draw(st.sampled_from(regions))
        query = Point(
            draw(st.sampled_from([region.min_x, region.max_x, region.center.x])),
            draw(st.sampled_from([region.min_y, region.max_y, region.center.y])),
        )
    else:
        query = Point(float(draw(st.integers(-2, 16))), float(draw(st.integers(-2, 16))))
    return regions, query


coordinate = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)
extent = st.floats(0.0, 60.0, allow_nan=False, allow_infinity=False)


class TestCandidatesEqualTheDefinition:
    @given(integer_boards())
    @settings(max_examples=300, deadline=None)
    def test_integer_boards(self, case):
        """Ties, duplicates, degenerate and boundary-aligned regions, and
        queries on an edge or a corner are the common case here."""
        regions, query = case
        assert_definition(make_store(regions), query)

    @given(
        st.lists(st.tuples(coordinate, coordinate, extent, extent), min_size=1, max_size=30),
        st.tuples(coordinate, coordinate),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_stores(self, raw, query):
        store = make_store(Rect(x, y, x + w, y + h) for x, y, w, h in raw)
        assert_definition(store, Point(*query))

    def test_bound_is_math_hypot_where_numpy_rounds_differently(self):
        """A plain-numpy bound (``np.hypot``) is one ulp off on some of
        these queries; the routine's bound never is."""
        rng = random.Random("hypot")
        numpy_off = 0
        for _ in range(300):
            regions = []
            for _ in range(12):
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                regions.append(Rect(x, y, x + rng.uniform(0, 9), y + rng.uniform(0, 9)))
            store = make_store(regions)
            query = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            _, bounds = store.snapshot_arrays()
            plain = np.sort(np.hypot(*max_dist_axes(query, bounds)))
            for k in (1, 2, 5):
                want_ids, want_bound = naive_candidates(store, query, k)
                numpy_off += repr(float(plain[k - 1])) != repr(want_bound)
                got_ids, got_bound = knn_candidate_users(store, query, k)
                assert (got_ids, repr(got_bound)) == (want_ids, repr(want_bound))
        assert numpy_off > 0  # the case this test exists for did occur

    def test_after_removals_rows_follow_items_order(self):
        rng = random.Random("holes")
        store = PrivateStore()
        for n in range(200):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            store.set_region(f"u{n}", Rect(x, y, x + 5, y + 5))
        for n in range(0, 200, 3):
            store.remove(f"u{n}")
        store.set_region("late", Rect(48, 48, 52, 52))
        store.set_region("u1", Rect(45, 45, 55, 55))
        for query in (Point(50, 50), Point(0, 0), Point(99.5, 3)):
            assert_definition(store, query)


class TestArrayFormsAreTheScalarOnes:
    @given(
        st.lists(st.tuples(coordinate, coordinate, extent, extent), min_size=1, max_size=30),
        st.tuples(coordinate, coordinate),
    )
    @settings(max_examples=100, deadline=None)
    def test_axes_feed_hypot_the_scalar_terms(self, raw, q):
        regions = [Rect(x, y, x + w, y + h) for x, y, w, h in raw]
        query = Point(*q)
        bounds = np.array([[r.min_x, r.min_y, r.max_x, r.max_y] for r in regions])
        for axes, scalar in ((min_dist_axes, min_dist), (max_dist_axes, max_dist)):
            dx, dy = axes(query, bounds)
            assert list(map(math.hypot, dx.tolist(), dy.tolist())) == [
                scalar(query, r) for r in regions
            ]

    @given(
        st.lists(st.tuples(extent, extent), min_size=1, max_size=40),
        st.integers(0, 39),
        st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_confirm_step_decides_like_math_hypot(self, terms, pick, ulps):
        """Limits exactly at, one ulp under and one ulp over a row's own
        ``math.hypot``: the cases a squared comparison cannot settle."""
        dx = np.array([x for x, _ in terms])
        dy = np.array([y for _, y in terms])
        exact = list(map(math.hypot, dx.tolist(), dy.tolist()))
        limit = exact[pick % len(terms)]
        if ulps:
            limit = math.nextafter(limit, math.inf if ulps > 0 else -math.inf)
        assert hypot_at_most(dx, dy, limit).tolist() == [h <= limit for h in exact]
        for k in range(1, len(terms) + 1):
            assert kth_smallest_hypot(dx, dy, k) == sorted(exact)[k - 1]

    def test_confirm_step_on_numpy_disagreements(self):
        rng = np.random.default_rng(17)
        dx = rng.uniform(0, 50, 20_000)
        dy = rng.uniform(0, 50, 20_000)
        exact = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
        assert np.count_nonzero(np.hypot(dx, dy) != exact) > 0  # precondition
        for limit in (exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)):
            assert np.array_equal(hypot_at_most(dx, dy, limit), exact <= limit)

    def test_extremes(self):
        dx = np.array([1e-170, 1e200, 0.0, 3.0, 5e-324])
        dy = np.array([1e-170, 1e200, 0.0, 4.0, 0.0])
        exact = list(map(math.hypot, dx.tolist(), dy.tolist()))
        with np.errstate(over="ignore", invalid="ignore"):
            for limit in (0.0, -0.0, -1.0, 5.0, exact[0], exact[1], math.inf, 5e-324):
                assert hypot_at_most(dx, dy, limit).tolist() == [h <= limit for h in exact]
            for k in range(1, 6):
                assert kth_smallest_hypot(dx, dy, k) == sorted(exact)[k - 1]


class TestProbabilitiesArePinned:
    """Fixed-seed answers recorded before candidate generation moved onto
    the bounds column: same candidates, same draws, same tallies."""

    REGIONS = {
        "a": Rect(44, 46, 53, 55),
        "b": Rect(47, 41, 58, 52),
        "c": Rect(44, 46, 53, 55),  # a duplicate of a
        "d": Rect(52, 49, 52, 57),  # zero width: no x draw
        "e": Rect(41, 52, 49, 52),  # zero height: no y draw
        "f": Rect(55, 55, 55, 55),  # a point
        "g": Rect(30, 30, 40, 40),  # pruned
        "h": Rect(80, 80, 90, 90),  # pruned
        "i": Rect(49.5, 43.25, 60.75, 50.5),
    }
    Q = Point(50.0, 50.0)
    SAMPLES = 2000

    @pytest.fixture
    def store(self):
        store = PrivateStore()
        for object_id, region in self.REGIONS.items():
            store.set_region(object_id, region)
        return store

    def test_public_nn_query(self, store):
        result = public_nn_query(
            store, self.Q, samples=self.SAMPLES, rng=np.random.default_rng(11)
        )
        assert repr(result.pruning_bound) == "7.0710678118654755"
        tallies = {"a": 505, "b": 272, "c": 449, "d": 477, "e": 123, "f": 0, "i": 174}
        assert list(result.answer.probabilities.items()) == [
            (c, n / self.SAMPLES) for c, n in tallies.items()
        ]

    @pytest.mark.parametrize(
        "k, bound, tallies",
        [
            (2, "7.280109889280518",
             {"a": 955, "b": 458, "c": 1003, "d": 903, "e": 384, "f": 0, "i": 297}),
            (3, "7.810249675906654",
             {"a": 1419, "b": 671, "c": 1476, "d": 1279, "e": 686, "f": 6, "i": 463}),
        ],
    )
    def test_public_knn_query(self, store, k, bound, tallies):
        assert repr(knn_candidate_users(store, self.Q, k)[1]) == bound
        result = public_knn_query(
            store, self.Q, k, samples=self.SAMPLES, rng=np.random.default_rng(12)
        )
        assert list(result.probabilities.items()) == [
            (c, n / self.SAMPLES) for c, n in tallies.items()
        ]


class TestPlannedPublicNNDoesNoPerRegionPython:
    """The work gate: 10 000 cloaked users, one planned public NN."""

    N = 10_000

    @pytest.fixture(scope="class")
    def server(self):
        rng = random.Random("public_nn_10k")
        server = LocationServer(telemetry=Telemetry(enabled=False))
        bounds = []
        for n in range(self.N):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            bounds.append((x, y, x + rng.uniform(2, 40), y + rng.uniform(2, 40)))
        server.receive_regions([f"u{n}" for n in range(self.N)], np.array(bounds))
        return server

    def test_calls_bounded_by_candidates_and_band(self, server, monkeypatch):
        spec = NNSpec(point=Point(500.0, 500.0), dataset="private", samples=64)
        server.planner.execute(NNSpec(point=Point(10.0, 990.0), dataset="private", samples=64))

        calls: dict[str, int] = {}

        def tally(name: str, n: int = 1) -> None:
            calls[name] = calls.get(name, 0) + n

        def counted(name, raw):
            def wrapper(*args, **kwargs):
                tally(name)
                return raw(*args, **kwargs)

            return wrapper

        # min_dist / max_dist at every name a query module imports them under.
        for module in [m for key, m in sys.modules.items() if key.startswith("repro.queries")]:
            for name in ("min_dist", "max_dist"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        items = PrivateStore.items

        def counted_items(self):
            for row in items(self):
                tally("items row")
                yield row

        monkeypatch.setattr(PrivateStore, "items", counted_items)
        monkeypatch.setattr(
            PrivateStore, "region_of", counted("region_of", PrivateStore.region_of)
        )

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def hypot(self, *args):
                tally("math.hypot")
                return math.hypot(*args)

        monkeypatch.setattr(distances, "math", CountingMath())

        result = server.planner.execute(spec)
        monkeypatch.undo()

        ids, bounds = server.private.snapshot_arrays()
        candidates = list(result.answer.probabilities)
        want_ids, want_bound = naive_candidates(server.private, spec.point, 1)
        assert (candidates, repr(result.pruning_bound)) == (want_ids, repr(want_bound))
        # Rows inside either confirm band, counted independently.
        dx, dy = max_dist_axes(spec.point, bounds)
        worst = dx * dx + dy * dy
        t = np.partition(worst, 0)[0]
        gx, gy = min_dist_axes(spec.point, bounds)
        best = gx * gx + gy * gy
        b2 = want_bound * want_bound
        band = int(np.count_nonzero(np.abs(worst - t) <= 2 * BAND * t)) + int(
            np.count_nonzero(np.abs(best - b2) <= 2 * BAND * b2)
        )
        # The gate's precondition: a bound in n would not pass it.
        assert len(ids) == self.N and len(candidates) + band < self.N // 100
        assert sum(calls.values()) <= len(candidates) + band, calls
