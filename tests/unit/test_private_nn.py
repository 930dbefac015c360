"""Unit tests for private nearest-neighbour queries (Figure 5b)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.core.stores import PublicStore
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sampling import uniform_points
from repro.queries.private_knn import _k_dominance_filter, private_knn_query
from repro.queries.private_nn import (
    _dominance_filter,
    exact_nn_answer,
    nn_probabilities,
    private_nn_query,
    pruning_radius,
    refine_nn_candidates,
)


@pytest.fixture
def store(uniform_points_500):
    s = PublicStore()
    for i, p in enumerate(uniform_points_500):
        s.add(i, p)
    return s


REGION = Rect(30, 55, 48, 70)


class TestPruningRadius:
    def test_bound_is_min_of_max_dists(self, store, uniform_points_500):
        from repro.geometry.distances import max_dist

        m, ids = pruning_radius(store, REGION)
        brute = min(max_dist(p, REGION) for p in uniform_points_500)
        assert m == pytest.approx(brute)
        assert len(ids) >= 1

    def test_all_ids_within_bound(self, store):
        from repro.geometry.distances import min_dist

        m, ids = pruning_radius(store, REGION)
        for i in ids:
            assert min_dist(store.point_of(i), REGION) <= m + 1e-12

    def test_empty_store_raises(self):
        with pytest.raises(QueryError):
            pruning_radius(PublicStore(), REGION)


class TestCandidateSets:
    def test_method_tightness_ordering(self, store):
        r_range = private_nn_query(store, REGION, "range")
        r_filter = private_nn_query(store, REGION, "filter")
        r_exact = private_nn_query(store, REGION, "exact")
        assert set(r_exact.candidates) <= set(r_filter.candidates)
        assert set(r_filter.candidates) <= set(r_range.candidates)
        assert len(r_exact.candidates) >= 1

    def test_corner_dominance_actually_prunes(self, store):
        """The filter must beat the plain radius bound on a typical city."""
        r_range = private_nn_query(store, REGION, "range")
        r_filter = private_nn_query(store, REGION, "filter")
        assert len(r_filter.candidates) < len(r_range.candidates)

    def test_figure_5b_style_dominance(self):
        """The paper's worked pruning: A loses to B and C everywhere in R."""
        store = PublicStore()
        region = Rect(40, 40, 50, 50)
        store.add("B", Point(45, 52))  # just above R
        store.add("C", Point(45, 38))  # just below R
        store.add("A", Point(45, 80))  # far above: B beats it everywhere
        store.add("D", Point(58, 45))  # right of R: may win on the right edge
        result = private_nn_query(store, region, "filter")
        assert "A" not in result.candidates
        assert {"B", "C", "D"} <= set(result.candidates)

    @pytest.mark.parametrize("method", ["range", "filter", "exact"])
    def test_no_false_negatives(self, store, rng, method):
        result = private_nn_query(store, REGION, method)
        for p in uniform_points(REGION, 400, rng):
            assert exact_nn_answer(store, p) in result.candidates

    def test_exact_set_has_no_false_positives(self, store, rng):
        """Every exact candidate must win somewhere in the region."""
        result = private_nn_query(store, REGION, "exact")
        winners = set()
        for p in uniform_points(REGION, 6000, rng):
            winners.add(exact_nn_answer(store, p))
        # Dense sampling should recover (nearly) all exact candidates; allow
        # candidates with tiny winning cells to be missed, but not many.
        assert len(winners - set(result.candidates)) == 0
        assert len(set(result.candidates) - winners) <= max(
            1, len(result.candidates) // 3
        )

    def test_objects_inside_region_are_candidates(self, store, uniform_points_500):
        inside = [
            i for i, p in enumerate(uniform_points_500) if REGION.contains_point(p)
        ]
        result = private_nn_query(store, REGION, "exact")
        # The paper: objects inside the cloaked region are always candidates.
        assert set(inside) <= set(result.candidates)

    def test_degenerate_region_single_candidate_methods_agree(self, store, uniform_points_500):
        region = Rect.from_point(uniform_points_500[3])
        for method in ("range", "filter", "exact"):
            result = private_nn_query(store, region, method)
            assert exact_nn_answer(store, uniform_points_500[3]) in result.candidates

    def test_single_object_store(self):
        store = PublicStore()
        store.add("only", Point(50, 50))
        result = private_nn_query(store, REGION, "exact")
        assert result.candidates == ("only",)

    def test_unknown_method_raises(self, store):
        with pytest.raises(QueryError):
            private_nn_query(store, REGION, "bogus")


class TestProbabilities:
    def test_sum_to_one(self, store):
        result = private_nn_query(store, REGION, "exact")
        probs = nn_probabilities(store, result)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_nonnegative_and_supported(self, store):
        result = private_nn_query(store, REGION, "exact")
        probs = nn_probabilities(store, result)
        assert all(p >= 0 for p in probs.values())
        # Exact candidates should essentially all have positive mass.
        positive = sum(1 for p in probs.values() if p > 1e-9)
        assert positive >= len(result.candidates) - 1

    def test_match_monte_carlo(self, store, rng):
        result = private_nn_query(store, REGION, "exact")
        probs = nn_probabilities(store, result)
        counts = {i: 0 for i in result.candidates}
        n = 4000
        for p in uniform_points(REGION, n, rng):
            counts[exact_nn_answer(store, p)] += 1
        for i in result.candidates:
            assert counts[i] / n == pytest.approx(probs[i], abs=0.03)

    def test_degenerate_region(self, store, uniform_points_500):
        region = Rect.from_point(uniform_points_500[9])
        result = private_nn_query(store, region, "exact")
        probs = nn_probabilities(store, result)
        top = max(probs, key=probs.get)
        assert probs[top] == 1.0
        assert top == exact_nn_answer(store, uniform_points_500[9])


class TestRefinement:
    def test_refined_matches_truth(self, store, rng):
        result = private_nn_query(store, REGION, "filter")
        for p in uniform_points(REGION, 100, rng):
            assert refine_nn_candidates(store, result, p) == exact_nn_answer(store, p)

    def test_empty_candidates_raise(self, store):
        from repro.queries.private_nn import PrivateNNResult

        empty = PrivateNNResult(
            region=REGION, candidates=(), method="filter", pruning_radius=0.0
        )
        with pytest.raises(QueryError):
            refine_nn_candidates(store, empty, Point(0, 0))

    def test_exact_nn_answer_empty_store_raises(self):
        with pytest.raises(QueryError):
            exact_nn_answer(PublicStore(), Point(0, 0))


def naive_survivors(store, region, ids, k):
    """The definition, all c^2 pairs: keep ``o`` unless ``k`` others are
    strictly closer than it to every corner of the region."""
    d2 = {
        i: [store.point_of(i).squared_distance_to(c) for c in region.corners]
        for i in ids
    }
    return [
        i
        for i in ids
        if sum(
            all(theirs < own for theirs, own in zip(d2[j], d2[i]))
            for j in ids
            if j != i
        )
        < k
    ]


def _candidate_points(family, rng):
    if family == "random":
        return [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(60)]
    if family == "duplicates":  # eight places, each held by several ids
        places = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(8)]
        return [rng.choice(places) for _ in range(40)]
    if family == "duplicate_heavy":  # two places share sixty ids
        places = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(2)]
        return [rng.choice(places) for _ in range(60)]
    if family == "all_equal":  # one place: every corner-distance tuple is the same
        return [Point(rng.uniform(0, 100), rng.uniform(0, 100))] * 30
    if family == "equal_distance":  # mirror images about the region's centre
        out = []
        for _ in range(12):
            dx, dy = float(rng.randint(0, 30)), float(rng.randint(0, 30))
            out += [Point(50 + sx * dx, 50 + sy * dy) for sx in (-1, 1) for sy in (-1, 1)]
        return out
    if family == "collinear":  # one line through the region, one beside it
        return [Point(2.5 * t, 2.5 * t) for t in range(41)] + [
            Point(2.5 * t, 10.0) for t in range(41)
        ]
    raise AssertionError(family)


class TestDominanceFiltersEqualTheDefinition:
    """Both filters against the definition written out above.

    They are one sort-and-scan routine (``_dominance_filter`` is its
    ``k = 1`` call); the definition it replaced is ``naive_survivors``,
    and it has to return those survivors in that order.
    """

    REGIONS = [Rect(40, 40, 60, 60), Rect(0, 0, 100, 100), Rect(50, 50, 50, 50), Rect(70, 5, 75, 95)]

    @pytest.mark.parametrize(
        "family",
        ["random", "duplicates", "equal_distance", "collinear", "duplicate_heavy", "all_equal"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_same_survivors_in_the_same_order(self, family, seed):
        rng = random.Random(f"{family}/{seed}")
        points = _candidate_points(family, rng)
        store = PublicStore()
        for n, point in enumerate(points):
            store.add(n, point)
        ids = list(range(len(points)))
        rng.shuffle(ids)  # survivors come back in *this* order
        for region in self.REGIONS:
            for c in (0, 1, 2, 7, len(ids)):
                subset = ids[:c]
                for k in (1, 2, 3, max(1, c), c + 2):
                    want = naive_survivors(store, region, subset, k)
                    assert _k_dominance_filter(store, region, subset, k) == want
                    if k == 1:
                        assert _dominance_filter(store, region, subset) == want
                    if k >= c:
                        assert want == subset  # nobody can have k dominators

    def test_query_candidates_are_the_definition_applied_to_the_range_stage(self, store):
        for region in self.REGIONS:
            loose = list(private_nn_query(store, region, "range").candidates)
            tight = private_nn_query(store, region, "filter").candidates
            assert list(tight) == naive_survivors(store, region, loose, 1)
            for k in (2, 5):
                loose = list(private_knn_query(store, region, k, "range").candidates)
                tight = private_knn_query(store, region, k, "filter").candidates
                assert list(tight) == naive_survivors(store, region, loose, k)

    @given(
        raw=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=0, max_size=24
        ),
        box=st.tuples(*[st.integers(0, 12)] * 4),
        k=st.integers(1, 5),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_order_of_ids_gives_the_definition(self, raw, box, k, order):
        """Integer coordinates on a 13 x 13 board: ties, duplicates and
        degenerate regions are the common case, not the corner case."""
        store = PublicStore()
        for n, (x, y) in enumerate(raw):
            store.add(n, Point(float(x), float(y)))
        region = Rect(
            float(min(box[0], box[2])), float(min(box[1], box[3])),
            float(max(box[0], box[2])), float(max(box[1], box[3])),
        )
        ids = list(range(len(raw)))
        order.shuffle(ids)
        want = naive_survivors(store, region, ids, k)
        assert _k_dominance_filter(store, region, ids, k) == want
        if k == 1:
            assert _dominance_filter(store, region, ids) == want


@pytest.fixture(scope="module")
def city_10k():
    """10 000 uniform POIs on the 1000 x 1000 world of ``bench/workloads.py``."""
    rng = random.Random("city_10k")
    return PublicStore.from_points(
        {n: Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for n in range(10_000)}
    )


def _range_stage(store, region, k):
    """What the filter is handed: the radius-only candidates, in their order."""
    if k == 1:
        return list(private_nn_query(store, region, "range").candidates)
    return list(private_knn_query(store, region, k, "range").candidates)


class _PairCountingStore:
    """A public store whose points count how many candidate pairs are examined.

    The distance to the region's *first* corner comes back as a float
    that tallies the order comparisons made on it; the other three are
    plain.  A dominance test looks at first components first, and so
    does a sort of the tuples, so the tally is the number of tuple pairs
    the filter (and its sort) put side by side.
    """

    def __init__(self, store, region):
        self.compared = 0
        outer = self
        first_corner = region.corners[0]

        class Tallied(float):
            def _order(self, other, op):
                outer.compared += 1
                return op(float(self), float(other))

            def __lt__(self, other):
                return self._order(other, float.__lt__)

            def __le__(self, other):
                return self._order(other, float.__le__)

            def __gt__(self, other):
                return self._order(other, float.__gt__)

            def __ge__(self, other):
                return self._order(other, float.__ge__)

        class TalliedPoint:
            def __init__(self, point):
                self.point = point

            def squared_distance_to(self, corner):
                d2 = self.point.squared_distance_to(corner)
                return Tallied(d2) if corner == first_corner else d2

        self.point_of = lambda object_id: TalliedPoint(store.point_of(object_id))


class TestTheRegimeThatWasSlow:
    """Hundreds of range-stage candidates: 10 000 POIs under regions the
    size ``query_mix_10k`` cloaks (its widest hand the filter 347)."""

    REGIONS = [Rect(480, 480, 560, 552), Rect(100, 700, 200, 790), Rect(850, 200, 950, 290)]

    @pytest.mark.parametrize("k", [1, 8])
    def test_same_survivors_in_the_same_order(self, city_10k, k):
        for region in self.REGIONS:
            ids = _range_stage(city_10k, region, k)
            assert 300 <= len(ids) <= 900
            want = naive_survivors(city_10k, region, ids, k)
            assert _k_dominance_filter(city_10k, region, ids, k) == want
            if k == 1:
                assert _dominance_filter(city_10k, region, ids) == want

    @pytest.mark.parametrize("k", [1, 8])
    def test_work_is_candidates_times_survivors(self, city_10k, k):
        """The deterministic gate: pairs examined, not seconds.

        Every candidate meets at most the survivors sorted before it, so
        the scan examines at most c * s pairs; the sort adds what sorting
        the same tuples costs, measured here on the same tally.
        """
        for region in self.REGIONS:
            ids = _range_stage(city_10k, region, k)
            c = len(ids)
            assert c >= 300  # the gate's own precondition: a regime where c^2 hurts
            counting = _PairCountingStore(city_10k, region)
            sorted(
                tuple(counting.point_of(i).squared_distance_to(corner) for corner in region.corners)
                for i in ids
            )
            sort_cost, counting.compared = counting.compared, 0
            kept = _k_dominance_filter(counting, region, ids, k)
            s = len(kept)
            assert kept == _k_dominance_filter(city_10k, region, ids, k)
            assert counting.compared <= c * (s + 1) + sort_cost, (c, s, sort_cost)
