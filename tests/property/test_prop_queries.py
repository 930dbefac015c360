"""Property-based tests for the query processor's correctness guarantees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stores import PrivateStore, PublicStore
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.queries.private_knn import exact_knn_answer, private_knn_query
from repro.queries.private_nn import exact_nn_answer, private_nn_query
from repro.queries.private_range import exact_range_answer, private_range_query
from repro.queries.probabilistic import poisson_binomial_pmf
from repro.queries.public_nn import exact_nn_user, nn_candidate_users
from repro.queries.public_range import exact_range_count, public_range_count

coord = st.floats(min_value=0, max_value=100, allow_nan=False)
poi_sets = st.lists(st.tuples(coord, coord), min_size=1, max_size=40, unique=True)
boxes = st.tuples(coord, coord, coord, coord).map(
    lambda t: Rect(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
)


def public_store(raw):
    store = PublicStore()
    for i, (x, y) in enumerate(raw):
        store.add(i, Point(x, y))
    return store


class TestPrivateRangeGuarantee:
    @given(poi_sets, boxes, st.floats(min_value=0, max_value=50), st.data())
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives(self, raw, region, radius, data):
        store = public_store(raw)
        result = private_range_query(store, region, radius, "exact")
        x = data.draw(st.floats(min_value=region.min_x, max_value=region.max_x))
        y = data.draw(st.floats(min_value=region.min_y, max_value=region.max_y))
        truth = exact_range_answer(store, Point(x, y), radius)
        assert set(truth) <= set(result.candidates)

    @given(poi_sets, boxes, st.floats(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_exact_subset_of_mbr(self, raw, region, radius):
        store = public_store(raw)
        exact = private_range_query(store, region, radius, "exact")
        mbr = private_range_query(store, region, radius, "mbr")
        assert set(exact.candidates) <= set(mbr.candidates)


class TestPrivateNNGuarantee:
    @given(poi_sets, boxes, st.data())
    @settings(max_examples=50, deadline=None)
    def test_true_nn_always_candidate(self, raw, region, data):
        store = public_store(raw)
        method = data.draw(st.sampled_from(["range", "filter", "exact"]))
        result = private_nn_query(store, region, method)
        x = data.draw(st.floats(min_value=region.min_x, max_value=region.max_x))
        y = data.draw(st.floats(min_value=region.min_y, max_value=region.max_y))
        assert exact_nn_answer(store, Point(x, y)) in result.candidates

    @given(poi_sets, boxes)
    @settings(max_examples=50, deadline=None)
    def test_method_tightness(self, raw, region):
        store = public_store(raw)
        r = private_nn_query(store, region, "range")
        f = private_nn_query(store, region, "filter")
        e = private_nn_query(store, region, "exact")
        assert set(e.candidates) <= set(f.candidates) <= set(r.candidates)
        assert len(e.candidates) >= 1


class TestPrivateKNNGuarantee:
    @given(poi_sets, boxes, st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_true_knn_always_among_candidates(self, raw, region, k, data):
        """Wherever in the region the user is, all k true neighbours were sent."""
        store = public_store(raw)
        xs = st.floats(min_value=region.min_x, max_value=region.max_x)
        ys = st.floats(min_value=region.min_y, max_value=region.max_y)
        points = data.draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=5))
        for method in ("range", "filter"):
            candidates = set(private_knn_query(store, region, k, method).candidates)
            for x, y in points:
                assert set(exact_knn_answer(store, Point(x, y), k)) <= candidates, method


class TestPublicCountGuarantee:
    @given(
        st.lists(
            st.tuples(coord, coord, st.floats(min_value=0, max_value=20)),
            min_size=0,
            max_size=30,
        ),
        boxes,
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_interval_brackets_truth(self, raw, window, data):
        """For any true location consistent with the regions, the count
        interval brackets the true count."""
        store = PrivateStore()
        exact = {}
        for i, (cx, cy, half) in enumerate(raw):
            region = Rect(cx - half, cy - half, cx + half, cy + half)
            store.set_region(i, region)
            fx = data.draw(st.floats(min_value=region.min_x, max_value=region.max_x))
            fy = data.draw(st.floats(min_value=region.min_y, max_value=region.max_y))
            exact[i] = Point(fx, fy)
        answer = public_range_count(store, window)
        truth = exact_range_count(exact, window)
        lo, hi = answer.interval
        assert lo <= truth <= hi
        assert 0 <= answer.expected <= len(raw)


class TestPublicNNGuarantee:
    @given(
        st.lists(
            st.tuples(coord, coord, st.floats(min_value=0, max_value=15)),
            min_size=1,
            max_size=25,
        ),
        st.tuples(coord, coord),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_true_nn_user_always_candidate(self, raw, q_xy, data):
        store = PrivateStore()
        exact = {}
        for i, (cx, cy, half) in enumerate(raw):
            region = Rect(cx - half, cy - half, cx + half, cy + half)
            store.set_region(i, region)
            fx = data.draw(st.floats(min_value=region.min_x, max_value=region.max_x))
            fy = data.draw(st.floats(min_value=region.min_y, max_value=region.max_y))
            exact[i] = Point(fx, fy)
        q = Point(*q_xy)
        candidates, _ = nn_candidate_users(store, q)
        assert exact_nn_user(exact, q) in candidates


class TestPoissonBinomialProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_pmf_is_distribution(self, probs):
        pmf = poisson_binomial_pmf(probs)
        assert len(pmf) == len(probs) + 1
        assert abs(pmf.sum() - 1.0) < 1e-9
        assert (pmf >= -1e-12).all()

    @given(st.lists(st.floats(min_value=0, max_value=1), max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_mean_equals_sum_of_probs(self, probs):
        pmf = poisson_binomial_pmf(probs)
        mean = float(np.dot(np.arange(len(pmf)), pmf))
        assert abs(mean - sum(probs)) < 1e-8

    @given(
        st.lists(st.floats(min_value=0, max_value=1), max_size=30),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_adding_certain_trial_shifts_pmf(self, probs, extra):
        base = poisson_binomial_pmf(probs)
        shifted = poisson_binomial_pmf(probs + [1.0])
        assert np.allclose(shifted[1:], base)
        assert shifted[0] == 0.0
