"""Unit tests for private range queries over public data (Figure 5a)."""

import pytest

from repro.core.errors import QueryError
from repro.core.stores import PublicStore
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sampling import uniform_points
from repro.queries.private_range import (
    exact_range_answer,
    private_range_query,
    refine_range_candidates,
)


@pytest.fixture
def store(uniform_points_500):
    s = PublicStore()
    for i, p in enumerate(uniform_points_500):
        s.add(i, p)
    return s


REGION = Rect(40, 40, 55, 50)


class TestCandidateGeneration:
    def test_exact_subset_of_mbr(self, store):
        exact = private_range_query(store, REGION, 8.0, "exact")
        approx = private_range_query(store, REGION, 8.0, "mbr")
        assert set(exact.candidates) <= set(approx.candidates)

    def test_no_false_negatives_exact(self, store, rng):
        result = private_range_query(store, REGION, 8.0, "exact")
        for p in uniform_points(REGION, 300, rng):
            truth = exact_range_answer(store, p, 8.0)
            assert set(truth) <= set(result.candidates)

    def test_no_false_negatives_mbr(self, store, rng):
        result = private_range_query(store, REGION, 8.0, "mbr")
        for p in uniform_points(REGION, 100, rng):
            truth = exact_range_answer(store, p, 8.0)
            assert set(truth) <= set(result.candidates)

    def test_candidates_within_expanded_region(self, store):
        result = private_range_query(store, REGION, 8.0, "exact")
        window = REGION.expanded(8.0)
        for c in result.candidates:
            assert window.contains_point(store.point_of(c))

    def test_zero_radius_returns_objects_in_region(self, store, uniform_points_500):
        result = private_range_query(store, REGION, 0.0, "exact")
        expected = {
            i for i, p in enumerate(uniform_points_500) if REGION.contains_point(p)
        }
        assert set(result.candidates) == expected

    def test_degenerate_region_is_classic_query(self, store, uniform_points_500):
        p = uniform_points_500[0]
        result = private_range_query(store, Rect.from_point(p), 5.0, "exact")
        assert sorted(result.candidates, key=repr) == sorted(
            exact_range_answer(store, p, 5.0), key=repr
        )

    def test_negative_radius_raises(self, store):
        with pytest.raises(QueryError):
            private_range_query(store, REGION, -1.0)

    def test_unknown_method_raises(self, store):
        with pytest.raises(QueryError):
            private_range_query(store, REGION, 1.0, "fancy")

    def test_transmission_size(self, store):
        # E11: the candidate set, not the store, is what gets shipped.
        for method in ("mbr", "exact"):
            result = private_range_query(store, REGION, 8.0, method)
            assert result.transmission_size == len(result.candidates)
            assert 0 < len(result.candidates) < len(store) / 4

    def test_larger_region_more_candidates(self, store):
        small = private_range_query(store, REGION, 5.0)
        large = private_range_query(store, REGION.expanded(10), 5.0)
        assert len(large.candidates) >= len(small.candidates)


class TestRefinement:
    def test_refinement_equals_ground_truth(self, store, rng):
        result = private_range_query(store, REGION, 8.0, "exact")
        for p in uniform_points(REGION, 50, rng):
            refined = refine_range_candidates(store, result, p)
            assert sorted(refined, key=repr) == sorted(
                exact_range_answer(store, p, 8.0), key=repr
            )

    def test_refinement_from_mbr_candidates_also_exact(self, store, rng):
        result = private_range_query(store, REGION, 8.0, "mbr")
        p = uniform_points(REGION, 1, rng)[0]
        refined = refine_range_candidates(store, result, p)
        assert sorted(refined, key=repr) == sorted(
            exact_range_answer(store, p, 8.0), key=repr
        )


class TestExactAnswer:
    def test_radius_inclusive(self):
        store = PublicStore()
        store.add("a", Point(3, 0))
        assert exact_range_answer(store, Point(0, 0), 3.0) == ["a"]
        assert exact_range_answer(store, Point(0, 0), 2.99) == []

    def test_negative_radius_raises(self, store):
        with pytest.raises(QueryError):
            exact_range_answer(store, Point(0, 0), -0.1)
