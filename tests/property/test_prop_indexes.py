"""Property-based tests: every index agrees with brute force."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTree
from repro.index.pyramid import PyramidGrid
from repro.index.quadtree import QuadTree
from repro.index.rtree import RTree

BOUNDS = Rect(0, 0, 100, 100)

coord = st.floats(min_value=0, max_value=100, allow_nan=False)
inner_points = st.lists(
    st.tuples(coord, coord), min_size=0, max_size=60, unique=True
)
windows = st.tuples(coord, coord, coord, coord).map(
    lambda t: Rect(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
)


def build_indexes(raw_points):
    pts = {i: Point(x, y) for i, (x, y) in enumerate(raw_points)}
    indexes = [
        RTree(max_entries=4),
        QuadTree(BOUNDS, capacity=2, max_depth=12),
        GridIndex(BOUNDS, cols=9),
        PyramidGrid(BOUNDS, height=4),
        KDTree(rebuild_fraction=0.3),
    ]
    for index in indexes:
        for i, p in pts.items():
            index.insert_point(i, p)
    return pts, indexes


class TestRangeAgreement:
    @given(inner_points, windows)
    @settings(max_examples=60, deadline=None)
    def test_all_indexes_match_brute_force(self, raw_points, window):
        pts, indexes = build_indexes(raw_points)
        expected = sorted(i for i, p in pts.items() if window.contains_point(p))
        for index in indexes:
            assert sorted(index.range_query(window)) == expected, type(index)

    @given(inner_points, windows)
    @settings(max_examples=40, deadline=None)
    def test_counting_indexes_match(self, raw_points, window):
        pts, indexes = build_indexes(raw_points)
        expected = sum(1 for p in pts.values() if window.contains_point(p))
        quadtree = indexes[1]
        pyramid = indexes[3]
        assert quadtree.count_in_window(window) == expected
        assert pyramid.count_in_window(window) == expected


class TestNearestAgreement:
    @given(inner_points, st.tuples(coord, coord), st.integers(min_value=1, max_value=5))
    # GridIndex.nearest used to stop one ring after finding k candidates and
    # returned (41, 66) at distance 76.0066 instead of (0, 78) at 76.0.
    @example([(0.0, 78.0), (41.0, 66.0)], (0.0, 2.0), 1)
    @settings(max_examples=60, deadline=None)
    def test_knn_distances_match_brute_force(self, raw_points, q_xy, k):
        pts, indexes = build_indexes(raw_points)
        q = Point(*q_xy)
        expected = sorted(p.distance_to(q) for p in pts.values())[:k]
        for index in indexes:
            got = [pts[i].distance_to(q) for i in index.nearest(q, k)]
            assert len(got) == min(k, len(pts))
            for a, b in zip(sorted(got), expected):
                assert abs(a - b) < 1e-9, type(index)


class TestDeletionConsistency:
    @given(inner_points, st.data())
    @settings(max_examples=40, deadline=None)
    def test_delete_half_then_query(self, raw_points, data):
        pts, indexes = build_indexes(raw_points)
        if not pts:
            return
        to_delete = [i for i in pts if i % 2 == 0]
        for index in indexes:
            for i in to_delete:
                index.delete(i)
        remaining = {i: p for i, p in pts.items() if i % 2 == 1}
        window = data.draw(windows)
        expected = sorted(i for i, p in remaining.items() if window.contains_point(p))
        for index in indexes:
            assert sorted(index.range_query(window)) == expected, type(index)
            assert len(index) == len(remaining)
