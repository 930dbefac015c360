"""Property-based tests: every index agrees with brute force."""

import random

from conformance.populations import (
    FAMILIES,
    assert_same_knn,
    populations,
    probe_ks,
    probe_points,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from rtree_checks import assert_rtree_invariants, underfull_nodes

from repro.geometry.distances import min_dist
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


families = st.sampled_from(sorted(FAMILIES))
seeds = st.integers(min_value=0, max_value=2**16)


def _draw_population(family, seed):
    """One point set of the family (the sparse family holds forty)."""
    draws = populations(family, seed, BOUNDS)
    return draws[seed % len(draws)]


class TestNearestOnAdversarialPopulations:
    """``QuadTree.nearest`` is best-first over ``min_dist`` and
    ``PyramidGrid.nearest`` re-ranks a window of twice the half-side that
    held k; neither may stop "one step after enough" at any node capacity
    or pyramid height, from the far corners, with k beyond the population."""

    @given(families, seeds, st.integers(1, 8), st.integers(1, 12), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_quadtree_and_pyramid_match_brute_force(
        self, family, seed, capacity, max_depth, height
    ):
        points = _draw_population(family, seed)
        indexes = [
            QuadTree(BOUNDS, capacity=capacity, max_depth=max_depth),
            PyramidGrid(BOUNDS, height=height),
        ]
        for index in indexes:
            for item, point in points.items():
                index.insert_point(item, point)
        for probe in probe_points(seed, BOUNDS):
            ranked = sorted(points, key=lambda item: points[item].distance_to(probe))
            for k in probe_ks(len(points)):
                for index in indexes:
                    assert_same_knn(index.nearest(probe, k), ranked[:k], probe, points)


def _around(point, rng):
    """A rectangle anchored at ``point``, up to a tenth of the world wide;
    one in four is the bare point."""
    if rng.random() < 0.25:
        return Rect.from_point(point)
    return Rect(point.x, point.y, point.x + rng.uniform(0, 10), point.y + rng.uniform(0, 10))


def _inside(mbr, rng):
    """A random rectangle inside ``mbr``."""
    xs = sorted(rng.uniform(mbr.min_x, mbr.max_x) for _ in range(2))
    ys = sorted(rng.uniform(mbr.min_y, mbr.max_y) for _ in range(2))
    return Rect(xs[0], ys[0], xs[1], ys[1])


class TestRTreeMutationScript:
    """A seeded interleaving of insert / update / delete, from an empty or
    an STR-packed tree: after every step the structure is a well-formed
    R-tree with a truthful leaf directory, and it answers like brute force."""

    STEPS = 120
    OPS = ["insert", "move_inside", "move_away", "same", "delete"]
    WEIGHTS = [30, 25, 15, 5, 25]

    @given(families, seeds, st.sampled_from([4, 8, 16]), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_every_step_keeps_structure_and_answers(
        self, family, seed, max_entries, packed
    ):
        rng = random.Random(f"{family}/{seed}/{max_entries}/{packed}")
        # Each point three times over: co-located rectangles are the ties
        # choose-leaf and the split have to break the same way every time.
        unused = list(_draw_population(family, seed).values()) * 3
        rng.shuffle(unused)
        live: dict[int, Rect] = {}
        if packed:
            half = len(unused) // 2
            live = {n: _around(point, rng) for n, point in enumerate(unused[:half])}
            del unused[:half]
            tree = RTree.bulk_load(live, max_entries=max_entries)
        else:
            tree = RTree(max_entries=max_entries)
        tails = underfull_nodes(tree)  # what STR packing left short
        self.check(tree, live, tails, seed)
        for serial in range(len(live), len(live) + self.STEPS):
            op = rng.choices(self.OPS, self.WEIGHTS)[0]
            if op == "insert" or not live:
                if not unused:
                    continue
                live[serial] = _around(unused.pop(), rng)
                tree.insert(serial, live[serial])
            else:
                target = rng.choice(sorted(live))
                if op == "delete":
                    del live[target]
                    tree.delete(target)
                else:
                    if op == "move_inside":  # the in-place path, by construction
                        live[target] = _inside(tree._leaf_of[target].mbr, rng)
                    elif op == "move_away":
                        live[target] = _around(
                            Point(rng.uniform(0, 100), rng.uniform(0, 100)), rng
                        )
                    tree.update(target, live[target])
            self.check(tree, live, tails, seed)

    @staticmethod
    def check(tree, live, tails, seed):
        assert_rtree_invariants(tree, tails)
        assert {item: tree.geometry_of(item) for item in tree} == live
        for probe in probe_points(seed, BOUNDS)[::5]:
            window = Rect(probe.x - 15, probe.y - 15, probe.x + 15, probe.y + 15)
            expected = sorted(n for n, rect in live.items() if rect.intersects(window))
            assert sorted(tree.range_query(window)) == expected
            nearest_first = sorted(min_dist(probe, rect) for rect in live.values())
            for k in probe_ks(max(1, len(live))):
                got = [min_dist(probe, live[n]) for n in tree.nearest(probe, k)]
                assert got == nearest_first[:k]
