"""Unit tests for the from-scratch R-tree."""

import random

import numpy as np
import pytest
from rtree_checks import assert_rtree_invariants, rtree_fingerprint

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rtree import RTree


def brute_range(points, window):
    return sorted(i for i, p in points.items() if window.contains_point(p))


def brute_knn(points, q, k):
    return sorted(points, key=lambda i: points[i].distance_to(q))[:k]


@pytest.fixture
def loaded(uniform_points_500):
    tree = RTree(max_entries=8)
    points = dict(enumerate(uniform_points_500))
    for i, p in points.items():
        tree.insert(i, Rect.from_point(p))
    return tree, points


class TestConstruction:
    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            RTree(max_entries=3)

    def test_invalid_min_entries(self):
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=5)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.range_query(Rect(0, 0, 100, 100)) == []
        assert tree.nearest(Point(0, 0), k=3) == []


class TestInsert:
    def test_duplicate_id_raises(self):
        tree = RTree()
        tree.insert("a", Rect(0, 0, 1, 1))
        with pytest.raises(ValueError, match="duplicate"):
            tree.insert("a", Rect(2, 2, 3, 3))

    def test_len_tracks_inserts(self, loaded):
        tree, points = loaded
        assert len(tree) == len(points)

    def test_geometry_of(self, loaded):
        tree, points = loaded
        assert tree.geometry_of(7) == Rect.from_point(points[7])

    def test_geometry_of_missing_raises(self):
        with pytest.raises(KeyError):
            RTree().geometry_of("nope")

    def test_contains(self, loaded):
        tree, _ = loaded
        assert 3 in tree
        assert "ghost" not in tree

    def test_tree_height_grows_logarithmically(self, loaded):
        tree, _ = loaded
        assert 2 <= tree.height <= 6


class TestRangeQuery:
    @pytest.mark.parametrize(
        "window",
        [
            Rect(0, 0, 100, 100),
            Rect(10, 10, 30, 30),
            Rect(50, 50, 50.5, 50.5),
            Rect(95, 95, 200, 200),
            Rect(-50, -50, -1, -1),
        ],
    )
    def test_matches_brute_force(self, loaded, window):
        tree, points = loaded
        assert sorted(tree.range_query(window)) == brute_range(points, window)

    def test_rect_entries(self):
        tree = RTree()
        tree.insert("a", Rect(0, 0, 10, 10))
        tree.insert("b", Rect(20, 20, 30, 30))
        assert tree.range_query(Rect(5, 5, 25, 25)) and set(
            tree.range_query(Rect(5, 5, 25, 25))
        ) == {"a", "b"}
        assert tree.range_query(Rect(11, 11, 19, 19)) == []


class TestNearest:
    def test_k1_matches_brute_force(self, loaded, rng):
        tree, points = loaded
        for _ in range(20):
            q = Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            assert tree.nearest(q, 1) == brute_knn(points, q, 1)

    def test_k10_matches_brute_force_set(self, loaded, rng):
        tree, points = loaded
        q = Point(33.3, 66.6)
        got = tree.nearest(q, 10)
        expected = brute_knn(points, q, 10)
        # Order must be nearest-first; ties may permute, so compare dists.
        got_d = [points[i].distance_to(q) for i in got]
        exp_d = [points[i].distance_to(q) for i in expected]
        assert got_d == pytest.approx(exp_d)

    def test_k_exceeds_size(self):
        tree = RTree()
        tree.insert("a", Rect(0, 0, 0, 0))
        assert tree.nearest(Point(1, 1), k=5) == ["a"]

    def test_invalid_k(self, loaded):
        tree, _ = loaded
        with pytest.raises(ValueError):
            tree.nearest(Point(0, 0), k=0)

    def test_nearest_iter_is_sorted(self, loaded):
        tree, _ = loaded
        dists = [d for _, d in zip(range(50), (d for _, d in tree.nearest_iter(Point(50, 50))))]
        assert dists == sorted(dists)

    def test_nearest_iter_exhausts_all(self, loaded):
        tree, points = loaded
        seen = [i for i, _ in tree.nearest_iter(Point(0, 0))]
        assert sorted(seen) == sorted(points)


class TestDelete:
    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            RTree().delete("nope")

    def test_delete_then_query(self, loaded):
        tree, points = loaded
        for i in range(0, 500, 2):
            tree.delete(i)
        assert len(tree) == 250
        window = Rect(0, 0, 100, 100)
        remaining = {i: p for i, p in points.items() if i % 2 == 1}
        assert sorted(tree.range_query(window)) == brute_range(remaining, window)

    def test_delete_everything(self, loaded):
        tree, points = loaded
        for i in points:
            tree.delete(i)
        assert len(tree) == 0
        assert tree.range_query(Rect(0, 0, 100, 100)) == []
        # Tree is reusable after emptying.
        tree.insert("fresh", Rect(1, 1, 2, 2))
        assert tree.range_query(Rect(0, 0, 3, 3)) == ["fresh"]

    def test_update_moves_entry(self, loaded):
        tree, points = loaded
        tree.update(0, Rect.from_point(Point(99.5, 99.5)))
        assert 0 in tree.range_query(Rect(99, 99, 100, 100))
        assert 0 not in tree.range_query(Rect.from_center(points[0], 0.1, 0.1)) or (
            points[0].distance_to(Point(99.5, 99.5)) < 0.1
        )


class TestBulkLoad:
    def test_matches_brute_force(self, uniform_points_500):
        items = {i: Rect.from_point(p) for i, p in enumerate(uniform_points_500)}
        tree = RTree.bulk_load(items)
        assert len(tree) == 500
        points = dict(enumerate(uniform_points_500))
        for window in [Rect(0, 0, 100, 100), Rect(20, 35, 55, 60)]:
            assert sorted(tree.range_query(window)) == brute_range(points, window)

    def test_knn_after_bulk_load(self, uniform_points_500):
        items = {i: Rect.from_point(p) for i, p in enumerate(uniform_points_500)}
        tree = RTree.bulk_load(items)
        points = dict(enumerate(uniform_points_500))
        q = Point(42, 77)
        got = [points[i].distance_to(q) for i in tree.nearest(q, 8)]
        assert got == pytest.approx(
            sorted(p.distance_to(q) for p in points.values())[:8]
        )

    def test_packed_tree_no_taller_than_incremental(self, uniform_points_500):
        items = {i: Rect.from_point(p) for i, p in enumerate(uniform_points_500)}
        packed = RTree.bulk_load(items, max_entries=8)
        incremental = RTree(max_entries=8)
        for i, r in items.items():
            incremental.insert(i, r)
        assert packed.height <= incremental.height

    def test_dynamic_ops_after_bulk_load(self, uniform_points_500):
        items = {i: Rect.from_point(p) for i, p in enumerate(uniform_points_500)}
        tree = RTree.bulk_load(items)
        for i in range(100):
            tree.delete(i)
        tree.insert("late", Rect.from_point(Point(50, 50)))
        assert len(tree) == 401
        assert "late" in tree.range_query(Rect(49, 49, 51, 51))

    def test_empty_and_tiny(self):
        assert len(RTree.bulk_load({})) == 0
        tiny = RTree.bulk_load({"a": Rect(1, 1, 2, 2), "b": Rect(5, 5, 6, 6)})
        assert sorted(tiny.range_query(Rect(0, 0, 10, 10))) == ["a", "b"]

    def test_rect_entries_supported(self):
        items = {i: Rect(i, 0, i + 5, 5) for i in range(50)}
        tree = RTree.bulk_load(items, max_entries=4)
        assert sorted(tree.range_query(Rect(0, 0, 3, 3))) == [0, 1, 2, 3]


class TestInterleavedWorkload:
    def test_random_insert_delete_query(self, rng):
        tree = RTree(max_entries=6)
        reference: dict[int, Point] = {}
        next_id = 0
        for _ in range(1500):
            op = rng.random()
            if op < 0.55 or not reference:
                p = Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
                tree.insert(next_id, Rect.from_point(p))
                reference[next_id] = p
                next_id += 1
            elif op < 0.8:
                victim = list(reference)[int(rng.integers(len(reference)))]
                tree.delete(victim)
                del reference[victim]
            else:
                cx, cy = rng.uniform(0, 100, 2)
                window = Rect.from_center(Point(float(cx), float(cy)), 20, 20)
                assert sorted(tree.range_query(window)) == brute_range(
                    reference, window
                )
        assert len(tree) == len(reference)


def pyramid_cell(x, y, level, world=1000.0):
    side = world / 2**level
    col = min(int(x / side), 2**level - 1)
    row = min(int(y / side), 2**level - 1)
    return Rect(col * side, row * side, (col + 1) * side, (row + 1) * side)


def seeded_entries(seed, n):
    """Points, pyramid cells (equal and nested: ties) and free rectangles."""
    rng = random.Random(seed)
    out = {}
    for i in range(n):
        x, y = rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)
        if i % 3 == 0:
            out[i] = Rect(x, y, x, y)
        elif i % 3 == 1:
            out[i] = pyramid_cell(x, y, rng.randint(3, 7), world=100.0)
        else:
            out[i] = Rect(x, y, x + rng.uniform(0.0, 5.0), y + rng.uniform(0.0, 5.0))
    return out


class TestShapeIsPinned:
    """Which ids share a node, per depth, after a seeded insert-only build
    and after seeded deletes.  The digests were computed at 7b4315d, where
    choose-leaf and the split went through ``Rect.union_mbr`` / ``.area``:
    computing on the bare floats changed no decision."""

    @pytest.mark.parametrize(
        "max_entries, n, n_deleted, built, thinned",
        [
            (16, 3000, 1200, "edb6f31fc9cfd610", "cf6b3cc714cacb7b"),
            (8, 2000, 900, "e344491cac3c5070", "41c1da464c7dab47"),
            (4, 600, 400, "b802466c6fe9fe76", "6af5083a1c03a391"),
        ],
    )
    def test_fingerprint(self, max_entries, n, n_deleted, built, thinned):
        entries = seeded_entries(max_entries, n)
        tree = RTree(max_entries=max_entries)
        for i, rect in entries.items():
            tree.insert(i, rect)
        assert rtree_fingerprint(tree) == built
        for i in random.Random(max_entries + 1).sample(sorted(entries), n_deleted):
            tree.delete(i)
        assert rtree_fingerprint(tree) == thinned


@pytest.fixture
def leaf_insertions(monkeypatch):
    """Counts of ``_choose_leaf`` (one per leaf insertion) and ``_split``."""
    calls = {"_choose_leaf": 0, "_split": 0}
    for name in calls:
        original = getattr(RTree, name)

        def spy(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(RTree, name, spy)
    return calls


class TestUpdateWorkBounds:
    def test_update_inside_the_leaf_mbr_never_descends_or_splits(self, leaf_insertions):
        entries = seeded_entries(5, 1500)
        tree = RTree(max_entries=16)
        for i, rect in entries.items():
            tree.insert(i, rect)
        leaf_insertions.update(_choose_leaf=0, _split=0)
        moved = 0
        for i, rect in entries.items():
            centre = Rect.from_point(rect.center)  # inside the old rectangle
            if centre != rect:
                tree.update(i, centre)
                entries[i] = centre
                moved += 1
        assert moved > 900
        assert leaf_insertions == {"_choose_leaf": 0, "_split": 0}
        assert_rtree_invariants(tree)
        window = Rect(20, 20, 45, 60)
        assert sorted(tree.range_query(window)) == sorted(
            i for i, rect in entries.items() if rect.intersects(window)
        )

    def test_unchanged_geometry_touches_no_node(self, leaf_insertions, monkeypatch):
        entries = seeded_entries(6, 400)
        tree = RTree(max_entries=8)
        for i, rect in entries.items():
            tree.insert(i, rect)

        def layout(node):
            return [node.mbr, [e if node.leaf else layout(e) for e in node.entries]]

        before = layout(tree._root)
        leaf_insertions.update(_choose_leaf=0, _split=0)
        node_type = type(tree._root)
        monkeypatch.setattr(
            node_type, "recompute_mbr", lambda self: pytest.fail("recomputed an MBR")
        )
        for i in list(entries)[::7]:
            tree.update(i, Rect(*entries[i].as_tuple()))  # equal, not identical
        assert leaf_insertions == {"_choose_leaf": 0, "_split": 0}
        assert layout(tree._root) == before

    def test_unknown_id_raises_and_touches_nothing(self):
        tree = RTree(max_entries=4)
        for i, rect in seeded_entries(7, 40).items():
            tree.insert(i, rect)
        before = rtree_fingerprint(tree)
        with pytest.raises(KeyError):
            tree.update("ghost", Rect(1, 1, 2, 2))
        assert "ghost" not in tree and len(tree) == 40
        assert rtree_fingerprint(tree) == before
        assert_rtree_invariants(tree)

    def test_pyramid_cell_churn_stays_under_a_thousand_leaf_insertions(
        self, leaf_insertions
    ):
        """10k cloaked regions inserted one by one into the private store's
        tree (M = 16), then 500 users move and re-report their pyramid
        cell.  Delete + reinsert made 2 920 leaf insertions and 287 splits
        of this traffic at 7b4315d (every delete from a half-full leaf
        dissolved it); in place it is 428 and 41."""
        rng = random.Random(16)
        users = [
            (rng.uniform(0, 1000), rng.uniform(0, 1000), rng.choice([4, 5, 5, 6, 6, 6, 7]))
            for _ in range(10_000)
        ]
        tree = RTree(max_entries=16)
        for n, (x, y, level) in enumerate(users):
            tree.insert(n, pyramid_cell(x, y, level))
        leaf_insertions.update(_choose_leaf=0, _split=0)
        for n in rng.sample(range(10_000), 500):
            x, y, level = users[n]
            x = min(1000.0, max(0.0, x + rng.uniform(-15, 15)))
            y = min(1000.0, max(0.0, y + rng.uniform(-15, 15)))
            tree.update(n, pyramid_cell(x, y, level))
        assert leaf_insertions["_choose_leaf"] < 1000
        assert leaf_insertions["_split"] < 100
        assert_rtree_invariants(tree)
