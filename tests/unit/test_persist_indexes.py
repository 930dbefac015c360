"""The servers' R-trees in a checkpoint: columns in, an STR-loaded tree out.

A ``repro.persist/3`` checkpoint stores each server store as its ids and
coordinate block, and ``_Store.restore`` STR-loads the R-tree from those
arrays (``RTree.bulk_load``).  The golden fixture
``tests/fixtures/persist_index_rtree.json`` pins the logical state a
``repro.persist/2`` checkpoint stored per tree, which the ``/2`` reader
(``columns_from_state``) still turns into columns.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.stores import PrivateStore, PublicStore
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rtree import RTree
from repro.persist.indexes import columns_from_state, rect_sides

from rtree_checks import rtree_fingerprint

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

#: Insertion order is deliberately not sorted.
POINTS = [("b", 10.0, 20.0), ("a", 35.5, 60.25), ("d", 80.0, 5.0), ("c", 50.0, 50.0)]


def _rtree():
    index = RTree(max_entries=4)
    for item, x, y in POINTS:
        index.insert(item, Rect.from_point(Point(x, y)))
    # True rectangles too: the private store holds cloaked regions.
    index.insert("r1", Rect(5.0, 5.0, 25.0, 30.0))
    index.insert("r2", Rect(40.0, 40.0, 90.0, 95.0))
    return index


def _columns(index: RTree) -> tuple[list, list[Rect], np.ndarray]:
    """The index's entries as a store's columns, in its iteration order."""
    ids = list(index)
    rects = [index.geometry_of(item) for item in ids]
    bounds = np.array([rect_sides(rect) for rect in rects], dtype=float)
    return ids, rects, bounds.reshape(len(ids), 4)


def _restored(ids: list, bounds: np.ndarray, max_entries: int) -> PrivateStore:
    store = PrivateStore(max_entries=max_entries)
    store.restore(ids, bounds, 0)
    return store


def _from_columns(index: RTree) -> RTree:
    ids, _, bounds = _columns(index)
    return _restored(ids, bounds, index._max)._rtree


BACKENDS = {"rtree": _rtree}


def _entries_of(index) -> dict:
    return {str(item): index.geometry_of(item) for item in index}


def _golden() -> dict:
    with open(os.path.join(FIXTURES, "persist_index_rtree.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestRoundTrip:
    def test_state_matches_golden_fixture(self, backend):
        """The ``/2`` golden state reads as the tree's columns, in the
        state's sorted entry order."""
        ids, bounds = columns_from_state(_golden())
        entries = _entries_of(BACKENDS[backend]())
        assert ids == sorted(entries)
        assert bounds.tolist() == [rect_sides(entries[item]) for item in ids]

    def test_rebuild_preserves_entries_and_params(self, backend):
        original = BACKENDS[backend]()
        rebuilt = _from_columns(original)
        assert type(rebuilt) is type(original)
        assert _entries_of(rebuilt) == _entries_of(original)
        assert (rebuilt._max, rebuilt._min) == (original._max, original._min)

    def test_rebuilt_index_answers_queries(self, backend):
        rebuilt = _from_columns(BACKENDS[backend]())
        window = Rect(0.0, 0.0, 60.0, 65.0)
        hits = set(rebuilt.range_query(window))
        assert {"a", "b", "c"} <= hits
        assert "d" not in hits

    def test_golden_fixture_rebuilds(self, backend):
        """A ``/2`` checkpoint's index state must remain loadable."""
        ids, bounds = columns_from_state(_golden())
        rebuilt = _restored(ids, bounds, 4)._rtree
        assert _entries_of(rebuilt) == _entries_of(BACKENDS[backend]())


@pytest.mark.parametrize("order", ["forward", "reversed", "ties"])
def test_column_load_is_the_str_bulk_load(order):
    """A store restored from columns keeps their row order and holds the
    tree ``bulk_load`` builds from the same entries in the same order,
    ties in the centre columns included."""
    entries = [(item, Rect.from_point(Point(x, y))) for item, x, y in POINTS]
    if order == "reversed":
        entries.reverse()
    if order == "ties":
        entries = [
            (i, Rect(float(i % 3), float(i % 5), float(i % 3) + i % 2, float(i % 5)))
            for i in range(200)
        ]
    ids = [item for item, _ in entries]
    rects = [rect for _, rect in entries]
    bounds = np.array([rect_sides(rect) for rect in rects])
    for max_entries in (4, 8):
        packed = RTree.bulk_load(dict(entries), max_entries=max_entries)
        store = _restored(ids, bounds, max_entries)
        assert [item for item, _ in store.items()] == ids
        assert rtree_fingerprint(store._rtree) == rtree_fingerprint(packed)
        assert _entries_of(store._rtree) == _entries_of(packed)


def test_empty_indexes_round_trip():
    ids, bounds = columns_from_state({"backend": "rtree", "params": {}, "entries": []})
    assert ids == [] and bounds.shape == (0, 4)
    rebuilt = _restored(ids, bounds, 4)._rtree
    assert type(rebuilt) is RTree
    assert _entries_of(rebuilt) == {}
    for store in (PublicStore(), PrivateStore()):
        store.restore(*store.columns(), 0)
        assert len(store) == 0 and list(store.items()) == []


def test_store_columns_round_trip_in_row_order():
    """A store's columns restore to the same rows, holes compacted."""
    public = PublicStore()
    for item, x, y in POINTS:
        public.add(item, Point(x, y))
    public.remove("a")
    private = PrivateStore()
    private.set_region("r2", Rect(40.0, 40.0, 90.0, 95.0))
    private.set_region("r1", Rect(5.0, 5.0, 25.0, 30.0))
    for store in (public, private):
        ids, block = store.columns()
        twin = type(store)()
        twin.restore(list(ids), block.copy(), store.version)
        assert list(twin.items()) == list(store.items())
        assert twin.version == store.version
        assert _entries_of(twin._rtree) == _entries_of(store._rtree)


_ENTRIES = [["a", 35.5, 60.25, 35.5, 60.25], ["b", 10.0, 20.0, 10.0, 20.0]]
_SQUARE = [0.0, 0.0, 100.0, 100.0]


def test_unknown_backend_rejected():
    states = [
        {"backend": "btree", "params": {}, "entries": []},
        # What the retired point-index codecs wrote: well-formed, but a
        # checkpoint holds nothing but R-trees.
        {"backend": "grid", "params": {"bounds": _SQUARE, "cols": 8, "rows": 8},
         "entries": _ENTRIES},
        {"backend": "kdtree", "params": {"rebuild_fraction": 0.5},
         "entries": _ENTRIES},
        {"backend": "pyramid", "params": {"bounds": _SQUARE, "height": 4},
         "entries": _ENTRIES},
        {"backend": "quadtree",
         "params": {"bounds": _SQUARE, "capacity": 2, "max_depth": 6},
         "entries": _ENTRIES},
    ]
    for state in states:
        with pytest.raises(ValueError, match="unknown index backend"):
            columns_from_state(state)
