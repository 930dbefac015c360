"""The servers' R-trees in a checkpoint: columns in, an STR-loaded tree out.

A ``repro.persist/4`` checkpoint stores each server store as its ids and
coordinate block, and ``_Store.restore`` STR-loads the R-tree from those
arrays (``RTree.bulk_load``).  No index state is stored.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stores import PrivateStore, PublicStore
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rtree import RTree

from rtree_checks import rtree_fingerprint

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
    bounds = np.array([rect.as_tuple() for rect in rects], dtype=float)
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


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestRoundTrip:
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
    bounds = np.array([rect.as_tuple() for rect in rects])
    for max_entries in (4, 8):
        packed = RTree.bulk_load(dict(entries), max_entries=max_entries)
        store = _restored(ids, bounds, max_entries)
        assert [item for item, _ in store.items()] == ids
        assert rtree_fingerprint(store._rtree) == rtree_fingerprint(packed)
        assert _entries_of(store._rtree) == _entries_of(packed)


def test_empty_indexes_round_trip():
    for store in (PublicStore(), PrivateStore()):
        store.restore(*store.columns(), 0)
        assert len(store) == 0 and list(store.items()) == []
        assert type(store._rtree) is RTree and _entries_of(store._rtree) == {}


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
