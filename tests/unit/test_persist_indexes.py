"""Round-trip serialization for the R-tree, the one persisted index.

The golden fixture ``tests/fixtures/persist_index_rtree.json`` pins the
``repro.persist/1`` logical-state wire format: if serialisation drifts,
these tests fail before any stored checkpoint becomes unreadable.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import GridIndex
from repro.index.rtree import RTree
from repro.persist import index_from_state, index_state

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

#: Insertion order is deliberately not sorted — the serialised entry
#: list must come out sorted regardless.
POINTS = [("b", 10.0, 20.0), ("a", 35.5, 60.25), ("d", 80.0, 5.0), ("c", 50.0, 50.0)]


def _rtree():
    index = RTree(max_entries=4)
    for item, x, y in POINTS:
        index.insert(item, Rect.from_point(Point(x, y)))
    # True rectangles too: the private store holds cloaked regions.
    index.insert("r1", Rect(5.0, 5.0, 25.0, 30.0))
    index.insert("r2", Rect(40.0, 40.0, 90.0, 95.0))
    return index


BACKENDS = {"rtree": _rtree}


def _entries_of(index) -> dict:
    return {str(item): index.geometry_of(item) for item in index}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestRoundTrip:
    def test_state_matches_golden_fixture(self, backend):
        """The serialised form is byte-stable against the pinned fixture."""
        state = index_state(BACKENDS[backend]())
        path = os.path.join(FIXTURES, f"persist_index_{backend}.json")
        with open(path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert state == golden

    def test_rebuild_preserves_entries_and_params(self, backend):
        original = BACKENDS[backend]()
        state = index_state(original)
        rebuilt = index_from_state(state)
        assert type(rebuilt) is type(original)
        assert _entries_of(rebuilt) == _entries_of(original)
        # Construction parameters survive (serialise again, compare).
        assert index_state(rebuilt) == state

    def test_rebuilt_index_answers_queries(self, backend):
        rebuilt = index_from_state(index_state(BACKENDS[backend]()))
        window = Rect(0.0, 0.0, 60.0, 65.0)
        hits = set(rebuilt.range_query(window))
        assert {"a", "b", "c"} <= hits
        assert "d" not in hits

    def test_golden_fixture_rebuilds(self, backend):
        """A checkpoint written by any past version of this code (the
        fixture) must remain loadable."""
        path = os.path.join(FIXTURES, f"persist_index_{backend}.json")
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        rebuilt = index_from_state(state)
        assert _entries_of(rebuilt) == _entries_of(BACKENDS[backend]())


def test_entries_sorted_regardless_of_insertion_order():
    forward = RTree(max_entries=4)
    backward = RTree(max_entries=4)
    for item, x, y in POINTS:
        forward.insert(item, Rect.from_point(Point(x, y)))
    for item, x, y in reversed(POINTS):
        backward.insert(item, Rect.from_point(Point(x, y)))
    assert index_state(forward) == index_state(backward)


def test_empty_indexes_round_trip():
    state = index_state(RTree(max_entries=4))
    assert state["entries"] == []
    rebuilt = index_from_state(state)
    assert type(rebuilt) is RTree
    assert _entries_of(rebuilt) == {}
    assert index_state(rebuilt) == state


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
            index_from_state(state)


def test_unserialisable_index_type_rejected():
    for index in (object(), GridIndex(Rect(*_SQUARE), cols=8, rows=8)):
        with pytest.raises(TypeError, match="unserialisable index type"):
            index_state(index)
