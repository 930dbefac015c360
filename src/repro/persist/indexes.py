"""Logical-state serialisation for the R-tree, the servers' one index.

A checkpoint holds the two stores' R-trees, and nothing else persists an
index.  An index's durable form is its *logical* state — construction
parameters plus the ``(id, geometry)`` entry set — not its physical node
layout.  Physical shapes are history-dependent (a tree grown by inserts
differs from one bulk-loaded with the same entries) and STR bulk loading
rebuilds a valid tree from the entry set, so persisting the logical state
is both smaller and guaranteed restorable across refactors of the node
internals.  Query results over a rebuilt index are therefore
*set*-equivalent, not traversal-order-identical; all recovery
equivalence checks compare accordingly.

Entry ids are canonicalised through ``str()`` — the same convention as
the event trail — and entries are sorted by id so the serialised form is deterministic regardless of
insertion history (this is what pins the ``repro.persist`` golden
fixtures under ``tests/fixtures/``).
"""

from __future__ import annotations

from repro.geometry.rect import Rect
from repro.index.rtree import RTree


def rect_sides(rect: Rect) -> list[float]:
    """JSON-ready ``[min_x, min_y, max_x, max_y]`` form of a rectangle."""
    return [rect.min_x, rect.min_y, rect.max_x, rect.max_y]


def index_state(index: RTree) -> dict:
    """Serialise an R-tree to a JSON-ready state dict.

    The state carries the backend name, its construction parameters, and
    the sorted entry list; :func:`index_from_state` is the inverse.
    """
    if not isinstance(index, RTree):
        raise TypeError(f"unserialisable index type: {type(index).__name__}")
    entries = sorted(
        [str(item), *rect_sides(index.geometry_of(item))] for item in index
    )
    return {
        "backend": "rtree",
        "params": {"max_entries": index._max, "min_entries": index._min},
        "entries": entries,
    }


def index_from_state(state: dict) -> RTree:
    """Rebuild an R-tree from :func:`index_state` output.

    The tree is rebuilt by STR bulk loading (packed, deterministic for a
    given entry set).  A state naming any other backend is rejected.
    """
    if state["backend"] != "rtree":
        raise ValueError(f"unknown index backend: {state['backend']!r}")
    params = state["params"]
    entries = {
        item: Rect(min_x, min_y, max_x, max_y)
        for item, min_x, min_y, max_x, max_y in state["entries"]
    }
    if not entries:
        return RTree(
            max_entries=params["max_entries"], min_entries=params["min_entries"]
        )
    return RTree.bulk_load(
        entries,
        max_entries=params["max_entries"],
        min_entries=params["min_entries"],
    )
