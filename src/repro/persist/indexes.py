"""Logical-state serialisation for all five spatial index backends.

An index's durable form is its *logical* state — construction parameters
plus the ``(id, geometry)`` entry set — not its physical node layout.
Physical shapes are history-dependent (a tree grown by inserts differs
from one bulk-loaded with the same entries) and every backend rebuilds a
valid structure from the entry set, so persisting the logical state is
both smaller and guaranteed restorable across refactors of the node
internals.  Query results over a rebuilt index are therefore
*set*-equivalent, not traversal-order-identical; all recovery
equivalence checks compare accordingly.

Entry ids are canonicalised through ``str()`` — the same convention as
the event trail — and entries are sorted by id so the serialised form is deterministic regardless of
insertion history (this is what pins the ``repro.persist/1`` golden
fixtures under ``tests/fixtures/``).
"""

from __future__ import annotations

from repro.geometry.rect import Rect
from repro.index.base import SpatialIndex
from repro.index.grid import GridIndex
from repro.index.kdtree import KDTree
from repro.index.pyramid import PyramidGrid
from repro.index.quadtree import QuadTree
from repro.index.rtree import RTree


def rect_sides(rect: Rect) -> list[float]:
    """JSON-ready ``[min_x, min_y, max_x, max_y]`` form of a rectangle."""
    return [rect.min_x, rect.min_y, rect.max_x, rect.max_y]


def index_state(index: SpatialIndex) -> dict:
    """Serialise any of the five backends to a JSON-ready state dict.

    The state carries the backend name, its construction parameters, and
    the sorted entry list; :func:`index_from_state` is the inverse.
    """
    if isinstance(index, RTree):
        backend = "rtree"
        params = {"max_entries": index._max, "min_entries": index._min}
    elif isinstance(index, GridIndex):
        backend = "grid"
        params = {
            "bounds": rect_sides(index.bounds),
            "cols": index.cols,
            "rows": index.rows,
        }
    elif isinstance(index, KDTree):
        backend = "kdtree"
        params = {"rebuild_fraction": index._rebuild_fraction}
    elif isinstance(index, PyramidGrid):
        backend = "pyramid"
        params = {"bounds": rect_sides(index.bounds), "height": index.height}
    elif isinstance(index, QuadTree):
        backend = "quadtree"
        params = {
            "bounds": rect_sides(index.bounds),
            "capacity": index._capacity,
            "max_depth": index._max_depth,
        }
    else:
        raise TypeError(f"unserialisable index type: {type(index).__name__}")
    entries = sorted(
        [str(item), *rect_sides(index.geometry_of(item))] for item in index
    )
    return {"backend": backend, "params": params, "entries": entries}


def index_from_state(state: dict) -> SpatialIndex:
    """Rebuild a backend from :func:`index_state` output.

    The R-tree is rebuilt by STR bulk loading (packed, deterministic for
    a given entry set); the point backends re-insert in the serialised
    (sorted) order, which is likewise deterministic.
    """
    backend = state["backend"]
    params = state["params"]
    entries = {
        item: Rect(min_x, min_y, max_x, max_y)
        for item, min_x, min_y, max_x, max_y in state["entries"]
    }
    if backend == "rtree":
        if not entries:
            return RTree(
                max_entries=params["max_entries"],
                min_entries=params["min_entries"],
            )
        return RTree.bulk_load(
            entries,
            max_entries=params["max_entries"],
            min_entries=params["min_entries"],
        )
    if backend == "grid":
        index: SpatialIndex = GridIndex(
            Rect(*params["bounds"]), cols=params["cols"], rows=params["rows"]
        )
    elif backend == "kdtree":
        index = KDTree(rebuild_fraction=params["rebuild_fraction"])
    elif backend == "pyramid":
        index = PyramidGrid(Rect(*params["bounds"]), height=params["height"])
    elif backend == "quadtree":
        index = QuadTree(
            Rect(*params["bounds"]),
            capacity=params["capacity"],
            max_depth=params["max_depth"],
        )
    else:
        raise ValueError(f"unknown index backend: {backend!r}")
    for item, geom in entries.items():
        index.insert(item, geom)
    return index
