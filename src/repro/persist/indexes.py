"""The servers' R-trees in a checkpoint: columns, not trees.

A checkpoint holds no index.  Each server store is written as its
columns — the ids in row order and their ``(n, 2)`` points or ``(n, 4)``
rectangles, read straight from the store's table
(:meth:`~repro.core.stores.PublicStore.columns`) — and its R-tree is
STR-loaded from those arrays on restore
(:meth:`~repro.index.rtree.RTree.bulk_load`).  An index's
physical node layout is history-dependent (a tree grown by inserts
differs from one bulk-loaded with the same entries) while its entry set
is not, so query results over a rebuilt index are *set*-equivalent, not
traversal-order-identical; all recovery equivalence checks compare
accordingly.

A ``repro.persist/2`` checkpoint stored each R-tree as a logical state
instead — ``{"backend": "rtree", "params": ..., "entries": [[id, min_x,
min_y, max_x, max_y], ...]}`` sorted by id.  :func:`columns_from_state`
reads that form for the release that still reads ``/2``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect import Rect


def rect_sides(rect: Rect) -> list[float]:
    """JSON-ready ``[min_x, min_y, max_x, max_y]`` form of a rectangle."""
    return [rect.min_x, rect.min_y, rect.max_x, rect.max_y]


def columns_from_state(state: dict) -> tuple[list[str], np.ndarray]:
    """The ids and ``(n, 4)`` bounds of a ``/2`` R-tree state, in its
    entry order.  A state naming any other backend is rejected."""
    if state["backend"] != "rtree":
        raise ValueError(f"unknown index backend: {state['backend']!r}")
    entries = state["entries"]
    ids = [str(entry[0]) for entry in entries]
    bounds = np.array([entry[1:] for entry in entries], dtype=float)
    return ids, bounds.reshape(len(ids), 4)
