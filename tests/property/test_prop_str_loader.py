"""The numpy STR loader builds the tree the ``sorted()`` tiling builds.

``RTree.bulk_load`` tiles each level with stable numpy argsorts of the
centre columns and folds node MBRs with ``minimum`` / ``maximum.reduceat``.
``reference_bulk_load`` (tests/rtree_checks.py) is the same packing
written one ``Rect`` at a time with ``sorted()`` over ``Rect.center`` and
``_Node.recompute_mbr``.  For every population below the two trees have
the same fingerprint and the same layout (node order, entry order and MBR
floats), and the loaded tree is a well-formed R-tree.

Populations sit where STR's arithmetic turns: ``n`` at, just below and
just above a multiple of the node capacity; and where its sorts have to
break ties the same way: duplicate values, one ``Rect`` shared by many
ids, zero-area points and sides on a coarse grid, so many centres tie.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from rtree_checks import (
    assert_rtree_invariants,
    reference_bulk_load,
    rtree_fingerprint,
    rtree_layout,
    underfull_nodes,
)

from repro.geometry.rect import Rect
from repro.index.rtree import RTree

FAMILIES = ["gridline", "points", "shared", "duplicates", "floats"]


def _population(family: str, n: int, seed: int) -> dict:
    """``n`` rectangles of one family under shuffled int and str ids."""
    rng = random.Random(f"{family}/{n}/{seed}")
    pool = [_on_grid(rng, 25.0, 12.5) for _ in range(4)]

    def make() -> Rect:
        if family == "gridline":
            return _on_grid(rng, rng.choice([0.0, 12.5]), 12.5)
        if family == "points":
            return _on_grid(rng, 0.0, 0.0)
        if family == "shared":  # one object under many ids
            return rng.choice(pool)
        if family == "duplicates":  # equal values, distinct objects
            return Rect(*rng.choice(pool).as_tuple())
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        return Rect(x, y, x + rng.uniform(0, 5), y + rng.uniform(0, 5))

    ids = [i if i % 3 else f"id-{i}" for i in range(n)]
    rng.shuffle(ids)
    return {item: make() for item in ids}


def _on_grid(rng: random.Random, width: float, height: float) -> Rect:
    """A rectangle whose lower-left corner sits on a 12.5-unit grid."""
    x, y = rng.randrange(9) * 12.5, rng.randrange(9) * 12.5
    return Rect(x, y, x + width, y + height)


@st.composite
def loads(draw) -> tuple[dict, int]:
    capacity = draw(st.sampled_from([4, 8, 16]))
    groups = draw(st.integers(min_value=0, max_value=40))
    n = max(0, capacity * groups + draw(st.sampled_from([-1, 0, 1])))
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return _population(family, n, seed), capacity


def _bounds(items: dict) -> np.ndarray:
    return np.array([rect.as_tuple() for rect in items.values()]).reshape(-1, 4)


@given(loads())
@example((_population("points", 257, 0), 16))
@example((_population("shared", 63, 1), 4))
@example((_population("gridline", 4097, 2), 8))
@settings(max_examples=120, deadline=None)
def test_numpy_tiling_builds_the_reference_tree(load):
    items, capacity = load
    reference = reference_bulk_load(items, max_entries=capacity)
    for tree in (
        RTree.bulk_load(items, max_entries=capacity),
        RTree.bulk_load(items, max_entries=capacity, bounds=_bounds(items)),
    ):
        assert rtree_fingerprint(tree) == rtree_fingerprint(reference)
        assert rtree_layout(tree) == rtree_layout(reference)
        assert_rtree_invariants(tree, underfull_nodes(tree))
