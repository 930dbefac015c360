"""Structural checks on an :class:`~repro.index.rtree.RTree`, shared by suites.

``assert_rtree_invariants`` is what every mutation must leave true;
``rtree_fingerprint`` reduces a tree to which ids share a node at each
depth, so two builds can be compared decision for decision.
"""

from __future__ import annotations

import hashlib

from repro.geometry.rect import Rect
from repro.index.rtree import RTree


def _levels(tree: RTree) -> list[list]:
    """The nodes of ``tree``, one list per depth, root first."""
    levels = [[tree._root]]
    while not levels[-1][0].leaf:
        levels.append([child for node in levels[-1] for child in node.entries])
    return levels


def underfull_nodes(tree: RTree) -> list:
    """The non-root nodes below minimum fill.  Only STR packing makes
    them (the last group of a slab); capture them right after
    ``bulk_load`` and hand them to :func:`assert_rtree_invariants`."""
    return [
        node
        for nodes in _levels(tree)[1:]
        for node in nodes
        if len(node.entries) < tree._min
    ]


def assert_rtree_invariants(tree: RTree, str_tails=()) -> None:
    """Fail unless ``tree`` is a well-formed R-tree over exactly ``_geoms``.

    Every node's MBR is the tight bound of its entries; parent pointers
    and the leaf directory agree with the structure; every id is in
    exactly one leaf; all leaves sit at one depth; fill is at most M and,
    the root and ``str_tails`` apart, at least m.
    """
    levels = _levels(tree)
    assert tree._root.parent is None
    assert tree.height == len(levels)
    for depth, nodes in enumerate(levels):
        for node in nodes:
            assert node.leaf == (depth == len(levels) - 1)
            assert len(node.entries) <= tree._max
            if node is not tree._root and not any(node is tail for tail in str_tails):
                assert len(node.entries) >= tree._min, (depth, len(node.entries))
            if not node.entries:
                assert node is tree._root and node.mbr is None
                continue
            if node.leaf:
                rects = [rect for _, rect in node.entries]
            else:
                rects = [child.mbr for child in node.entries]
                assert all(child.parent is node for child in node.entries)
            assert node.mbr == Rect.bounding(rects), depth
    held: dict = {}
    for leaf in levels[-1]:
        for item_id, rect in leaf.entries:
            assert item_id not in held, f"{item_id!r} is in two leaves"
            held[item_id] = rect
            assert tree._leaf_of[item_id] is leaf
    assert held == tree._geoms
    assert tree._leaf_of.keys() == tree._geoms.keys()


def rtree_fingerprint(tree: RTree) -> str:
    """Digest of the sorted id groupings per depth (node order, entry
    order and MBR objects do not enter; which ids share a node does)."""

    def ids_under(node) -> list[str]:
        if node.leaf:
            return sorted(repr(item_id) for item_id, _ in node.entries)
        return sorted(i for child in node.entries for i in ids_under(child))

    shape = [sorted(ids_under(node) for node in nodes) for nodes in _levels(tree)]
    return hashlib.sha256(repr(shape).encode()).hexdigest()[:16]
