"""Structural checks on an :class:`~repro.index.rtree.RTree`, shared by suites.

``assert_rtree_invariants`` is what every mutation must leave true;
``rtree_fingerprint`` reduces a tree to which ids share a node at each
depth, so two builds can be compared decision for decision;
``reference_bulk_load`` is the STR packing written with ``sorted()`` over
``Rect.center``, the oracle ``RTree.bulk_load``'s numpy tiling is held to.
"""

from __future__ import annotations

import hashlib
import math

from repro.geometry.rect import Rect
from repro.index.rtree import RTree, _Node


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


def _str_tile(entries: list, capacity: int, mbr_of) -> list[list]:
    """Group entries into runs of ``capacity`` by the STR tiling order."""
    n = len(entries)
    n_groups = math.ceil(n / capacity)
    slab_count = max(1, math.ceil(math.sqrt(n_groups)))
    slab_size = math.ceil(n / slab_count)
    by_x = sorted(entries, key=lambda e: mbr_of(e).center.x)
    groups: list[list] = []
    for s in range(0, n, slab_size):
        slab = sorted(by_x[s : s + slab_size], key=lambda e: mbr_of(e).center.y)
        for g in range(0, len(slab), capacity):
            groups.append(slab[g : g + capacity])
    return groups


def reference_bulk_load(items: dict, max_entries: int = 8, min_entries=None) -> RTree:
    """The STR packing ``RTree.bulk_load`` builds, one ``Rect`` at a time:
    stable ``sorted()`` by ``Rect.center`` per level and each node's MBR
    folded by ``_Node.recompute_mbr``."""
    tree = RTree(max_entries=max_entries, min_entries=min_entries)
    if not items:
        return tree
    tree._geoms = dict(items)
    leaves = []
    for group in _str_tile(list(items.items()), max_entries, lambda kv: kv[1]):
        leaf = _Node(leaf=True)
        leaf.entries = group
        leaf.recompute_mbr()
        leaves.append(leaf)
    level = leaves
    while len(level) > 1:
        parents = []
        for group in _str_tile(level, max_entries, lambda child: child.mbr):
            parent = _Node(leaf=False)
            parent.entries = group
            for child in group:
                child.parent = parent
            parent.recompute_mbr()
            parents.append(parent)
        level = parents
    tree._root = level[0]
    tree._leaf_of = {item_id: leaf for leaf in leaves for item_id, _ in leaf.entries}
    return tree


def rtree_layout(tree: RTree) -> list:
    """Every node, depth by depth in child order, as its MBR sides plus its
    entries (ids and sides at a leaf, the child count above): two equal
    layouts are the same tree, node order and entry order included."""
    layout = []
    for nodes in _levels(tree):
        for node in nodes:
            mbr = None if node.mbr is None else node.mbr.as_tuple()
            if node.leaf:
                layout.append((mbr, [(i, r.as_tuple()) for i, r in node.entries]))
            else:
                layout.append((mbr, len(node.entries)))
    return layout
