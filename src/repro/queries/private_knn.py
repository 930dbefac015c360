"""Private k-nearest-neighbour queries over public data (extension).

The paper's Figure 5b treats 1-NN; real LBS requests are usually "the 5
nearest restaurants".  This module generalises the candidate-set machinery:
the server must return every object that could be among the k nearest of
*some* point of the cloaked region R.

Soundness rests on two facts:

* the k-th-NN distance function ``d_k(p)`` is 1-Lipschitz, so for every
  point ``p`` of R, ``d_k(p) <= max over corners c of d_k(c) +
  in_radius`` where ``in_radius`` is the largest distance from any point
  of R to its nearest corner — giving a sound global pruning radius;
* if ``k`` distinct competitors each beat object ``o`` at *all four
  corners* of R, then (half-plane convexity, as in the 1-NN filter) all
  ``k`` beat ``o`` everywhere in R, so ``o`` is never in any point's
  k-NN set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Literal

from repro.core.errors import QueryError
from repro.core.stores import PublicStore
from repro.geometry.distances import min_dist
from repro.geometry.point import Point
from repro.geometry.rect import Rect

KNNCandidateMethod = Literal["range", "filter"]


@dataclass(frozen=True)
class PrivateKNNResult:
    """Server-side answer to a private k-NN query.

    Attributes:
        region: the cloaked query region.
        k: how many neighbours the user wants.
        candidates: objects that may appear in the user's true k-NN list.
        method: candidate generator used.
        pruning_radius: the sound global radius used for the range stage.
    """

    region: Rect
    k: int
    candidates: tuple[Hashable, ...]
    method: KNNCandidateMethod
    pruning_radius: float

    @property
    def transmission_size(self) -> int:
        return len(self.candidates)


def _kth_nn_distance(store: PublicStore, point: Point, k: int) -> float:
    """Distance from ``point`` to its k-th nearest object."""
    distance = 0.0
    found = 0
    for _, d in store.nearest_iter(point):
        distance = d
        found += 1
        if found == k:
            return distance
    return distance  # fewer than k objects: the farthest one


def _corner_in_radius(region: Rect) -> float:
    """max over p in region of (distance from p to its nearest corner).

    Attained at the centre, where the nearest corner is half a diagonal
    away.
    """
    return math.hypot(region.width, region.height) / 2.0


def private_knn_query(
    store: PublicStore,
    region: Rect,
    k: int,
    method: KNNCandidateMethod = "filter",
) -> PrivateKNNResult:
    """Candidate set of a private k-NN query.

    Guarantee: for every point ``p`` of ``region``, all k true nearest
    objects of ``p`` are in the candidate set.

    Args:
        store: the public data store.
        region: the cloaked region from the anonymizer.
        k: neighbours requested; must be >= 1 (capped at the store size).
        method: ``"range"`` radius-only, or ``"filter"`` with the
            corner-dominance refinement.
    """
    if k < 1:
        raise QueryError(f"k must be positive, got {k}")
    if len(store) == 0:
        raise QueryError("k-NN query over an empty public store")
    k = min(k, len(store))
    radius = max(
        _kth_nn_distance(store, corner, k) for corner in region.corners
    ) + _corner_in_radius(region)
    window = region.expanded(radius + 1e-9 * (1.0 + radius))
    ids = [
        i
        for i in store.range_query(window)
        if min_dist(store.point_of(i), region) <= radius
    ]
    if method == "filter":
        ids = _k_dominance_filter(store, region, ids, k)
    elif method != "range":
        raise QueryError(f"unknown candidate method: {method!r}")
    return PrivateKNNResult(
        region=region,
        k=k,
        candidates=tuple(ids),
        method=method,
        pruning_radius=radius,
    )


def _k_dominance_filter(
    store: PublicStore, region: Rect, ids: list[Hashable], k: int
) -> list[Hashable]:
    """Drop ``o`` when k competitors each beat it everywhere in the region.

    A candidate is its tuple of squared distances to the four corners;
    ``o'`` dominates ``o`` when its tuple is smaller in every component,
    which puts it strictly earlier in sorted order.  So candidates are
    visited in sorted order and each is counted against the *survivors*
    before it only.  That loses no one: dominance is transitive, so the
    first k dominators of ``o`` in sorted order have fewer than k
    dominators themselves (theirs dominate ``o`` too and come earlier)
    and survive — ``o`` has k dominators iff it has k surviving ones.
    The count stops at k, and at the first survivor whose first
    component is not smaller, since no later one can dominate.  A sort
    plus at most candidates x survivors comparisons.

    Survivors come back in the order ``ids`` lists them.
    """
    corners = region.corners
    corner_d2 = [
        tuple(store.point_of(i).squared_distance_to(c) for c in corners) for i in ids
    ]
    survives = [False] * len(ids)
    survivors: list[tuple[float, ...]] = []
    for n in sorted(range(len(ids)), key=corner_d2.__getitem__):
        own = corner_d2[n]
        d0, d1, d2, d3 = own
        needed = k
        for s0, s1, s2, s3 in survivors:
            if not s0 < d0:
                break
            if s1 < d1 and s2 < d2 and s3 < d3:
                needed -= 1
                if not needed:
                    break
        if needed:
            survives[n] = True
            survivors.append(own)
    return [i for i, kept in zip(ids, survives) if kept]


def refine_knn_candidates(
    store: PublicStore,
    result: PrivateKNNResult,
    exact_location: Point,
) -> list[Hashable]:
    """Client-side refinement: the true k-NN list from the candidates."""
    if not result.candidates:
        raise QueryError("cannot refine an empty candidate set")
    ranked = sorted(
        result.candidates,
        key=lambda i: store.point_of(i).distance_to(exact_location),
    )
    return ranked[: result.k]


def exact_knn_answer(store: PublicStore, exact_location: Point, k: int) -> list[Hashable]:
    """Ground truth: the non-private k-NN list (evaluation only)."""
    if len(store) == 0:
        raise QueryError("k-NN query over an empty public store")
    return store.nearest(exact_location, k)
