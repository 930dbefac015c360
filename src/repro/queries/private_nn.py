"""Private nearest-neighbour queries over public data (Figure 5b).

The user asks "my nearest public object"; the server knows only the cloaked
region R.  The sound answer is the candidate set: every object that is the
nearest neighbour of *some* point of R.  The paper's Figure 5b walks through
exactly this: objects inside R are always candidates; object A is pruned
because B and C beat it everywhere in R; object D survives because a user on
R's right edge may be closest to it.

Three candidate generators of increasing tightness are implemented:

* ``range``  — a single pruning radius: ``m = min over objects of
  max_dist(R, o)``.  Whatever point of R the user is at, the object
  attaining ``m`` is within ``m``, so anything farther than ``m`` from R
  can never win.  One incremental-NN scan, loosest set.
* ``filter`` — ``range`` plus per-candidate dominance: prune ``o`` when
  some single competitor beats it over all of R
  (``max_dist(R, o') < min_dist(R, o)``).  One sort of the candidates
  and one scan against the survivors, not every pair.
* ``exact``  — the true candidate set: ``o`` survives iff its Voronoi cell
  intersects R, decided by half-plane clipping.  (Ablation A2 measures how
  much looser the cheap sets are.)

Every method guarantees no false negatives; the client refines locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Literal

from repro.core.errors import QueryError
from repro.core.stores import PublicStore
from repro.geometry.distances import max_dist, min_dist
from repro.geometry.point import Point
from repro.geometry.polygon import polygon_area, voronoi_cell_clip
from repro.geometry.rect import Rect
from repro.queries.private_knn import _k_dominance_filter

NNCandidateMethod = Literal["range", "filter", "exact"]


@dataclass(frozen=True)
class PrivateNNResult:
    """Server-side answer to a private NN query.

    Attributes:
        region: the cloaked query region.
        candidates: ids of objects that may be the user's nearest object.
        method: candidate generator used.
        pruning_radius: the ``m`` bound used by the range/filter stages
            (informational; 0.0 when the store held at most one object).
    """

    region: Rect
    candidates: tuple[Hashable, ...]
    method: NNCandidateMethod
    pruning_radius: float

    @property
    def transmission_size(self) -> int:
        return len(self.candidates)


def pruning_radius(store: PublicStore, region: Rect) -> tuple[float, list[Hashable]]:
    """The bound ``m = min_o max_dist(region, o)`` and the objects within it.

    Found without scanning the whole store: iterate objects nearest-first
    from the region centre, maintaining the best ``m`` so far; once an
    object's centre distance exceeds ``m`` no later object can improve it
    (``max_dist >= centre distance`` for points).  Returns ``(m, ids)``
    where ids are all objects with ``min_dist(o, region) <= m``.
    """
    if len(store) == 0:
        raise QueryError("nearest-neighbour query over an empty public store")
    centre = region.center
    m = float("inf")
    for object_id, centre_dist in store.nearest_iter(centre):
        if centre_dist > m:
            break
        m = min(m, max_dist(store.point_of(object_id), region))
    # The expanded window is only a prefilter (min_dist is the authority),
    # so pad it slightly: computing window edges as coordinate - m can
    # round to just inside the m-attaining object and lose it.
    window = region.expanded(m + 1e-9 * (1.0 + m))
    ids = [
        i
        for i in store.range_query(window)
        if min_dist(store.point_of(i), region) <= m
    ]
    return m, ids


def private_nn_query(
    store: PublicStore,
    region: Rect,
    method: NNCandidateMethod = "filter",
) -> PrivateNNResult:
    """Candidate set of a private nearest-neighbour query.

    Guarantee: for every point ``p`` of ``region``, the true nearest object
    of ``p`` is in the candidate set.
    """
    m, ids = pruning_radius(store, region)
    if method == "range":
        kept = ids
    elif method == "filter":
        kept = _dominance_filter(store, region, ids)
    elif method == "exact":
        kept = _voronoi_filter(store, region, _dominance_filter(store, region, ids))
    else:
        raise QueryError(f"unknown candidate method: {method!r}")
    return PrivateNNResult(
        region=region, candidates=tuple(kept), method=method, pruning_radius=m
    )


def _dominance_filter(
    store: PublicStore, region: Rect, ids: list[Hashable]
) -> list[Hashable]:
    """Drop ``o`` when one competitor beats it everywhere in ``region``.

    The test is corner dominance: the locus where ``o'`` beats ``o`` is a
    half-plane, and a convex region lies inside a half-plane iff all its
    vertices do — so ``o'`` strictly closer at all four corners means
    ``o'`` wins at every point of the region, and ``o`` can never be the
    answer.  This is exactly the paper's Figure 5b argument for
    eliminating object A ("it is guaranteed that targets B and C would be
    nearest to any point in the shaded area than target A").  It is the
    k-NN filter asked for one dominator.
    """
    return _k_dominance_filter(store, region, ids, 1)


def _voronoi_filter(
    store: PublicStore, region: Rect, ids: list[Hashable]
) -> list[Hashable]:
    """Keep ``o`` iff its Voronoi cell (within the candidate set) meets R.

    Restricting competitors to the candidate set is exact: a pruned object
    loses everywhere in R to some candidate, so it cannot carve anything
    out of R for itself or defend ``o``'s cell.
    """
    points = {i: store.point_of(i) for i in ids}
    kept = []
    for i in ids:
        competitors = [p for j, p in points.items() if j != i]
        if voronoi_cell_clip(points[i], competitors, region):
            kept.append(i)
    return kept


def nn_probabilities(
    store: PublicStore, result: PrivateNNResult
) -> dict[Hashable, float]:
    """Analytic P(candidate is the NN) for a user uniform in the region.

    The probability of candidate ``o`` is ``area(VoronoiCell(o) ∩ R) /
    area(R)``.  For a degenerate region the single containing cell gets
    probability 1.  Complements the candidate set with the quality signal
    used in experiment E6.
    """
    region = result.region
    points = {i: store.point_of(i) for i in result.candidates}
    if region.area == 0.0:
        # Degenerate region: the answer is the plain NN of the point.
        centre = region.center
        best = min(points, key=lambda i: points[i].distance_to(centre))
        return {i: (1.0 if i == best else 0.0) for i in points}
    probs: dict[Hashable, float] = {}
    for i, p in points.items():
        competitors = [q for j, q in points.items() if j != i]
        cell = voronoi_cell_clip(p, competitors, region)
        probs[i] = polygon_area(cell) / region.area if cell else 0.0
    return probs


def refine_nn_candidates(
    store: PublicStore, result: PrivateNNResult, exact_location: Point
) -> Hashable:
    """Client-side refinement: the true nearest object from the candidates."""
    if not result.candidates:
        raise QueryError("cannot refine an empty candidate set")
    return min(
        result.candidates,
        key=lambda i: store.point_of(i).distance_to(exact_location),
    )


def exact_nn_answer(store: PublicStore, exact_location: Point) -> Hashable:
    """Ground truth: the non-private NN (baseline for QoS metrics)."""
    nearest = store.nearest(exact_location, k=1)
    if not nearest:
        raise QueryError("nearest-neighbour query over an empty public store")
    return nearest[0]
