"""Public k-nearest-neighbours queries over private data (extension).

Generalises Figure 6b from "my nearest mobile user" to "my k nearest
mobile users" — the query a dispatcher actually issues ("send the three
closest couriers").  Over cloaked regions the answer is probabilistic:

* **pruning** — user ``o`` can be among the k nearest only if fewer than
  ``k`` other users are *guaranteed* closer; user ``o'`` is guaranteed
  closer when ``max_dist(q, R_o') < min_dist(q, R_o)``;
* **probabilities** — P(o is in the true k-NN set) estimated by joint
  Monte-Carlo draws under the uniform-in-region model, exactly like the
  1-NN case but tallying top-k membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.errors import QueryError
from repro.core.stores import PrivateStore
from repro.geometry.distances import (
    hypot_at_most,
    kth_smallest_hypot,
    max_dist_axes,
    min_dist_axes,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class PublicKNNResult:
    """Probabilistic k-NN answer over cloaked users.

    Attributes:
        query: the public query point.
        k: neighbours requested.
        probabilities: candidate -> P(candidate in the true k-NN set).
            Probabilities sum to ~k (k slots are always filled when the
            store holds at least k users).
        samples: Monte-Carlo draws used (0 when pruning already decided).
    """

    query: Point
    k: int
    probabilities: Mapping[Hashable, float]
    samples: int

    @property
    def candidates(self) -> set[Hashable]:
        return {o for o, p in self.probabilities.items() if p > 0.0}

    def top(self) -> list[Hashable]:
        """The k most probable members (the dispatcher's short-list)."""
        ranked = sorted(self.probabilities.items(), key=lambda item: -item[1])
        return [o for o, _ in ranked[: self.k]]

    @property
    def certain_members(self) -> set[Hashable]:
        """Users guaranteed to be in the k-NN set (probability 1)."""
        return {o for o, p in self.probabilities.items() if p >= 1.0 - 1e-12}

    @property
    def expected_overlap(self) -> float:
        """Expected |reported top-k ∩ true k-NN| (sums the top-k probs)."""
        ranked = sorted(self.probabilities.values(), reverse=True)
        return float(sum(ranked[: self.k]))


def knn_candidate_users(
    store: PrivateStore, query: Point, k: int
) -> tuple[list[Hashable], float]:
    """Candidates and the pruning bound for a public k-NN query.

    The bound is the k-th smallest ``max_dist``: k users are certainly
    within it, so anyone whose whole region lies beyond can never crack
    the top k.  Candidates are the users with ``min_dist <= bound``, in
    :meth:`PrivateStore.items` order.  Both distances are evaluated over
    the store's frozen bounds column at once and equal the scalar
    ``max_dist`` / ``min_dist`` bit for bit (see
    :mod:`repro.geometry.distances`).
    """
    if len(store) == 0:
        raise QueryError("nearest-neighbour query over an empty private store")
    if k < 1:
        raise QueryError(f"k must be positive, got {k}")
    ids, bounds = store.snapshot_arrays()
    bound = kth_smallest_hypot(*max_dist_axes(query, bounds), min(k, len(ids)))
    rows = np.flatnonzero(hypot_at_most(*min_dist_axes(query, bounds), bound))
    return [ids[row] for row in rows.tolist()], bound


def public_knn_query(
    store: PrivateStore,
    query: Point,
    k: int,
    samples: int = 4096,
    rng: np.random.Generator | None = None,
) -> PublicKNNResult:
    """Probabilistic k nearest private users to ``query``.

    Args:
        store: the cloaked private data store.
        query: the public query location.
        k: neighbours wanted (capped at the store size).
        samples: Monte-Carlo draws; skipped when pruning leaves exactly k.
        rng: random generator (deterministic default when omitted).
    """
    if samples < 1:
        raise QueryError("samples must be positive")
    candidates, _ = knn_candidate_users(store, query, k)
    k = min(k, len(store))
    if len(candidates) == k:
        return PublicKNNResult(
            query=query,
            k=k,
            probabilities={c: 1.0 for c in candidates},
            samples=0,
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    regions = [store.region_of(c) for c in candidates]
    probs = estimate_knn_probabilities(regions, query, k, samples, rng)
    return PublicKNNResult(
        query=query,
        k=k,
        probabilities=dict(zip(candidates, probs)),
        samples=samples,
    )


def estimate_knn_probabilities(
    regions: Sequence[Rect],
    query: Point,
    k: int,
    samples: int,
    rng: np.random.Generator,
) -> list[float]:
    """Monte-Carlo P(region i's user is among the k nearest).

    One joint draw places every user uniformly in her region; the k
    smallest distances win that draw.  Vectorised over all draws.
    """
    n = len(regions)
    if n == 0:
        return []
    k = min(k, n)
    d2 = sampled_squared_distances(regions, query, samples, rng)
    # Indices of the k smallest distances per sample column.
    winners = np.argpartition(d2, k - 1, axis=0)[:k, :]
    counts = np.bincount(winners.ravel(), minlength=n)
    return [float(c) / samples for c in counts]


def sampled_squared_distances(
    regions: Sequence[Rect],
    query: Point,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(n_regions, samples)`` squared distances from ``query`` to joint draws.

    Draw ``j`` places every user uniformly in their region, independently:
    region by region, x then y, and an axis of zero width is its one
    coordinate rather than a draw.  That order fixes the generator's
    stream, so both probability estimators see the same draws.
    """
    n = len(regions)
    xs = np.empty((n, samples))
    ys = np.empty((n, samples))
    for i, region in enumerate(regions):
        xs[i] = (
            rng.uniform(region.min_x, region.max_x, size=samples)
            if region.width > 0
            else region.min_x
        )
        ys[i] = (
            rng.uniform(region.min_y, region.max_y, size=samples)
            if region.height > 0
            else region.min_y
        )
    return (xs - query.x) ** 2 + (ys - query.y) ** 2


def exact_knn_users(
    exact_locations: dict[Hashable, Point], query: Point, k: int
) -> list[Hashable]:
    """Ground truth from exact locations (evaluation only)."""
    if not exact_locations:
        raise QueryError("k-NN query over an empty population")
    ranked = sorted(
        exact_locations, key=lambda i: exact_locations[i].distance_to(query)
    )
    return ranked[: min(k, len(ranked))]
