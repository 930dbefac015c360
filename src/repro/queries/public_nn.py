"""Public nearest-neighbour queries over private data (Figure 6b).

A public object (the figure's gas station) asks for its nearest mobile
user, but users are stored as cloaked regions.  The processor:

1. **prunes** with min/max distance dominance — user ``A`` is eliminated
   when some other region's *worst case* (``max_dist``) still beats ``A``'s
   *best case* (``min_dist``), exactly the reasoning the paper applies to
   eliminate A, B, C in favour of D;
2. **ranks** the surviving candidates with P(candidate is nearest), by
   Monte-Carlo integration over the uniform-in-region location model
   (exact closed forms for rectangle NN probabilities do not exist in
   general; ablation A5 studies the sample-count/accuracy trade-off).

Answer formats mirror the paper: candidate set, single most-probable user,
or full probability distribution (:class:`~repro.queries.probabilistic.NearestAnswer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.errors import QueryError
from repro.core.stores import PrivateStore
from repro.geometry.distances import max_dist, min_dist
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.queries.probabilistic import NearestAnswer
from repro.queries.public_knn import knn_candidate_users, sampled_squared_distances


@dataclass(frozen=True)
class PublicNNResult:
    """Answer to a public NN query over private data.

    Attributes:
        query: the public query point.
        answer: probabilistic NN distribution over candidate users.
        pruning_bound: the ``min over regions of max_dist`` used to prune.
        samples: Monte-Carlo samples used (0 when the answer was certain).
    """

    query: Point
    answer: NearestAnswer
    pruning_bound: float
    samples: int

    @property
    def candidates(self) -> set[Hashable]:
        return self.answer.candidates


def nn_candidate_users(
    store: PrivateStore, query: Point
) -> tuple[list[Hashable], float]:
    """Candidate users and the pruning bound.

    A user survives iff ``min_dist(query, region) <= m`` where
    ``m = min over users of max_dist(query, region)``: the user attaining
    ``m`` is within ``m`` wherever she actually is, so anyone whose whole
    region lies beyond ``m`` can never be nearest.  This is the ``k = 1``
    call of :func:`~repro.queries.public_knn.knn_candidate_users`.
    """
    return knn_candidate_users(store, query, 1)


def public_nn_query(
    store: PrivateStore,
    query: Point,
    samples: int = 4096,
    rng: np.random.Generator | None = None,
) -> PublicNNResult:
    """Probabilistic nearest private user to ``query``.

    Args:
        store: the private (cloaked) data store.
        query: the public query location.
        samples: Monte-Carlo draws for probability estimation; ignored when
            a single candidate survives pruning.
        rng: random generator (a fixed default seed keeps results
            reproducible when omitted).
    """
    if samples < 1:
        raise QueryError("samples must be positive")
    candidates, bound = nn_candidate_users(store, query)
    if len(candidates) == 1:
        answer = NearestAnswer({candidates[0]: 1.0})
        return PublicNNResult(query=query, answer=answer, pruning_bound=bound, samples=0)
    rng = rng if rng is not None else np.random.default_rng(0)
    probs = estimate_nn_probabilities(
        [store.region_of(c) for c in candidates], query, samples, rng
    )
    answer = NearestAnswer(dict(zip(candidates, probs)))
    return PublicNNResult(
        query=query, answer=answer, pruning_bound=bound, samples=samples
    )


def estimate_nn_probabilities(
    regions: Sequence[Rect],
    query: Point,
    samples: int,
    rng: np.random.Generator,
) -> list[float]:
    """Monte-Carlo P(region i holds the nearest user) for each region.

    Each user's location is drawn uniformly from her region, independently
    across users (the paper's uniformity assumption); the winner of each
    joint draw is tallied.  Fully vectorised: one ``(n_regions, samples)``
    distance matrix.
    """
    n = len(regions)
    if n == 0:
        return []
    d2 = sampled_squared_distances(regions, query, samples, rng)
    winners = np.argmin(d2, axis=0)
    counts = np.bincount(winners, minlength=n)
    return [float(c) / samples for c in counts]


def certain_nn_user(store: PrivateStore, query: Point) -> Hashable | None:
    """The guaranteed nearest user, when one exists.

    A user is certainly nearest when her *worst case* beats every other
    user's *best case* (``max_dist(q, R) <= min over others of
    min_dist(q, R')``).  Returns ``None`` when cloaking leaves genuine
    ambiguity — which is precisely the privacy working as intended.
    """
    candidates, _ = nn_candidate_users(store, query)
    if len(candidates) == 1:
        return candidates[0]
    for candidate in candidates:
        worst = max_dist(query, store.region_of(candidate))
        others_best = min(
            min_dist(query, store.region_of(other))
            for other in candidates
            if other != candidate
        )
        if worst <= others_best:
            return candidate
    return None


def exact_nn_user(exact_locations: dict[Hashable, Point], query: Point) -> Hashable:
    """Ground truth from exact locations (evaluation only)."""
    if not exact_locations:
        raise QueryError("nearest-neighbour query over an empty population")
    return min(exact_locations, key=lambda i: exact_locations[i].distance_to(query))
