"""Private range queries over public data (Section 6.2.1, Figure 5a).

The user asks "all public objects within ``radius`` of me", but the server
only knows her cloaked region R.  The server therefore returns the
*candidate set*: every object that could be within ``radius`` of **some**
point of R — i.e. every object within ``radius`` of the region itself.
That locus is the Minkowski sum of R with a disc (the paper's "rounded
rectangle"); the paper notes a real implementation would approximate it by
its MBR.  Both variants are provided (ablation A1):

* ``exact`` — keep objects with ``min_dist(point, R) <= radius``;
* ``mbr``   — keep objects inside ``R.expanded(radius)`` (a superset that
  additionally admits objects near the four rounded corners).

The client then refines the candidate list locally against her exact
location (:func:`refine_range_candidates`), preserving both privacy and the
exact answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Literal, Sequence

from repro.core.errors import QueryError
from repro.core.stores import PublicStore
from repro.geometry.distances import min_dist
from repro.geometry.point import Point
from repro.geometry.rect import Rect

CandidateMethod = Literal["exact", "mbr"]


@dataclass(frozen=True)
class PrivateRangeResult:
    """Server-side answer to a private range query.

    Attributes:
        region: the cloaked query region the server saw.
        radius: the query radius.
        candidates: ids of objects possibly within ``radius`` of the user.
        method: which candidate region was used.
    """

    region: Rect
    radius: float
    candidates: tuple[Hashable, ...]
    method: CandidateMethod

    @property
    def transmission_size(self) -> int:
        """Number of objects shipped to the client (communication cost)."""
        return len(self.candidates)


def private_range_query(
    store: PublicStore,
    region: Rect,
    radius: float,
    method: CandidateMethod = "exact",
) -> PrivateRangeResult:
    """Candidate set of a private range query.

    Guarantee: for every point ``p`` in ``region``, every object within
    ``radius`` of ``p`` is in the candidate set (no false negatives).

    Args:
        store: the public data store.
        region: the cloaked region produced by the anonymizer.
        radius: the user's range predicate, must be non-negative.
        method: ``"exact"`` rounded-rectangle filtering or ``"mbr"``
            expanded-rectangle approximation.
    """
    if radius < 0:
        raise QueryError(f"radius must be non-negative, got {radius}")
    window = region.expanded(radius)
    ids = store.range_query(window)
    if method == "mbr":
        kept: Sequence[Hashable] = ids
    elif method == "exact":
        kept = [i for i in ids if min_dist(store.point_of(i), region) <= radius]
    else:
        raise QueryError(f"unknown candidate method: {method!r}")
    return PrivateRangeResult(
        region=region, radius=radius, candidates=tuple(kept), method=method
    )


def refine_range_candidates(
    store: PublicStore,
    result: PrivateRangeResult,
    exact_location: Point,
) -> list[Hashable]:
    """Client-side refinement: the true answer from the candidate set.

    This models the mobile user's local post-processing step; it is the
    only place the exact location meets the data, and it runs on the
    client, never the server.
    """
    return [
        i
        for i in result.candidates
        if store.point_of(i).distance_to(exact_location) <= result.radius
    ]


def exact_range_answer(
    store: PublicStore, exact_location: Point, radius: float
) -> list[Hashable]:
    """Ground truth: the non-private answer (baseline for QoS metrics)."""
    if radius < 0:
        raise QueryError(f"radius must be non-negative, got {radius}")
    window = Rect.from_center(exact_location, 2 * radius, 2 * radius)
    return [
        i
        for i in store.range_query(window)
        if store.point_of(i).distance_to(exact_location) <= radius
    ]
