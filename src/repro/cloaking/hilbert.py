"""Hilbert-curve k-partition cloaking (extension).

The paper's future-work direction asks for cloaking that is both scalable
and resistant to reverse engineering.  This extension (the "Hilbert Cloak"
family, later formalised by Kalnis et al., TKDE 2007) sorts all users along
a Hilbert space-filling curve and partitions the sorted sequence into
consecutive buckets of k users.  The cloaked region of a user is the MBR of
her bucket.

Because every user in a bucket maps to the *same* region, the scheme is
*reciprocal*: the adversary's posterior over "who issued this region" is
uniform over at least k users even with full knowledge of the algorithm and
all user locations.  The attack experiments use it as the strong baseline
that data-dependent schemes are measured against.
"""

from __future__ import annotations

from typing import Hashable

from repro.cloaking.base import Cloaker, UserId
from repro.core.profiles import PrivacyRequirement
from repro.geometry.point import Point
from repro.geometry.rect import Rect


def hilbert_d(order: int, x: int, y: int) -> int:
    """Distance along the order-``order`` Hilbert curve of cell ``(x, y)``.

    Classic bit-twiddling conversion (Wikipedia's ``xy2d``); the curve
    traverses a ``2^order x 2^order`` grid.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"cell ({x}, {y}) outside order-{order} curve")
    rx = ry = 0
    d = 0
    s = side // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


class HilbertCloaker(Cloaker):
    """Reciprocal cloaker: consecutive-k buckets along a Hilbert curve.

    The sorted order is rebuilt lazily after location changes; a cloak
    request is then a binary-search-free bucket lookup over the cached
    order (rank // k arithmetic).

    Args:
        bounds: the universe rectangle.
        order: Hilbert curve order; the curve resolves ``2^order`` cells
            per side.  Users in the same curve cell tie-break by id hash so
            bucketing stays deterministic.
    """

    name = "hilbert"
    data_dependent = False

    def __init__(self, bounds: Rect, order: int = 10) -> None:
        super().__init__(bounds)
        if order < 1:
            raise ValueError("order must be >= 1")
        self._order = order
        self._sorted: list[UserId] | None = None
        self._rank: dict[UserId, int] | None = None

    def config(self) -> dict:
        return {"order": self._order}

    def curve_index(self, point: Point) -> int:
        """Hilbert index of the curve cell containing ``point``."""
        side = 1 << self._order
        x = min(int((point.x - self.bounds.min_x) / self.bounds.width * side), side - 1)
        y = min(int((point.y - self.bounds.min_y) / self.bounds.height * side), side - 1)
        return hilbert_d(self._order, x, y)

    def _cloak(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Rect:
        members = self.bucket_of(user_id, requirement.k)
        mbr = Rect.from_points(self.location_of(m) for m in members)
        # A_min enforcement preserves reciprocity because it depends only on
        # the bucket, never on the requesting user.
        if mbr.area < requirement.min_area:
            grown = mbr.scaled_to_area(requirement.min_area, bounds=self.bounds)
            mbr = grown.union_mbr(mbr)
        return mbr

    def bucket_of(self, user_id: UserId, k: int) -> list[UserId]:
        """The ids sharing ``user_id``'s k-bucket (reciprocity witnesses).

        The sorted user sequence is chopped into ``n // k`` buckets; the
        last bucket takes the remainder, so every bucket holds at least
        ``k`` users and every member of a bucket maps to the same bucket —
        the reciprocity property.
        """
        order, ranks = self._sorted_users()
        n = len(order)
        if n < k:
            return list(order)
        rank = ranks[user_id]
        n_buckets = n // k
        bucket = min(rank // k, n_buckets - 1)
        start = bucket * k
        end = n if bucket == n_buckets - 1 else start + k
        return order[start:end]

    def partition_key(
        self, user_id: UserId, point: Point, requirement: PrivacyRequirement
    ) -> Hashable:
        # The shared unit is the k-bucket, not the curve cell: bucket
        # boundaries depend on ranks, so two users in one curve cell can
        # straddle a boundary.  The bucket's start rank identifies it.
        order, ranks = self._sorted_users()
        n = len(order)
        k = requirement.k
        if n < k:
            return 0
        return min(ranks[user_id] // k, n // k - 1)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _on_add(self, user_id: UserId, point: Point) -> None:
        self._sorted = None

    def _on_remove(self, user_id: UserId, point: Point) -> None:
        self._sorted = None

    def _on_move(self, user_id: UserId, old: Point, new: Point) -> None:
        self._sorted = None

    def _sorted_users(self) -> tuple[list[UserId], dict[UserId, int]]:
        if self._sorted is None:
            self._sorted = sorted(
                self._locations,
                key=lambda uid: (self.curve_index(self._locations[uid]), str(uid)),
            )
            self._rank = {uid: i for i, uid in enumerate(self._sorted)}
        return self._sorted, self._rank
