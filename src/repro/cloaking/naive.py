"""Naive data-dependent cloaking (Figure 3a).

The region is a square *centred on the user* — clipped to the universe —
expanded equally in all directions until the privacy profile is satisfied.
The paper includes this algorithm as a cautionary tale: it can satisfy k,
A_min and A_max, yet an adversary immediately recovers the exact location
as the centre of the region.  It is implemented faithfully — including the
flaw — because the attack experiments (E2, E10) need it as the broken
baseline.  (Near the universe edge the clipping off-centres the region
slightly; the centre attack degrades only there.)
"""

from __future__ import annotations


from repro.cloaking.base import Cloaker, UserId
from repro.core.profiles import PrivacyRequirement
from repro.geometry.point import Point
from repro.geometry.rect import Rect


class NaiveCloaker(Cloaker):
    """Centred-square expansion cloaker.

    All searches are binary searches on the square's half-side against the
    vectorised population count / clipped area, both of which are monotone
    in the half-side.  The area window uses the *clipped* area, so A_min
    stays satisfied even for users in the universe's corners (as long as it
    fits in the universe at all).

    Args:
        bounds: the universe rectangle.
        precision: relative tolerance of the binary searches.
    """

    name = "naive"
    data_dependent = True

    def __init__(self, bounds: Rect, precision: float = 1e-6) -> None:
        super().__init__(bounds)
        if precision <= 0:
            raise ValueError("precision must be positive")
        self._precision = precision

    def config(self) -> dict:
        return {"precision": self._precision}

    def _cloak(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Rect:
        k_half = self._smallest_k_half_side(point, requirement.k)
        half = k_half
        if requirement.min_area > 0:
            half = max(half, self._half_side_for_area(point, requirement.min_area))
        if requirement.max_area is not None:
            # Shrink toward A_max, but never below the square that carries
            # the k guarantee (k wins over A_max).
            cap = self._half_side_for_area(point, requirement.max_area, at_most=True)
            half = min(half, max(cap, k_half))
        return self._region(point, half)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _region(self, point: Point, half: float) -> Rect:
        """The centred square of the given half-side, clipped to bounds."""
        return Rect.from_center(point, 2 * half, 2 * half).clipped(self.bounds)

    def _max_half_side(self, point: Point) -> float:
        """The half-side at which the clipped square covers the universe."""
        return max(
            point.x - self.bounds.min_x,
            self.bounds.max_x - point.x,
            point.y - self.bounds.min_y,
            self.bounds.max_y - point.y,
        )

    def _smallest_k_half_side(self, point: Point, k: int) -> float:
        """Smallest half-side whose centred square holds >= k users.

        Counting the unclipped square equals counting the clipped one
        because every user lies inside the universe.
        """
        hi = self._max_half_side(point)
        lo = 0.0
        while hi - lo > self._precision * max(hi, 1.0):
            mid = (lo + hi) / 2.0
            if self.count_in(self._region(point, mid)) >= k:
                hi = mid
            else:
                lo = mid
        return hi

    def _half_side_for_area(
        self, point: Point, target_area: float, at_most: bool = False
    ) -> float:
        """Half-side whose *clipped* square area meets ``target_area``.

        With ``at_most=False``: the smallest half-side with area >= target
        (the whole universe if the target exceeds the universe area).
        With ``at_most=True``: the largest half-side with area <= target.
        Clipped area is continuous and non-decreasing in the half-side, so
        both are binary searches.
        """
        hi = self._max_half_side(point)
        if self._region(point, hi).area <= target_area:
            return hi
        lo = 0.0
        while hi - lo > self._precision * max(hi, 1.0):
            mid = (lo + hi) / 2.0
            if self._region(point, mid).area >= target_area:
                hi = mid
            else:
                lo = mid
        return lo if at_most else hi
