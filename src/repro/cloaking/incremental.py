"""Incremental cloak evaluation (Section 5.3, technique 1).

"Computing a cloaked region at time t should benefit from the computation
of the cloaked region of the same user at time t-1."  This wrapper caches
the last region per user and, on the next request, *revalidates* it instead
of recomputing: the cached region is reused when

* the user is still inside it,
* the requirement has not changed,
* it still contains at least k users (the population moved too), and
* its area still fits the requirement's window.

Revalidation is one vectorised count — far cheaper than a full cloak for
every data-dependent algorithm and still cheaper than a pyramid walk.  The
trade-off (ablation A4): a long-lived region slowly drifts away from the
*smallest* satisfying region, inflating candidate sets downstream, so the
wrapper supports a ``max_reuses`` freshness bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloaking.base import Cloaker, CloakResult, UserId
from repro.core.profiles import PrivacyRequirement
from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass
class _CacheEntry:
    region: Rect
    requirement: PrivacyRequirement
    reuses: int = 0


class IncrementalCloaker:
    """Caching wrapper around any :class:`Cloaker`.

    Exposes the same population-maintenance and cloak interface; location
    updates are forwarded to the inner cloaker untouched (its indexes stay
    current), only the per-user region cache is layered on top.

    Args:
        inner: the wrapped cloaking algorithm.
        max_reuses: regions are recomputed after this many consecutive
            reuses regardless of validity (``None`` = unbounded).
    """

    def __init__(self, inner: Cloaker, max_reuses: int | None = None) -> None:
        if max_reuses is not None and max_reuses < 0:
            raise ValueError("max_reuses must be non-negative")
        self.inner = inner
        self._max_reuses = max_reuses
        self._cache: dict[UserId, _CacheEntry] = {}

    @property
    def name(self) -> str:
        return f"incremental({self.inner.name})"

    def config(self) -> dict:
        """Constructor keyword arguments beyond ``inner``."""
        return {"max_reuses": self._max_reuses}

    @property
    def bounds(self) -> Rect:
        return self.inner.bounds

    @property
    def stats(self):
        return self.inner.stats

    # ------------------------------------------------------------------
    # Population maintenance (forwarded)
    # ------------------------------------------------------------------

    def add_user(self, user_id: UserId, point: Point) -> None:
        self.inner.add_user(user_id, point)

    def remove_user(self, user_id: UserId) -> None:
        self.inner.remove_user(user_id)
        self._cache.pop(user_id, None)

    def move_user(self, user_id: UserId, point: Point) -> None:
        self.inner.move_user(user_id, point)

    def location_of(self, user_id: UserId) -> Point:
        return self.inner.location_of(user_id)

    def user_count(self) -> int:
        return self.inner.user_count()

    def users(self):
        return self.inner.users()

    def count_in(self, region: Rect) -> int:
        return self.inner.count_in(region)

    def spatial_index(self):
        return self.inner.spatial_index()

    def snapshot_arrays(self):
        return self.inner.snapshot_arrays()

    def partition_key(self, user_id: UserId, point: Point, requirement: PrivacyRequirement):
        """Forward the sharing key so batch execution composes with caching.

        Sharing a cached region with a same-partition user is sound: the
        cached region was revalidated to hold >= k users and contains the
        whole partition cell, hence the other user too.
        """
        return self.inner.partition_key(user_id, point, requirement)

    def invalidate(self, user_id: UserId | None = None) -> None:
        """Drop the cached region for one user (or all users)."""
        if user_id is None:
            self._cache.clear()
        else:
            self._cache.pop(user_id, None)

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------

    def cloak(self, user_id: UserId, requirement: PrivacyRequirement) -> CloakResult:
        point = self.inner.location_of(user_id)
        entry = self._cache.get(user_id)
        if entry is not None and self._still_valid(entry, point, requirement):
            entry.reuses += 1
            self.inner.stats.reuses += 1
            return CloakResult(
                region=entry.region,
                user_count=self.inner.count_in(entry.region),
                requirement=requirement,
                reused=True,
            )
        result = self.inner.cloak(user_id, requirement)
        self._cache[user_id] = _CacheEntry(result.region, requirement)
        return result

    def _still_valid(
        self, entry: _CacheEntry, point: Point, requirement: PrivacyRequirement
    ) -> bool:
        if entry.requirement != requirement:
            return False
        if self._max_reuses is not None and entry.reuses >= self._max_reuses:
            return False
        if not entry.region.contains_point(point):
            return False
        if not requirement.area_satisfied(entry.region.area):
            # Area never changes after construction, but the requirement
            # equality check above makes this reachable only when the
            # original cloak was itself best-effort; recompute then.
            return False
        return self.inner.count_in(entry.region) >= requirement.k
