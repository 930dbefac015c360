"""Cloaking algorithm interface (Section 5 of the paper).

A *cloaker* is the algorithmic core of the Location Anonymizer: it tracks
the current exact locations of all subscribed users and, on request, blurs
one user's point location into a cloaked spatial region satisfying her
:class:`~repro.core.profiles.PrivacyRequirement`.

The paper's three requirements for the cloaked region map to this module as
follows:

1. *k-anonymity + area window* — every :class:`CloakResult` records the
   achieved user count and area so callers (and tests) can check
   satisfaction; the anonymizer is explicitly best-effort for
   contradictory profiles.
2. *No reverse engineering* — not enforced here; the
   :mod:`repro.attacks` package quantifies each algorithm's leakage.
3. *Computational efficiency* — algorithms keep incremental state
   (indexes, counters) updated on every location change so a cloak request
   never scans the full population unless the algorithm is inherently
   data-dependent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Iterator

import numpy as np

from repro.core.errors import CloakingError, RegistrationError
from repro.core.profiles import PrivacyRequirement
from repro.geometry.point import Point
from repro.geometry.rect import Rect

UserId = Hashable


@dataclass(frozen=True, slots=True)
class CloakResult:
    """The outcome of cloaking one user's location.

    Attributes:
        region: the cloaked spatial region sent to the database server.
        user_count: number of subscribed users inside ``region`` (the
            requesting user included) at cloak time.
        requirement: the requirement the region was built for.
        reused: True when an incremental wrapper returned a cached region
            instead of recomputing (Section 5.3).
    """

    region: Rect
    user_count: int
    requirement: PrivacyRequirement
    reused: bool = False

    @property
    def k_satisfied(self) -> bool:
        """Does the region contain at least the required k users?"""
        return self.user_count >= self.requirement.k

    @property
    def area_satisfied(self) -> bool:
        """Does the region's area fall inside [A_min, A_max]?"""
        return self.requirement.area_satisfied(self.region.area)

    @property
    def fully_satisfied(self) -> bool:
        return self.k_satisfied and self.area_satisfied

    @property
    def area(self) -> float:
        return self.region.area


@dataclass
class CloakerStats:
    """Bookkeeping counters exposed by every cloaker (for E4)."""

    cloaks: int = 0
    updates: int = 0
    reuses: int = 0
    extra: dict = field(default_factory=dict)


class Cloaker(ABC):
    """Base class: user location bookkeeping + the cloak entry point.

    Subclasses implement :meth:`_cloak` and may override the location
    mutation hooks to maintain private index structures.
    """

    #: Short algorithm name used in experiment tables.
    name: str = "abstract"
    #: Whether the algorithm derives regions from user data (Figure 3)
    #: or from a space partitioning (Figure 4).
    data_dependent: bool = True

    def __init__(self, bounds: Rect) -> None:
        if bounds.is_degenerate:
            raise ValueError("universe bounds must have positive area")
        self.bounds = bounds
        self._locations: dict[UserId, Point] = {}
        self.stats = CloakerStats()
        self._xs: np.ndarray | None = None
        self._ys: np.ndarray | None = None
        self._ids: list[UserId] = []

    # ------------------------------------------------------------------
    # Population maintenance
    # ------------------------------------------------------------------

    def add_user(self, user_id: UserId, point: Point) -> None:
        """Register a user at ``point``."""
        if user_id in self._locations:
            raise RegistrationError(f"user already registered: {user_id!r}")
        if not self.bounds.contains_point(point):
            raise RegistrationError(f"{point} outside universe {self.bounds}")
        self._locations[user_id] = point
        self._invalidate_arrays()
        self._on_add(user_id, point)
        self.stats.updates += 1

    def remove_user(self, user_id: UserId) -> None:
        """Unregister a user."""
        point = self._locations.pop(user_id, None)
        if point is None:
            raise RegistrationError(f"unknown user: {user_id!r}")
        self._invalidate_arrays()
        self._on_remove(user_id, point)
        self.stats.updates += 1

    def move_user(self, user_id: UserId, point: Point) -> None:
        """Update a registered user's exact location."""
        old = self._locations.get(user_id)
        if old is None:
            raise RegistrationError(f"unknown user: {user_id!r}")
        if not self.bounds.contains_point(point):
            raise RegistrationError(f"{point} outside universe {self.bounds}")
        self._locations[user_id] = point
        self._invalidate_arrays()
        self._on_move(user_id, old, point)
        self.stats.updates += 1

    def location_of(self, user_id: UserId) -> Point:
        """The user's current exact location."""
        try:
            return self._locations[user_id]
        except KeyError:
            raise RegistrationError(f"unknown user: {user_id!r}") from None

    def user_count(self) -> int:
        return len(self._locations)

    def users(self) -> Iterator[UserId]:
        return iter(self._locations)

    def count_in(self, region: Rect) -> int:
        """Number of registered users inside ``region`` (vectorised)."""
        if not self._locations:
            return 0
        xs, ys = self._arrays()
        inside = (
            (xs >= region.min_x)
            & (xs <= region.max_x)
            & (ys >= region.min_y)
            & (ys <= region.max_y)
        )
        return int(np.count_nonzero(inside))

    def snapshot_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only coordinate arrays of all registered users.

        The public accessor for callers (metrics, experiments) that need
        vectorised geometry over the population — the returned views are
        non-writeable so the cloaker's internal cache stays consistent.
        """
        xs, ys = self._arrays()
        xs_view = xs.view()
        ys_view = ys.view()
        xs_view.flags.writeable = False
        ys_view.flags.writeable = False
        return xs_view, ys_view

    def snapshot_ids(self) -> list[UserId]:
        """User ids aligned row-for-row with :meth:`snapshot_arrays`.

        The bulk cloaking kernels (:mod:`repro.engine.cloak`) use this to
        map requested users onto population-array rows.
        """
        self._arrays()
        return list(self._ids)

    def config(self) -> dict:
        """Constructor keyword arguments beyond ``bounds``, JSON-clean:
        ``type(self)(bounds, **self.config())`` is an equal, empty cloaker.
        This is how a mechanism describes itself to :mod:`repro.persist`,
        which finds its class by name in :data:`repro.cloaking.ALL_CLOAKERS`.
        """
        return {}

    def spatial_index(self):
        """The internal spatial index, when the algorithm keeps one.

        Space-dependent cloakers override this so the observability layer
        can report anonymizer-side index work next to the server stores'
        (``PrivacySystem.telemetry()["indexes"]``).  Returns ``None`` for
        purely array-based algorithms.
        """
        return None

    def users_in(self, region: Rect) -> list[UserId]:
        """Ids of registered users inside ``region``."""
        if not self._locations:
            return []
        xs, ys = self._arrays()
        inside = (
            (xs >= region.min_x)
            & (xs <= region.max_x)
            & (ys >= region.min_y)
            & (ys <= region.max_y)
        )
        return [self._ids[i] for i in np.nonzero(inside)[0]]

    # ------------------------------------------------------------------
    # Cloaking
    # ------------------------------------------------------------------

    def cloak(self, user_id: UserId, requirement: PrivacyRequirement) -> CloakResult:
        """Blur ``user_id``'s current location per ``requirement``.

        Best effort (Section 5): the result always contains the user and is
        always clipped to the universe; k / area satisfaction is recorded on
        the result rather than raised, except that a requirement larger than
        the whole population cannot be met at all and raises
        :class:`CloakingError`.
        """
        point = self.location_of(user_id)
        if requirement.k > len(self._locations):
            raise CloakingError(
                f"k={requirement.k} exceeds subscribed population "
                f"{len(self._locations)}"
            )
        region = self._cloak(user_id, point, requirement)
        region = region.clipped(self.bounds)
        if not region.contains_point(point):  # pragma: no cover - invariant
            raise CloakingError(f"algorithm {self.name} lost its own user")
        self.stats.cloaks += 1
        return CloakResult(
            region=region,
            user_count=self.count_in(region),
            requirement=requirement,
        )

    @abstractmethod
    def _cloak(self, user_id: UserId, point: Point, requirement: PrivacyRequirement) -> Rect:
        """Produce the (unclipped) cloaked region for ``point``."""

    def partition_key(
        self, user_id: UserId, point: Point, requirement: PrivacyRequirement
    ) -> Hashable | None:
        """Sharing key for shared execution (Section 5.3).

        Space-dependent algorithms return a key identifying the partition
        the user falls in: two users with the same key and requirement get
        the same region, so the computation can be shared (the scalar
        fallback of :func:`repro.engine.cloak.bulk_cloak` does).
        Data-dependent algorithms return ``None`` (no sharing possible).
        """
        return None

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _on_add(self, user_id: UserId, point: Point) -> None:
        """Hook: a user appeared at ``point``."""

    def _on_remove(self, user_id: UserId, point: Point) -> None:
        """Hook: the user previously at ``point`` left."""

    def _on_move(self, user_id: UserId, old: Point, new: Point) -> None:
        """Hook: a user moved; default is remove + add."""
        self._on_remove(user_id, old)
        self._on_add(user_id, new)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _invalidate_arrays(self) -> None:
        self._xs = None
        self._ys = None

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Lazily rebuilt coordinate arrays for vectorised counting."""
        if self._xs is None:
            self._ids = list(self._locations)
            self._xs = np.fromiter(
                (self._locations[i].x for i in self._ids), dtype=float, count=len(self._ids)
            )
            self._ys = np.fromiter(
                (self._locations[i].y for i in self._ids), dtype=float, count=len(self._ids)
            )
        return self._xs, self._ys


def enforce_area_window(
    region: Rect,
    requirement: PrivacyRequirement,
    bounds: Rect,
    min_region: Rect | None = None,
) -> Rect:
    """Best-effort A_min / A_max adjustment shared by data-dependent cloakers.

    Grows ``region`` symmetrically to reach A_min and shrinks it toward
    A_max, but never shrinks below ``min_region`` (the rectangle that
    carries the k-anonymity guarantee).  The k requirement wins over A_max,
    matching the paper's priority order where requirement 1 (k users) is
    "the minimum requirement that any location anonymizer should provide".
    """
    result = region
    if result.area < requirement.min_area:
        result = result.scaled_to_area(requirement.min_area, bounds=bounds)
        if min_region is not None:
            result = result.union_mbr(min_region)
    if requirement.max_area is not None and result.area > requirement.max_area:
        floor_area = min_region.area if min_region is not None else 0.0
        target = max(requirement.max_area, floor_area)
        shrunk = result.scaled_to_area(target, bounds=bounds)
        if min_region is None or shrunk.contains_rect(min_region):
            result = shrunk
    return result.clipped(bounds)
