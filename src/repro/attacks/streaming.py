"""Streaming (incremental) forms of the offline attack estimators.

The attack library runs offline: :class:`~repro.attacks.density.
DensityModel` is fitted on a finished point sample, :class:`~repro.
attacks.linkage.MaxSpeedLinkageAttack` keeps every step it ever saw, and
:func:`~repro.attacks.posterior.posterior_anonymity` replays the cloaker
per victim.  A *monitor* (repro.obs.risk) needs the same estimates
maintained event-by-event in bounded memory while the system serves
traffic.  This module provides that streaming interface; the batch
estimators stay untouched and serve as the conformance oracles
(``tests/property/test_prop_risk_streaming.py`` proves agreement on
identical observation sequences).

Three adapters:

- :class:`StreamingDensityModel` — a :class:`DensityModel` whose grid is
  maintained under add/move/retire updates instead of one-shot ``fit``;
  at every point it equals ``DensityModel().fit(current positions)``.
- :class:`StreamingLinkageColumns` — the max-speed reachability
  intersection as one row of columns per user (running shrinkage sum
  instead of the unbounded ``steps`` list), updated row by row or one
  bulk publication at a time; step-for-step identical to
  :class:`MaxSpeedLinkageAttack`.
- :class:`StreamingPosteriorIndex` — rolling region-bucket index
  approximating the inversion set: users currently publishing an equal
  region form one anonymity bucket.  Under uniform requirements and a
  deterministic snapshot cloaker this *is* the inversion set (every user
  in the published region R with cloak(user) == R publishes R), which
  the conformance suite checks against :func:`posterior_anonymity`.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.attacks.density import DensityModel
from repro.attacks.posterior import regions_equal
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: Rounding (decimal places) used to key regions for exact-bucket
#: grouping; matches the 1e-9 tolerance of ``regions_equal``.
_KEY_DECIMALS = 9


class StreamingDensityModel(DensityModel):
    """A density grid maintained incrementally under population churn.

    Inherits every estimator (``posterior_in``, ``map_point``,
    ``effective_anonymity``) unchanged — only the way counts enter the
    grid differs.  Out-of-bounds positions are tracked but count nothing,
    mirroring ``fit``'s skip, so a later move into bounds is picked up.
    """

    def __init__(self, bounds: Rect, resolution: int = 32) -> None:
        super().__init__(bounds, resolution)
        self._cells: dict[Hashable, tuple[int, int] | None] = {}
        self._frame = (*bounds.as_tuple(), bounds.width, bounds.height)

    def _cell_of(self, x: float, y: float) -> tuple[int, int] | None:
        min_x, min_y, max_x, max_y, width, height = self._frame
        if not (min_x <= x <= max_x and min_y <= y <= max_y):
            return None
        res = self.resolution
        col = min(int((x - min_x) / width * res), res - 1)
        row = min(int((y - min_y) / height * res), res - 1)
        return row, col

    def admit(self, user: Hashable, x: float, y: float) -> None:
        """Start counting ``user`` at (x, y); re-admission moves instead."""
        if user in self._cells:
            self.move(user, x, y)
            return
        cell = self._cell_of(x, y)
        self._cells[user] = cell
        if cell is not None:
            self._counts[cell] += 1

    def move(self, user: Hashable, x: float, y: float) -> None:
        """Shift ``user``'s count to the cell containing the new position.

        Unknown users are ignored: the monitor only models the admitted
        (anonymizer-side) population, not passive world members.
        """
        old = self._cells.get(user)
        if user not in self._cells:
            return
        new = self._cell_of(x, y)
        if new == old:
            return
        if old is not None:
            self._counts[old] -= 1
        if new is not None:
            self._counts[new] += 1
        self._cells[user] = new

    def retire(self, user: Hashable) -> None:
        """Stop counting ``user`` (no-op when unknown)."""
        cell = self._cells.pop(user, None)
        if cell is not None:
            self._counts[cell] -= 1

    @property
    def population(self) -> int:
        """Users currently tracked (in- or out-of-bounds)."""
        return len(self._cells)


#: Linkage column layout: the feasible box (min x, min y, max x, max y),
#: the last observation time, steps, inconsistent steps, shrinkage sum.
_T, _STEPS, _INCONSISTENT, _SHRINKAGE = 4, 5, 6, 7


class StreamingLinkageColumns:
    """Max-speed reachability for every publishing user, one row each.

    The refinement of :class:`MaxSpeedLinkageAttack`::

        F_0 = R_0
        F_t = R_t ∩ expand(F_(t-1), v_max * (t - t_prev))

    as running sums in one row per user, following the user's current
    pseudonym (rotation restarts the row: the defense being measured).
    Shrinkage is area(feasible)/area(observed), 1.0 when the speed bound
    proves inconsistent, 0.0 for a zero-area region.  :meth:`observe` is
    the pure-Python row path, :meth:`observe_many` the numpy bulk path;
    both equal :class:`MaxSpeedLinkageAttack` step for step.
    """

    def __init__(self, max_speed: float = 0.0) -> None:
        if max_speed < 0:
            raise ValueError("max_speed must be non-negative")
        self.max_speed = max_speed
        self._row: dict[Hashable, int] = {}
        self._users: list[Hashable] = []
        self._pseudonyms: list[Hashable] = []
        self._cols = np.zeros((64, 8))

    def __len__(self) -> int:
        return len(self._users)

    def _start(self, user: Hashable, pseudonym: Hashable) -> int:
        """The row that starts ``user``'s track under ``pseudonym``."""
        row = self._row.get(user)
        if row is None:
            row = self._row[user] = len(self._users)
            self._users.append(user)
            self._pseudonyms.append(pseudonym)
            if row == len(self._cols):
                self._cols = np.concatenate([self._cols, np.zeros((row // 4 + 64, 8))])
        else:
            self._pseudonyms[row] = pseudonym
        return row

    def observe(self, user: Hashable, pseudonym: Hashable, t: float, box) -> float:
        """Feed ``user``'s region ``box`` (its sides) at ``t``; the step's shrinkage."""
        min_x, min_y, max_x, max_y = box
        row = self._row.get(user)
        if row is None or self._pseudonyms[row] != pseudonym:
            row = self._start(user, pseudonym)
            self._cols[row] = (*box, t, 0.0, 0.0, 0.0)  # F_0 = R_0: no reach
        fx0, fy0, fx1, fy1, last_t, steps, bad, total = self._cols[row].tolist()
        if t < last_t:
            raise ValueError("observations must be time-ordered")
        reach = self.max_speed * (t - last_t)
        fx0, fy0 = max(fx0 - reach, min_x), max(fy0 - reach, min_y)
        fx1, fy1 = min(fx1 + reach, max_x), min(fy1 + reach, max_y)
        area = (max_x - min_x) * (max_y - min_y)
        if fx0 > fx1 or fy0 > fy1:
            fx0, fy0, fx1, fy1 = box
            shrinkage = 1.0
            bad += 1
        elif area == 0.0:
            shrinkage = 0.0
        else:
            shrinkage = (fx1 - fx0) * (fy1 - fy0) / area
        self._cols[row] = (fx0, fy0, fx1, fy1, t, steps + 1, bad, total + shrinkage)
        return shrinkage

    def observe_many(
        self, users: Sequence, pseudonyms: Sequence, t: float, boxes: np.ndarray
    ) -> None:
        """Feed a bulk publication at ``t``: ``boxes[i]`` is ``users[i]``'s
        region under ``pseudonyms[i]``.  A repeated user takes the row path."""
        if len(set(users)) < len(users):
            for user, pseudonym, box in zip(users, pseudonyms, boxes.tolist()):
                self.observe(user, pseudonym, t, box)
            return
        get, names = self._row.get, self._pseudonyms
        rows = [get(user, -1) for user in users]
        fresh = np.array(
            [row < 0 or names[row] != p for row, p in zip(rows, pseudonyms)], bool
        )
        for i in np.flatnonzero(fresh).tolist():
            rows[i] = self._start(users[i], pseudonyms[i])
        cols = self._cols[rows]
        cols[fresh, :_T], cols[fresh, _T], cols[fresh, _STEPS:] = boxes[fresh], t, 0.0
        if (t < cols[:, _T]).any():
            raise ValueError("observations must be time-ordered")
        reach = (self.max_speed * (t - cols[:, _T]))[:, None]
        lo = np.maximum(cols[:, 0:2] - reach, boxes[:, 0:2])
        hi = np.minimum(cols[:, 2:4] + reach, boxes[:, 2:4])
        disjoint = (lo > hi).any(axis=1)
        feasible = np.where(disjoint[:, None], boxes, np.hstack([lo, hi]))
        area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        kept = (feasible[:, 2] - feasible[:, 0]) * (feasible[:, 3] - feasible[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            shrinkage = np.where(disjoint, 1.0, np.where(area == 0.0, 0.0, kept / area))
        cols[:, :_T] = feasible
        cols[:, _T] = t
        cols[:, _STEPS] += 1.0
        cols[:, _INCONSISTENT] += disjoint
        cols[:, _SHRINKAGE] += shrinkage
        self._cols[rows] = cols

    def retire(self, user: Hashable) -> None:
        """Drop ``user``'s row (no-op when unknown)."""
        row = self._row.pop(user, None)
        if row is None:
            return
        moved, pseudonym = self._users.pop(), self._pseudonyms.pop()
        if row < len(self._users):  # the last row fills the gap
            self._users[row], self._pseudonyms[row] = moved, pseudonym
            self._row[moved] = row
            self._cols[row] = self._cols[len(self._users)]

    def track(self, user: Hashable) -> dict | None:
        """``user``'s row as a dict (None when unknown)."""
        row = self._row.get(user)
        if row is None:
            return None
        fx0, fy0, fx1, fy1, _, steps, inconsistent, total = self._cols[row].tolist()
        return dict(
            pseudonym=self._pseudonyms[row], feasible=Rect(fx0, fy0, fx1, fy1),
            steps=int(steps), inconsistent_steps=int(inconsistent),
            mean_shrinkage=total / steps,
        )

    def mean_shrinkage(self) -> float | None:
        """Mean over users of their mean step shrinkage (None when empty)."""
        cols = self._cols[: len(self._users)]
        if not len(cols):
            return None
        return float(np.mean(cols[:, _SHRINKAGE] / cols[:, _STEPS]))

    @property
    def inconsistent_steps(self) -> int:
        return int(self._cols[: len(self._users), _INCONSISTENT].sum())


class StreamingPosteriorIndex:
    """Rolling anonymity buckets: users grouped by equal published region.

    Maintained from published regions alone, row by row or in bulk, in
    O(population) memory.  The size of a user's bucket is the streaming estimate of her
    posterior anonymity against the region-matching adversary; under
    uniform requirements and publish-all snapshots it equals the full
    inversion set of :func:`repro.attacks.posterior.posterior_anonymity`.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple, set[Hashable]] = {}
        self._rects: dict[tuple, Rect] = {}
        self._user_key: dict[Hashable, tuple] = {}

    def publish(self, user: Hashable, region: Rect) -> None:
        """Record ``user``'s current published region (replaces any prior)."""
        key = tuple(map(round, region.as_tuple(), (_KEY_DECIMALS,) * 4))
        if self._place(user, key):
            self._rects[key] = region

    def publish_many(self, users: Sequence[Hashable], boxes: np.ndarray) -> None:
        """:meth:`publish` for every user in order; row i of the ``(n, 4)``
        ``boxes`` holds ``users[i]``'s region.  Keys take the same
        ``round``, once per distinct side value (regions share few), and
        equal keys share one tuple, so the index holds one per region."""
        values, inverse = np.unique(boxes, return_inverse=True)
        rounded = [round(v, _KEY_DECIMALS) for v in values.tolist()]
        sides = inverse.reshape(-1, 4).T.tolist()
        keys = zip(*(map(rounded.__getitem__, column) for column in sides))
        current, shared = self._user_key.get, {}
        for i, (user, key) in enumerate(zip(users, keys)):
            if current(user) == key:
                continue
            key = shared.setdefault(key, key)
            if self._place(user, key):
                self._rects[key] = Rect(*boxes[i].tolist())

    def _place(self, user: Hashable, key: tuple) -> bool:
        """Move ``user`` into ``key``'s bucket; True when the bucket is new."""
        old = self._user_key.get(user)
        if old == key:
            return False
        if old is not None:
            self._drop_from_bucket(user, old)
        self._user_key[user] = key
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {user}
            return True
        bucket.add(user)
        return False

    def retire(self, user: Hashable) -> None:
        """Forget ``user``'s published region (no-op when unknown)."""
        key = self._user_key.pop(user, None)
        if key is not None:
            self._drop_from_bucket(user, key)

    def _drop_from_bucket(self, user: Hashable, key: tuple) -> None:
        bucket = self._buckets[key]
        bucket.discard(user)
        if not bucket:
            del self._buckets[key]
            del self._rects[key]

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    def anonymity_of(self, user: Hashable) -> int | None:
        """Bucket size for ``user`` (None when not publishing)."""
        key = self._user_key.get(user)
        if key is None:
            return None
        return len(self._buckets[key])

    @property
    def population(self) -> int:
        return len(self._user_key)

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    def mean_reidentification(self) -> float | None:
        """Mean over users of 1/bucket-size (1.0 = everyone unique)."""
        if not self._user_key:
            return None
        total = sum(
            len(bucket) * (1.0 / len(bucket))
            for bucket in self._buckets.values()
        )
        return total / len(self._user_key)

    def mean_entropy_bits(self) -> float | None:
        """Mean over users of log2(bucket-size) — uniform-posterior bits."""
        if not self._user_key:
            return None
        total = sum(
            len(bucket) * math.log2(len(bucket))
            for bucket in self._buckets.values()
        )
        return total / len(self._user_key)

    def recent_regions(self, limit: int = 16) -> list[Rect]:
        """The most recently created distinct regions, newest last."""
        keys = list(self._rects)
        return [self._rects[k] for k in keys[-limit:]]


def bucket_anonymity(
    regions: Mapping[Hashable, Rect],
) -> dict[Hashable, int]:
    """Batch counterpart of :class:`StreamingPosteriorIndex` (test oracle).

    Quadratic grouping with the attack library's ``regions_equal``
    tolerance: each user's anonymity is the number of users whose current
    region equals hers.
    """
    users = list(regions)
    out: dict[Hashable, int] = {}
    for user in users:
        mine = regions[user]
        out[user] = sum(
            1 for other in users if regions_equal(regions[other], mine)
        )
    return out


def fitted_density(
    bounds: Rect, resolution: int, points: Iterable[Point]
) -> DensityModel:
    """Batch counterpart of :class:`StreamingDensityModel` (test oracle)."""
    return DensityModel(bounds, resolution).fit(points)
