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

Three adapters, each holding one dense row of columns per tracked user
(:class:`_Rows`), updated row by row (the per-message path) or one bulk
list at a time in numpy column passes:

- :class:`StreamingDensityModel` — a :class:`DensityModel` whose grid is
  maintained under add/move/retire updates instead of one-shot ``fit``;
  at every point it equals ``DensityModel().fit(current positions)``.
- :class:`StreamingLinkageColumns` — the max-speed reachability
  intersection as running sums (shrinkage sum instead of the unbounded
  ``steps`` list); step-for-step identical to
  :class:`MaxSpeedLinkageAttack`.
- :class:`StreamingPosteriorIndex` — rolling region-bucket index
  approximating the inversion set: users currently publishing an equal
  region form one anonymity bucket.  Under uniform requirements and a
  deterministic snapshot cloaker this *is* the inversion set (every user
  in the published region R with cloak(user) == R publishes R), which
  the conformance suite checks against :func:`posterior_anonymity`.

The row paths index columns through ``memoryview`` s, so a per-message
update costs what a list update costs, not a numpy scalar access.
"""

from __future__ import annotations

import math
import struct
from itertools import repeat
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.attacks.density import DensityModel
from repro.attacks.posterior import regions_equal
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: Rounding (decimal places) used to key regions for exact-bucket
#: grouping; matches the 1e-9 tolerance of ``regions_equal``.
_KEY_DECIMALS = 9


def _grown(columns: np.ndarray) -> np.ndarray:
    """A copy of ``columns`` (rows along the last axis) with a quarter
    (and 64 rows) more room."""
    rows = columns.shape[-1]
    grown = np.zeros((*columns.shape[:-1], rows // 4 * 5 + 64), columns.dtype)
    grown[..., :rows] = columns
    return grown


class _Rows:
    """Dense user rows: ``index`` maps each tracked user to its row and
    ``users`` lists the users by row.  Dropping a user moves the last row
    into the gap, so the rows stay ``0 .. len - 1``.

    :meth:`of` keeps the rows of the last list it looked up; a next list
    equal to it (a population republished in the same order) gets the
    same array back without a lookup, until a row is added or dropped.
    At 40k users the list compare is about a hundredth of the duplicate
    check and lookup it skips.
    """

    def __init__(self) -> None:
        self.index: dict[Hashable, int] = {}
        self.users: list[Hashable] = []
        self._last: tuple[list, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.users)

    def add(self, user: Hashable) -> int:
        """A new row for ``user`` (not yet tracked), after the last one."""
        row = self.index[user] = len(self.users)
        self.users.append(user)
        self._last = None
        return row

    def drop(self, user: Hashable, row: int) -> int:
        """Forget ``user`` (at ``row``); the last row takes its place.
        Returns the last row's old index: the caller copies its columns
        from there into ``row`` when ``row`` is smaller."""
        del self.index[user]
        moved = self.users.pop()
        last = len(self.users)
        if row < last:
            self.users[row] = moved
            self.index[moved] = row
        self._last = None
        return last

    def of(self, users: Sequence[Hashable]) -> np.ndarray | None:
        """Each of ``users``' rows (-1 when untracked), or None when the
        list repeats a user.  The array is shared: read it, never write."""
        last = self._last
        if last is not None and last[0] == users:
            return last[1]
        if len(set(users)) < len(users):
            return None
        rows = np.fromiter(map(self.index.get, users, repeat(-1)), np.intp, len(users))
        self._last = (list(users), rows)
        return rows


class StreamingDensityModel(DensityModel):
    """A density grid maintained incrementally under population churn.

    Inherits every estimator (``posterior_in``, ``map_point``,
    ``effective_anonymity``) unchanged — only the way counts enter the
    grid differs.  Out-of-bounds positions are tracked but count nothing,
    mirroring ``fit``'s skip, so a later move into bounds is picked up.
    Each tracked user's row holds its cell as the flat index into the
    grid (``row * resolution + col``), -1 out of bounds.
    """

    def __init__(self, bounds: Rect, resolution: int = 32) -> None:
        super().__init__(bounds, resolution)
        self._rows = _Rows()
        self._cell = np.zeros(64, np.intp)
        self._cell_at = memoryview(self._cell)
        self._flat = self._counts.reshape(-1)  # a view: writes land in the grid
        self._frame = (*bounds.as_tuple(), bounds.width, bounds.height)

    def _cell_of(self, x: float, y: float) -> int:
        min_x, min_y, max_x, max_y, width, height = self._frame
        if not (min_x <= x <= max_x and min_y <= y <= max_y):
            return -1
        res = self.resolution
        col = min(int((x - min_x) / width * res), res - 1)
        row = min(int((y - min_y) / height * res), res - 1)
        return row * res + col

    def admit(self, user: Hashable, x: float, y: float) -> None:
        """Start counting ``user`` at (x, y); re-admission moves instead."""
        if user in self._rows.index:
            self.move(user, x, y)
            return
        row = self._rows.add(user)
        if row == len(self._cell):
            self._cell = _grown(self._cell)
            self._cell_at = memoryview(self._cell)
        cell = self._cell_at[row] = self._cell_of(x, y)
        if cell >= 0:
            self._flat[cell] += 1

    def move(self, user: Hashable, x: float, y: float) -> None:
        """Shift ``user``'s count to the cell containing the new position.

        Unknown users are ignored: the monitor only models the admitted
        (anonymizer-side) population, not passive world members.
        """
        row = self._rows.index.get(user)
        if row is None:
            return
        old, new = self._cell_at[row], self._cell_of(x, y)
        if new == old:
            return
        if old >= 0:
            self._flat[old] -= 1
        if new >= 0:
            self._flat[new] += 1
        self._cell_at[row] = new

    def move_many(
        self, users: Sequence[Hashable], xs: Sequence[float], ys: Sequence[float]
    ) -> None:
        """:meth:`move` for columns of reports (one ``users.moved`` run):
        the cells in one numpy pass, compared with each row's cell, and
        the count changes as two ``bincount`` s.  A list that repeats a
        user takes the row path.  Equal to ``move`` row by row, in order."""
        if not users:
            return
        rows = self._rows.of(users)
        if rows is None:
            for user, x, y in zip(users, xs, ys):
                self.move(user, x, y)
            return
        min_x, min_y, max_x, max_y, width, height = self._frame
        res = self.resolution
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        inside = (min_x <= x) & (x <= max_x) & (min_y <= y) & (y <= max_y)
        x = np.where(inside, x, min_x)
        y = np.where(inside, y, min_y)
        # The same float operations, in the same order, as _cell_of.
        col = np.minimum(((x - min_x) / width * res).astype(np.intp), res - 1)
        row = np.minimum(((y - min_y) / height * res).astype(np.intp), res - 1)
        new = np.where(inside, row * res + col, -1)
        old = self._cell[rows]  # an untracked user's -1 reads a row it then skips
        moved = np.flatnonzero((new != old) & (rows >= 0))
        if moved.size:
            old, new = old[moved], new[moved]
            self._cell[rows[moved]] = new
            # Shifted by one so that -1 (out of bounds) lands in a dropped bin.
            cells = len(self._flat) + 1
            self._flat += (
                np.bincount(new + 1, minlength=cells) - np.bincount(old + 1, minlength=cells)
            )[1:]

    def retire(self, user: Hashable) -> None:
        """Stop counting ``user`` (no-op when unknown)."""
        row = self._rows.index.get(user)
        if row is None:
            return
        cell = self._cell_at[row]
        if cell >= 0:
            self._flat[cell] -= 1
        last = self._rows.drop(user, row)
        if row < last:
            self._cell_at[row] = self._cell_at[last]

    @property
    def population(self) -> int:
        """Users currently tracked (in- or out-of-bounds)."""
        return len(self._rows)


#: Linkage column layout, one row of ``_cols`` per quantity: the feasible
#: box (min x, min y, max x, max y), the last observation time, steps,
#: inconsistent steps, shrinkage sum; column ``row`` is one user's row.
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
    both equal :class:`MaxSpeedLinkageAttack` step for step, and both
    refuse an observation older than a row's last one before they change
    anything.
    """

    def __init__(self, max_speed: float = 0.0) -> None:
        if max_speed < 0:
            raise ValueError("max_speed must be non-negative")
        self.max_speed = max_speed
        self._rows = _Rows()
        self._pseudonyms: list[Hashable] = []
        self._cols = np.zeros((8, 64))

    def __len__(self) -> int:
        return len(self._rows)

    def _start(self, user: Hashable, pseudonym: Hashable) -> int:
        """The row that starts ``user``'s track under ``pseudonym``."""
        row = self._rows.index.get(user)
        if row is None:
            row = self._rows.add(user)
            self._pseudonyms.append(pseudonym)
            if row == self._cols.shape[1]:
                self._cols = _grown(self._cols)
        else:
            self._pseudonyms[row] = pseudonym
        return row

    def observe(self, user: Hashable, pseudonym: Hashable, t: float, box) -> float:
        """Feed ``user``'s region ``box`` (its sides) at ``t``; the step's shrinkage."""
        min_x, min_y, max_x, max_y = box
        row = self._rows.index.get(user)
        if row is None or self._pseudonyms[row] != pseudonym:
            row = self._start(user, pseudonym)
            self._cols[:, row] = (*box, t, 0.0, 0.0, 0.0)  # F_0 = R_0: no reach
        fx0, fy0, fx1, fy1, last_t, steps, bad, total = self._cols[:, row].tolist()
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
        self._cols[:, row] = (fx0, fy0, fx1, fy1, t, steps + 1, bad, total + shrinkage)
        return shrinkage

    def observe_many(
        self,
        users: Sequence,
        pseudonyms: Sequence,
        t: float,
        sides: np.ndarray,
        region: np.ndarray,
    ) -> None:
        """Feed a bulk publication at ``t``: ``users[i]`` published region
        ``sides[region[i]]`` (a row of the ``(m, 4)`` distinct-region
        table) under ``pseudonyms[i]``.  Column passes over the users'
        rows; a ``users`` list equal to the last call's reuses its rows,
        and one that repeats a user takes the row path.  A publication
        older than a held row's last observation is refused before
        anything changes."""
        rows = self._rows.of(users)
        if rows is None:
            for user, pseudonym, box in zip(users, pseudonyms, sides[region].tolist()):
                self.observe(user, pseudonym, t, box)
            return
        boxes = np.ascontiguousarray(sides.T)[:, region]
        # A row starts for an untracked user and for a new pseudonym.
        fresh = rows < 0
        held = np.flatnonzero(~fresh)
        if held.size:
            now = np.fromiter(self._pseudonyms, object, len(self._pseudonyms))[rows[held]]
            fresh[held] = now != np.fromiter(pseudonyms, object, len(rows))[held]
        # An untracked user's -1 reads a row that the user then starts.
        if (t < self._cols[_T, rows][~fresh]).any():
            raise ValueError("observations must be time-ordered")
        starts = np.flatnonzero(fresh)
        if starts.size:
            rows = rows.copy()  # the array of rows is _Rows.of's; never written
            for i in starts.tolist():
                rows[i] = self._start(users[i], pseudonyms[i])
        block = self._cols[:, rows]
        block[:_T, starts], block[_T, starts], block[_STEPS:, starts] = boxes[:, starts], t, 0.0
        reach = self.max_speed * (t - block[_T])
        feasible = np.stack([
            np.maximum(block[0] - reach, boxes[0]), np.maximum(block[1] - reach, boxes[1]),
            np.minimum(block[2] + reach, boxes[2]), np.minimum(block[3] + reach, boxes[3]),
        ])
        disjoint = (feasible[0] > feasible[2]) | (feasible[1] > feasible[3])
        feasible[:, disjoint] = boxes[:, disjoint]
        area = (boxes[2] - boxes[0]) * (boxes[3] - boxes[1])
        kept = (feasible[2] - feasible[0]) * (feasible[3] - feasible[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            shrinkage = np.where(disjoint, 1.0, np.where(area == 0.0, 0.0, kept / area))
        block[:_T] = feasible
        block[_T] = t
        block[_STEPS] += 1.0
        block[_INCONSISTENT] += disjoint
        block[_SHRINKAGE] += shrinkage
        self._cols[:, rows] = block

    def retire(self, user: Hashable) -> None:
        """Drop ``user``'s row (no-op when unknown)."""
        row = self._rows.index.get(user)
        if row is None:
            return
        last = self._rows.drop(user, row)
        pseudonym = self._pseudonyms.pop()
        if row < last:
            self._pseudonyms[row] = pseudonym
            self._cols[:, row] = self._cols[:, last]

    def track(self, user: Hashable) -> dict | None:
        """``user``'s row as a dict (None when unknown)."""
        row = self._rows.index.get(user)
        if row is None:
            return None
        fx0, fy0, fx1, fy1, _, steps, inconsistent, total = self._cols[:, row].tolist()
        return dict(
            pseudonym=self._pseudonyms[row], feasible=Rect(fx0, fy0, fx1, fy1),
            steps=int(steps), inconsistent_steps=int(inconsistent),
            mean_shrinkage=total / steps,
        )

    def mean_shrinkage(self) -> float | None:
        """Mean over users of their mean step shrinkage (None when empty)."""
        n = len(self._rows)
        if not n:
            return None
        return float(np.mean(self._cols[_SHRINKAGE, :n] / self._cols[_STEPS, :n]))

    @property
    def inconsistent_steps(self) -> int:
        return int(self._cols[_INCONSISTENT, : len(self._rows)].sum())


#: A region's key: its four sides rounded to ``_KEY_DECIMALS`` (negative
#: zero made positive), packed as the bytes of four doubles.
_PACK = struct.Struct("4d").pack


def _key_of(sides) -> bytes:
    return _PACK(*[round(v, _KEY_DECIMALS) + 0.0 for v in sides])


class StreamingPosteriorIndex:
    """Rolling anonymity buckets: users grouped by equal published region.

    Maintained from published regions alone, row by row or in bulk, in
    O(population) memory, never holding a bucket's members, since every
    estimate reads only sizes.  Each publishing user's row holds the int
    code of its bucket; each code holds its bucket's size (0 when the
    code is free), creation stamp and sides (the region of its first
    arrival, made a ``Rect`` only when :meth:`recent_regions` reads it).
    One dict maps each live bucket's key (:func:`_key_of`) to its code.
    A bucket that empties goes and one that fills again is new; buckets
    are ordered by stamp, and a bulk publication stamps the buckets it
    creates in the order of their first arrival.

    The size of a user's bucket is the streaming estimate of the user's
    posterior anonymity against the region-matching adversary; under
    uniform requirements and publish-all snapshots it equals the full
    inversion set of :func:`repro.attacks.posterior.posterior_anonymity`.
    """

    def __init__(self) -> None:
        self._rows = _Rows()
        self._code = np.zeros(64, np.intp)
        self._code_at = memoryview(self._code)
        self._code_of: dict[bytes, int] = {}
        self._key: list[bytes | None] = []  # per code; None when free
        self._free: list[int] = []
        self._size = np.zeros(64, np.intp)
        self._stamp = np.zeros(64, np.int64)
        self._sides = np.zeros((4, 64))
        self._size_at = memoryview(self._size)
        self._stamp_at = memoryview(self._stamp)
        self._clock = 0  # the next creation stamp

    def publish(self, user: Hashable, region: Rect) -> None:
        """Record ``user``'s current published region (replaces any prior)."""
        sides = region.as_tuple()
        self._place(user, _key_of(sides), sides)

    def _place(self, user: Hashable, key: bytes, sides) -> None:
        """Move ``user`` into ``key``'s bucket, creating it from ``sides``."""
        row = self._rows.index.get(user)
        old = -1 if row is None else self._code_at[row]
        code = self._code_of.get(key, -1)
        if code >= 0 and code == old:
            return
        if row is None:
            row = self._add_rows([user])[0]
        if old >= 0:
            self._leave(old)
        if code < 0:
            code = self._open([key])[0]
            self._stamp_at[code] = self._clock
            self._clock += 1
            self._sides[:, code] = sides
        self._size_at[code] += 1
        self._code_at[row] = code

    def publish_many(
        self, users: Sequence[Hashable], sides: np.ndarray, region: np.ndarray
    ) -> None:
        """:meth:`publish` for every user in order; ``users[i]`` published
        region ``sides[region[i]]``, a row of the ``(m, 4)`` distinct-region
        table.  A list that repeats a user takes the row path.

        Column passes: the table's keys map to codes, each row's new code
        is gathered from ``region``, and the rows whose code changed add
        ``bincount(new) - bincount(old)`` to the sizes.  A bucket is
        created by its first arrival when it was absent, or when all its
        members left before that arrival (it emptied and went); the
        buckets created are stamped in the order of their first arrival."""
        keys = self._keys(sides)
        rows = self._rows.of(users)
        if rows is None:
            table = sides.tolist()
            for user, slot in zip(users, region.tolist()):
                self._place(user, keys[slot], table[slot])
            return
        codes = np.fromiter(map(self._code_of.get, keys, repeat(-1)), np.intp, len(keys))
        new = codes[region]  # an out-of-range region raises here, before any change
        unseen = np.flatnonzero(rows < 0)
        if unseen.size:
            rows = rows.copy()  # the array of rows is _Rows.of's; never written
            rows[unseen] = self._add_rows([users[i] for i in unseen.tolist()])
        opened = self._open_missing(keys, codes)
        if opened.size:
            new = codes[region]
        moved = np.flatnonzero(new != self._code[rows])
        old, new = self._code[rows[moved]], new[moved]
        size, n = self._size, len(self._size)
        arrived = np.bincount(new, minlength=n)
        left = np.bincount(old + 1, minlength=n + 1)[1:]  # -1: a first publication
        at = np.arange(len(moved))
        first = np.full(n, len(moved))
        np.minimum.at(first, new, at)
        held = old >= 0
        last = np.full(n, -1)
        np.maximum.at(last, old[held], at[held])
        created = np.flatnonzero((arrived > 0) & (left == size) & (last < first))
        self._stamp[created] = self._clock + first[created]
        self._sides[:, created] = sides[region[moved[first[created]]]].T
        self._clock += len(moved)
        size += arrived - left
        self._code[rows[moved]] = new
        gone = np.flatnonzero((left > 0) & (size == 0))
        self._close(gone.tolist() + opened[size[opened] == 0].tolist())

    def _keys(self, sides: np.ndarray) -> list[bytes]:
        """Each table row's :func:`_key_of`: ``round`` once per distinct
        side value, the rows packed in one pass."""
        values, inverse = np.unique(sides, return_inverse=True)
        rounded = np.array([round(v, _KEY_DECIMALS) for v in values.tolist()])
        packed = np.ascontiguousarray(rounded[inverse].reshape(-1, 4) + 0.0)
        return packed.view(np.dtype((np.void, 32))).ravel().tolist()

    def _open_missing(self, keys: list[bytes], codes: np.ndarray) -> np.ndarray:
        """Open an empty bucket for each key that no live bucket has (code
        -1 in ``codes``), write its code into ``codes``, and return the
        codes opened."""
        missing = np.flatnonzero(codes < 0).tolist()
        if not missing:
            return np.zeros(0, np.intp)
        absent = list(dict.fromkeys(map(keys.__getitem__, missing)))
        opened = self._open(absent)
        codes[missing] = list(map(self._code_of.get, map(keys.__getitem__, missing)))
        return np.array(opened, np.intp)

    def _add_rows(self, users: list) -> list[int]:
        """Rows for untracked ``users``, in order; their codes are free."""
        rows = list(map(self._rows.add, users))
        if rows[-1] >= len(self._code):
            while rows[-1] >= len(self._code):
                self._code = _grown(self._code)
            self._code_at = memoryview(self._code)
        self._code[rows[0] : rows[-1] + 1] = -1
        return rows

    def _open(self, keys: list[bytes]) -> list[int]:
        """Codes for empty buckets under ``keys`` (none of them live)."""
        free = self._free
        cut = len(free) - min(len(keys), len(free))  # the free codes past it are reused
        codes = free[cut:]
        del free[cut:]
        fresh = len(keys) - len(codes)
        codes += range(len(self._key), len(self._key) + fresh)
        self._key.extend([None] * fresh)
        if len(self._key) > len(self._size):
            while len(self._key) > len(self._size):
                self._size, self._stamp = _grown(self._size), _grown(self._stamp)
                self._sides = _grown(self._sides)
            self._size_at = memoryview(self._size)
            self._stamp_at = memoryview(self._stamp)
        for code, key in zip(codes, keys):
            self._key[code] = key
        self._code_of.update(zip(keys, codes))
        return codes

    def _leave(self, code: int) -> None:
        """One member leaves bucket ``code``; the bucket goes when empty."""
        size = self._size_at[code] - 1
        self._size_at[code] = size
        if not size:
            self._close([code])

    def _close(self, codes: list[int]) -> None:
        """Free the (empty) buckets ``codes``."""
        code_of, key = self._code_of, self._key
        for code in codes:
            del code_of[key[code]]
            key[code] = None
        self._free.extend(codes)

    def retire(self, user: Hashable) -> None:
        """Forget ``user``'s published region (no-op when unknown)."""
        row = self._rows.index.get(user)
        if row is None:
            return
        self._leave(self._code_at[row])
        last = self._rows.drop(user, row)
        if row < last:
            self._code_at[row] = self._code_at[last]

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    def _live(self) -> np.ndarray:
        """The live buckets' codes (those with members), oldest first."""
        codes = np.flatnonzero(self._size)
        return codes[np.argsort(self._stamp[codes])]

    def anonymity_of(self, user: Hashable) -> int | None:
        """Bucket size for ``user`` (None when not publishing)."""
        row = self._rows.index.get(user)
        return None if row is None else self._size_at[self._code_at[row]]

    @property
    def population(self) -> int:
        return len(self._rows)

    @property
    def bucket_count(self) -> int:
        return len(self._code_of)

    def bucket_sizes(self) -> list[int]:
        """Every bucket's size, oldest bucket first."""
        return self._size[self._live()].tolist()

    def mean_reidentification(self) -> float | None:
        """Mean over users of 1/bucket-size (1.0 = everyone unique): a
        bucket of n users adds n shares of 1/n, so buckets / users."""
        if not self._rows:
            return None
        return len(self._code_of) / len(self._rows)

    def mean_entropy_bits(self) -> float | None:
        """Mean over users of log2(bucket-size) — uniform-posterior bits."""
        if not self._rows:
            return None
        total = sum(n * math.log2(n) for n in self.bucket_sizes())
        return total / len(self._rows)

    def recent_regions(self, limit: int = 16) -> list[Rect]:
        """The most recently created distinct regions, newest last."""
        return [Rect(*sides) for sides in self._sides[:, self._live()[-limit:]].T.tolist()]


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
