"""One-pass vectorized population cloaking (the bulk write path).

Where :mod:`repro.cloaking` blurs one user at a time, this module cloaks
the *entire subscribed population* in a single numpy pass, the write-side
counterpart of the read-side batch kernels in :mod:`repro.engine.kernels`:

* **Pyramid kernel** — one ``bincount`` per pyramid level builds the full
  occupancy histogram; level-``h`` cell codes are derived from the finest
  codes by right-shifting (exact, because multiplying a float by a power
  of two is exact in IEEE-754, so ``floor(v * 2^H) >> (H - h) ==
  floor(v * 2^h)`` — the same cell :meth:`PyramidGrid.cell_at` returns).
  Satisfaction ``count >= k and area >= A_min`` is monotone along a cell
  column, so each user's chosen level is just the per-column count of
  satisfied levels, no search loop at all.
* **Grid kernel** — one ``bincount`` builds cell occupancy and 2-D prefix
  sums turn :meth:`GridIndex.block_count` into O(1) lookups.  The greedy
  line annexation of :class:`GridCloaker` picks its direction from the
  current block alone, so it runs once per occupied *start cell*: every
  ``(k, A_min)`` starting there stops on that cell's one chain of nested
  blocks (exact scalar tie-break order preserved), and count and area
  only grow along it.  The chains advance in lock-step, one annexation
  step per numpy iteration over the cells still short of their largest
  requirement, so the Python-level loop runs once per step of the
  *longest* chain.  Inclusive user counts of the distinct final blocks
  come from a second prefix sum; only points exactly on a gridline take
  the dense window test.  Work is O(N + cells x L) array work in L numpy
  iterations, L being the longest chain, not population x requirements.

Both kernels replicate the scalar cloakers' IEEE operation sequence for
cell assignment, cell geometry and the final inclusive user count, so the
regions are **identical** — not merely equivalent — to the per-user
oracle's; ``tests/conformance/test_cloak_differential.py`` holds them to
that.  Cloakers without a kernel (data-dependent algorithms, incremental
wrappers, neighbour-merge pyramids) fall back to a scalar loop over
``cloaker.cloak`` with the same escalation semantics, so
``bulk_cloak`` is total over every cloaker in the package.  The loop
keeps the paper's shared execution ("executed only once for all
users"): users whose ``partition_key`` and effective requirement agree
share one call and one region.

A round's outcome is columns (:class:`BulkCloakOutcome`): the users, the
distinct regions and each user's index into them, the user counts and
the requirements.  Escalation and degradation are decided in batch:
requested ``k`` values above the subscribed population are clamped (best
effort, Section 5 of the paper) while results carry the *original*
requirement, exactly like :meth:`LocationAnonymizer.cloak_user`, and
per-profile aggregates are computed from the columns so callers can emit
``cloak.bulk`` audit events without a per-user event loop.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.cloaking.base import CloakResult, Cloaker, UserId
from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyRequirement
from repro.engine import kernels
from repro.geometry.rect import Rect

#: A bulk cloak request: ``(user_id, requirement)`` with the *original*
#: (unclamped) requirement; escalation is decided inside :func:`bulk_cloak`.
BulkRequest = tuple[UserId, PrivacyRequirement]


@dataclass
class BulkCloakOutcome:
    """Everything one bulk cloaking round produced, as columns.

    Row ``i`` of every per-user column belongs to ``users[i]``.  The rows
    hold first every user who asked for no privacy, then every cloaked
    user, each part in request order; the published rows follow it.

    Attributes:
        users: the requesting users (one request per user).
        requirements: the round's distinct *original* requirement
            objects (so ``k_satisfied`` reads correctly for escalated
            users).
        requirement_index: per user, the row of its requirement in
            ``requirements``.
        regions: the round's distinct regions; users whose chains stop on
            one block share one :class:`Rect`.
        sides: ``(len(regions), 4)`` float64 ``min_x, min_y, max_x,
            max_y`` of ``regions``, row for row.
        region_index: per user, the row of its region in ``regions``.
        counts: int64 per user, the users inside its region.
        clamped: per user, whether its ``k`` was clamped to the
            population.
        reused: per user, whether an incremental wrapper returned a
            cached region (the scalar fallback only; a shared user takes
            the computing user's flag).
        path: ``"kernel"`` when a numpy kernel ran, ``"scalar"`` when the
            per-user fallback loop did.
        algo: the cloaker's algorithm name.
        escalated: how many users had ``k`` clamped to the population.
        groups: per-(k, A_min, A_max) aggregate dicts, ready to be emitted
            as ``cloak.bulk`` events (see :func:`group_stats` for keys).
    """

    users: list[UserId]
    requirements: list[PrivacyRequirement]
    requirement_index: np.ndarray
    regions: list[Rect]
    sides: np.ndarray
    region_index: np.ndarray
    counts: np.ndarray
    clamped: np.ndarray
    reused: np.ndarray
    path: str
    algo: str
    escalated: int
    groups: list[dict] = field(default_factory=list)

    @property
    def degraded(self) -> int:
        """Users whose region missed the original requirement."""
        return sum(g["degraded"] for g in self.groups)

    @cached_property
    def areas(self) -> np.ndarray:
        """Per user, the area of its region (``Rect.area``'s float ops)."""
        sides = self.sides
        area = (sides[:, 2] - sides[:, 0]) * (sides[:, 3] - sides[:, 1])
        return area[self.region_index]

    @property
    def results(self) -> "BulkResults":
        """``user -> CloakResult``, built on access, in row order."""
        return BulkResults(self)

    @cached_property
    def row_of(self) -> dict[UserId, int]:
        """``user -> row``; built on the first lookup by user."""
        return {user: row for row, user in enumerate(self.users)}


class BulkResults(Mapping):
    """Read-only per-user view of a :class:`BulkCloakOutcome`.

    ``results[user]`` equals what :meth:`LocationAnonymizer.cloak_user`
    would have produced; iteration follows the outcome's rows.
    """

    def __init__(self, outcome: BulkCloakOutcome) -> None:
        self._outcome = outcome  # the view is not cached: no reference cycle

    def __len__(self) -> int:
        return len(self._outcome.users)

    def __iter__(self) -> Iterator[UserId]:
        return iter(self._outcome.users)

    def __getitem__(self, user_id: UserId) -> CloakResult:
        outcome = self._outcome
        row = outcome.row_of[user_id]
        return CloakResult(
            region=outcome.regions[outcome.region_index[row]],
            user_count=int(outcome.counts[row]),
            requirement=outcome.requirements[outcome.requirement_index[row]],
            reused=bool(outcome.reused[row]),
        )


def supports_kernel(cloaker: object) -> bool:
    """True when :func:`bulk_cloak` has a vectorized kernel for ``cloaker``.

    Kernels exist for the two fixed space-partitioning algorithms whose
    regions depend only on the user's cell and requirement; everything
    else (data-dependent algorithms, incremental wrappers, the
    neighbour-merge pyramid variant) takes the scalar fallback.
    """
    if type(cloaker) is GridCloaker:
        return True
    return type(cloaker) is PyramidCloaker and not cloaker._neighbor_merge


def exact_first(wants: np.ndarray) -> np.ndarray:
    """A round's row order: the users asking for no privacy (``wants``
    False) first, then the cloaked ones, each part in request order."""
    return np.concatenate([np.flatnonzero(~wants), np.flatnonzero(wants)])


def bulk_cloak(
    cloaker: Cloaker,
    requests: Sequence[BulkRequest],
    population: int | None = None,
) -> BulkCloakOutcome:
    """Cloak many users in one pass, differential-identical to the oracle.

    Args:
        cloaker: any cloaker (or incremental wrapper) tracking the
            population; routed to a numpy kernel when one exists.
        requests: ``(user_id, requirement)`` pairs with original
            requirements, one per user; users asking for no privacy get
            exact-point regions, users asking for more anonymity than
            exists get the clamped best effort.
        population: subscribed-population override (defaults to
            ``cloaker.user_count()``).

    Returns:
        A :class:`BulkCloakOutcome`; ``outcome.results[user]`` equals what
        :meth:`LocationAnonymizer.cloak_user` would have produced.
    """
    if population is None:
        population = cloaker.user_count()
    kernel = supports_kernel(cloaker)
    users = list(map(itemgetter(0), requests))
    # A round's users share a handful of requirement objects: read each
    # distinct one once, numbered in order of first appearance.
    ids = np.fromiter(
        map(id, map(itemgetter(1), requests)), dtype=np.int64, count=len(users)
    )
    _, first, requirement_index = np.unique(ids, return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    renumber = np.empty_like(appearance)
    renumber[appearance] = np.arange(appearance.size)
    requirement_index = renumber[requirement_index]
    requirements = [requests[row][1] for row in first[appearance].tolist()]
    wants = np.array([r.wants_privacy for r in requirements], dtype=bool)
    wants = wants[requirement_index]
    n_exact = len(users) - int(np.count_nonzero(wants))
    if n_exact:
        order = exact_first(wants)
        users = [users[row] for row in order.tolist()]
        requirement_index = requirement_index[order]
    exact_ids, cloak_ids = users[:n_exact], users[n_exact:]
    cloak_index = requirement_index[n_exact:]
    ks = np.array([r.k for r in requirements], dtype=np.int64)[cloak_index]
    clamped = ks > population
    points = [cloaker.location_of(user_id) for user_id in exact_ids]
    regions = [Rect.from_point(point) for point in points]
    sides = [
        np.array([(p.x, p.y, p.x, p.y) for p in points], dtype=float).reshape(-1, 4)
    ]
    index = [np.arange(n_exact)]
    counts = [np.ones(n_exact, dtype=np.int64)]
    reused = np.zeros(len(users), dtype=bool)
    if cloak_ids:
        k_eff = np.where(clamped, max(1, population), ks)
        if kernel:
            min_areas = np.array([r.min_area for r in requirements], dtype=float)
            found = _kernel_cloak(cloaker, cloak_ids, k_eff, min_areas[cloak_index])
            cloaker.stats.cloaks += len(cloak_ids)
        else:
            cloak_reqs = [requirements[i] for i in cloak_index.tolist()]
            found, reused[n_exact:] = _scalar_cloak(
                cloaker, cloak_ids, cloak_reqs, k_eff.tolist()
            )
        found_regions, found_sides, found_index, found_counts = found
        regions.extend(found_regions)
        sides.append(found_sides)
        index.append(found_index + n_exact)
        counts.append(found_counts)
    outcome = BulkCloakOutcome(
        users=users,
        requirements=requirements,
        requirement_index=requirement_index,
        regions=regions,
        sides=np.concatenate(sides),
        region_index=np.concatenate(index),
        counts=np.concatenate(counts),
        clamped=np.concatenate([np.zeros(n_exact, dtype=bool), clamped]),
        reused=reused,
        path="kernel" if kernel else "scalar",
        algo=cloaker.name,
        escalated=int(np.count_nonzero(clamped)),
    )
    outcome.groups = group_stats(outcome)
    return outcome


def group_stats(outcome: BulkCloakOutcome) -> list[dict]:
    """Per-profile aggregates of a bulk round, ready for ``cloak.bulk``.

    One dict per distinct (k, A_min, A_max) requirement, keyed exactly
    like :func:`repro.obs.audit._profile_key` so the auditor can fold the
    aggregates into the same profile tallies as per-user events.  Every
    miss is declared in-band (``degraded`` counts it), keeping the bulk
    path at zero undeclared violations by construction.  Built from the
    outcome's columns; ``area_sum`` is the sequential row-order sum (the
    last element of the group's ``cumsum``), as a per-user fold gives it.
    """
    keys = [(r.k, r.min_area, r.max_area) for r in outcome.requirements]
    ordered = sorted(set(keys), key=_group_order)
    if not ordered:
        return []
    slot = {key: g for g, key in enumerate(ordered)}
    group_of = np.array([slot[key] for key in keys], dtype=np.intp)
    group_of = group_of[outcome.requirement_index]
    size = len(ordered)
    ks = np.array([key[0] for key in ordered], dtype=np.int64)[group_of]
    min_areas = np.array([key[1] for key in ordered], dtype=float)[group_of]
    max_areas = np.array(
        [np.inf if key[2] is None else key[2] for key in ordered], dtype=float
    )[group_of]
    counts, areas = outcome.counts, outcome.areas
    k_ok = counts >= ks
    area_ok = (areas >= min_areas) & (areas <= max_areas)

    def tally(mask: np.ndarray) -> list[int]:
        return np.bincount(group_of[mask], minlength=size).tolist()

    # Every group has a member, so the sorted rows split at ``starts``.
    rows = np.argsort(group_of, kind="stable")
    n = np.bincount(group_of, minlength=size)
    starts = np.concatenate([[0], np.cumsum(n)[:-1]])
    group_counts, group_areas = counts[rows], areas[rows]
    fully = k_ok & area_ok
    columns = {
        "n": n.tolist(),
        "escalated": tally(outcome.clamped),
        "k_attained": tally(k_ok),
        "area_attained": tally(area_ok),
        "fully_attained": tally(fully),
        "degraded": tally(~fully),
        "k_sum": np.add.reduceat(group_counts, starts).tolist(),
        "k_min": np.minimum.reduceat(group_counts, starts).tolist(),
        "area_sum": [
            float(np.cumsum(part)[-1]) for part in np.split(group_areas, starts[1:])
        ],
        "area_min": np.minimum.reduceat(group_areas, starts).tolist(),
    }
    return [
        {
            "k": k,
            "min_area": min_area,
            "max_area": max_area,
            **{name: column[g] for name, column in columns.items()},
        }
        for g, (k, min_area, max_area) in enumerate(ordered)
    ]


def _group_order(key: tuple) -> tuple:
    k, min_area, max_area = key
    return (k, min_area, float("inf") if max_area is None else max_area)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
#
# Each returns ``(regions, sides, index, counts)``: the distinct regions,
# their ``(m, 4)`` sides, every requested user's row in them and every
# user's inclusive count.


def _scalar_cloak(
    cloaker: Cloaker,
    cloak_ids: list[UserId],
    cloak_reqs: list[PrivacyRequirement],
    k_eff: list[int],
) -> tuple[tuple[list[Rect], np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The per-user fallback, shared per partition (Section 5.3).

    Users with one ``partition_key`` and one effective requirement get one
    ``cloaker.cloak`` call and one region; the others take the computing
    user's result, ``reused`` flag included.  A ``None`` key (the
    data-dependent algorithms) means one call per user.  Returns the
    found columns and each user's ``reused`` flag.
    """
    regions: list[Rect] = []
    counts: list[int] = []
    reused: list[bool] = []
    index = np.empty(len(cloak_ids), dtype=np.intp)
    shared: dict[tuple, int] = {}
    for row, (user_id, requirement, effective) in enumerate(
        zip(cloak_ids, cloak_reqs, k_eff)
    ):
        if effective != requirement.k:
            requirement = replace(requirement, k=effective)
        key = cloaker.partition_key(
            user_id, cloaker.location_of(user_id), requirement
        )
        slot = None if key is None else shared.get((key, requirement))
        if slot is None:
            slot = len(regions)
            result = cloaker.cloak(user_id, requirement)
            regions.append(result.region)
            counts.append(result.user_count)
            reused.append(result.reused)
            if key is not None:
                shared[key, requirement] = slot
        index[row] = slot
    found = (
        regions,
        kernels.windows_array(regions),
        index,
        np.array(counts, dtype=np.int64)[index],
    )
    return found, np.array(reused, dtype=bool)[index]


def _kernel_cloak(
    cloaker: Cloaker,
    cloak_ids: list[UserId],
    ks: np.ndarray,
    min_areas: np.ndarray,
) -> tuple[list[Rect], np.ndarray, np.ndarray, np.ndarray]:
    """Dispatch to the matching kernel."""
    population = cloaker.snapshot_ids()
    rank = dict(zip(population, range(len(population))))
    rows = np.fromiter(
        map(rank.__getitem__, cloak_ids), dtype=np.intp, count=len(cloak_ids)
    )
    if type(cloaker) is PyramidCloaker:
        return _pyramid_bulk(cloaker, rows, ks, min_areas)
    return _grid_bulk(cloaker, rows, ks, min_areas)


def _rects(sides: np.ndarray) -> list[Rect]:
    return [Rect(*row) for row in sides.tolist()]


def _pyramid_bulk(
    cloaker: PyramidCloaker,
    rows: np.ndarray,
    ks: np.ndarray,
    min_areas: np.ndarray,
) -> tuple[list[Rect], np.ndarray, np.ndarray, np.ndarray]:
    """Whole-population pyramid cloaking: bincount histograms + level sums.

    Exactness argument: ``cell_at`` computes ``int(v * 2^level)`` with
    ``v = (x - min_x) / width``; scaling a float by a power of two is
    exact, so the finest-level code determines every coarser code by a
    pure integer shift, and the boundary clamp commutes with shifting.
    Per-level cell geometry replays ``cell_rect``'s exact float ops
    (``min_x + col * (width / side)``), so areas — and hence the
    satisfaction matrix and the chosen levels — match the scalar walk
    bit-for-bit.
    """
    pyramid = cloaker.pyramid
    bounds = cloaker.bounds
    height = pyramid.height
    side = 1 << height
    xs, ys = cloaker.snapshot_arrays()
    vx = (xs - bounds.min_x) / bounds.width
    vy = (ys - bounds.min_y) / bounds.height
    col_fine = np.minimum((vx * side).astype(np.int64), side - 1)
    row_fine = np.minimum((vy * side).astype(np.int64), side - 1)
    n = rows.size
    col_q = col_fine[rows]
    row_q = row_fine[rows]
    counts = np.empty((height + 1, n), dtype=np.int64)
    areas = np.empty((height + 1, n), dtype=np.float64)
    for level in range(height + 1):
        shift = height - level
        side_l = 1 << level
        occupancy = np.bincount(
            (row_fine >> shift) * side_l + (col_fine >> shift),
            minlength=side_l * side_l,
        )
        cq = col_q >> shift
        rq = row_q >> shift
        counts[level] = occupancy[rq * side_l + cq]
        cell_w = bounds.width / side_l
        cell_h = bounds.height / side_l
        x0 = bounds.min_x + cq * cell_w
        x1 = bounds.min_x + (cq + 1) * cell_w
        y0 = bounds.min_y + rq * cell_h
        y1 = bounds.min_y + (rq + 1) * cell_h
        areas[level] = (x1 - x0) * (y1 - y0)
    # count >= k is monotone up the column (parent cells are supersets)
    # and area >= A_min likewise, so the finest satisfying level is the
    # number of satisfying levels minus one; zero satisfied means even
    # the whole space fails A_min and the scalar walk falls through to
    # ``pyramid.bounds``.
    satisfied = (counts >= ks[None, :]) & (areas >= min_areas[None, :])
    levels = satisfied.sum(axis=0) - 1
    chosen = np.maximum(levels, 0)
    shift_sel = height - chosen
    col_sel = col_q >> shift_sel
    row_sel = row_q >> shift_sel
    # One region per distinct (level, cell); -1 for the whole-space walk.
    key = np.where(levels < 0, -1, (chosen * side + row_sel) * side + col_sel)
    _, first, index = np.unique(key, return_index=True, return_inverse=True)
    fallback = levels[first] < 0
    chosen, col_sel, row_sel = chosen[first], col_sel[first], row_sel[first]
    w_levels = np.array([bounds.width / (1 << lv) for lv in range(height + 1)])
    h_levels = np.array([bounds.height / (1 << lv) for lv in range(height + 1)])
    w_sel = w_levels[chosen]
    h_sel = h_levels[chosen]
    x0 = bounds.min_x + col_sel * w_sel
    x1 = bounds.min_x + (col_sel + 1) * w_sel
    y0 = bounds.min_y + row_sel * h_sel
    y1 = bounds.min_y + (row_sel + 1) * h_sel
    # Clip exactly like Rect.clipped (max against the lower bounds, min
    # against the upper); when the clip is a no-op — every interior cell —
    # the bincount occupancy IS the scalar ``count_in`` answer, because
    # the region is exactly a pyramid cell and the scalar path reads the
    # same counter through ``count_in_window``.
    sides = np.column_stack(
        [
            np.maximum(x0, bounds.min_x),
            np.maximum(y0, bounds.min_y),
            np.minimum(x1, bounds.max_x),
            np.minimum(y1, bounds.max_y),
        ]
    )
    clean = (sides == np.column_stack([x0, y0, x1, y1])).all(axis=1)
    region_counts = counts[chosen, first]
    if fallback.any():
        whole = pyramid.bounds.clipped(bounds)
        sides[fallback] = (whole.min_x, whole.min_y, whole.max_x, whole.max_y)
    regions = _rects(sides)
    for row in np.flatnonzero(fallback | ~clean).tolist():
        region_counts[row] = cloaker.count_in(regions[row])
    return regions, sides, index, region_counts[index]


def _cell_prefix(cell_rows: np.ndarray, cell_cols: np.ndarray, grid) -> np.ndarray:
    """2-D prefix sum of a cell histogram: block counts become O(1)."""
    occupancy = np.bincount(
        cell_rows * grid.cols + cell_cols, minlength=grid.rows * grid.cols
    ).reshape(grid.rows, grid.cols)
    prefix = np.zeros((grid.rows + 1, grid.cols + 1), dtype=np.int64)
    prefix[1:, 1:] = occupancy.cumsum(axis=0).cumsum(axis=1)
    return prefix


def _block_sums(prefix: np.ndarray, c0, r0, c1, r1) -> np.ndarray:
    """Points in each inclusive cell block ``(c0, r0) .. (c1, r1)``."""
    top, right = r1 + 1, c1 + 1
    return prefix[top, right] - prefix[r0, right] - prefix[top, c0] + prefix[r0, c0]


def _grid_bulk(
    cloaker: GridCloaker,
    rows: np.ndarray,
    ks: np.ndarray,
    min_areas: np.ndarray,
) -> tuple[list[Rect], np.ndarray, np.ndarray, np.ndarray]:
    """Whole-population grid cloaking: one expansion chain per start cell.

    The greedy annexation picks its direction from the current block
    alone, so every ``(k, A_min)`` starting in a cell walks the same
    nested chain B0 < B1 < ... and stops at the first block with
    ``count >= k and area >= A_min``.  Count and area never shrink along
    the chain, so the chain built for the cell's largest ``k`` and
    largest ``A_min`` holds every requirement's stop.  All chains advance
    together: each iteration computes the current blocks' counts and
    areas, stops the users whose requirement the block meets, and grows
    every cell still short of its largest requirement by the line that
    adds the most users -- left, right, down, up, first wins ties, as
    ``GridCloaker``'s loop.  A cell whose block is the whole grid stops
    with its users (best effort).  The loop runs once per step of the
    longest chain.

    Final user counts use ``Cloaker.count_in``'s inclusive test.  Points
    on no gridline are inside a block exactly when their geometric cell
    is (classified against the very floats ``cell_rect`` produces), so a
    second prefix sum counts them; only points lying exactly on a
    gridline go through the dense window test -- such a point is inside
    both neighbouring blocks, whichever cell it was assigned to.
    """
    grid = cloaker.spatial_index()
    bounds = cloaker.bounds
    cols, grows = grid.cols, grid.rows
    cell_w = bounds.width / cols
    cell_h = bounds.height / grows
    xs, ys = cloaker.snapshot_arrays()
    col_all = np.minimum(((xs - bounds.min_x) / cell_w).astype(np.int64), cols - 1)
    row_all = np.minimum(((ys - bounds.min_y) / cell_h).astype(np.int64), grows - 1)
    prefix = _cell_prefix(row_all, col_all, grid)
    # The gridlines as ``cell_rect`` draws them: the last one is the bound,
    # so block (c0, r0, c1, r1) is [gx[c0], gx[c1 + 1]] x [gy[r0], gy[r1 + 1]].
    gx = bounds.min_x + np.arange(cols + 1) * cell_w
    gy = bounds.min_y + np.arange(grows + 1) * cell_h
    gx[-1], gy[-1] = bounds.max_x, bounds.max_y

    cells, cell_of = np.unique(row_all[rows] * cols + col_all[rows], return_inverse=True)
    k_max = np.zeros(cells.size, dtype=np.int64)
    np.maximum.at(k_max, cell_of, ks)
    a_max = np.full(cells.size, -np.inf)
    np.maximum.at(a_max, cell_of, min_areas)
    r0, c0 = np.divmod(cells, cols)
    r1, c1 = r0.copy(), c0.copy()
    count = np.zeros(cells.size, dtype=np.int64)  # current block, per cell
    area = np.zeros(cells.size)
    whole = np.zeros(cells.size, dtype=bool)  # chain ended on the whole grid
    block_of = np.empty(rows.size, dtype=np.int64)  # final block code, per user
    pending = np.arange(rows.size)
    active = np.arange(cells.size)
    while active.size:
        a0, b0, a1, b1 = c0[active], r0[active], c1[active], r1[active]
        count[active] = _block_sums(prefix, a0, b0, a1, b1)
        area[active] = (gx[a1 + 1] - gx[a0]) * (gy[b1 + 1] - gy[b0])
        short = (count[active] < k_max[active]) | (area[active] < a_max[active])
        active = active[short]
        a0, b0, a1, b1 = a0[short], b0[short], a1[short], b1[short]
        # One full line of cells per direction, closed sides at -1; argmax
        # takes the first maximum, the scalar left/right/down/up order.
        left, right = np.maximum(a0 - 1, 0), np.minimum(a1 + 1, cols - 1)
        down, up = np.maximum(b0 - 1, 0), np.minimum(b1 + 1, grows - 1)
        gains = np.stack(
            [
                np.where(a0 > 0, _block_sums(prefix, left, b0, left, b1), -1),
                np.where(a1 < cols - 1, _block_sums(prefix, right, b0, right, b1), -1),
                np.where(b0 > 0, _block_sums(prefix, a0, down, a1, down), -1),
                np.where(b1 < grows - 1, _block_sums(prefix, a0, up, a1, up), -1),
            ]
        )
        best = gains.argmax(axis=0)
        closed = gains[best, np.arange(best.size)] < 0
        whole[active[closed]] = True
        # Users stop on the first block meeting their requirement, or on
        # the whole grid.
        at = cell_of[pending]
        met = (count[at] >= ks[pending]) & (area[at] >= min_areas[pending])
        stop = met | whole[at]
        at, done = at[stop], pending[stop]
        block_of[done] = ((c0[at] * grows + r0[at]) * cols + c1[at]) * grows + r1[at]
        pending = pending[~stop]
        active, best = active[~closed], best[~closed]
        c0[active] -= best == 0
        c1[active] += best == 1
        r0[active] -= best == 2
        r1[active] += best == 3
    blocks, index = np.unique(block_of, return_inverse=True)
    rest, r1 = np.divmod(blocks, grows)
    rest, c1 = np.divmod(rest, cols)
    c0, r0 = np.divmod(rest, grows)
    # Rect.clipped: max against the lower bounds, min against the upper,
    # the block's own side kept on a tie.
    x0, y0, x1, y1 = gx[c0], gy[r0], gx[c1 + 1], gy[r1 + 1]
    sides = np.column_stack(
        [
            np.where(bounds.min_x > x0, bounds.min_x, x0),
            np.where(bounds.min_y > y0, bounds.min_y, y0),
            np.where(bounds.max_x < x1, bounds.max_x, x1),
            np.where(bounds.max_y < y1, bounds.max_y, y1),
        ]
    )
    regions = _rects(sides)
    # Gridlines strictly below a point; equal to the "at or below" count
    # unless the point sits on one.
    below_x = np.searchsorted(gx, xs, side="left")
    below_y = np.searchsorted(gy, ys, side="left")
    generic = (below_x == np.searchsorted(gx, xs, side="right")) & (
        below_y == np.searchsorted(gy, ys, side="right")
    )
    inside = _cell_prefix(below_y[generic] - 1, below_x[generic] - 1, grid)
    user_counts = _block_sums(inside, c0, r0, c1, r1)
    if not generic.all():
        user_counts += kernels.count_points_in_windows(
            xs[~generic], ys[~generic], sides
        )
    return regions, sides, index, user_counts[index]
