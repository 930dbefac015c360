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
  only grow along it.  Inclusive user counts of the distinct final
  blocks come from a second prefix sum; only points exactly on a
  gridline take the dense window test.  Work is linear in the
  population, not population x requirements.

Both kernels replicate the scalar cloakers' IEEE operation sequence for
cell assignment, cell geometry and the final inclusive user count, so the
regions are **identical** — not merely equivalent — to the per-user
oracle's; ``tests/conformance/test_cloak_differential.py`` holds them to
that.  Cloakers without a kernel (data-dependent algorithms, incremental
wrappers, neighbour-merge pyramids) fall back to a scalar loop over
``cloaker.cloak`` with the same escalation semantics, so
``bulk_cloak`` is total over every cloaker in the package.

Escalation and degradation are decided in batch: requested ``k`` values
above the subscribed population are clamped (best effort, Section 5 of
the paper) while results carry the *original* requirement, exactly like
:meth:`LocationAnonymizer.cloak_user`, and per-profile aggregates are
returned so callers can emit ``cloak.bulk`` audit events without a
per-user event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Sequence

import numpy as np

from repro.cloaking.base import CloakResult, Cloaker, UserId
from repro.cloaking.grid_cloak import GridCloaker, _better
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyRequirement
from repro.engine import kernels
from repro.geometry.rect import Rect

#: A bulk cloak request: ``(user_id, requirement)`` with the *original*
#: (unclamped) requirement; escalation is decided inside :func:`bulk_cloak`.
BulkRequest = tuple[UserId, PrivacyRequirement]


@dataclass
class BulkCloakOutcome:
    """Everything one bulk cloaking round produced.

    Attributes:
        results: per-user :class:`CloakResult`, carrying each user's
            *original* requirement (so ``k_satisfied`` reads correctly for
            escalated users), in request order.
        path: ``"kernel"`` when a numpy kernel ran, ``"scalar"`` when the
            per-user fallback loop did.
        algo: the cloaker's algorithm name.
        escalated: how many users had ``k`` clamped to the population.
        groups: per-(k, A_min, A_max) aggregate dicts, ready to be emitted
            as ``cloak.bulk`` events (see :func:`group_stats` for keys).
    """

    results: dict[UserId, CloakResult]
    path: str
    algo: str
    escalated: int
    groups: list[dict] = field(default_factory=list)

    @property
    def degraded(self) -> int:
        """Users whose region missed the original requirement."""
        return sum(g["degraded"] for g in self.groups)


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
            requirements; users asking for no privacy get exact-point
            regions, users asking for more anonymity than exists get the
            clamped best effort.
        population: subscribed-population override (defaults to
            ``cloaker.user_count()``).

    Returns:
        A :class:`BulkCloakOutcome`; ``outcome.results[user]`` equals what
        :meth:`LocationAnonymizer.cloak_user` would have produced.
    """
    if population is None:
        population = cloaker.user_count()
    kernel = supports_kernel(cloaker)
    results: dict[UserId, CloakResult] = {}
    escalated_ids: set[UserId] = set()
    cloak_ids: list[UserId] = []
    cloak_reqs: list[PrivacyRequirement] = []
    k_eff: list[int] = []
    for user_id, requirement in requests:
        if not requirement.wants_privacy:
            point = cloaker.location_of(user_id)
            results[user_id] = CloakResult(
                region=Rect.from_point(point), user_count=1, requirement=requirement
            )
            continue
        effective = requirement.k
        if requirement.k > population:
            effective = max(1, population)
            escalated_ids.add(user_id)
        cloak_ids.append(user_id)
        cloak_reqs.append(requirement)
        k_eff.append(effective)
    if cloak_ids:
        if kernel:
            regions, counts = _kernel_cloak(
                cloaker,
                cloak_ids,
                np.asarray(k_eff, dtype=np.int64),
                np.fromiter(
                    (r.min_area for r in cloak_reqs), dtype=float, count=len(cloak_reqs)
                ),
            )
            cloaker.stats.cloaks += len(cloak_ids)
            for user_id, requirement, region, count in zip(
                cloak_ids, cloak_reqs, regions, counts.tolist()
            ):
                results[user_id] = CloakResult(
                    region=region, user_count=count, requirement=requirement
                )
        else:
            for user_id, requirement, effective in zip(cloak_ids, cloak_reqs, k_eff):
                scoped = (
                    requirement
                    if effective == requirement.k
                    else replace(requirement, k=effective)
                )
                result = cloaker.cloak(user_id, scoped)
                results[user_id] = CloakResult(
                    region=result.region,
                    user_count=result.user_count,
                    requirement=requirement,
                    reused=result.reused,
                )
    return BulkCloakOutcome(
        results=results,
        path="kernel" if kernel else "scalar",
        algo=cloaker.name,
        escalated=len(escalated_ids),
        groups=group_stats(results, escalated_ids),
    )


def group_stats(
    results: dict[UserId, CloakResult], escalated_ids: set[UserId]
) -> list[dict]:
    """Per-profile aggregates of a bulk round, ready for ``cloak.bulk``.

    One dict per distinct (k, A_min, A_max) requirement, keyed exactly
    like :func:`repro.obs.audit._profile_key` so the auditor can fold the
    aggregates into the same profile tallies as per-user events.  Every
    miss is declared in-band (``degraded`` counts it), keeping the bulk
    path at zero undeclared violations by construction.
    """
    groups: dict[tuple, dict] = {}
    for user_id, result in results.items():
        requirement = result.requirement
        key = (requirement.k, requirement.min_area, requirement.max_area)
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "k": requirement.k,
                "min_area": requirement.min_area,
                "max_area": requirement.max_area,
                "n": 0,
                "escalated": 0,
                "k_attained": 0,
                "area_attained": 0,
                "fully_attained": 0,
                "degraded": 0,
                "k_sum": 0,
                "k_min": None,
                "area_sum": 0.0,
                "area_min": None,
            }
        group["n"] += 1
        if user_id in escalated_ids:
            group["escalated"] += 1
        k_ok = result.user_count >= requirement.k
        area = result.region.area
        area_ok = requirement.area_satisfied(area)
        group["k_attained"] += k_ok
        group["area_attained"] += area_ok
        if k_ok and area_ok:
            group["fully_attained"] += 1
        else:
            group["degraded"] += 1
        group["k_sum"] += result.user_count
        group["area_sum"] += area
        if group["k_min"] is None or result.user_count < group["k_min"]:
            group["k_min"] = result.user_count
        if group["area_min"] is None or area < group["area_min"]:
            group["area_min"] = area
    return [groups[key] for key in sorted(groups, key=_group_order)]


def _group_order(key: tuple) -> tuple:
    k, min_area, max_area = key
    return (k, min_area, float("inf") if max_area is None else max_area)


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------


def _kernel_cloak(
    cloaker: Cloaker,
    cloak_ids: list[UserId],
    ks: np.ndarray,
    min_areas: np.ndarray,
) -> tuple[list[Rect], np.ndarray]:
    """Dispatch to the matching kernel; returns (regions, user counts)."""
    rank = {user_id: row for row, user_id in enumerate(cloaker.snapshot_ids())}
    rows = np.fromiter(
        (rank[user_id] for user_id in cloak_ids), dtype=np.intp, count=len(cloak_ids)
    )
    if type(cloaker) is PyramidCloaker:
        return _pyramid_bulk(cloaker, rows, ks, min_areas)
    return _grid_bulk(cloaker, rows, ks, min_areas)


def _pyramid_bulk(
    cloaker: PyramidCloaker,
    rows: np.ndarray,
    ks: np.ndarray,
    min_areas: np.ndarray,
) -> tuple[list[Rect], np.ndarray]:
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
    cx0 = np.maximum(x0, bounds.min_x)
    cy0 = np.maximum(y0, bounds.min_y)
    cx1 = np.minimum(x1, bounds.max_x)
    cy1 = np.minimum(y1, bounds.max_y)
    clip_clean = (cx0 == x0) & (cy0 == y0) & (cx1 == x1) & (cy1 == y1)
    count_sel = counts[chosen, np.arange(n)]
    regions: list[Rect] = []
    user_counts = np.empty(n, dtype=np.int64)
    whole_region: Rect | None = None
    whole_count = -1
    fallback = (levels < 0).tolist()
    clean = clip_clean.tolist()
    lx0, ly0, lx1, ly1 = cx0.tolist(), cy0.tolist(), cx1.tolist(), cy1.tolist()
    for i in range(n):
        if fallback[i]:
            if whole_region is None:
                whole_region = pyramid.bounds.clipped(bounds)
                whole_count = cloaker.count_in(whole_region)
            regions.append(whole_region)
            user_counts[i] = whole_count
            continue
        region = Rect(lx0[i], ly0[i], lx1[i], ly1[i])
        regions.append(region)
        user_counts[i] = count_sel[i] if clean[i] else cloaker.count_in(region)
    return regions, user_counts


def _cell_prefix(cell_rows: np.ndarray, cell_cols: np.ndarray, grid) -> np.ndarray:
    """2-D prefix sum of a cell histogram: block counts become O(1)."""
    occupancy = np.bincount(
        cell_rows * grid.cols + cell_cols, minlength=grid.rows * grid.cols
    ).reshape(grid.rows, grid.cols)
    prefix = np.zeros((grid.rows + 1, grid.cols + 1), dtype=np.int64)
    prefix[1:, 1:] = occupancy.cumsum(axis=0).cumsum(axis=1)
    return prefix


def _grid_bulk(
    cloaker: GridCloaker,
    rows: np.ndarray,
    ks: np.ndarray,
    min_areas: np.ndarray,
) -> tuple[list[Rect], np.ndarray]:
    """Whole-population grid cloaking: one expansion chain per start cell.

    The greedy annexation picks its direction from the current block
    alone, so every ``(k, A_min)`` starting in a cell walks the same
    nested chain B0 < B1 < ... and stops at the first block with
    ``count >= k and area >= A_min``.  Count and area never shrink along
    the chain, so the chain built for the cell's largest ``k`` and
    largest ``A_min`` holds every requirement's stop; each user replays
    the scalar loop condition along it.  Work is O(N + cells * chain).

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
    prefix = _cell_prefix(row_all, col_all, grid).tolist()

    def block_count(c0: int, r0: int, c1: int, r1: int) -> int:
        top, bottom = prefix[r1 + 1], prefix[r0]
        return top[c1 + 1] - bottom[c1 + 1] - top[c0] + bottom[c0]

    cells, cell_of = np.unique(row_all[rows] * cols + col_all[rows], return_inverse=True)
    k_max = np.zeros(cells.size, dtype=np.int64)
    np.maximum.at(k_max, cell_of, ks)
    a_max = np.full(cells.size, -np.inf)
    np.maximum.at(a_max, cell_of, min_areas)
    table: dict[tuple[int, int, int, int], int] = {}  # distinct blocks met
    rects: list[Rect] = []
    counts: list[int] = []
    areas: list[float] = []
    # Every cell's chain of block ids, concatenated; ``first`` marks
    # where each cell's own begins.
    chain: list[int] = []
    first: list[int] = []
    for cell, k, amin in zip(cells.tolist(), k_max.tolist(), a_max.tolist()):
        row, col = divmod(cell, cols)
        block = (col, row, col, row)
        first.append(len(chain))
        while True:
            b = table.get(block)
            if b is None:
                b = table[block] = len(rects)
                rects.append(grid.block_rect(*block))
                counts.append(block_count(*block))
                areas.append(rects[b].area)
            chain.append(b)
            if counts[b] >= k and areas[b] >= amin:
                break
            c0, r0, c1, r1 = block
            best_gain, grown = -1.0, None
            # One full line of cells per direction, in the scalar order.
            for open_side, line, wider in (
                (c0 > 0, (c0 - 1, r0, c0 - 1, r1), (c0 - 1, r0, c1, r1)),
                (c1 < cols - 1, (c1 + 1, r0, c1 + 1, r1), (c0, r0, c1 + 1, r1)),
                (r0 > 0, (c0, r0 - 1, c1, r0 - 1), (c0, r0 - 1, c1, r1)),
                (r1 < grows - 1, (c0, r1 + 1, c1, r1 + 1), (c0, r0, c1, r1 + 1)),
            ):
                if open_side:
                    best_gain, grown = _better(
                        best_gain, grown, block_count(*line), wider
                    )
            if grown is None:
                break  # whole grid annexed; best effort
            block = grown
    chain_ids = np.asarray(chain)
    chain_count = np.asarray(counts)[chain_ids]
    chain_area = np.asarray(areas)[chain_ids]
    starts = np.asarray(first + [len(chain)])
    pos = starts[cell_of]
    end = starts[cell_of + 1] - 1
    walking = np.arange(rows.size)
    while walking.size:
        at = pos[walking]
        short = (chain_count[at] < ks[walking]) | (chain_area[at] < min_areas[walking])
        walking = walking[short & (at < end[walking])]
        pos[walking] += 1
    used, inverse = np.unique(chain_ids[pos], return_inverse=True)
    regions = [rects[b].clipped(bounds) for b in used.tolist()]
    c0, r0, c1, r1 = np.asarray(list(table))[used].T
    # The gridlines as ``cell_rect`` draws them: the last one is the bound.
    gx = bounds.min_x + np.arange(cols + 1) * cell_w
    gy = bounds.min_y + np.arange(grows + 1) * cell_h
    gx[-1], gy[-1] = bounds.max_x, bounds.max_y
    # Gridlines strictly below a point; equal to the "at or below" count
    # unless the point sits on one.
    below_x = np.searchsorted(gx, xs, side="left")
    below_y = np.searchsorted(gy, ys, side="left")
    generic = (below_x == np.searchsorted(gx, xs, side="right")) & (
        below_y == np.searchsorted(gy, ys, side="right")
    )
    inside = _cell_prefix(below_y[generic] - 1, below_x[generic] - 1, grid)
    user_counts = (
        inside[r1 + 1, c1 + 1] - inside[r0, c1 + 1] - inside[r1 + 1, c0] + inside[r0, c0]
    )
    if not generic.all():
        user_counts += kernels.count_points_in_windows(
            xs[~generic], ys[~generic], kernels.windows_array(regions)
        )
    return [regions[g] for g in inverse.tolist()], user_counts[inverse]
