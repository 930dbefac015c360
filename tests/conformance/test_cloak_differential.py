"""Differential conformance: bulk cloaking against the per-user oracle.

:func:`repro.engine.bulk_cloak` promises regions **identical** — same
floats, not merely equivalent — to the per-user cloaking path for every
cloaker, kernel or scalar fallback alike.  These tests hold it to that on
seeded randomized populations with mixed requirements (no-privacy users,
ordinary k/A_min mixes, and k values above the population that force
best-effort escalation), across grid and pyramid cloakers at several
resolutions, plus every cloaker without a kernel (the neighbour-merge
pyramid, the data-dependent and Hilbert cloakers, the quadtree, an
incremental wrapper) that exercises the scalar fallback and its sharing.
Positions come from a coarse lattice on purpose: users landing exactly on
cell edges are where a vectorized cell assignment would first disagree
with the scalar one.

Failures dump a replayable scenario via the ``scenario`` fixture
(see ``conftest.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.hilbert import HilbertCloaker
from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.mbr import MBRCloaker
from repro.cloaking.naive import NaiveCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.cloaking.quadtree_cloak import QuadtreeCloaker
from repro.core.profiles import PrivacyProfile, PrivacyRequirement
from repro.core.system import PrivacySystem
from repro.engine.cloak import bulk_cloak, supports_kernel
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.obs import Telemetry

BOUNDS = Rect(0.0, 0.0, 64.0, 64.0)

CLOAKERS = {
    "grid_8": lambda: GridCloaker(BOUNDS, cols=8, rows=8),
    "grid_32": lambda: GridCloaker(BOUNDS, cols=32, rows=32),
    "pyramid_4": lambda: PyramidCloaker(BOUNDS, height=4),
    "pyramid_6": lambda: PyramidCloaker(BOUNDS, height=6),
    "pyramid_merge": lambda: PyramidCloaker(
        BOUNDS, height=5, neighbor_merge=True
    ),
    # No kernel: the scalar fallback, which shares one cloak per
    # partition and requirement (a ``None`` key never shares).
    "naive": lambda: NaiveCloaker(BOUNDS),
    "mbr": lambda: MBRCloaker(BOUNDS),
    "quadtree": lambda: QuadtreeCloaker(BOUNDS),
    "hilbert": lambda: HilbertCloaker(BOUNDS),
    "incremental_grid_8": lambda: IncrementalCloaker(
        GridCloaker(BOUNDS, cols=8, rows=8)
    ),
}

SEEDS = [3, 17, 59]


def lattice_population(rng: random.Random, n: int) -> dict[str, Point]:
    """Positions snapped to a lattice aligned with cell edges."""
    return {
        f"u{i}": Point(float(rng.randint(0, 64)), float(rng.randint(0, 64)))
        for i in range(n)
    }


def random_requirement(rng: random.Random, population: int) -> PrivacyRequirement:
    roll = rng.random()
    if roll < 0.15:
        return PrivacyRequirement()  # no privacy: exact-point region
    if roll < 0.25:
        # Best-effort escalation: more anonymity than subscribers exist.
        return PrivacyRequirement(k=population + rng.randint(1, 50))
    return PrivacyRequirement(
        k=rng.randint(2, max(2, population // 2)),
        min_area=rng.choice([0.0, 1.0, 16.0, 256.0]),
    )


def mixed_requests(rng: random.Random, points: dict) -> list:
    return [(user_id, random_requirement(rng, len(points))) for user_id in points]


def oracle_cloak(cloaker, user_id, requirement):
    """The per-user reference: ``LocationAnonymizer.cloak_user`` semantics."""
    if not requirement.wants_privacy:
        point = cloaker.location_of(user_id)
        from repro.cloaking.base import CloakResult

        return CloakResult(
            region=Rect.from_point(point), user_count=1, requirement=requirement
        )
    population = cloaker.user_count()
    if requirement.k > population:
        effective = replace(requirement, k=max(1, population))
        result = cloaker.cloak(user_id, effective)
        return replace(result, requirement=requirement)
    return cloaker.cloak(user_id, requirement)


def assert_bulk_matches_oracle(make_cloaker, points, requests, scenario, **tags):
    """Bulk-cloak ``requests`` and hold every result to the per-user oracle:
    float-identical region, equal user count, same attainment verdicts."""
    bulk_cloaker = make_cloaker()
    oracle_cloaker = make_cloaker()
    for user_id, point in points.items():
        bulk_cloaker.add_user(user_id, point)
        oracle_cloaker.add_user(user_id, point)
    outcome = bulk_cloak(bulk_cloaker, requests)
    expected_path = "kernel" if supports_kernel(bulk_cloaker) else "scalar"
    assert outcome.path == expected_path
    assert set(outcome.results) == set(points)
    for user_id, requirement in requests:
        got = outcome.results[user_id]
        want = oracle_cloak(oracle_cloaker, user_id, requirement)
        scenario.record(
            **tags,
            user=user_id,
            point=[points[user_id].x, points[user_id].y],
            k=requirement.k,
            min_area=requirement.min_area,
            got_region=[
                got.region.min_x, got.region.min_y,
                got.region.max_x, got.region.max_y,
            ],
            want_region=[
                want.region.min_x, want.region.min_y,
                want.region.max_x, want.region.max_y,
            ],
            got_count=got.user_count,
            want_count=want.user_count,
        )
        assert got.region == want.region
        assert got.user_count == want.user_count
        assert got.requirement == want.requirement
        assert got.k_satisfied == want.k_satisfied
        assert got.area_satisfied == want.area_satisfied


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CLOAKERS))
def test_bulk_matches_per_user_oracle(name, seed, scenario):
    rng = random.Random(seed)
    points = lattice_population(rng, 150)
    assert_bulk_matches_oracle(
        CLOAKERS[name],
        points,
        mixed_requests(rng, points),
        scenario,
        cloaker=name,
        seed=seed,
    )


INCREMENTAL_INNER = {
    "grid_8": lambda: GridCloaker(BOUNDS, cols=8, rows=8),
    "pyramid_4": lambda: PyramidCloaker(BOUNDS, height=4),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("inner", sorted(INCREMENTAL_INNER))
def test_incremental_rounds_match_per_user_oracle(inner, seed, scenario):
    """Rounds through an incremental wrapper, users moved onto the corners
    of their own regions in between.  A cached region is closed: a user on
    its right or top edge still reuses it while the user's cell is the
    next one over.  The bulk round must reuse and recompute exactly where the
    per-user path does, and never hand one user's cached region to
    another, who may lie outside it."""
    rng = random.Random(seed)
    points = lattice_population(rng, 150)
    requests = mixed_requests(rng, points)
    bulk_cloaker = IncrementalCloaker(INCREMENTAL_INNER[inner]())
    oracle_cloaker = IncrementalCloaker(INCREMENTAL_INNER[inner]())
    for user_id, point in points.items():
        bulk_cloaker.add_user(user_id, point)
        oracle_cloaker.add_user(user_id, point)
    reuses = 0
    for round_no in range(4):
        outcome = bulk_cloak(bulk_cloaker, requests)
        assert outcome.path == "scalar"
        for user_id, requirement in requests:
            got = outcome.results[user_id]
            want = oracle_cloak(oracle_cloaker, user_id, requirement)
            point = bulk_cloaker.location_of(user_id)
            scenario.record(
                inner=inner,
                seed=seed,
                round=round_no,
                user=user_id,
                point=[point.x, point.y],
                k=requirement.k,
                min_area=requirement.min_area,
                got_region=list(got.region.as_tuple()),
                want_region=list(want.region.as_tuple()),
                got_reused=got.reused,
                want_reused=want.reused,
            )
            assert got.region == want.region
            assert got.user_count == want.user_count
            assert got.reused == want.reused
            assert got.region.contains_point(point)
        reuses += int(outcome.reused.sum())
        for user_id in rng.sample(sorted(points), 60):
            region = outcome.results[user_id].region
            corner = Point(
                rng.choice([region.min_x, region.max_x]),
                rng.choice([region.min_y, region.max_y]),
            )
            bulk_cloaker.move_user(user_id, corner)
            oracle_cloaker.move_user(user_id, corner)
    assert reuses, "no cached region was ever reused"


# ----------------------------------------------------------------------
# Adversarial families for the grid kernel (one expansion chain per start
# cell, prefix-sum counts, dense test only for points on a gridline).
# Each returns (cloaker factory, points, requests); dense uniform
# populations never reach these corners.
# ----------------------------------------------------------------------

WORLD_100 = Rect(0.0, 0.0, 100.0, 100.0)


def family_gridline_lattice(rng: random.Random):
    """Every point on a gridline crossing of an 8x8 grid, world boundary
    included: the prefix sum counts nobody, the dense test everybody."""
    points = {
        f"u{i}": Point(8.0 * rng.randint(0, 8), 8.0 * rng.randint(0, 8))
        for i in range(120)
    }
    return CLOAKERS["grid_8"], points, mixed_requests(rng, points)


def non_dyadic_family(cols: int):
    """``cols`` columns on a 100-wide world: no gridline is a round number,
    so the population is planted on the gridline floats themselves, one
    ulp to either side of them, and on the integer lattice around them.
    ``min_x + cols * cell_w`` lands exactly on the bound for 9 columns,
    one ulp above it for 11 and one below it for 97; the last column and
    row end on the bound itself either way, so the population runs up to
    it — a user at ``x == 100.0`` sits beyond the 97-column product and
    must still be inside her own (last) cell."""

    def build(rng: random.Random):
        cell = WORLD_100.width / cols
        lines = [WORLD_100.min_x + c * cell for c in range(cols + 1)]
        far = WORLD_100.max_x
        near = [
            min(max(v, 0.0), far)
            for line in lines
            for v in (
                line,
                math.nextafter(line, -math.inf),
                math.nextafter(line, math.inf),
            )
        ]
        coords = near + [min(float(v), far) for v in range(0, 101)]
        points = {
            f"u{i}": Point(rng.choice(coords), rng.choice(coords))
            for i in range(200)
        }
        return (
            lambda: GridCloaker(WORLD_100, cols=cols),
            points,
            mixed_requests(rng, points),
        )

    return build


def family_single_cell(rng: random.Random):
    """A 1x1 grid: every chain is the one block, satisfied or not."""
    points = lattice_population(rng, 40)
    return (
        lambda: GridCloaker(BOUNDS, cols=1, rows=1),
        points,
        mixed_requests(rng, points),
    )


def family_k_at_least_population(rng: random.Random):
    """Everybody asks for the whole population or more: every chain runs
    to the full grid and the escalation clamp applies to most users."""
    points = lattice_population(rng, 60)
    requests = [
        (user_id, PrivacyRequirement(k=len(points) + rng.randint(0, 40)))
        for user_id in points
    ]
    return CLOAKERS["grid_8"], points, requests


def family_area_beyond_world(rng: random.Random):
    """A_min no region can reach: chains end at the whole grid on area
    alone, whatever k says (best effort, declared degraded)."""
    points = lattice_population(rng, 60)
    requests = [
        (
            user_id,
            PrivacyRequirement(
                k=rng.randint(1, 10),
                min_area=BOUNDS.area * rng.choice([1.0, 1.5, 10.0]),
            ),
        )
        for user_id in points
    ]
    return CLOAKERS["grid_8"], points, requests


def family_eight_clusters(rng: random.Random):
    """Eight tight clusters on a 32x32 grid: most cells are empty, so
    chains are long and every annexation is decided by tie order."""
    centres = [(rng.uniform(4, 60), rng.uniform(4, 60)) for _ in range(8)]
    points = {}
    for i in range(160):
        cx, cy = centres[i % 8]
        points[f"u{i}"] = Point(
            min(max(rng.gauss(cx, 0.8), 0.0), 64.0),
            min(max(rng.gauss(cy, 0.8), 0.0), 64.0),
        )
    return CLOAKERS["grid_32"], points, mixed_requests(rng, points)


# ----------------------------------------------------------------------
# Tie-break boards: the grid kernel advances every start cell's chain in
# lock-step and picks each step's line with ``argmax`` over a (4, n)
# gains array (closed sides at -1), which must reproduce the scalar
# left/right/down/up first-wins order, the grid edges, and a shrinking
# set of chains still growing.
# ----------------------------------------------------------------------

GRID_16 = 16
CELL_16 = BOUNDS.width / GRID_16

#: The four candidate lines of a one-cell block, in the scalar order.
DIRECTIONS = {"left": (-1, 0), "right": (1, 0), "down": (0, -1), "up": (0, 1)}


def cell_point(rng: random.Random, col: int, row: int) -> Point:
    """A point well inside cell ``(col, row)`` of the 16x16 grid."""
    return Point(
        CELL_16 * (col + 0.5) + rng.uniform(-1.0, 1.0),
        CELL_16 * (row + 0.5) + rng.uniform(-1.0, 1.0),
    )


def tied_start(rng: random.Random, ways: int):
    """A start cell whose first annexation has ``ways`` equal best lines.

    The chosen neighbours hold ``gain`` users each, the others fewer;
    ``ways=0`` leaves the four neighbours empty, so every open line gains
    zero and left must win.  The rest of the population stays out of the
    start cell's 5x5 neighbourhood, so later steps tie on empty lines
    too.  The start cell's users ask for k from 2 to the population.
    """
    points: dict[str, Point] = {}

    def put(col: int, row: int, m: int) -> list[str]:
        names = [f"u{len(points) + i}" for i in range(m)]
        for name in names:
            points[name] = cell_point(rng, col, row)
        return names

    cx, cy = rng.randint(3, GRID_16 - 4), rng.randint(3, GRID_16 - 4)
    starters = put(cx, cy, rng.randint(1, 3))  # u0 and up to two more
    gain = rng.randint(1, 4)
    tied = set(rng.sample(sorted(DIRECTIONS), ways))
    for name, (dx, dy) in DIRECTIONS.items():
        fewer = rng.randint(0, gain - 1) if ways else 0
        put(cx + dx, cy + dy, gain if name in tied else fewer)
    while len(points) < 60:
        col, row = rng.randrange(GRID_16), rng.randrange(GRID_16)
        if abs(col - cx) > 2 or abs(row - cy) > 2:
            put(col, row, 1)
    requests = mixed_requests(rng, points)
    population = len(points)
    m = len(starters)
    ks = [2, m + gain, m + 2 * gain + 1, population // 3, population]
    requests = [
        (user_id, PrivacyRequirement(k=rng.choice(ks)))
        if user_id in starters
        else (user_id, requirement)
        for user_id, requirement in requests
    ]
    return lambda: GridCloaker(BOUNDS, cols=GRID_16), points, requests


def family_tie_two_ways(rng: random.Random):
    return tied_start(rng, 2)


def family_tie_three_ways(rng: random.Random):
    return tied_start(rng, 3)


def family_tie_four_ways(rng: random.Random):
    return tied_start(rng, 4)


def family_tie_all_zero(rng: random.Random):
    return tied_start(rng, 0)


def family_edge_one_side(rng: random.Random):
    """Users packed in a two-cell strip along one grid edge: the strip's
    chains run into that edge (a closed side at -1 whose line would have
    been the best) and stay clear of the other three."""
    side = rng.choice(sorted(DIRECTIONS))
    points = {}
    for i in range(90):
        along, depth = rng.randrange(GRID_16), rng.choice([0, 0, 0, 1])
        col, row = {
            "left": (depth, along),
            "right": (GRID_16 - 1 - depth, along),
            "down": (along, depth),
            "up": (along, GRID_16 - 1 - depth),
        }[side]
        points[f"u{i}"] = cell_point(rng, col, row)
    for i in range(90, 100):
        points[f"u{i}"] = cell_point(rng, rng.randint(5, 10), rng.randint(5, 10))
    requests = [
        (
            user_id,
            PrivacyRequirement(
                k=rng.randint(2, 30), min_area=rng.choice([0.0, 16.0, 64.0])
            ),
        )
        for user_id in points
    ]
    return lambda: GridCloaker(BOUNDS, cols=GRID_16), points, requests


def strip_family(cols: int, rows: int):
    """A 1xN or Nx1 grid: two of the four lines are closed at every step."""

    def build(rng: random.Random):
        points = lattice_population(rng, 80)
        return (
            lambda: GridCloaker(BOUNDS, cols=cols, rows=rows),
            points,
            mixed_requests(rng, points),
        )

    return build


def family_grid_97x7(rng: random.Random):
    """97 columns by 7 rows on a 100-wide world: non-dyadic gridlines on
    both axes (the 97-column product ends one ulp below the bound), with
    the population planted on and one ulp beside them."""
    xs = [WORLD_100.min_x + c * (WORLD_100.width / 97) for c in range(98)]
    ys = [WORLD_100.min_y + r * (WORLD_100.height / 7) for r in range(8)]

    def near(lines: list[float]) -> list[float]:
        far = WORLD_100.max_x
        return [
            min(max(v, 0.0), far)
            for line in lines
            for v in (
                line, math.nextafter(line, -math.inf), math.nextafter(line, math.inf)
            )
        ] + [rng.uniform(0.0, far) for _ in lines]

    coords_x, coords_y = near(xs), near(ys)
    points = {
        f"u{i}": Point(rng.choice(coords_x), rng.choice(coords_y)) for i in range(200)
    }
    return (
        lambda: GridCloaker(WORLD_100, cols=97, rows=7),
        points,
        mixed_requests(rng, points),
    )


def family_one_chain_to_whole_grid(rng: random.Random):
    """Dense clusters where almost everybody stops within a step or two,
    plus a few users whose requirement only the whole grid meets: their
    chains keep growing long after every other chain of the round has
    left the lock-step's active set."""
    centres = [(rng.uniform(8, 56), rng.uniform(8, 56)) for _ in range(5)]
    points = {}
    for i in range(150):
        cx, cy = centres[i % 5]
        points[f"u{i}"] = Point(
            min(max(rng.gauss(cx, 1.5), 0.0), 64.0),
            min(max(rng.gauss(cy, 1.5), 0.0), 64.0),
        )
    population = len(points)
    far = set(rng.sample(sorted(points), 3))
    requests = []
    for user_id in points:
        if user_id in far:
            requirement = rng.choice(
                [
                    PrivacyRequirement(k=population),
                    PrivacyRequirement(k=2, min_area=BOUNDS.area),
                ]
            )
        else:
            requirement = PrivacyRequirement(k=rng.randint(2, 4))
        requests.append((user_id, requirement))
    return CLOAKERS["grid_32"], points, requests


FAMILIES = {
    "gridline_lattice": family_gridline_lattice,
    "non_dyadic_cols9": non_dyadic_family(9),
    "last_gridline_above_bound_cols11": non_dyadic_family(11),
    "last_gridline_below_bound_cols97": non_dyadic_family(97),
    "single_cell_grid": family_single_cell,
    "k_at_least_population": family_k_at_least_population,
    "area_beyond_world": family_area_beyond_world,
    "eight_clusters": family_eight_clusters,
    "tie_two_ways": family_tie_two_ways,
    "tie_three_ways": family_tie_three_ways,
    "tie_four_ways": family_tie_four_ways,
    "tie_all_zero": family_tie_all_zero,
    "edge_one_side": family_edge_one_side,
    "strip_1x24": strip_family(1, 24),
    "strip_24x1": strip_family(24, 1),
    "grid_97x7": family_grid_97x7,
    "one_chain_to_whole_grid": family_one_chain_to_whole_grid,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_grid_kernel_adversarial_families(family, seed, scenario):
    make_cloaker, points, requests = FAMILIES[family](random.Random(seed))
    assert_bulk_matches_oracle(
        make_cloaker, points, requests, scenario, family=family, seed=seed
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ways", [0, 2, 3, 4])
def test_tie_boards_tie_where_they_say(ways, seed):
    """The tie families are what they claim: at the start cell's first
    annexation exactly ``ways`` open lines share the best gain (all four
    gain zero when ``ways`` is 0)."""
    make_cloaker, points, requests = tied_start(random.Random(seed), ways)
    cloaker = make_cloaker()
    for user_id, point in points.items():
        cloaker.add_user(user_id, point)
    grid = cloaker.spatial_index()
    col, row = grid.cell_of(points["u0"])  # the start cell's first user
    gains = [grid.cell_count(col + dx, row + dy) for dx, dy in DIRECTIONS.values()]
    if ways:
        assert gains.count(max(gains)) == ways, gains
    else:
        assert gains == [0, 0, 0, 0]


@pytest.mark.parametrize("far_side", ["left", "right"])
def test_all_zero_gains_annex_left_first(far_side):
    """Equal (zero) gains go left, then left again, until the grid edge
    closes that side; only then does right win the zero tie."""
    cx, cy = 8, 8
    other = cx - 3 if far_side == "left" else cx + 3
    rng = random.Random(1)
    points = {"start": cell_point(rng, cx, cy), "other": cell_point(rng, other, cy)}
    requests = [("start", PrivacyRequirement(k=2)), ("other", PrivacyRequirement(k=2))]
    cloaker = GridCloaker(BOUNDS, cols=GRID_16)
    for user_id, point in points.items():
        cloaker.add_user(user_id, point)
    region = bulk_cloak(cloaker, requests).results["start"].region
    # Left to the other user's column, or left to the edge and then right.
    lo, hi = (other, cx) if far_side == "left" else (0, other)
    assert (region.min_x, region.max_x) == (CELL_16 * lo, CELL_16 * (hi + 1))
    assert (region.min_y, region.max_y) == (CELL_16 * cy, CELL_16 * (cy + 1))
    assert region == oracle_cloak(cloaker, "start", requests[0][1]).region


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["grid_32", "pyramid_6"])
def test_publish_paths_identical_server_state(name, seed, scenario):
    """End to end: publish_all(bulk=True) == publish_all(), region for region
    and row for row."""
    rng = random.Random(seed ^ 0xB17)
    points = lattice_population(rng, 120)
    profiles = {
        user_id: random_requirement(rng, len(points)) for user_id in points
    }

    def build() -> PrivacySystem:
        system = PrivacySystem(
            bounds=BOUNDS,
            cloaker=CLOAKERS[name](),
            telemetry=Telemetry(enabled=False),
        )
        for user_id, point in points.items():
            requirement = profiles[user_id]
            system.add_user(
                MobileUser(
                    user_id,
                    point,
                    PrivacyProfile.always(
                        k=requirement.k, min_area=requirement.min_area
                    ),
                )
            )
        return system

    per_user = build()
    bulk = build()
    per_user.publish_all()
    bulk.publish_all(bulk=True)

    def regions_by_user(system: PrivacySystem) -> dict:
        return {
            user_id: system.server.private.region_of(registration.pseudonym)
            for user_id, registration in system.anonymizer._registrations.items()
        }

    want = regions_by_user(per_user)
    got = regions_by_user(bulk)
    assert set(want) == set(got)
    # One row order: exact-point users first, then the cloaked ones.
    assert [row[0] for row in bulk.server.private.items()] == [
        row[0] for row in per_user.server.private.items()
    ]
    for user_id in want:
        scenario.record(
            cloaker=name,
            seed=seed,
            user=user_id,
            point=[points[user_id].x, points[user_id].y],
            k=profiles[user_id].k,
            min_area=profiles[user_id].min_area,
            got_region=[
                got[user_id].min_x, got[user_id].min_y,
                got[user_id].max_x, got[user_id].max_y,
            ],
            want_region=[
                want[user_id].min_x, want[user_id].min_y,
                want[user_id].max_x, want[user_id].max_y,
            ],
        )
        assert got[user_id] == want[user_id]
