"""Differential conformance: bulk cloaking against the per-user oracle.

:func:`repro.engine.bulk_cloak` promises regions **identical** — same
floats, not merely equivalent — to the per-user cloaking path for every
cloaker, kernel or scalar fallback alike.  These tests hold it to that on
seeded randomized populations with mixed requirements (no-privacy users,
ordinary k/A_min mixes, and k values above the population that force
best-effort escalation), across grid and pyramid cloakers at several
resolutions, plus the neighbour-merge pyramid that exercises the scalar
fallback.  Positions come from a coarse lattice on purpose: users landing
exactly on cell edges are where a vectorized cell assignment would first
disagree with the scalar one.

Failures dump a replayable scenario via the ``scenario`` fixture
(see ``conftest.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
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


FAMILIES = {
    "gridline_lattice": family_gridline_lattice,
    "non_dyadic_cols9": non_dyadic_family(9),
    "last_gridline_above_bound_cols11": non_dyadic_family(11),
    "last_gridline_below_bound_cols97": non_dyadic_family(97),
    "single_cell_grid": family_single_cell,
    "k_at_least_population": family_k_at_least_population,
    "area_beyond_world": family_area_beyond_world,
    "eight_clusters": family_eight_clusters,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_grid_kernel_adversarial_families(family, seed, scenario):
    make_cloaker, points, requests = FAMILIES[family](random.Random(seed))
    assert_bulk_matches_oracle(
        make_cloaker, points, requests, scenario, family=family, seed=seed
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["grid_32", "pyramid_6"])
def test_publish_paths_identical_server_state(name, seed, scenario):
    """End to end: publish_all(bulk=True) == publish_all(), region for region."""
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
