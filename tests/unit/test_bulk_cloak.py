"""Unit tests for the vectorized bulk cloaking write path.

Covers the pieces the differential/property suites exercise only end to
end: kernel dispatch, escalation accounting, per-group aggregates and
their in-band degradation declarations, the ``cloak.bulk`` /
``regions.published_bulk`` event stream and its auditor folding, the
bulk store insert (STR rebuild vs per-item fallback), and the
window-count kernel the grid path relies on.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core import anonymizer as anonymizer_module
from repro.core.profiles import PrivacyProfile, PrivacyRequirement
from repro.core.stores import REBUILD_FRACTION, PrivateStore
from repro.core.system import PrivacySystem
from repro.engine import kernels
from repro.engine.cloak import bulk_cloak, group_stats, supports_kernel
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rtree import _Node
from repro.mobility.users import MobileUser
from repro.obs import PrivacyAuditor, Telemetry
from repro.obs.events import CLOAK_BULK, REGIONS_PUBLISHED_BULK

BOUNDS = Rect(0.0, 0.0, 32.0, 32.0)


def grid_cloaker(n: int = 20) -> GridCloaker:
    cloaker = GridCloaker(BOUNDS, cols=8, rows=8)
    rng = np.random.default_rng(5)
    for i in range(n):
        cloaker.add_user(
            f"u{i}",
            Point(float(rng.uniform(0, 32)), float(rng.uniform(0, 32))),
        )
    return cloaker


def test_supports_kernel_dispatch():
    assert supports_kernel(GridCloaker(BOUNDS, cols=4, rows=4))
    assert supports_kernel(PyramidCloaker(BOUNDS, height=3))
    assert not supports_kernel(
        PyramidCloaker(BOUNDS, height=3, neighbor_merge=True)
    )
    from repro.cloaking.mbr import MBRCloaker

    assert not supports_kernel(MBRCloaker(BOUNDS))
    assert not supports_kernel(
        IncrementalCloaker(GridCloaker(BOUNDS, cols=4, rows=4))
    )


def test_no_privacy_users_get_exact_points():
    cloaker = grid_cloaker()
    outcome = bulk_cloak(cloaker, [("u0", PrivacyRequirement())])
    result = outcome.results["u0"]
    point = cloaker.location_of("u0")
    assert result.region == Rect.from_point(point)
    assert result.user_count == 1
    assert outcome.escalated == 0 and outcome.degraded == 0


def test_escalation_clamps_but_keeps_original_requirement():
    cloaker = grid_cloaker(n=10)
    requirement = PrivacyRequirement(k=500)
    outcome = bulk_cloak(cloaker, [("u0", requirement)])
    result = outcome.results["u0"]
    assert outcome.escalated == 1
    assert result.requirement is requirement  # original, not the clamp
    assert not result.k_satisfied  # 10 users can never look like 500
    assert outcome.degraded == 1  # and the miss is declared in-band


def test_scalar_fallback_matches_kernel_contract():
    cloaker = PyramidCloaker(BOUNDS, height=4, neighbor_merge=True)
    rng = np.random.default_rng(9)
    for i in range(15):
        cloaker.add_user(
            f"u{i}",
            Point(float(rng.uniform(0, 32)), float(rng.uniform(0, 32))),
        )
    outcome = bulk_cloak(cloaker, [(f"u{i}", PrivacyRequirement(k=4)) for i in range(15)])
    assert outcome.path == "scalar"
    assert len(outcome.results) == 15
    for result in outcome.results.values():
        assert result.user_count >= 4


def test_group_stats_aggregates_and_ordering():
    cloaker = grid_cloaker(n=30)
    requests = (
        [(f"u{i}", PrivacyRequirement(k=2)) for i in range(10)]
        + [(f"u{i}", PrivacyRequirement(k=5, min_area=4.0)) for i in range(10, 20)]
        + [(f"u{i}", PrivacyRequirement()) for i in range(20, 30)]
    )
    outcome = bulk_cloak(cloaker, requests)
    groups = outcome.groups
    assert [(g["k"], g["min_area"]) for g in groups] == [
        (1, 0.0), (2, 0.0), (5, 4.0),
    ]
    assert all(g["n"] == 10 for g in groups)
    for group in groups:
        assert group["fully_attained"] + group["degraded"] == group["n"]
        assert group["k_min"] <= group["k_sum"] / group["n"]
        assert group["area_min"] <= group["area_sum"] / group["n"] + 1e-9


def test_group_stats_counts_escalated_ids():
    results = {}
    cloaker = grid_cloaker(n=4)
    requirement = PrivacyRequirement(k=99)
    outcome = bulk_cloak(cloaker, [("u0", requirement), ("u1", requirement)])
    (group,) = outcome.groups
    assert group["escalated"] == 2
    assert outcome.escalated == 2
    assert not results  # sanity: untouched helper dict


def test_publish_all_bulk_emits_group_events_not_per_user():
    system = PrivacySystem(
        bounds=BOUNDS, cloaker=GridCloaker(BOUNDS, cols=8, rows=8)
    )
    rng = np.random.default_rng(2)
    for i in range(40):
        system.add_user(
            MobileUser(
                f"u{i}",
                Point(float(rng.uniform(0, 32)), float(rng.uniform(0, 32))),
                PrivacyProfile.always(k=3 if i % 2 else 6),
            )
        )
    system.publish_all(bulk=True)
    bulk_events = list(system.obs.events.events(CLOAK_BULK))
    assert len(bulk_events) == 2  # one per distinct requirement, not 40
    assert sum(e.attrs["n"] for e in bulk_events) == 40
    (published,) = list(system.obs.events.events(REGIONS_PUBLISHED_BULK))
    assert published.attrs["n"] == 40
    assert len(system.server.private) == 40


def test_auditor_folds_bulk_events_with_zero_undeclared():
    system = PrivacySystem(
        bounds=BOUNDS, cloaker=GridCloaker(BOUNDS, cols=8, rows=8)
    )
    rng = np.random.default_rng(4)
    for i in range(30):
        system.add_user(
            MobileUser(
                f"u{i}",
                Point(float(rng.uniform(0, 32)), float(rng.uniform(0, 32))),
                PrivacyProfile.always(k=int(rng.integers(1, 100))),
            )
        )
    system.publish_all(bulk=True)
    auditor = PrivacyAuditor.from_log(system.obs.events)
    report = auditor.report()
    assert report["totals"]["cloaks"] == 30
    assert report["totals"]["undeclared_violations"] == 0
    assert auditor.violations() == []
    # Misses exist (k up to 99 over 30 users) and are all declared.
    assert report["totals"]["degraded_declared"] > 0
    assert auditor.violations(declared=True)


def populated_system(n: int) -> PrivacySystem:
    system = PrivacySystem(
        bounds=BOUNDS, cloaker=GridCloaker(BOUNDS, cols=8, rows=8)
    )
    rng = np.random.default_rng(6)
    for i in range(n):
        system.add_user(
            MobileUser(
                f"u{i}",
                Point(float(rng.uniform(0, 32)), float(rng.uniform(0, 32))),
                PrivacyProfile.always(k=1 + i % 7),
            )
        )
    return system


@pytest.fixture
def collections():
    """Generations of the collector passes that start while it is live."""
    seen: list[int] = []

    def record(phase: str, info: dict) -> None:
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(record)
    yield seen
    gc.callbacks.remove(record)


def test_bulk_round_holds_the_collector(collections):
    # 2 000 users allocate some thirty young thresholds' worth (700) and
    # stay under _FULL_PASS_DUE: nothing runs inside the round, and the
    # first allocation after it pays the young debt in one pass.
    system = populated_system(2_000)
    assert gc.isenabled()
    # Start from empty generation counters: otherwise whether that one
    # pass is young or middle-aged depends on what earlier tests left.
    gc.collect()
    collections.clear()
    system.anonymizer.publish_all_bulk(system.clock)
    assert collections in ([], [0])
    assert gc.isenabled()


def test_large_bulk_round_runs_exactly_one_full_pass(monkeypatch, collections):
    system = populated_system(200)
    monkeypatch.setattr(anonymizer_module, "_FULL_PASS_DUE", 1)
    gc.collect()  # no young debt from earlier tests may fall due first
    collections.clear()
    system.anonymizer.publish_all_bulk(system.clock)
    assert collections == [2]
    assert gc.isenabled()


def test_bulk_round_leaves_a_disabled_collector_alone(monkeypatch, collections):
    system = populated_system(200)
    monkeypatch.setattr(anonymizer_module, "_FULL_PASS_DUE", 1)
    gc.disable()
    try:
        collections.clear()
        system.anonymizer.publish_all_bulk(system.clock)
        assert collections == []
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_failed_bulk_round_releases_the_collector(monkeypatch):
    system = populated_system(50)

    def refuse(pseudonyms, bounds):
        raise RuntimeError("server refused the batch")

    monkeypatch.setattr(system.server, "receive_regions", refuse)
    with pytest.raises(RuntimeError):
        system.anonymizer.publish_all_bulk(system.clock)
    assert gc.isenabled()


def test_private_store_bulk_insert_rebuilds_and_matches_queries():
    store = PrivateStore()
    regions = {
        f"r{i}": Rect(float(i), 0.0, float(i + 2), 2.0) for i in range(20)
    }
    store.set_regions(list(regions), np.array([r.as_tuple() for r in regions.values()]))
    assert len(store) == 20
    assert store.version == 20
    window = Rect(0.0, 0.0, 5.0, 5.0)
    expected = sorted(
        object_id
        for object_id, region in regions.items()
        if region.intersects(window)
    )
    assert sorted(store.overlapping(window), key=str) == expected

    # A small batch (under REBUILD_FRACTION of the store) takes the
    # per-item path; results must be indistinguishable.
    small = Rect(100.0, 100.0, 101.0, 101.0)
    assert 1 < REBUILD_FRACTION * len(store)
    store.set_regions(["r0"], np.array([small.as_tuple()]))
    assert store.region_of("r0") == small
    assert store.version == 21
    assert "r0" not in store.overlapping(window)


def test_private_store_bulk_insert_preserves_counters():
    store = PrivateStore()
    store.set_region("seed", Rect(0.0, 0.0, 1.0, 1.0))
    store.overlapping(Rect(0.0, 0.0, 2.0, 2.0))
    before = store.index_counters.snapshot()["range_queries"]
    store.set_regions(
        [f"r{i}" for i in range(10)],
        np.array([(float(i), 0.0, float(i + 1), 1.0) for i in range(10)]),
    )
    after = store.index_counters.snapshot()["range_queries"]
    assert after == before  # rebuild carried the counters over


def test_a_rebuild_frees_the_old_tree_without_the_collector():
    """The store discards the R-tree a rebuild replaces: its nodes go by
    reference counting, not as a cycle left for a full collector pass."""
    ids = [f"r{i}" for i in range(200)]
    bounds = np.array([(float(i), 0.0, float(i + 1), 1.0) for i in range(200)])
    store = PrivateStore()
    store.set_regions(ids, bounds)
    gc.collect()
    gc.disable()
    try:
        store.set_regions(ids, bounds + 0.5)
        alive = sum(1 for thing in gc.get_objects() if type(thing) is _Node)
    finally:
        gc.enable()
    levels, nodes = [store._rtree._root], 0
    while levels:
        nodes += len(levels)
        levels = [c for node in levels if not node.leaf for c in node.entries]
    assert alive == nodes


def test_count_points_in_windows_inclusive_boundaries():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([0.0, 1.0, 2.0, 3.0])
    windows = kernels.windows_array(
        [Rect(1.0, 1.0, 2.0, 2.0), Rect(10.0, 10.0, 11.0, 11.0)]
    )
    counts = kernels.count_points_in_windows(xs, ys, windows)
    assert counts.tolist() == [2, 0]  # both edge points count


def test_grid_kernel_hands_no_generic_point_to_the_dense_scan(monkeypatch):
    """Work bound, by counting: the points x windows product given to the
    dense ``count_points_in_windows`` is zero on a generic population and
    at most (points on a gridline) x (distinct regions) otherwise."""
    world = Rect(0.0, 0.0, 1000.0, 1000.0)
    rng = np.random.default_rng(11)
    n = 20_000
    handed: list[tuple[int, int]] = []
    dense = kernels.count_points_in_windows

    def spy(xs, ys, windows):
        handed.append((xs.size, len(windows)))
        return dense(xs, ys, windows)

    monkeypatch.setattr(kernels, "count_points_in_windows", spy)

    def cloak_population(planted: list[Point]):
        cloaker = GridCloaker(world, cols=64, rows=64)
        for i, point in enumerate(planted):
            cloaker.add_user(f"edge{i}", point)
        for i in range(n - len(planted)):
            cloaker.add_user(
                f"u{i}",
                Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000))),
            )
        requests = [
            (
                user_id,
                PrivacyRequirement(
                    k=int(rng.integers(1, 33)),
                    min_area=float(rng.choice([0.0, 25.0, 100.0])),
                ),
            )
            for user_id in cloaker.snapshot_ids()
        ]
        handed.clear()
        return bulk_cloak(cloaker, requests)

    outcome = cloak_population([])
    assert outcome.path == "kernel"
    assert sum(points * windows for points, windows in handed) == 0

    on_lines = [Point(15.625, 400.3), Point(500.0, 500.0), Point(1000.0, 7.1)]
    outcome = cloak_population(on_lines)
    distinct = len(
        {
            result.region
            for result in outcome.results.values()
            if result.requirement.wants_privacy
        }
    )
    assert handed == [(len(on_lines), distinct)]


def test_explain_bulk_cloak_plan_shape():
    from repro.obs import QueryExplainer

    system = PrivacySystem(
        bounds=BOUNDS,
        cloaker=GridCloaker(BOUNDS, cols=8, rows=8),
        telemetry=Telemetry(enabled=False),
    )
    rng = np.random.default_rng(6)
    for i in range(12):
        system.add_user(
            MobileUser(
                f"u{i}",
                Point(float(rng.uniform(0, 32)), float(rng.uniform(0, 32))),
                PrivacyProfile.always(k=3),
            )
        )
    plan = QueryExplainer(system.server).explain_bulk_cloak(
        system.anonymizer, t=0.0
    )
    assert plan.op == "bulk_cloak"
    assert plan.detail["users"] == 12
    assert plan.detail["path"] == "kernel"
    assert plan.find("cloak.group")
    assert plan.find("store.set_regions")


def test_bulk_cloak_population_override():
    cloaker = grid_cloaker(n=10)
    requirement = PrivacyRequirement(k=8)
    # Override pretends only 5 users exist: k=8 must escalate to 5.
    outcome = bulk_cloak(cloaker, [("u0", requirement)], population=5)
    assert outcome.escalated == 1
    assert outcome.results["u0"].requirement.k == 8


# ----------------------------------------------------------------------
# The columnar outcome against the per-user fold it replaced
# ----------------------------------------------------------------------


def per_user_fold(results, escalated_ids) -> list[dict]:
    """``group_stats`` as a per-user fold over ``CloakResult``s, in row
    order: the reference the columnar aggregates must equal key for key."""
    groups: dict[tuple, dict] = {}
    for user_id, result in results.items():
        requirement = result.requirement
        key = (requirement.k, requirement.min_area, requirement.max_area)
        group = groups.setdefault(
            key,
            {
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
            },
        )
        group["n"] += 1
        group["escalated"] += user_id in escalated_ids
        k_ok = result.user_count >= requirement.k
        area = result.region.area
        area_ok = requirement.area_satisfied(area)
        group["k_attained"] += k_ok
        group["area_attained"] += area_ok
        group["fully_attained"] += k_ok and area_ok
        group["degraded"] += not (k_ok and area_ok)
        group["k_sum"] += result.user_count
        group["area_sum"] += area
        if group["k_min"] is None or result.user_count < group["k_min"]:
            group["k_min"] = result.user_count
        if group["area_min"] is None or area < group["area_min"]:
            group["area_min"] = area

    def order(key):
        k, min_area, max_area = key
        return (k, min_area, float("inf") if max_area is None else max_area)

    return [groups[key] for key in sorted(groups, key=order)]


#: A 100-wide world cut in 7: no cell side is dyadic, so region areas
#: carry rounding and a sum taken in another order reads differently.
WORLD_7 = Rect(0.0, 0.0, 100.0, 100.0)

EXACTNESS_CLOAKERS = {
    "grid_kernel": lambda: GridCloaker(WORLD_7, cols=7, rows=7),
    "pyramid_kernel": lambda: PyramidCloaker(WORLD_7, height=4),
    "scalar_fallback": lambda: PyramidCloaker(WORLD_7, height=4, neighbor_merge=True),
}


def exactness_round(name: str, seed: int = 8):
    """A mixed round: shared requirement objects (as profiles hand out)
    plus equal-valued fresh ones, ``max_area`` set and unset, exact-point
    users, and k above the population."""
    rng = np.random.default_rng(seed)
    cloaker = EXACTNESS_CLOAKERS[name]()
    n = 240
    for i in range(n):
        cloaker.add_user(
            f"u{i}", Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        )
    pool = [
        PrivacyRequirement(),
        PrivacyRequirement(k=3),
        PrivacyRequirement(k=3, max_area=150.0),
        PrivacyRequirement(k=8, min_area=300.0),
        PrivacyRequirement(k=8, min_area=300.0, max_area=2_000.0),
        PrivacyRequirement(k=20, max_area=700.0),
        PrivacyRequirement(k=n + 5),
        PrivacyRequirement(k=1, min_area=50.0),
    ]
    requests = []
    for i in range(n):
        requirement = pool[int(rng.integers(len(pool)))]
        if i % 11 == 0:  # an equal requirement in an object of its own
            requirement = PrivacyRequirement(
                requirement.k, requirement.min_area, requirement.max_area
            )
        requests.append((f"u{i}", requirement))
    escalated = {u for u, r in requests if r.wants_privacy and r.k > n}
    return cloaker, requests, escalated


@pytest.mark.parametrize("name", sorted(EXACTNESS_CLOAKERS))
def test_groups_equal_the_per_user_fold(name):
    cloaker, requests, escalated = exactness_round(name)
    outcome = bulk_cloak(cloaker, requests)
    assert outcome.path == ("scalar" if name == "scalar_fallback" else "kernel")
    want = per_user_fold(outcome.results, escalated)
    assert outcome.groups == want
    for got, reference in zip(outcome.groups, want):
        assert got["area_sum"].hex() == reference["area_sum"].hex()
        assert got["area_min"].hex() == reference["area_min"].hex()
        assert type(got["k_sum"]) is type(got["k_min"]) is int
    # The round covers what the fold distinguishes.
    assert sum(g["escalated"] for g in want) == len(escalated) > 0
    assert any(g["max_area"] is None for g in want)
    assert any(g["max_area"] is not None and g["area_attained"] < g["n"] for g in want)
    assert any(g["degraded"] for g in want)
    assert len({g["area_sum"] for g in want if g["min_area"] or g["k"] > 1}) > 1


def test_group_area_sum_is_the_row_order_sum():
    """Summed in another order the areas read differently, and the
    aggregate is the row-order one."""
    cloaker, requests, _ = exactness_round("grid_kernel", seed=3)
    outcome = bulk_cloak(cloaker, requests)
    differs = 0
    for group in outcome.groups:
        areas = [
            result.region.area
            for result in outcome.results.values()
            if (result.requirement.k, result.requirement.min_area,
                result.requirement.max_area)
            == (group["k"], group["min_area"], group["max_area"])
        ]
        sequential = 0.0
        for area in areas:
            sequential += area
        assert group["area_sum"] == sequential
        differs += float(np.sum(np.array(areas[::-1]))) != sequential
    assert differs  # the test would see a reordered sum


@pytest.mark.parametrize("name", sorted(EXACTNESS_CLOAKERS))
def test_results_view_order_length_and_values(name):
    cloaker, requests, _ = exactness_round(name)
    outcome = bulk_cloak(cloaker, requests)
    results = outcome.results
    assert len(results) == len(requests)
    # Exact-point users first, then the cloaked ones, each in request
    # order: the order the published rows follow.
    exact = [u for u, r in requests if not r.wants_privacy]
    cloaked = [u for u, r in requests if r.wants_privacy]
    assert exact and list(results) == exact + cloaked == outcome.users
    assert [u for u, _ in results.items()] == outcome.users
    assert "nobody" not in results
    with pytest.raises(KeyError):
        results["nobody"]
    by_user = dict(requests)
    for user_id in outcome.users:
        assert results[user_id].requirement is by_user[user_id]


def exactness_system(seed: int) -> tuple[PrivacySystem, list]:
    """:func:`exactness_round`'s users and requirements in a system."""
    system = PrivacySystem(bounds=WORLD_7, cloaker=GridCloaker(WORLD_7, cols=7, rows=7))
    cloaker, requests, _ = exactness_round("grid_kernel", seed=seed)
    for user_id, requirement in requests:
        system.add_user(
            MobileUser(
                user_id,
                cloaker.location_of(user_id),
                PrivacyProfile.always(
                    requirement.k, requirement.min_area, requirement.max_area
                ),
            )
        )
    return system, requests


def test_results_equal_cloak_user_for_sampled_users():
    system, requests = exactness_system(5)
    results = system.anonymizer.publish_all_bulk(system.clock)
    assert len(results) == len(requests)
    for user_id in [u for u, _ in requests][::17]:
        assert results[user_id] == system.anonymizer.cloak_user(user_id, system.clock)


def test_published_rows_follow_the_result_rows():
    system, _ = exactness_system(6)
    results = system.anonymizer.publish_all_bulk(system.clock)
    (published,) = list(system.obs.events.events(REGIONS_PUBLISHED_BULK))
    registrations = system.anonymizer._registrations
    attrs = published.attrs
    assert attrs["users"] == [str(user_id) for user_id in results]
    assert attrs["pseudonyms"] == [
        registrations[user_id].pseudonym for user_id in results
    ]
    assert attrs["sides"][attrs["region"]].tolist() == [
        list(result.region.as_tuple()) for result in results.values()
    ]
    areas = [result.region.area for result in results.values()]
    sequential = 0.0
    for area in areas:
        sequential += area
    assert published.attrs["area_sum"].hex() == sequential.hex()
    assert float(np.sum(np.array(areas))) != sequential  # order shows


def test_outcome_dies_by_reference_count():
    """A read through ``results`` leaves no reference cycle: replacing the
    anonymizer's last outcome frees it at once, not at the next full
    collector pass (a round's columns would otherwise pile up)."""
    import weakref

    cloaker, requests, _ = exactness_round("grid_kernel")
    gc.disable()
    try:
        outcome = bulk_cloak(cloaker, requests)
        first = outcome.users[0]
        assert outcome.results[first] == next(iter(outcome.results.values()))
        gone = weakref.ref(outcome)
        del outcome
        assert gone() is None
    finally:
        gc.enable()
