"""The experiment suite: one entry per paper figure / claim.

The paper is a vision paper with conceptual figures rather than measured
plots, so each experiment E1..E14 turns the corresponding figure or claim
into a measurement (see DESIGN.md's experiment index; E13/E14 cover the
related-work techniques the paper positions itself against).  Every
function is deterministic given its seed, returns a
:class:`~repro.evalx.tables.Table`, and is exercised both by the test
suite (shape + invariants) and by ``python -m repro experiments`` /
``report``, which print the EXPERIMENTS.md tables.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.attacks.linkage import MaxSpeedLinkageAttack
from repro.attacks.metrics import evaluate_attacks
from repro.cloaking.base import Cloaker
from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.mbr import MBRCloaker
from repro.cloaking.naive import NaiveCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyRequirement, example_profile, hhmm
from repro.core.stores import PrivateStore
from repro.engine.cloak import bulk_cloak
from repro.evalx.metrics import mean_and_p95, smallest_k_area
from repro.evalx.tables import Table
from repro.evalx.workloads import (
    Workload,
    build_workload,
    cloaked_private_store,
    loaded_cloaker,
    poi_store,
    query_windows,
    sample_victims,
    standard_cloakers,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sampling import uniform_point, uniform_points
from repro.mobility.random_waypoint import RandomWaypointModel
from repro.queries.continuous import ContinuousCountMonitor, ContinuousPrivateRange
from repro.queries.private_nn import exact_nn_answer, private_nn_query
from repro.queries.private_range import exact_range_answer, private_range_query
from repro.queries.public_nn import exact_nn_user, public_nn_query
from repro.queries.public_range import (
    exact_range_count,
    naive_range_count,
    public_range_count,
)


# ----------------------------------------------------------------------
# E1 — Figure 2: temporal privacy profiles
# ----------------------------------------------------------------------

def run_e1_profile() -> Table:
    """Reproduce Figure 2's profile behaviour across a full day."""
    profile = example_profile()
    table = Table(
        "E1 (Figure 2): requirement in force across the day",
        ["time", "k", "min_area", "max_area"],
    )
    for label in ["08:00", "12:00", "16:59", "17:00", "21:00", "22:00", "03:00"]:
        requirement = profile.requirement_at(hhmm(label))
        table.add_row(
            label,
            requirement.k,
            requirement.min_area,
            "-" if requirement.max_area is None else requirement.max_area,
        )
    return table


# ----------------------------------------------------------------------
# E2 / E3 — Figures 3 and 4: cloaking algorithm comparison
# ----------------------------------------------------------------------

def _cloaking_rows(
    cloakers: Sequence[Cloaker],
    workload: Workload,
    ks: Sequence[int],
    victims_per_k: int,
    table: Table,
) -> None:
    rng = np.random.default_rng(workload.seed + 1)
    victims = sample_victims(workload, victims_per_k, rng)
    for cloaker in cloakers:
        for k in ks:
            requirement = PrivacyRequirement(k=k)
            areas, rel_areas, times = [], [], []
            satisfied = 0
            for victim in victims:
                start = time.perf_counter()
                result = cloaker.cloak(victim, requirement)
                times.append(time.perf_counter() - start)
                areas.append(result.area)
                reference = smallest_k_area(cloaker, cloaker.location_of(victim), k)
                rel_areas.append(result.area / max(reference, 1e-9))
                satisfied += result.k_satisfied
            mean_area, p95_area = mean_and_p95(areas)
            table.add_row(
                cloaker.name,
                k,
                mean_area,
                p95_area,
                float(np.mean(rel_areas)),
                satisfied / len(victims),
                1000.0 * float(np.mean(times)),
            )


def run_e2_data_dependent(
    n_users: int = 2000, ks: Sequence[int] = (5, 20, 80), victims: int = 60, seed: int = 7
) -> Table:
    """Figure 3: naive vs MBR cloaking (areas, latency, leakage)."""
    workload = build_workload(n_users=n_users, seed=seed)
    cloakers = [
        loaded_cloaker(NaiveCloaker, workload),
        loaded_cloaker(MBRCloaker, workload),
    ]
    table = Table(
        "E2 (Figure 3): data-dependent cloaking",
        ["algorithm", "k", "mean_area", "p95_area", "rel_area", "k_sat", "ms/cloak"],
    )
    _cloaking_rows(cloakers, workload, ks, victims, table)
    return table


def run_e3_space_dependent(
    n_users: int = 2000, ks: Sequence[int] = (5, 20, 80), victims: int = 60, seed: int = 7
) -> Table:
    """Figure 4: quadtree vs grid vs pyramid (vs data-dependent reference)."""
    workload = build_workload(n_users=n_users, seed=seed)
    cloakers = [c for c in standard_cloakers(workload) if not c.data_dependent]
    table = Table(
        "E3 (Figure 4): space-dependent cloaking",
        ["algorithm", "k", "mean_area", "p95_area", "rel_area", "k_sat", "ms/cloak"],
    )
    _cloaking_rows(cloakers, workload, ks, victims, table)
    return table


def run_e3_ablation_pyramid(
    n_users: int = 2000, k: int = 20, victims: int = 100, seed: int = 7
) -> Table:
    """Ablation A3: pyramid search direction and neighbour merging."""
    workload = build_workload(n_users=n_users, seed=seed)
    variants = [
        ("bottom-up", loaded_cloaker(PyramidCloaker, workload, height=6)),
        (
            "top-down",
            loaded_cloaker(PyramidCloaker, workload, height=6, bottom_up=False),
        ),
        (
            "bottom-up+merge",
            loaded_cloaker(PyramidCloaker, workload, height=6, neighbor_merge=True),
        ),
    ]
    rng = np.random.default_rng(seed + 2)
    chosen = sample_victims(workload, victims, rng)
    requirement = PrivacyRequirement(k=k)
    table = Table(
        "E3 ablation (A3): pyramid variants",
        ["variant", "mean_area", "probes/cloak", "k_sat"],
    )
    for name, cloaker in variants:
        areas = []
        satisfied = 0
        for victim in chosen:
            result = cloaker.cloak(victim, requirement)
            areas.append(result.area)
            satisfied += result.k_satisfied
        probes = cloaker.stats.extra.get("probes", 0) / max(1, cloaker.stats.cloaks)
        table.add_row(name, float(np.mean(areas)), probes, satisfied / len(chosen))
    return table


def run_e2_clique(
    n_arrivals: int = 400,
    ks: Sequence[int] = (3, 5, 10),
    tolerance: float = 8.0,
    seed: int = 7,
) -> Table:
    """Deferred CliqueCloak (the real [17]) vs snapshot MBR cloaking.

    Requests arrive over time from a clustered city; CliqueCloak matches
    compatible groups (everyone in a group shares one region —
    reciprocal), paying with waiting time and a served-fraction below 1.
    """
    from repro.cloaking.clique import CliqueCloak

    workload = build_workload(n_users=n_arrivals, seed=seed)
    table = Table(
        "E2 extension: deferred CliqueCloak (personalised k, reciprocal groups)",
        ["k", "served_rate", "mean_group", "mean_delay", "mean_area"],
    )
    for k in ks:
        cloak = CliqueCloak(workload.bounds, max_delay=float(n_arrivals))
        for i, point in enumerate(workload.users):
            cloak.request(float(i), i, point, k=k, tolerance=tolerance)
        cloak.tick(float(n_arrivals))
        served_users = sum(r.group_size for r in cloak.served)
        delays = [r.max_delay_experienced for r in cloak.served]
        areas = [r.region.area for r in cloak.served]
        groups = [r.group_size for r in cloak.served]
        table.add_row(
            k,
            served_users / n_arrivals,
            float(np.mean(groups)) if groups else 0.0,
            float(np.mean(delays)) if delays else float("nan"),
            float(np.mean(areas)) if areas else float("nan"),
        )
    return table


# ----------------------------------------------------------------------
# E4 — Section 5.3: scalability techniques
# ----------------------------------------------------------------------

def run_e4_scalability(
    n_users: int = 3000,
    rounds: int = 4,
    move_fraction: float = 0.3,
    k: int = 20,
    seed: int = 7,
    bulk: bool = True,
) -> Table:
    """Incremental evaluation and shared execution vs naive recomputation.

    Each round moves a fraction of the population (random waypoint) and
    then re-cloaks *every* user; the strategies differ only in how the
    re-cloak is executed.  The headline strategy is the vectorized bulk
    write path (``publish_all(bulk=True)``, the default here): one numpy
    pass over the whole population plus a single server batch push,
    audited to zero undeclared privacy violations each run.  Pass
    ``bulk=False`` to route that strategy through the per-user oracle
    loop instead (the differential baseline).
    """
    requirement = PrivacyRequirement(k=k)
    table = Table(
        "E4 (Section 5.3): scalability techniques",
        ["strategy", "users", "cloaks/s", "reuse_or_share_rate"],
    )

    def fresh_setup():
        workload = build_workload(n_users=n_users, seed=seed)
        model = RandomWaypointModel(
            workload.bounds, np.random.default_rng(seed + 3), speed_range=(0.2, 1.0)
        )
        for i, point in enumerate(workload.users):
            model.add_user(i, point)
        return workload, model

    def run_rounds(cloak_round, cloaker_owner, model) -> tuple[float, int]:
        moved_per_round = int(move_fraction * n_users)
        rng = np.random.default_rng(seed + 4)
        total = 0
        start = time.perf_counter()
        for _ in range(rounds):
            positions = model.step(1.0)
            movers = rng.choice(n_users, size=moved_per_round, replace=False)
            for uid in movers:
                cloaker_owner.move_user(int(uid), positions[int(uid)])
            total += cloak_round()
        return time.perf_counter() - start, total

    # Headline strategy: the vectorized bulk write path, end to end
    # through anonymizer and server, with a privacy audit of the round's
    # cloak.bulk events (zero undeclared violations is a hard invariant).
    from repro.core.profiles import PrivacyProfile
    from repro.core.system import PrivacySystem
    from repro.mobility.users import MobileUser
    from repro.obs import PrivacyAuditor

    workload, model = fresh_setup()
    system = PrivacySystem(
        bounds=workload.bounds,
        cloaker=PyramidCloaker(workload.bounds, height=6),
    )
    profile = PrivacyProfile.always(k=k)
    for i, point in enumerate(workload.users):
        system.add_user(MobileUser(i, point, profile))

    def bulk_round() -> int:
        system.publish_all(bulk=bulk)
        return n_users

    elapsed, total = run_rounds(bulk_round, system.anonymizer.cloaker, model)
    auditor = PrivacyAuditor.from_log(system.obs.events)
    if auditor.violations():
        raise AssertionError(
            "bulk cloaking produced undeclared privacy violations"
        )
    table.add_row(
        "bulk-vectorized" if bulk else "bulk-disabled", n_users,
        total / elapsed, 0.0,
    )

    def per_user(cloaker) -> Callable[[], int]:
        """One round of ``cloaker.cloak`` calls, user by user."""
        return lambda: sum(
            1 for uid in cloaker.users() if cloaker.cloak(uid, requirement)
        )

    # Strategy 1: recompute every user individually (baseline).
    workload, model = fresh_setup()
    base = loaded_cloaker(PyramidCloaker, workload, height=6)
    elapsed, total = run_rounds(per_user(base), base, model)
    table.add_row("recompute", n_users, total / elapsed, 0.0)

    # Strategy 2: incremental evaluation.
    workload, model = fresh_setup()
    inner = loaded_cloaker(PyramidCloaker, workload, height=6)
    incremental = IncrementalCloaker(inner)
    elapsed, total = run_rounds(per_user(incremental), incremental, model)
    reuse_rate = inner.stats.reuses / max(1, total)
    table.add_row("incremental", n_users, total / elapsed, reuse_rate)

    # Strategy 3: shared execution on a cloaker without a kernel (the
    # neighbour-merge pyramid): bulk_cloak's scalar fallback cloaks once
    # per finest cell and requirement.  Its per-user baseline first.
    workload, model = fresh_setup()
    merge = loaded_cloaker(PyramidCloaker, workload, height=6, neighbor_merge=True)
    elapsed, total = run_rounds(per_user(merge), merge, model)
    table.add_row("merge-recompute", n_users, total / elapsed, 0.0)

    workload, model = fresh_setup()
    merge = loaded_cloaker(PyramidCloaker, workload, height=6, neighbor_merge=True)
    share_rates = []

    def shared_round() -> int:
        outcome = bulk_cloak(merge, [(uid, requirement) for uid in merge.users()])
        share_rates.append(1.0 - len(outcome.regions) / len(outcome.users))
        return len(outcome.users)

    elapsed, total = run_rounds(shared_round, merge, model)
    table.add_row("shared-batch", n_users, total / elapsed, float(np.mean(share_rates)))

    # Reference: a data-dependent algorithm, which cannot share.
    workload, model = fresh_setup()
    mbr = loaded_cloaker(MBRCloaker, workload)
    elapsed, total = run_rounds(per_user(mbr), mbr, model)
    table.add_row("mbr-per-user", n_users, total / elapsed, 0.0)

    # Incremental wrapping shines where the inner cloak is expensive:
    # MBR revalidation (one vectorised count) beats a fresh kNN+MBR.
    workload, model = fresh_setup()
    mbr_inner = loaded_cloaker(MBRCloaker, workload)
    mbr_incremental = IncrementalCloaker(mbr_inner)
    elapsed, total = run_rounds(per_user(mbr_incremental), mbr_incremental, model)
    mbr_reuse = mbr_inner.stats.reuses / max(1, total)
    table.add_row("mbr-incremental", n_users, total / elapsed, mbr_reuse)
    return table


def run_e4_scale_sweep(
    populations: Sequence[int] = (1000, 4000, 16000),
    k: int = 20,
    cloaks_per_size: int = 400,
    queries_per_size: int = 25,
    n_pois: int = 400,
    radius: float = 5.0,
    seed: int = 7,
) -> Table:
    """Scalability in the number of users (the paper's Section 1 concern).

    Per population size: cloaking throughput (pyramid vs MBR) and
    end-to-end private-range latency.  The pyramid's per-cloak cost must
    stay flat in N (counter walks); data-dependent costs grow.
    """
    table = Table(
        "E4 scale sweep: population growth",
        [
            "users",
            "pyramid_cloaks/s",
            "mbr_cloaks/s",
            "range_query_ms",
            "mean_area",
        ],
    )
    for n_users in populations:
        workload = build_workload(n_users=n_users, n_pois=n_pois, seed=seed)
        store = poi_store(workload)
        rng = np.random.default_rng(seed + 21)
        victims = sample_victims(workload, cloaks_per_size, rng)
        requirement = PrivacyRequirement(k=k)

        pyramid = loaded_cloaker(PyramidCloaker, workload, height=7)
        start = time.perf_counter()
        regions = [pyramid.cloak(v, requirement).region for v in victims]
        pyramid_rate = len(victims) / (time.perf_counter() - start)

        mbr = loaded_cloaker(MBRCloaker, workload)
        start = time.perf_counter()
        for victim in victims[: max(50, cloaks_per_size // 4)]:
            mbr.cloak(victim, requirement)
        mbr_rate = max(50, cloaks_per_size // 4) / (time.perf_counter() - start)

        start = time.perf_counter()
        for region in regions[:queries_per_size]:
            private_range_query(store, region, radius)
        query_ms = 1000.0 * (time.perf_counter() - start) / queries_per_size

        table.add_row(
            n_users,
            pyramid_rate,
            mbr_rate,
            query_ms,
            float(np.mean([r.area for r in regions])),
        )
    return table


# ----------------------------------------------------------------------
# E5 — Figure 5a: private range queries
# ----------------------------------------------------------------------

def run_e5_private_range(
    n_users: int = 2000,
    n_pois: int = 400,
    ks: Sequence[int] = (1, 5, 20, 80),
    radius: float = 5.0,
    queries: int = 40,
    seed: int = 7,
) -> Table:
    """Candidate-set cost of private range queries vs privacy level."""
    workload = build_workload(n_users=n_users, n_pois=n_pois, seed=seed)
    store = poi_store(workload)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    rng = np.random.default_rng(seed + 5)
    victims = sample_victims(workload, queries, rng)
    table = Table(
        "E5 (Figure 5a): private range query cost",
        [
            "k",
            "mean_area",
            "cand_exact",
            "cand_mbr",
            "mbr_inflation",
            "truth_size",
            "contained",
        ],
    )
    for k in ks:
        requirement = PrivacyRequirement(k=k)
        exact_sizes, mbr_sizes, truth_sizes, areas = [], [], [], []
        contained = True
        for victim in victims:
            point = cloaker.location_of(victim)
            region = (
                cloaker.cloak(victim, requirement).region
                if k > 1
                else Rect.from_point(point)
            )
            areas.append(region.area)
            exact = private_range_query(store, region, radius, "exact")
            approx = private_range_query(store, region, radius, "mbr")
            truth = exact_range_answer(store, point, radius)
            exact_sizes.append(len(exact.candidates))
            mbr_sizes.append(len(approx.candidates))
            truth_sizes.append(len(truth))
            contained = contained and set(truth) <= set(exact.candidates)
        table.add_row(
            k,
            float(np.mean(areas)),
            float(np.mean(exact_sizes)),
            float(np.mean(mbr_sizes)),
            float(np.mean(mbr_sizes)) / max(float(np.mean(exact_sizes)), 1e-9),
            float(np.mean(truth_sizes)),
            contained,
        )
    return table


# ----------------------------------------------------------------------
# E6 — Figure 5b: private NN queries
# ----------------------------------------------------------------------

def run_e6_private_nn(
    n_users: int = 2000,
    n_pois: int = 400,
    ks: Sequence[int] = (5, 20, 80),
    queries: int = 30,
    check_samples: int = 50,
    seed: int = 7,
) -> Table:
    """Candidate-set tightness of the three private-NN methods."""
    workload = build_workload(n_users=n_users, n_pois=n_pois, seed=seed)
    store = poi_store(workload)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    rng = np.random.default_rng(seed + 6)
    victims = sample_victims(workload, queries, rng)
    table = Table(
        "E6 (Figure 5b): private NN candidate sets",
        ["k", "method", "mean_cand", "p95_cand", "guarantee_ok", "ms/query"],
    )
    for k in ks:
        requirement = PrivacyRequirement(k=k)
        regions = [cloaker.cloak(v, requirement).region for v in victims]
        for method in ("range", "filter", "exact"):
            sizes, times = [], []
            guarantee = True
            for region in regions:
                start = time.perf_counter()
                result = private_nn_query(store, region, method)
                times.append(time.perf_counter() - start)
                sizes.append(len(result.candidates))
                for sample in uniform_points(region, check_samples, rng):
                    if exact_nn_answer(store, sample) not in result.candidates:
                        guarantee = False
            mean_size, p95_size = mean_and_p95(sizes)
            table.add_row(
                k, method, mean_size, p95_size, guarantee, 1000 * float(np.mean(times))
            )
    return table


# ----------------------------------------------------------------------
# E7 — Figure 6a: public count over private data
# ----------------------------------------------------------------------

def figure_6a_store() -> tuple[PrivateStore, Rect]:
    """The exact worked example of Figure 6a.

    Six cloaked objects A..F overlapping the query window with ratios
    1.0 (D), 0 (C), 0.75 (A), 0.5 (B), 0.2 (E), 0.25 (F).
    """
    store = PrivateStore()
    store.set_region("D", Rect(1, 1, 3, 3))
    store.set_region("C", Rect(20, 20, 22, 22))
    store.set_region("A", Rect(-2, 0, 6, 4))
    store.set_region("B", Rect(-5, 0, 5, 5))
    store.set_region("E", Rect(5, -8, 10, 2))
    store.set_region("F", Rect(6, 6, 14, 14))
    return store, Rect(0, 0, 10, 10)


def run_e7_public_count(
    n_users: int = 2000,
    ks: Sequence[int] = (1, 5, 20, 80),
    windows: int = 30,
    window_fraction: float = 0.15,
    seed: int = 7,
) -> tuple[Table, Table]:
    """Worked-example reproduction + accuracy sweep over privacy levels."""
    # Part 1: the paper's own numbers.
    store, window = figure_6a_store()
    answer = public_range_count(store, window)
    example = Table(
        "E7a (Figure 6a): worked example",
        ["format", "paper", "measured"],
    )
    example.add_row("absolute value", 2.7, answer.expected)
    example.add_row("interval min", 1, answer.interval[0])
    example.add_row("interval max", 5, answer.interval[1])
    example.add_row("naive count", 5, naive_range_count(store, window))

    # Part 2: accuracy vs privacy level on a synthetic city.
    workload = build_workload(n_users=n_users, seed=seed)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    exact_locations = {i: p for i, p in enumerate(workload.users)}
    rng = np.random.default_rng(seed + 7)
    query_set = query_windows(workload.bounds, windows, window_fraction, rng)
    sweep = Table(
        "E7b: count accuracy vs privacy level",
        ["k", "mean_truth", "abs_err", "naive_err", "interval_width", "mode_hit"],
    )
    for k in ks:
        private = cloaked_private_store(cloaker, k=k)
        errs, naive_errs, widths, mode_hits, truths = [], [], [], [], []
        for window in query_set:
            truth = exact_range_count(exact_locations, window)
            answer = public_range_count(private, window)
            errs.append(abs(answer.expected - truth))
            naive_errs.append(abs(naive_range_count(private, window) - truth))
            lo, hi = answer.interval
            widths.append(hi - lo)
            mode_hits.append(abs(answer.most_likely_count() - truth))
            truths.append(truth)
        sweep.add_row(
            k,
            float(np.mean(truths)),
            float(np.mean(errs)),
            float(np.mean(naive_errs)),
            float(np.mean(widths)),
            float(np.mean(mode_hits)),
        )
    return example, sweep


# ----------------------------------------------------------------------
# E8 — Figure 6b: public NN over private data
# ----------------------------------------------------------------------

def run_e8_public_nn(
    n_users: int = 400,
    ks: Sequence[int] = (1, 5, 20, 80),
    queries: int = 30,
    samples: int = 2048,
    seed: int = 7,
) -> Table:
    """Probabilistic NN answers: candidates, entropy, top-1 accuracy."""
    workload = build_workload(n_users=n_users, seed=seed)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    exact_locations = {i: p for i, p in enumerate(workload.users)}
    rng = np.random.default_rng(seed + 8)
    query_points = uniform_points(workload.bounds, queries, rng)
    table = Table(
        "E8 (Figure 6b): public NN over private data",
        ["k", "mean_cand", "entropy_bits", "top1_acc", "truth_in_cand"],
    )
    for k in ks:
        private = cloaked_private_store(cloaker, k=k)
        cand_sizes, entropies, top_hits, contained = [], [], [], []
        for query in query_points:
            result = public_nn_query(private, query, samples=samples, rng=rng)
            truth = exact_nn_user(exact_locations, query)
            cand_sizes.append(len(result.candidates))
            entropies.append(result.answer.entropy())
            top_hits.append(result.answer.top == truth)
            contained.append(truth in result.candidates)
        table.add_row(
            k,
            float(np.mean(cand_sizes)),
            float(np.mean(entropies)),
            float(np.mean(top_hits)),
            float(np.mean(contained)),
        )
    return table


def figure_6b_example() -> Table:
    """A Figure 6b-style scenario: pruning keeps {E, D, F}, drops A, B, C."""
    store = PrivateStore()
    # Regions positioned so D certainly beats A/B/C but E and F overlap the
    # race, mirroring the figure's qualitative layout.
    store.set_region("A", Rect(30, 60, 44, 74))
    store.set_region("B", Rect(10, 30, 26, 46))
    store.set_region("C", Rect(60, 65, 80, 85))
    store.set_region("D", Rect(48, 48, 54, 54))
    store.set_region("E", Rect(40, 38, 58, 50))
    store.set_region("F", Rect(50, 50, 68, 62))
    query = Point(51, 47)
    result = public_nn_query(store, query, samples=4096)
    table = Table(
        "E8 example (Figure 6b layout): candidate probabilities",
        ["object", "P(nearest)"],
    )
    for object_id, probability in result.answer.ranked():
        table.add_row(object_id, probability)
    return table


def run_e8_sample_convergence(
    n_users: int = 400,
    k: int = 20,
    sample_counts: Sequence[int] = (128, 512, 2048, 8192),
    reference_samples: int = 65536,
    seed: int = 7,
) -> Table:
    """Ablation A5: Monte-Carlo convergence of the top candidate's probability."""
    workload = build_workload(n_users=n_users, seed=seed)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    private = cloaked_private_store(cloaker, k=k)
    query = Point(50, 50)
    reference = public_nn_query(
        private, query, samples=reference_samples, rng=np.random.default_rng(0)
    ).answer
    table = Table(
        "E8 ablation (A5): Monte-Carlo convergence of P(top candidate)",
        ["samples", "P_top_estimate", f"abs_error_vs_{reference_samples}"],
    )
    for samples in sample_counts:
        estimate = public_nn_query(
            private, query, samples=samples, rng=np.random.default_rng(1)
        ).answer
        p = estimate.probabilities.get(reference.top, 0.0)
        table.add_row(samples, p, abs(p - reference.probabilities[reference.top]))
    return table


# ----------------------------------------------------------------------
# E9 — the central privacy/QoS trade-off
# ----------------------------------------------------------------------

def run_e9_tradeoff(
    n_users: int = 1500,
    n_pois: int = 300,
    ks: Sequence[int] = (1, 2, 5, 10, 20, 50, 100),
    queries: int = 25,
    radius: float = 5.0,
    seed: int = 7,
) -> Table:
    """k vs every cost the paper says the user is trading service for."""
    workload = build_workload(n_users=n_users, n_pois=n_pois, seed=seed)
    store = poi_store(workload)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    exact_locations = {i: p for i, p in enumerate(workload.users)}
    rng = np.random.default_rng(seed + 9)
    victims = sample_victims(workload, queries, rng)
    count_window = query_windows(workload.bounds, 1, 0.2, rng)[0]
    table = Table(
        "E9: privacy vs quality-of-service trade-off (pyramid cloaking)",
        [
            "k",
            "mean_area",
            "range_cand",
            "range_overhead",
            "nn_cand",
            "count_err",
            "answer_ok",
        ],
    )
    for k in ks:
        requirement = PrivacyRequirement(k=k)
        areas, range_sizes, overheads, nn_sizes = [], [], [], []
        all_ok = True
        for victim in victims:
            point = cloaker.location_of(victim)
            region = (
                cloaker.cloak(victim, requirement).region
                if k > 1
                else Rect.from_point(point)
            )
            areas.append(region.area)
            range_result = private_range_query(store, region, radius)
            truth = exact_range_answer(store, point, radius)
            range_sizes.append(len(range_result.candidates))
            overheads.append(len(range_result.candidates) / max(1, len(truth)))
            all_ok = all_ok and set(truth) <= set(range_result.candidates)
            nn_result = private_nn_query(store, region, "filter")
            nn_sizes.append(len(nn_result.candidates))
            all_ok = all_ok and exact_nn_answer(store, point) in nn_result.candidates
        private = cloaked_private_store(cloaker, k=k)
        count_answer = public_range_count(private, count_window)
        count_truth = exact_range_count(exact_locations, count_window)
        table.add_row(
            k,
            float(np.mean(areas)),
            float(np.mean(range_sizes)),
            float(np.mean(overheads)),
            float(np.mean(nn_sizes)),
            abs(count_answer.expected - count_truth),
            all_ok,
        )
    return table


def run_e9_by_algorithm(
    n_users: int = 1200,
    n_pois: int = 300,
    k: int = 20,
    queries: int = 25,
    radius: float = 5.0,
    posterior_sample: int = 10,
    seed: int = 7,
) -> Table:
    """The trade-off as an *algorithm choice* at fixed k.

    One row per cloaker: what the user pays (candidate sizes) and what she
    actually gets (posterior anonymity under the omniscient adversary) —
    the two sides of the dial the per-k sweep cannot show.
    """
    from repro.attacks.posterior import posterior_anonymity

    workload = build_workload(n_users=n_users, n_pois=n_pois, seed=seed)
    store = poi_store(workload)
    rng = np.random.default_rng(seed + 20)
    victims = sample_victims(workload, queries, rng)
    requirement = PrivacyRequirement(k=k)
    table = Table(
        "E9b: cost vs delivered anonymity by algorithm (k = %d)" % k,
        ["algorithm", "mean_area", "range_cand", "nn_cand", "posterior_k"],
    )
    for cloaker in standard_cloakers(workload):
        areas, range_sizes, nn_sizes = [], [], []
        for victim in victims:
            region = cloaker.cloak(victim, requirement).region
            areas.append(region.area)
            range_sizes.append(
                len(private_range_query(store, region, radius).candidates)
            )
            nn_sizes.append(len(private_nn_query(store, region, "filter").candidates))
        posteriors = [
            posterior_anonymity(cloaker, victim, requirement).posterior_anonymity
            for victim in victims[:posterior_sample]
        ]
        table.add_row(
            cloaker.name,
            float(np.mean(areas)),
            float(np.mean(range_sizes)),
            float(np.mean(nn_sizes)),
            float(np.mean(posteriors)),
        )
    return table


# ----------------------------------------------------------------------
# E10 — attack resistance of every algorithm
# ----------------------------------------------------------------------

def run_e10_attacks(
    n_users: int = 800,
    k: int = 10,
    victims: int = 40,
    posterior_sample: int = 15,
    seed: int = 7,
) -> Table:
    """Requirement 2 quantified: the attack suite against all algorithms."""
    workload = build_workload(n_users=n_users, seed=seed)
    rng = np.random.default_rng(seed + 10)
    chosen = sample_victims(workload, victims, rng)
    requirement = PrivacyRequirement(k=k)
    table = Table(
        "E10: attack resistance (k = %d)" % k,
        [
            "algorithm",
            "center_err",
            "random_err",
            "boundary_rate",
            "posterior_k",
            "reciprocity",
        ],
    )
    for cloaker in standard_cloakers(workload):
        report = evaluate_attacks(
            cloaker, requirement, chosen, rng, posterior_sample=posterior_sample
        )
        table.add_row(
            report.algorithm,
            report.center_norm_error,
            report.random_norm_error,
            report.boundary_rate,
            report.mean_posterior_anonymity,
            report.reciprocity_rate,
        )
    return table


def run_e10_density(
    n_users: int = 800,
    k: int = 10,
    victims: int = 40,
    seed: int = 7,
) -> Table:
    """Density-aware adversary on a hotspot city: the k-anonymity gap.

    A region that is nominally k-anonymous leaks location through public
    density knowledge; this table compares the centre attack against the
    density-weighted MAP attack per algorithm.
    """
    from repro.attacks.density import DensityModel, DensityWeightedAttack
    from repro.attacks.location import CenterAttack

    workload = build_workload(n_users=n_users, distribution="hotspot", seed=seed)
    model = DensityModel(workload.bounds, resolution=32).fit(workload.users)
    density_attack = DensityWeightedAttack(model)
    center_attack = CenterAttack()
    rng = np.random.default_rng(seed + 19)
    chosen = sample_victims(workload, victims, rng)
    requirement = PrivacyRequirement(k=k)
    table = Table(
        "E10 density: density-aware adversary (hotspot city, k = %d)" % k,
        ["algorithm", "center_err", "density_err", "effective_cells"],
    )
    for cloaker in standard_cloakers(workload):
        center_errors, density_errors, effective = [], [], []
        for victim in chosen:
            region = cloaker.cloak(victim, requirement).region
            true_location = cloaker.location_of(victim)
            center_errors.append(
                center_attack.attack(region, true_location).normalized_error
            )
            density_errors.append(
                density_attack.attack(region, true_location).normalized_error
            )
            effective.append(model.effective_anonymity(region))
        table.add_row(
            cloaker.name,
            float(np.mean(center_errors)),
            float(np.mean(density_errors)),
            float(np.mean(effective)),
        )
    return table


def run_e10_linkage(
    n_users: int = 1000,
    k: int = 20,
    steps: int = 20,
    seed: int = 7,
) -> Table:
    """Temporal leakage: max-speed linkage across successive cloaks."""
    workload = build_workload(n_users=n_users, seed=seed)
    bounds = workload.bounds
    table = Table(
        "E10 linkage: feasible-area shrinkage over an update stream",
        ["algorithm", "mean_shrinkage", "final_shrinkage"],
    )
    requirement = PrivacyRequirement(k=k)
    for cloaker in standard_cloakers(workload):
        model = RandomWaypointModel(
            bounds, np.random.default_rng(seed + 11), speed_range=(0.5, 0.5)
        )
        for i, point in enumerate(workload.users):
            model.add_user(i, point)
        attack = MaxSpeedLinkageAttack(max_speed=0.5)
        victim = 0
        for step in range(steps):
            positions = model.step(1.0)
            cloaker.move_user(victim, positions[victim])
            region = cloaker.cloak(victim, requirement).region
            attack.observe(float(step), region)
        table.add_row(
            cloaker.name,
            attack.mean_shrinkage(),
            attack.steps[-1].shrinkage,
        )
    return table


# ----------------------------------------------------------------------
# E11 — transmission cost vs the send-everything baseline
# ----------------------------------------------------------------------

def run_e11_transmission(
    n_users: int = 1500,
    n_pois_list: Sequence[int] = (100, 400, 1600),
    k: int = 20,
    radius: float = 5.0,
    queries: int = 25,
    seed: int = 7,
) -> Table:
    """Section 6.2.1's naive "ship all objects" vs candidate sets."""
    table = Table(
        "E11: transmission cost vs send-everything baseline",
        ["n_pois", "send_all", "range_cand", "nn_cand", "range_saving", "nn_saving"],
    )
    for n_pois in n_pois_list:
        workload = build_workload(n_users=n_users, n_pois=n_pois, seed=seed)
        store = poi_store(workload)
        cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
        rng = np.random.default_rng(seed + 12)
        victims = sample_victims(workload, queries, rng)
        requirement = PrivacyRequirement(k=k)
        range_sizes, nn_sizes = [], []
        for victim in victims:
            region = cloaker.cloak(victim, requirement).region
            range_sizes.append(
                len(private_range_query(store, region, radius).candidates)
            )
            nn_sizes.append(len(private_nn_query(store, region, "filter").candidates))
        mean_range = float(np.mean(range_sizes))
        mean_nn = float(np.mean(nn_sizes))
        table.add_row(
            n_pois,
            n_pois,
            mean_range,
            mean_nn,
            n_pois / max(mean_range, 1e-9),
            n_pois / max(mean_nn, 1e-9),
        )
    return table


# ----------------------------------------------------------------------
# E12 — continuous queries: incremental vs recompute
# ----------------------------------------------------------------------

def run_e12_continuous(
    n_users: int = 2000,
    updates: int = 2000,
    k: int = 20,
    seed: int = 7,
) -> Table:
    """Incremental monitor maintenance vs full re-evaluation."""
    workload = build_workload(n_users=n_users, seed=seed)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    private = cloaked_private_store(cloaker, k=k)
    rng = np.random.default_rng(seed + 13)
    window = query_windows(workload.bounds, 1, 0.25, rng)[0]

    monitor = ContinuousCountMonitor(window)
    monitor.seed_from_store(private)

    # Pre-generate an update stream: random users get slightly shifted
    # regions (as their movement triggers re-cloaks).
    stream = []
    user_ids = list(private)
    for _ in range(updates):
        uid = user_ids[int(rng.integers(len(user_ids)))]
        region = private.region_of(uid)
        dx = float(rng.uniform(-1, 1))
        dy = float(rng.uniform(-1, 1))
        stream.append((uid, region.translated(dx, dy).clipped(workload.bounds)))

    # Apply the store updates first so both strategies are timed purely on
    # *answer maintenance*, not on shared R-tree bookkeeping.
    final_regions: dict = {}
    for uid, region in stream:
        final_regions[uid] = region
    start = time.perf_counter()
    for uid, region in stream:
        monitor.on_region_update(uid, region)
    incremental_time = time.perf_counter() - start
    for uid, region in final_regions.items():
        private.set_region(uid, region)
    incremental_expected = monitor.expected_count

    # Baseline: full recompute after every update (measured on a slice and
    # extrapolated — running all of them would dominate the harness).
    probe = max(1, updates // 50)
    start = time.perf_counter()
    for _ in range(probe):
        monitor.recompute(private)
    recompute_time = (time.perf_counter() - start) / probe * updates
    recomputed = monitor.recompute(private)

    table = Table(
        "E12: continuous count query maintenance",
        ["strategy", "updates", "seconds", "updates/s", "expected_count"],
    )
    table.add_row(
        "incremental",
        updates,
        incremental_time,
        updates / incremental_time,
        incremental_expected,
    )
    table.add_row(
        "recompute",
        updates,
        recompute_time,
        updates / recompute_time,
        recomputed.expected,
    )
    return table


def run_e12_delta_transmission(
    n_users: int = 1000,
    n_pois: int = 400,
    steps: int = 25,
    k: int = 20,
    radius: float = 8.0,
    seed: int = 7,
) -> Table:
    """Delta shipping for a continuous private range query."""
    workload = build_workload(n_users=n_users, n_pois=n_pois, seed=seed)
    store = poi_store(workload)
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    model = RandomWaypointModel(
        workload.bounds, np.random.default_rng(seed + 14), speed_range=(0.5, 1.5)
    )
    for i, point in enumerate(workload.users):
        model.add_user(i, point)
    victim = 0
    requirement = PrivacyRequirement(k=k)
    continuous = ContinuousPrivateRange(store, radius=radius)
    full_cost = 0
    for _ in range(steps):
        positions = model.step(1.0)
        cloaker.move_user(victim, positions[victim])
        region = cloaker.cloak(victim, requirement).region
        continuous.on_region_update(region)
        full_cost += continuous.full_answer_cost
    table = Table(
        "E12 delta: continuous private range transmission",
        ["strategy", "steps", "objects_shipped", "objects/step"],
    )
    table.add_row(
        "delta", steps, continuous.objects_shipped, continuous.objects_shipped / steps
    )
    table.add_row("full-reship", steps, full_cost, full_cost / steps)
    return table


# ----------------------------------------------------------------------
# E13 — extension: spatio-temporal cloaking (time-for-space trade)
# ----------------------------------------------------------------------

def run_e13_temporal(
    n_users: int = 800,
    ks: Sequence[int] = (2, 5, 10),
    region_side: float = 4.0,
    steps: int = 40,
    requests: int = 40,
    seed: int = 7,
) -> Table:
    """Delay paid for a fixed small region vs the area a spatial cloaker
    needs for the same k — the two currencies of location privacy."""
    from repro.cloaking.temporal import TemporalCloaker

    workload = build_workload(n_users=n_users, seed=seed)
    table = Table(
        "E13 (extension): temporal vs spatial cloaking",
        [
            "k",
            "temporal_area",
            "release_rate",
            "mean_delay",
            "spatial_area(pyramid)",
        ],
    )
    spatial = loaded_cloaker(PyramidCloaker, workload, height=6)
    rng = np.random.default_rng(seed + 15)
    victims = sample_victims(workload, requests, rng)
    for k in ks:
        requirement = PrivacyRequirement(k=k)
        temporal = TemporalCloaker(
            workload.bounds,
            region_side=region_side,
            window=float(steps),
            max_delay=float(steps),
        )
        model = RandomWaypointModel(
            workload.bounds, np.random.default_rng(seed + 16), speed_range=(0.5, 2.0)
        )
        for i, point in enumerate(workload.users):
            model.add_user(i, point)
        temporal.observe_step(0.0, {i: p for i, p in enumerate(workload.users)})
        for victim in victims:
            temporal.request(0.0, victim, requirement)
        for step in range(1, steps + 1):
            temporal.observe_step(float(step), model.step(1.0))
            temporal.tick(float(step))
        released = temporal.released
        release_rate = len(released) / requests
        mean_delay = (
            float(np.mean([r.delay for r in released])) if released else float("nan")
        )
        spatial_areas = [
            spatial.cloak(victim, requirement).area for victim in victims
        ]
        table.add_row(
            k,
            region_side * region_side,
            release_rate,
            mean_delay,
            float(np.mean(spatial_areas)),
        )
    return table


# ----------------------------------------------------------------------
# E14 — related-work baseline: false dummies
# ----------------------------------------------------------------------

def run_e14_dummies(
    n_dummy_counts: Sequence[int] = (2, 4, 8),
    updates: int = 15,
    n_pois: int = 400,
    radius: float = 5.0,
    seed: int = 7,
) -> Table:
    """Privacy and query cost of false dummies vs cloaking.

    Privacy: plausible-set size after the movement-consistency attack.
    Cost: objects a private range query must ship (one answer per sent
    point, vs one candidate set for a cloaked region at matching k).
    """
    from repro.cloaking.dummies import DummyGenerator, dummy_posterior_size

    workload = build_workload(n_users=800, n_pois=n_pois, seed=seed)
    store = poi_store(workload)
    model = RandomWaypointModel(
        workload.bounds, np.random.default_rng(seed + 17), speed_range=(1.0, 1.0)
    )
    model.add_user("victim", workload.users[0])
    trajectory = [workload.users[0]]
    for _ in range(updates - 1):
        trajectory.append(model.step(1.0)["victim"])

    table = Table(
        "E14 (related work): false dummies vs cloaking",
        ["variant", "points_sent", "posterior_size", "range_transmission"],
    )
    for consistent in (False, True):
        for n_dummies in n_dummy_counts:
            generator = DummyGenerator(
                workload.bounds,
                n_dummies,
                np.random.default_rng(seed + 18),
                consistent=consistent,
            )
            reports = [generator.report("victim", p) for p in trajectory]
            posterior = dummy_posterior_size(reports, max_speed=1.0, dt=1.0)
            # Query cost: the server answers a plain range query around
            # every transmitted point of the final report.
            last = reports[-1]
            transmission = sum(
                len(exact_range_answer(store, p, radius)) for p in last.locations
            )
            table.add_row(
                "consistent" if consistent else "naive",
                n_dummies + 1,
                posterior,
                transmission,
            )
    # Reference: pyramid cloaking at a comparable nominal anonymity.
    cloaker = loaded_cloaker(PyramidCloaker, workload, height=6)
    for k in [n + 1 for n in n_dummy_counts]:
        region = cloaker.cloak(0, PrivacyRequirement(k=k)).region
        result = private_range_query(store, region, radius)
        table.add_row(f"pyramid k={k}", 1, float(k), len(result.candidates))
    return table
