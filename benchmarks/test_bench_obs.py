"""Observability smoke benchmark: times the pipeline and emits BENCH_obs.json.

Run via ``make bench`` (all four gates) or
``pytest benchmarks/test_bench_obs.py -q``.  Each stage of the
private-query pipeline is timed with the benchmark harness while a
telemetry-instrumented :class:`~repro.core.system.PrivacySystem`
accumulates per-stage latency histograms and index work counters; the
monitoring-overhead gate (< 5 %) runs on the same system, a write-path
arm gates the monitoring share of bulk ticks (< 12 %), and the final
test folds everything into ``BENCH_obs.json`` at the repo root — the
machine-readable record CI uploads as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CountSpec,
    MobileUser,
    NNSpec,
    PrivacyProfile,
    PrivacySystem,
    PyramidCloaker,
    RangeSpec,
)
from repro.geometry import Point, Rect
from repro.obs import SLOMonitor

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

N_USERS = 500
N_POIS = 60
N_QUERIES = 40
#: Users moved and bulk-published per tick by the write-path arm.
N_WRITE_USERS = 4000
#: Gate on the write-path arm's monitoring share.  The columnar risk
#: folds read 0.071-0.073 on a two-core container (the per-user folds
#: before them 0.18), and 0.097-0.101 with their reuse of the last
#: list's rows taken out: 0.12 holds for both, with 60 % headroom over
#: the folds as they are.
MAX_WRITE_SHARE = 0.12

#: Shared across the module's tests: per-experiment timings, filled in by
#: each benchmark test and flushed to disk by the final report test.
_RESULTS: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="module")
def system():
    rng = np.random.default_rng(42)
    bounds = Rect(0, 0, 1000, 1000)
    sys_ = PrivacySystem(bounds, PyramidCloaker(bounds, height=7))
    for j in range(N_POIS):
        x, y = rng.uniform(0, 1000, 2)
        sys_.add_poi(f"poi-{j}", Point(float(x), float(y)))
    for i in range(N_USERS):
        x, y = rng.uniform(0, 1000, 2)
        sys_.add_user(
            MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=10))
        )
    sys_.publish_all()
    return sys_


def _note(name: str, benchmark) -> None:
    stats = benchmark.stats.stats
    _RESULTS[name] = {
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "rounds": stats.rounds,
    }


def test_obs_smoke_publish_all(benchmark, system):
    benchmark.pedantic(system.publish_all, rounds=3, iterations=1)
    _note("publish_all", benchmark)


def test_obs_smoke_private_range(benchmark, system):
    user_ids = iter(range(10_000))

    def run():
        base = next(user_ids) * N_QUERIES
        for i in range(N_QUERIES):
            system.query(RangeSpec(flavor="private", user=(base + i) % N_USERS, radius=60.0))

    benchmark.pedantic(run, rounds=3, iterations=1)
    _note("private_range_x40", benchmark)


def test_obs_smoke_private_nn(benchmark, system):
    user_ids = iter(range(10_000))

    def run():
        base = next(user_ids) * N_QUERIES
        for i in range(N_QUERIES):
            system.query(NNSpec(flavor="private", user=(base + i * 3) % N_USERS))

    benchmark.pedantic(run, rounds=3, iterations=1)
    _note("private_nn_x40", benchmark)


def test_obs_smoke_public_count(benchmark, system):
    window = Rect(200, 200, 800, 800)

    def run():
        for _ in range(N_QUERIES):
            system.query(CountSpec(window=window))

    benchmark.pedantic(run, rounds=3, iterations=1)
    _note("public_count_x40", benchmark)


def test_obs_loop_planner_feedback(benchmark, system):
    """Planned queries with the planner's telemetry on: correlation scope,
    decision and measurement emits, route-census count per query."""
    window = Rect(200, 200, 700, 700)

    def run():
        for _ in range(N_QUERIES):
            system.query(RangeSpec(window=window))

    benchmark.pedantic(run, rounds=3, iterations=1)
    _note("planned_range_x40", benchmark)


def test_obs_loop_health_evaluate(benchmark, system):
    """One full SLO evaluation over the accumulated window."""
    monitor = SLOMonitor()
    report = benchmark.pedantic(
        lambda: monitor.evaluate(system), rounds=3, iterations=1
    )
    assert len(report.results) == 9
    _note("health_evaluate", benchmark)


def test_obs_loop_monitoring_overhead(system):
    """Gate: live monitoring (time-series tap + risk monitor) must cost
    under 5% on the planned-query path, with windows actually cutting.

    The monitoring stack's share is read off the run itself: the risk
    monitor's event tap and the time-series sampler (whose window cut
    runs the risk score) are timed where they are called, over query
    traffic that outlasts the default 1 s sampling interval at least
    twice, and compared with the rest of that same wall time.  A
    monitored-versus-unmonitored wall-clock difference cannot resolve 5%
    here: two identical arms differ by more than that run to run.
    """
    import time

    interval = 1.0
    own = 0.0

    def timed(fn):
        def wrapper(*args):
            nonlocal own
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                own += time.perf_counter() - start

        return wrapper

    def run_round():
        for i in range(N_QUERIES):
            system.query(
                RangeSpec(flavor="private", user=i % N_USERS, radius=60.0)
            )

    run_round()  # warm caches/snapshots before timing
    system.disable_monitoring()
    system.enable_monitoring(interval=interval)
    try:
        log, risk, series = system.obs.events, system.risk, system.timeseries
        tap = timed(risk.consume)
        log.remove_tap(risk.consume)
        log.add_tap(tap)
        series.maybe_sample = timed(series.maybe_sample)
        start = time.perf_counter()
        while time.perf_counter() - start < 2.2 * interval:
            run_round()
        total = time.perf_counter() - start
        windows_cut = series.windows_cut
        risk_events = risk.events_consumed
        log.remove_tap(tap)
    finally:
        system.disable_monitoring()
    overhead = own / (total - own)
    _RESULTS["monitoring"] = {
        "total_s": total,
        "monitoring_s": own,
        "overhead": overhead,
        "windows_cut": windows_cut,
        "risk_events_consumed": risk_events,
    }
    assert windows_cut > 0, (
        "no window was cut inside the timed region: sampling and risk "
        "scoring were never measured"
    )
    assert risk_events > 0, "risk monitor saw no traffic while enabled"
    assert overhead < 0.05, (
        f"monitoring overhead {overhead:.1%} exceeds the 5% budget "
        f"({own * 1e3:.1f}ms of {total * 1e3:.1f}ms, {windows_cut} windows cut)"
    )


def test_obs_loop_monitoring_write_share():
    """The monitoring stack's share of bulk ticks (the write path).

    Measured like the planned-query gate above: the risk monitor's event
    tap and the time-series sampler are timed where they are called,
    here over bulk ticks shaped like the pipeline benchmark's (every user
    reports through ``update_location``, then one bulk publish), for at
    least two sampling intervals.  Recorded as ``monitoring_write_share``
    (monitoring seconds over tick seconds) and gated below
    ``MAX_WRITE_SHARE``.  Every user moves every tick, so nearly every
    row changes bucket: the bucket fold's worst case.  The users list is
    the same every tick, so the folds reuse the last list's rows.
    """
    import time
    from collections import Counter

    from repro.cloaking.grid_cloak import GridCloaker
    from repro.obs.events import REGIONS_PUBLISHED_BULK, USERS_MOVED

    interval = 1.0
    rng = np.random.default_rng(7)
    bounds = Rect(0, 0, 1000, 1000)
    write = PrivacySystem(bounds, GridCloaker(bounds, cols=64, rows=64))
    for i in range(N_WRITE_USERS):
        x, y = rng.uniform(0, 1000, 2)
        write.add_user(
            MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=10))
        )
    write.publish_all(bulk=True)
    write.enable_monitoring(interval=interval)
    own = 0.0
    kinds: Counter = Counter()
    moved_rows = 0

    def timed(fn, count=False):
        def wrapper(*args):
            nonlocal own, moved_rows
            if count:
                kinds[args[0].kind] += 1
                if args[0].kind == USERS_MOVED:
                    moved_rows += len(args[0].attrs["users"])
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                own += time.perf_counter() - start

        return wrapper

    log, risk, series = write.obs.events, write.risk, write.timeseries
    tap = timed(risk.consume, count=True)
    log.remove_tap(risk.consume)
    log.add_tap(tap)
    series.maybe_sample = timed(series.maybe_sample)
    update = write.anonymizer.update_location
    ticks = 0
    start = time.perf_counter()
    while time.perf_counter() - start < 2.2 * interval:
        for user_id in range(N_WRITE_USERS):
            x, y = rng.uniform(0, 1000, 2)
            update(user_id, Point(float(x), float(y)))
        write.publish_all(bulk=True)
        ticks += 1
    total = time.perf_counter() - start
    windows_cut = series.windows_cut
    log.remove_tap(tap)
    write.disable_monitoring()
    share = own / total
    _RESULTS["monitoring_write"] = {
        "users": N_WRITE_USERS,
        "ticks": ticks,
        "total_s": total,
        "monitoring_s": own,
        "monitoring_write_share": share,
        "windows_cut": windows_cut,
        "risk_events_consumed": dict(kinds),
        "users_moved_rows_consumed": moved_rows,
    }
    # Every mover's report reaches the tap as a row of a tick's run.
    assert moved_rows >= ticks * N_WRITE_USERS, (
        "the risk tap missed reported moves: the per-mover cost was not measured"
    )
    assert kinds[USERS_MOVED] >= ticks, (
        "the risk tap missed a tick's users.moved run"
    )
    assert kinds[REGIONS_PUBLISHED_BULK] >= ticks, (
        "the risk tap missed a bulk publish: its ingestion was not measured"
    )
    assert windows_cut > 0, "no window was cut: risk scoring was not measured"
    assert share < MAX_WRITE_SHARE, (
        f"monitoring took {share:.1%} of the bulk ticks, over the "
        f"{MAX_WRITE_SHARE:.0%} budget ({own * 1e3:.1f}ms of {total * 1e3:.1f}ms)"
    )


def test_obs_smoke_report(system, write_report):
    """Fold the timings and the telemetry snapshot into BENCH_obs.json."""
    snapshot = system.telemetry()
    qos = snapshot["qos"]
    health = SLOMonitor().evaluate(system)
    report = {
        "workload": {
            "users": N_USERS,
            "pois": N_POIS,
            "queries_per_round": N_QUERIES,
            "cloaker": "pyramid",
        },
        "experiments": _RESULTS,
        "stages": snapshot["stages"],
        "indexes": snapshot["indexes"],
        "candidate_overhead": {
            "range_mean_candidates": qos.get("range_mean_candidates"),
            "range_mean_overhead": qos.get("range_mean_overhead"),
            "range_accuracy": qos.get("range_accuracy"),
            "nn_mean_candidates": qos.get("nn_mean_candidates"),
            "nn_accuracy": qos.get("nn_accuracy"),
        },
        "server": snapshot["server"],
        "accuracy": system.planner.accuracy.report(),
        "health": health.to_dict(),
        "monitoring": _RESULTS.get("monitoring", {}),
        "monitoring_write": _RESULTS.get("monitoring_write", {}),
    }
    write_report(report, "repro.obs.bench/1", BENCH_PATH)
    # The file must round-trip and carry the stamp + headline sections.
    parsed = json.loads(BENCH_PATH.read_text())
    assert parsed["schema"] == "repro.obs.bench/1"
    assert parsed["git_sha"]
    assert parsed["stages"]["query.private_range"]["count"] > 0
    assert parsed["candidate_overhead"]["range_mean_overhead"] >= 1.0
    assert parsed["indexes"]["server.public"]["node_visits"] > 0
    # The route-census and health sections.
    assert parsed["accuracy"]["schema"] == "repro.planner.routes/1"
    assert parsed["accuracy"]["observed"] > 0
    assert parsed["health"]["schema"] == "repro.obs.slo/1"
    assert parsed["health"]["total"] == 9
    # Filled by the monitoring-overhead gate earlier in this module.
    assert parsed["monitoring"]["overhead"] < 0.05
    assert parsed["monitoring"]["windows_cut"] > 0
    assert parsed["monitoring_write"]["monitoring_write_share"] > 0
