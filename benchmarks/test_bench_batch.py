"""Batch engine throughput benchmark: emits BENCH_batch.json with a gate.

Run via ``make bench`` (all four gates) or
``pytest benchmarks/test_bench_batch.py -q``.
The same spec workloads — range windows and k-NN probes over a 50k-object
catalogue — are executed through both engine routes on the same snapshot
(``LocationServer.execute_batch`` with the planner's route vector):

* ``batched``     — vectorised grid/broadcast kernels (no route vector:
  every kind takes its kernel),
* ``sequential``  — the per-query scalar processors (an all-scalar vector),

at 1k and 10k queries, plus the O(n·m) brute-force oracle on a reduced
batch as the naive baseline.  The final test folds the timings into
``BENCH_batch.json`` at the repo root (CI uploads it as an artifact) and
gates: batched throughput must be at least 2x sequential for both
``public_range`` and ``public_knn`` at the 10k-query scale.  Outside the
timed laps it also proves each mode ran the route it names: a probe
server with telemetry on replays the gate batches, and the engine's
``engine.queries{path=}`` counters must read all-vectorized for
``batched`` and all-scalar for ``sequential``.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.core.server import LocationServer
from repro.core.stores import PublicStore
from repro.engine import BruteForceOracle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.queries.spec import KNNSpec, RangeSpec

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

N_OBJECTS = 50_000
SCALES = (1_000, 10_000)
GATE_SCALE = 10_000
GATE_SPEEDUP = 2.0
ORACLE_QUERIES = 100
K = 8
SIDE = 10.0  # ~5 objects per 10x10 window at 50 objects / 1000^2 * side^2

#: mode -> kind -> n_queries -> seconds; flushed by the report test.
_RESULTS: dict[str, dict[str, dict[int, float]]] = {}


@pytest.fixture(scope="module")
def server() -> LocationServer:
    rng = random.Random(1234)
    srv = LocationServer(telemetry=Telemetry(enabled=False))
    srv.public = PublicStore.from_points(
        {
            i: Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            for i in range(N_OBJECTS)
        }
    )
    return srv


def make_batch(kind: str, n: int) -> list:
    rng = random.Random(f"{kind}/{n}")  # str seeding is hash-stable
    batch: list = []
    for _ in range(n):
        x, y = rng.uniform(0, 1000 - SIDE), rng.uniform(0, 1000 - SIDE)
        if kind == "public_range":
            batch.append(RangeSpec(window=Rect(x, y, x + SIDE, y + SIDE)))
        else:
            batch.append(KNNSpec(point=Point(x, y), k=K))
    return batch


def run_batch(server: LocationServer, batch: list, mode: str) -> list:
    routes = None if mode == "batched" else [False] * len(batch)
    return server.execute_batch(batch, routes=routes)


def engine_paths(server: LocationServer, batch: list, mode: str) -> dict[str, int]:
    """Specs per engine path when ``mode`` runs ``batch``, read off the
    ``engine.queries`` counters of a telemetry-enabled probe server that
    shares ``server``'s store."""
    probe = LocationServer(telemetry=Telemetry())
    probe.public = server.public
    run_batch(probe, batch, mode)
    paths: dict[str, int] = {}
    for (name, labels), counter in probe.telemetry.registry.counters():
        if name == "engine.queries":
            path = dict(labels)["path"]
            paths[path] = paths.get(path, 0) + counter.value
    return paths


@pytest.mark.parametrize("n", SCALES)
@pytest.mark.parametrize("kind", ["public_range", "public_knn"])
@pytest.mark.parametrize("mode", ["batched", "sequential"])
def test_batch_vs_sequential(benchmark, server, mode, kind, n):
    batch = make_batch(kind, n)
    laps: list[float] = []

    def run():
        start = time.perf_counter()
        out = run_batch(server, batch, mode)
        laps.append(time.perf_counter() - start)
        return out

    # Self-timed so the report also works under ``--benchmark-disable``.
    results = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert len(results) == n
    _RESULTS.setdefault(mode, {}).setdefault(kind, {})[n] = min(laps)


def test_oracle_baseline(benchmark, server):
    """The deliberately-naive O(n*m) reference, on a reduced batch."""
    oracle = BruteForceOracle.from_server(server)
    ranges = make_batch("public_range", ORACLE_QUERIES)
    nns = make_batch("public_knn", ORACLE_QUERIES)

    timings: dict[str, float] = {}

    def run():
        start = time.perf_counter()
        for q in ranges:
            oracle.public_range(q.window)
        timings["public_range"] = time.perf_counter() - start
        start = time.perf_counter()
        for q in nns:
            oracle.public_knn(q.point, q.k)
        timings["public_knn"] = time.perf_counter() - start

    benchmark.pedantic(run, rounds=1, iterations=1)
    for kind, seconds in timings.items():
        _RESULTS.setdefault("oracle", {})[kind] = {ORACLE_QUERIES: seconds}


def test_batch_report_and_gate(server, write_report):
    """Fold timings into BENCH_batch.json and enforce the 2x gate."""
    for mode in ("batched", "sequential"):
        for kind in ("public_range", "public_knn"):
            assert set(_RESULTS.get(mode, {}).get(kind, {})) == set(SCALES), (
                "the gate reads the timing tests' laps: run the whole module"
            )

    modes: dict[str, dict] = {}
    for mode, kinds in _RESULTS.items():
        modes[mode] = {}
        for kind, timings in kinds.items():
            modes[mode][kind] = {
                str(n): {
                    "seconds": seconds,
                    "queries_per_second": n / seconds if seconds else None,
                }
                for n, seconds in sorted(timings.items())
            }

    speedups = {}
    for kind in ("public_range", "public_knn"):
        batched = _RESULTS["batched"][kind][GATE_SCALE]
        sequential = _RESULTS["sequential"][kind][GATE_SCALE]
        speedups[kind] = sequential / batched if batched else None

    # Each mode took the route it names, for every spec of the gate batches.
    routes = {
        mode: {
            kind: engine_paths(server, make_batch(kind, GATE_SCALE), mode)
            for kind in ("public_range", "public_knn")
        }
        for mode in ("batched", "sequential")
    }
    for kind in ("public_range", "public_knn"):
        assert routes["batched"][kind] == {"vectorized": GATE_SCALE}, routes
        assert routes["sequential"][kind] == {"scalar": GATE_SCALE}, routes

    report = {
        "workload": {
            "objects": N_OBJECTS,
            "scales": list(SCALES),
            "window_side": SIDE,
            "k": K,
            "oracle_queries": ORACLE_QUERIES,
        },
        "modes": modes,
        "speedup_at_gate_scale": speedups,
        "routes_at_gate_scale": routes,
        "gate": {"scale": GATE_SCALE, "min_speedup": GATE_SPEEDUP},
    }
    write_report(report, "repro.engine.bench/1", BENCH_PATH)
    parsed = json.loads(BENCH_PATH.read_text())
    assert parsed["schema"] == "repro.engine.bench/1"
    assert parsed["git_sha"]

    for kind, speedup in speedups.items():
        assert speedup is not None and speedup >= GATE_SPEEDUP, (
            f"batched {kind} is only {speedup:.2f}x sequential at "
            f"{GATE_SCALE} queries (gate: >= {GATE_SPEEDUP}x); "
            f"see {BENCH_PATH.name}"
        )
