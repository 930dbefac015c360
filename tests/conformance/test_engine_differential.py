"""Differential conformance of the batch engine itself.

Three independent executions answer the same randomized workloads:

* the vectorized route (grid + broadcast kernels), forced through the
  planner (``route="vectorized"``) and taken by default by a direct
  ``BatchEngine.execute``,
* the scalar route on the native store (``route="scalar"``): the
  per-query processors,
* the brute-force oracle.

All must agree, query by query and in canonical order.  The
grid-accelerated kernels are additionally pinned to their brute-force
broadcast counterparts row for row, so a pruning bug cannot hide behind
id-level equality.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from conformance.populations import (
    FAMILIES,
    populations,
    probe_ks,
    probe_points,
)
from repro.core.server import LocationServer
from repro.engine import BatchEngine, BruteForceOracle
from repro.engine import kernels
from repro.engine.batch import RUNNERS
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.planner import QueryPlanner
from repro.queries.spec import CountSpec, KNNSpec, NNSpec, RangeSpec, native_kind

SEEDS = [5, 29, 71]
UNIVERSE = Rect(0.0, 0.0, 50.0, 50.0)


def build_server(rng: random.Random, n_public: int = 150, n_private: int = 60):
    server = LocationServer(telemetry=Telemetry(enabled=False))
    for i in range(n_public):
        server.add_public_object(
            f"o{i}", Point(float(rng.randint(0, 50)), float(rng.randint(0, 50)))
        )
    for i in range(n_private):
        x0 = float(rng.randint(0, 45))
        y0 = float(rng.randint(0, 45))
        w = float(rng.choice([0, rng.randint(0, 6)]))
        h = float(rng.choice([0, rng.randint(0, 6)]))
        server.receive_region(f"u{i}", Rect(x0, y0, x0 + w, y0 + h))
    return server


def mixed_batch(rng: random.Random, n: int):
    batch = []
    for i in range(n):
        x = float(rng.randint(0, 50))
        y = float(rng.randint(0, 50))
        side = float(rng.choice([0, rng.randint(1, 15)]))
        window = Rect(x - side / 2, y - side / 2, x + side / 2, y + side / 2)
        region = Rect(x, y, x + side / 3, y + side / 3)
        batch.append(
            rng.choice(
                [
                    RangeSpec(window=window),
                    KNNSpec(point=Point(x, y), k=rng.randint(1, 9)),
                    CountSpec(window=window),
                    RangeSpec(
                        flavor="private",
                        region=region,
                        radius=float(rng.randint(0, 10)),
                        method=rng.choice(["exact", "mbr"]),
                    ),
                    NNSpec(
                        flavor="private",
                        region=region,
                        method=rng.choice(["range", "filter", "exact"]),
                    ),
                ]
            )
        )
    return batch


def run_routes(server: LocationServer, batch: list):
    """(vectorized answers or None per position, scalar answers).

    Both routes are forced where the conformance suites force them: on
    the planner.  A direct engine call must take the kernel for every
    kind that has one, i.e. equal the forced-vectorized answers.
    """
    planner = QueryPlanner(server)
    has_kernel = [
        i for i, spec in enumerate(batch)
        if RUNNERS[native_kind(spec)].kernel is not None
    ]
    vec = [None] * len(batch)
    for i, answer in zip(
        has_kernel,
        planner.execute_batch([batch[i] for i in has_kernel], route="vectorized"),
    ):
        vec[i] = answer
    seq = planner.execute_batch(batch, route="scalar")
    direct = BatchEngine(server).execute(batch)
    for i, answer in enumerate(direct):
        assert answer == (vec[i] if vec[i] is not None else seq[i])
    return vec, seq


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_modes_and_oracle_agree(seed, scenario):
    rng = random.Random(seed)
    server = build_server(rng)
    oracle = BruteForceOracle.from_server(server)
    batch = mixed_batch(rng, 120)
    vec, seq = run_routes(server, batch)
    for position, (spec, a, b) in enumerate(zip(batch, vec, seq)):
        scenario.record(
            seed=seed, position=position, spec=repr(spec),
            vectorized=repr(a), scalar=repr(b),
        )
        kind = native_kind(spec)
        if kind == "public_range":
            assert a == b == tuple(oracle.public_range(spec.window))
        elif kind == "public_knn":
            assert a == b == tuple(oracle.public_knn(spec.point, spec.k))
        elif kind == "public_count":
            want = oracle.public_count(spec.window)
            assert a.probabilities == want.probabilities
            assert b.probabilities == want.probabilities
            assert list(a.probabilities) == list(b.probabilities)
        elif kind == "private_range":
            want = tuple(
                oracle.private_range(spec.region, spec.radius, spec.method)
            )
            assert a.candidates == b.candidates == want
        else:  # private_nn: no kernel, the scalar route is the only one
            assert a is None
            witnesses = oracle.private_nn_witnesses(spec.region)
            assert witnesses <= set(b.candidates)
            if spec.method == "range":
                assert set(b.candidates) == set(
                    oracle.private_nn_bound(spec.region)
                )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_routes_agree_on_adversarial_populations(family, seed, scenario):
    """Sparse / clustered / collinear / border-aligned data, probed from
    the far corners with k up to and beyond the population."""
    for points in populations(family, seed, UNIVERSE):
        server = LocationServer(telemetry=Telemetry(enabled=False))
        for item, point in points.items():
            server.add_public_object(item, point)
        oracle = BruteForceOracle.from_server(server)
        batch = []
        for probe in probe_points(seed, UNIVERSE):
            for k in probe_ks(len(points)):
                batch.append(KNNSpec(point=probe, k=k))
            for side in (0.0, UNIVERSE.width / 10.0, UNIVERSE.width):
                batch.append(
                    RangeSpec(
                        window=Rect(probe.x - side, probe.y - side,
                                    probe.x + side, probe.y + side)
                    )
                )
                batch.append(
                    RangeSpec(
                        flavor="private",
                        region=Rect(probe.x, probe.y, probe.x, probe.y),
                        radius=side,
                    )
                )
        vec, seq = run_routes(server, batch)
        for position, (spec, a, b) in enumerate(zip(batch, vec, seq)):
            scenario.record(
                family=family, seed=seed, position=position, spec=repr(spec),
                points={k: (p.x, p.y) for k, p in points.items()},
                vectorized=repr(a), scalar=repr(b),
            )
            if isinstance(spec, KNNSpec):
                assert a == b == tuple(oracle.public_knn(spec.point, spec.k))
            elif spec.flavor == "public":
                assert a == b == tuple(oracle.public_range(spec.window))
            else:
                want = tuple(
                    oracle.private_range(spec.region, spec.radius, spec.method)
                )
                assert a.candidates == b.candidates == want


@pytest.mark.parametrize("seed", SEEDS)
def test_grid_kernels_match_broadcast_kernels(seed, scenario):
    """Row-for-row identity of the grid pruning against brute broadcast."""
    rng = random.Random(seed)
    n = rng.choice([0, 1, 5, 130])
    xs = np.array([float(rng.randint(0, 30)) for _ in range(n)])
    ys = np.array([float(rng.randint(0, 30)) for _ in range(n)])
    grid = kernels.PointGrid(xs, ys)
    windows = []
    for _ in range(50):
        x0 = rng.uniform(-4.0, 28.0)
        y0 = rng.uniform(-4.0, 28.0)
        windows.append(
            [x0, y0, x0 + rng.uniform(0.0, 15.0), y0 + rng.uniform(0.0, 15.0)]
        )
    windows = np.array(windows)
    scenario.record(
        seed=seed, n=n, xs=xs.tolist(), ys=ys.tolist(),
        windows=windows.tolist(),
    )
    brute = kernels.points_in_windows(xs, ys, windows)
    fast = kernels.points_in_windows_grid(grid, windows)
    for b, f in zip(brute, fast):
        assert np.array_equal(b, f)
    qx = np.array([rng.uniform(-4.0, 34.0) for _ in range(50)])
    qy = np.array([rng.uniform(-4.0, 34.0) for _ in range(50)])
    ks = [rng.randint(1, max(1, n + 2)) for _ in range(50)]
    brute_k = kernels.knn_points(xs, ys, qx, qy, ks)
    fast_k = kernels.knn_points_grid(grid, qx, qy, ks)
    for b, f in zip(brute_k, fast_k):
        assert np.array_equal(b, f)
