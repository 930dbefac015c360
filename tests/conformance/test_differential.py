"""Differential conformance: every backend against the brute-force oracle.

Every spatial index backend must give the same answers as
:class:`repro.engine.BruteForceOracle` — and therefore as each other —
on seeded randomized workloads, for each query type it supports:

* ``range``   — exact containment / intersection sets,
* ``nn``      — the single nearest object (tie-aware),
* ``knn``     — k nearest objects (tie-aware validity + equal distances),
* ``count``   — probabilistic count built on the backend's range query.

Coordinates are drawn from a small integer lattice on purpose: duplicate
points and exact distance ties are common, which is where index
implementations usually disagree.  Failures dump a replayable scenario
via the ``scenario`` fixture (see ``conftest.py``).
"""

from __future__ import annotations

import random

import pytest

from conformance.populations import (
    FAMILIES,
    assert_same_knn,
    populations,
    probe_ks,
    probe_points,
)
from repro.engine import BruteForceOracle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index import GridIndex, KDTree, PyramidGrid, QuadTree, RTree
from repro.queries.public_range import membership_probability

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)

BACKENDS = {
    "rtree": lambda: RTree(max_entries=8),
    "quadtree": lambda: QuadTree(BOUNDS, capacity=4),
    "grid": lambda: GridIndex(BOUNDS, cols=10),
    "kdtree": lambda: KDTree(),
    "pyramid": lambda: PyramidGrid(BOUNDS, height=5),
}

SEEDS = [11, 23, 47]


def lattice_points(rng: random.Random, n: int) -> dict[str, Point]:
    """Points on a coarse integer lattice — ties and duplicates abound."""
    return {
        f"p{i}": Point(float(rng.randint(0, 40)), float(rng.randint(0, 40)))
        for i in range(n)
    }


def random_window(rng: random.Random) -> Rect:
    x0 = rng.uniform(-5.0, 38.0)
    y0 = rng.uniform(-5.0, 38.0)
    w = rng.choice([0.0, rng.uniform(0.0, 12.0), rng.uniform(0.0, 50.0)])
    h = rng.choice([0.0, rng.uniform(0.0, 12.0)])
    return Rect(x0, y0, x0 + w, y0 + h)


def build_point_index(name: str, points: dict[str, Point]):
    index = BACKENDS[name]()
    for item, p in points.items():
        index.insert(item, Rect.from_point(p))
    return index


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
class TestPointBackendsAgainstOracle:
    """All five backends × {range, nn, knn, count} × seeded workloads."""

    def test_range(self, backend, seed, scenario):
        rng = random.Random(seed)
        points = lattice_points(rng, 120)
        index = build_point_index(backend, points)
        oracle = BruteForceOracle(public=points)
        for trial in range(40):
            window = random_window(rng)
            got = sorted(index.range_query(window), key=str)
            want = sorted(oracle.public_range(window), key=str)
            scenario.record(
                backend=backend, seed=seed, trial=trial, query="range",
                window=window.as_tuple(),
                points={k: (p.x, p.y) for k, p in points.items()},
                got=got, want=want,
            )
            assert got == want

    def test_nn(self, backend, seed, scenario):
        rng = random.Random(seed)
        points = lattice_points(rng, 120)
        index = build_point_index(backend, points)
        oracle = BruteForceOracle(public=points)
        for trial in range(40):
            # Bounded indexes (grid, pyramid) only accept in-universe
            # query points, so draw inside BOUNDS.
            q = Point(rng.uniform(0.0, 45.0), rng.uniform(0.0, 45.0))
            got = index.nearest(q, 1)
            scenario.record(
                backend=backend, seed=seed, trial=trial, query="nn",
                point=(q.x, q.y),
                points={k: (p.x, p.y) for k, p in points.items()},
                got=list(got),
            )
            assert oracle.validate_knn(got, q, 1)

    def test_knn(self, backend, seed, scenario):
        rng = random.Random(seed)
        points = lattice_points(rng, 120)
        index = build_point_index(backend, points)
        oracle = BruteForceOracle(public=points)
        for trial in range(40):
            q = Point(float(rng.randint(0, 40)), float(rng.randint(0, 40)))
            k = rng.randint(1, 15)
            got = index.nearest(q, k)
            want = oracle.public_knn(q, k)
            scenario.record(
                backend=backend, seed=seed, trial=trial, query="knn",
                point=(q.x, q.y), k=k,
                points={k_: (p.x, p.y) for k_, p in points.items()},
                got=list(got), want=list(want),
            )
            # Tie-aware: the answer must be a valid k-NN set, and its
            # distance sequence must equal the oracle's exactly.
            assert oracle.validate_knn(got, q, k)
            got_d = [q.distance_to(points[item]) for item in got]
            want_d = [q.distance_to(points[item]) for item in want]
            assert got_d == want_d

    def test_count(self, backend, seed, scenario):
        rng = random.Random(seed)
        points = lattice_points(rng, 120)
        index = build_point_index(backend, points)
        oracle = BruteForceOracle.from_index(index)
        for trial in range(40):
            window = random_window(rng)
            got = sum(
                membership_probability(index.geometry_of(item), window)
                for item in index.range_query(window)
            )
            want = oracle.public_count(window).expected
            scenario.record(
                backend=backend, seed=seed, trial=trial, query="count",
                window=window.as_tuple(),
                points={k: (p.x, p.y) for k, p in points.items()},
                got=got, want=want,
            )
            assert got == pytest.approx(want, abs=0.0)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestAdversarialPopulations:
    """Sparse, skewed, collinear and border-aligned data, probed from the
    far corners with k up to and beyond the population — the inputs on
    which "stop one step after enough" is wrong."""

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_knn(self, backend, family, seed, scenario):
        for points in populations(family, seed, BOUNDS):
            index = build_point_index(backend, points)
            oracle = BruteForceOracle(public=points)
            for probe in probe_points(seed, BOUNDS):
                for k in probe_ks(len(points)):
                    got = index.nearest(probe, k)
                    want = oracle.public_knn(probe, k)
                    scenario.record(
                        backend=backend, family=family, seed=seed, query="knn",
                        point=(probe.x, probe.y), k=k,
                        points={k_: (p.x, p.y) for k_, p in points.items()},
                        got=list(got), want=list(want),
                    )
                    assert_same_knn(got, want, probe, points)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_range(self, backend, family, seed, scenario):
        for points in populations(family, seed, BOUNDS):
            index = build_point_index(backend, points)
            oracle = BruteForceOracle(public=points)
            for probe in probe_points(seed, BOUNDS):
                for side in (0.0, BOUNDS.width / 10.0, BOUNDS.width):
                    window = Rect(
                        probe.x - side, probe.y - side,
                        probe.x + side, probe.y + side,
                    )
                    got = sorted(index.range_query(window), key=str)
                    want = sorted(oracle.public_range(window), key=str)
                    scenario.record(
                        backend=backend, family=family, seed=seed,
                        query="range", window=window.as_tuple(),
                        points={k: (p.x, p.y) for k, p in points.items()},
                        got=got, want=want,
                    )
                    assert got == want


@pytest.mark.parametrize("seed", SEEDS)
class TestRectBackendAgainstOracle:
    """The R-tree also holds true rectangles (cloaked regions)."""

    def rects(self, rng: random.Random) -> dict[str, Rect]:
        out = {}
        for i in range(80):
            x0 = float(rng.randint(0, 35))
            y0 = float(rng.randint(0, 35))
            w = float(rng.choice([0, 0, rng.randint(1, 8)]))
            h = float(rng.choice([0, rng.randint(1, 8)]))
            out[f"r{i}"] = Rect(x0, y0, x0 + w, y0 + h)
        return out

    def test_region_range(self, seed, scenario):
        rng = random.Random(seed)
        rects = self.rects(rng)
        index = RTree(max_entries=8)
        for item, r in rects.items():
            index.insert(item, r)
        oracle = BruteForceOracle(private=rects)
        for trial in range(40):
            window = random_window(rng)
            got = sorted(index.range_query(window), key=str)
            want = sorted(oracle.region_range(window), key=str)
            scenario.record(
                seed=seed, trial=trial, query="region_range",
                window=window.as_tuple(),
                rects={k: r.as_tuple() for k, r in rects.items()},
                got=got, want=want,
            )
            assert got == want

    def test_region_count(self, seed, scenario):
        rng = random.Random(seed)
        rects = self.rects(rng)
        index = RTree(max_entries=8)
        for item, r in rects.items():
            index.insert(item, r)
        oracle = BruteForceOracle(private=rects)
        for trial in range(40):
            window = random_window(rng)
            got = {
                item: membership_probability(rects[item], window)
                for item in index.range_query(window)
            }
            want = oracle.public_count(window).probabilities
            scenario.record(
                seed=seed, trial=trial, query="region_count",
                window=window.as_tuple(),
                rects={k: r.as_tuple() for k, r in rects.items()},
                got=got, want=dict(want),
            )
            assert got == want
