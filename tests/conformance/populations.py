"""Named adversarial populations shared by the conformance suites.

The seeded lattice workloads are dense and uniform, which is exactly the
regime where an index that stops "one step after enough" still happens
to be right (the ``GridIndex.nearest`` early-termination bug survived
them).  These families are the inputs that break such shortcuts: almost
nothing to find, everything in a few tight clumps, everything on one
line, everything on a cell border — probed from the far corners and with
``k`` at or above the population.
"""

from __future__ import annotations

import random

from repro.geometry.point import Point
from repro.geometry.rect import Rect


def _sparse(rng: random.Random, bounds: Rect) -> list[Point]:
    return [
        Point(rng.uniform(bounds.min_x, bounds.max_x),
              rng.uniform(bounds.min_y, bounds.max_y))
        for _ in range(rng.randint(1, 5))
    ]


def _eight_clusters(rng: random.Random, bounds: Rect) -> list[Point]:
    """Eight tight clumps of very unequal size; most of the world empty."""
    out: list[Point] = []
    spread = bounds.width / 200.0
    for cluster in range(8):
        cx = rng.uniform(bounds.min_x + spread, bounds.max_x - spread)
        cy = rng.uniform(bounds.min_y + spread, bounds.max_y - spread)
        for _ in range(2 ** (cluster % 6)):
            out.append(
                Point(
                    min(bounds.max_x, max(bounds.min_x, rng.gauss(cx, spread))),
                    min(bounds.max_y, max(bounds.min_y, rng.gauss(cy, spread))),
                )
            )
    return out


def _collinear(rng: random.Random, bounds: Rect) -> list[Point]:
    """One diagonal and one axis-parallel line, with duplicates."""
    steps = [i / 24.0 for i in range(25)]
    diagonal = [
        Point(bounds.min_x + t * bounds.width, bounds.min_y + t * bounds.height)
        for t in steps
    ]
    y = bounds.min_y + bounds.height * rng.choice([0.0, 0.5, 1.0])
    horizontal = [Point(bounds.min_x + t * bounds.width, y) for t in steps]
    return diagonal + horizontal + diagonal[::6]


def _cell_borders(rng: random.Random, bounds: Rect) -> list[Point]:
    """Every point on a tenth-of-the-world gridline, the outer bound included."""
    ticks = [i / 10.0 for i in range(11)]
    out = []
    for _ in range(60):
        tx, ty = rng.choice(ticks), rng.choice(ticks)
        if rng.random() < 0.5:  # on a vertical line, free along it
            ty = rng.random()
        out.append(
            Point(bounds.min_x + tx * bounds.width, bounds.min_y + ty * bounds.height)
        )
    out.append(Point(bounds.max_x, bounds.max_y))
    out.append(Point(bounds.min_x, bounds.max_y))
    return out


FAMILIES = {
    "sparse": _sparse,
    "eight_clusters": _eight_clusters,
    "collinear": _collinear,
    "cell_borders": _cell_borders,
}


#: A sparse population is one to five points, so one draw says little:
#: about one in twelve trips the early-termination bug these families
#: exist for.  Forty draws make the suite fail on it with certainty.
SPARSE_DRAWS = 40


def populations(family: str, seed: int, bounds: Rect) -> list[dict[str, Point]]:
    """The point sets of one named family, each keyed ``p0, p1, ...``."""
    rng = random.Random(f"{family}/{seed}")  # str seeding is hash-stable
    return [
        {f"p{i}": point for i, point in enumerate(FAMILIES[family](rng, bounds))}
        for _ in range(SPARSE_DRAWS if family == "sparse" else 1)
    ]


def probe_points(seed: int, bounds: Rect) -> list[Point]:
    """Query points: the four corners, just inside them, and a few
    interior draws."""
    rng = random.Random(f"probes/{seed}")
    eps = bounds.width * 1e-9
    corners = [
        Point(x, y)
        for x in (bounds.min_x, bounds.max_x)
        for y in (bounds.min_y, bounds.max_y)
    ]
    inside = [
        Point(
            p.x + (eps if p.x == bounds.min_x else -eps),
            p.y + (eps if p.y == bounds.min_y else -eps),
        )
        for p in corners
    ]
    interior = [
        Point(rng.uniform(bounds.min_x, bounds.max_x),
              rng.uniform(bounds.min_y, bounds.max_y))
        for _ in range(6)
    ]
    return corners + inside + interior


def probe_ks(n: int) -> list[int]:
    """k values around and above a population of ``n``."""
    return sorted({1, 2, max(1, n - 1), n, n + 1, 2 * n + 3})


def assert_same_knn(got, want, probe: Point, points: dict[str, Point]) -> None:
    """``got`` is the k-NN answer ``want`` up to floating-point ties.

    The oracle ranks by squared distance, an index backend by its own
    ``min_dist`` (``hypot``) and its own traversal order; on points that
    tie in real arithmetic but sit at non-representable offsets from the
    probe the two metrics may round apart by an ulp and order (or, at the
    k-th place, pick) the tied points differently.
    Same length, no repeats and the same nearest-first distance sequence
    is k-NN correctness without taking a side on such ties.
    """
    got, want = list(got), list(want)
    assert len(got) == len(want) and len(set(got)) == len(got)
    got_d = [probe.distance_to(points[item]) for item in got]
    want_d = [probe.distance_to(points[item]) for item in want]
    for g, w in zip(got_d, want_d):
        assert abs(g - w) <= 1e-9 * max(1.0, w), (got, want)
