"""Differential conformance of the route-table planner.

The planner's contract is that planning never changes answers.  This
suite re-proves it from the outside: for every query type, the planned
execution must be bit-identical to EVERY forced eligible route — the
scalar processor and, where the kind has one, the vectorized kernel —
and to the brute-force oracle.  Failures dump their generating scenario
to ``tests/conformance/artifacts/`` via the shared ``scenario`` fixture.

The private store is populated with *degenerate* (zero-area) regions,
the edge case of the count kernel's overlap test; the region-shaped
variant is covered by the test at the bottom.
"""

from __future__ import annotations

import random

import pytest

from conformance.populations import (
    FAMILIES,
    populations,
    probe_ks,
    probe_points,
)
from repro.core.server import LocationServer
from repro.engine import BruteForceOracle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.planner import QueryPlanner
from repro.planner.planner import eligible_routes
from repro.queries.spec import CountSpec, KNNSpec, NNSpec, RangeSpec, native_kind

SEEDS = [3, 47]
UNIVERSE = Rect(0.0, 0.0, 50.0, 50.0)


def build_server(rng: random.Random, n_public: int = 140, n_private: int = 70):
    """A server whose private regions are degenerate points (see module
    docstring)."""
    server = LocationServer(telemetry=Telemetry(enabled=False))
    for i in range(n_public):
        server.add_public_object(
            f"o{i}", Point(float(rng.randint(0, 50)), float(rng.randint(0, 50)))
        )
    for i in range(n_private):
        x = float(rng.randint(0, 50))
        y = float(rng.randint(0, 50))
        server.receive_region(f"u{i}", Rect(x, y, x, y))
    return server


def spec_workload(rng: random.Random, n: int = 40):
    specs = []
    for _ in range(n):
        x = float(rng.randint(0, 50))
        y = float(rng.randint(0, 50))
        side = float(rng.choice([0, rng.randint(1, 15)]))
        window = Rect(x - side / 2, y - side / 2, x + side / 2, y + side / 2)
        region = Rect(x, y, x + side / 3, y + side / 3)
        specs.append(
            rng.choice(
                [
                    lambda: RangeSpec(window=window),
                    lambda: KNNSpec(point=Point(x, y), k=rng.randint(1, 9)),
                    lambda: CountSpec(window=window),
                    lambda: RangeSpec(
                        flavor="private",
                        region=region,
                        radius=float(rng.randint(0, 10)),
                        method=rng.choice(["exact", "mbr"]),
                    ),
                    lambda: NNSpec(
                        flavor="private",
                        region=region,
                        method=rng.choice(["range", "filter", "exact"]),
                    ),
                    lambda: KNNSpec(
                        flavor="private",
                        region=region,
                        k=rng.randint(1, 5),
                        method=rng.choice(["range", "filter"]),
                    ),
                ]
            )()
        )
    return specs


def routes_for(spec) -> tuple[str, ...]:
    return eligible_routes(native_kind(spec))


def canonical(result):
    """A comparable canonical form per result type."""
    if hasattr(result, "probabilities"):
        return dict(result.probabilities)
    if hasattr(result, "candidates"):
        return tuple(result.candidates)
    return tuple(result)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_forced_choice_matches_the_planned_answer(seed, scenario):
    """Both routes, all four query types: result identity."""
    rng = random.Random(seed)
    server = build_server(rng)
    planner = QueryPlanner(server)
    seen_routes: set[str] = set()
    for position, spec in enumerate(spec_workload(rng)):
        planned = canonical(planner.execute(spec))
        for route in routes_for(spec):
            seen_routes.add(route)
            scenario.record(
                seed=seed,
                position=position,
                spec=repr(spec),
                route=route,
                planned=repr(planned),
            )
            forced = canonical(planner.execute(spec, route=route))
            assert forced == planned, (
                f"{route} diverged from the planned answer for {spec!r}"
            )
    # The workload must actually have exercised both routes.
    assert seen_routes == {"scalar", "vectorized"}


@pytest.mark.parametrize("seed", SEEDS)
def test_planned_answers_match_the_oracle(seed, scenario):
    rng = random.Random(seed)
    server = build_server(rng)
    planner = QueryPlanner(server)
    oracle = BruteForceOracle.from_server(server)
    for position, spec in enumerate(spec_workload(rng)):
        scenario.record(seed=seed, position=position, spec=repr(spec))
        answer = planner.execute(spec)
        if isinstance(spec, RangeSpec) and spec.flavor == "public":
            assert tuple(answer) == tuple(oracle.public_range(spec.window))
        elif isinstance(spec, KNNSpec) and spec.flavor == "public":
            assert tuple(answer) == tuple(
                oracle.public_knn(spec.point, spec.k)
            )
        elif isinstance(spec, CountSpec):
            want = oracle.public_count(spec.window)
            assert answer.probabilities == want.probabilities
        elif isinstance(spec, RangeSpec):
            want = tuple(
                oracle.private_range(spec.region, spec.radius, spec.method)
            )
            assert answer.candidates == want
        elif isinstance(spec, NNSpec):
            witnesses = oracle.private_nn_witnesses(spec.region)
            assert witnesses <= set(answer.candidates)
        else:  # private k-NN: the candidate set must cover the true k list
            truth = {
                item
                for corner in (
                    Point(spec.region.min_x, spec.region.min_y),
                    Point(spec.region.max_x, spec.region.max_y),
                )
                for item in oracle.public_knn(corner, spec.k)
            }
            assert truth <= set(answer.candidates) or len(
                answer.candidates
            ) >= spec.k


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_execution_equals_per_spec_execution(seed, scenario):
    rng = random.Random(seed)
    server = build_server(rng)
    planner = QueryPlanner(server)
    specs = spec_workload(rng)
    scenario.record(seed=seed, specs=[repr(s) for s in specs])
    batched = [canonical(r) for r in planner.execute_batch(specs)]
    singles = [canonical(planner.execute(spec)) for spec in specs]
    assert batched == singles
    # A forced-vectorized batch agrees too, on the specs that have a
    # vectorized execution (pinned kinds only run scalar).
    vectorizable = [spec for spec in specs if "vectorized" in routes_for(spec)]
    vec = [
        canonical(r)
        for r in planner.execute_batch(vectorizable, route="vectorized")
    ]
    assert vec == [canonical(planner.execute(spec)) for spec in vectorizable]


@pytest.mark.parametrize("seed", SEEDS)
def test_forced_vectorized_route_equals_scalar(seed, scenario):
    rng = random.Random(seed)
    server = build_server(rng)
    planner = QueryPlanner(server)
    for spec in (
        RangeSpec(window=Rect(5, 5, 30, 30)),
        KNNSpec(point=Point(25, 25), k=6),
        CountSpec(window=Rect(10, 10, 35, 35)),
        RangeSpec(
            flavor="private", region=Rect(12, 12, 18, 18), radius=6.0
        ),
    ):
        scenario.record(seed=seed, spec=repr(spec))
        scalar = canonical(planner.execute(spec, route="scalar"))
        vectorized = canonical(planner.execute(spec, route="vectorized"))
        assert scalar == vectorized


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_forced_choices_agree_on_adversarial_populations(family, scenario):
    """Sparse / skewed / collinear / border-aligned data, far-corner
    probes, k at and above the population: every eligible route still
    gives the planned answer, and that answer is the oracle's."""
    seed = SEEDS[0]
    seen_routes: set[str] = set()
    # A handful of the sparse draws is enough here: the index-level suite
    # in test_differential.py runs all of them against every backend.
    for points in populations(family, seed, UNIVERSE)[:6]:
        server = LocationServer(telemetry=Telemetry(enabled=False))
        for item, point in points.items():
            server.add_public_object(item, point)
        planner = QueryPlanner(server)
        oracle = BruteForceOracle.from_server(server)
        specs = []
        for probe in probe_points(seed, UNIVERSE)[:8]:
            specs.extend(
                KNNSpec(point=probe, k=k) for k in probe_ks(len(points))
            )
            specs.append(
                RangeSpec(
                    window=Rect(probe.x - 5.0, probe.y - 5.0,
                                probe.x + 5.0, probe.y + 5.0)
                )
            )
        for spec in specs:
            planned = canonical(planner.execute(spec))
            if isinstance(spec, KNNSpec):
                assert planned == tuple(oracle.public_knn(spec.point, spec.k))
            else:
                assert planned == tuple(oracle.public_range(spec.window))
            for route in routes_for(spec):
                seen_routes.add(route)
                scenario.record(
                    family=family, spec=repr(spec), route=route,
                    planned=repr(planned),
                    points={k: (p.x, p.y) for k, p in points.items()},
                )
                forced = canonical(planner.execute(spec, route=route))
                assert forced == planned, (
                    f"{route} diverged from the planned answer for {spec!r}"
                )
            # The batch path (kernel for public kinds) agrees too.
            assert canonical(planner.execute_batch([spec, spec])[0]) == planned
    assert seen_routes == {"scalar", "vectorized"}


def test_region_shaped_private_store_pins_counts_to_rtree(scenario):
    """With real (area) cloaks, counts agree on both routes, both over
    the native store."""
    rng = random.Random(11)
    server = LocationServer(telemetry=Telemetry(enabled=False))
    for i in range(30):
        server.add_public_object(
            f"o{i}", Point(float(rng.randint(0, 50)), float(rng.randint(0, 50)))
        )
    for i in range(30):
        x = float(rng.randint(0, 44))
        y = float(rng.randint(0, 44))
        server.receive_region(f"u{i}", Rect(x, y, x + 5.0, y + 5.0))
    planner = QueryPlanner(server)
    spec = CountSpec(window=Rect(10, 10, 40, 40))
    scenario.record(spec=repr(spec))
    assert routes_for(spec) == ("scalar", "vectorized")
    planned = canonical(planner.execute(spec))
    for route in routes_for(spec):
        decision = planner.decide(spec, route=route)
        assert decision.backend == "rtree"
        assert canonical(planner.execute(spec, decision=decision)) == planned
