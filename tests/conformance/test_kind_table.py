"""One query vocabulary: every spec has exactly one native kind, and that
name is the one it is counted, logged and grouped under — whatever
backend x route answered it, singly or in a batch, live or after
recovery from the WAL.

Before the kind table there were two namespaces: the scalar path counted
a public range as ``public_over_public_range`` and the engine as
``public_range``, and a vectorized exact k-NN was counted as
``public_nn`` — the name of the probabilistic Figure 6b NN.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.errors import QueryError
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.engine.batch import RUNNERS
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.obs.events import QUERY_COMPLETED, SERVER_QUERY
from repro.obs.explain import BATCH_KERNELS, TIE_BREAK
from repro.queries.spec import (
    NATIVE_KINDS,
    CountSpec,
    KNNSpec,
    NNSpec,
    RangeSpec,
    native_kind,
)

BOUNDS = Rect(0, 0, 100, 100)
WINDOW = Rect(10, 10, 60, 60)
REGION = Rect(20, 20, 30, 30)
POINT = Point(40, 40)

#: Every valid spec shape: kind x flavor x dataset x subject (x method).
SHAPES: dict[str, list] = {
    "public_range": [RangeSpec(window=WINDOW)],
    "public_knn": [
        KNNSpec(point=POINT, k=3),
        NNSpec(point=POINT),  # the k = 1 case
    ],
    "public_count": [CountSpec(window=WINDOW)],
    "public_nn": [NNSpec(point=POINT, dataset="private", samples=64)],
    "private_range": [
        RangeSpec(flavor="private", region=REGION, radius=5.0, method=m)
        for m in ("exact", "mbr")
    ]
    + [RangeSpec(flavor="private", user=0, radius=5.0)],
    "private_nn": [
        NNSpec(flavor="private", region=REGION, method=m)
        for m in ("range", "filter", "exact")
    ]
    + [NNSpec(flavor="private", user=0)],
    "private_knn": [
        KNNSpec(flavor="private", region=REGION, k=3, method=m)
        for m in ("range", "filter")
    ]
    + [KNNSpec(flavor="private", user=0, k=3)],
}

BOUND_SPECS = [
    (kind, spec)
    for kind, specs in SHAPES.items()
    for spec in specs
    if getattr(spec, "user", None) is None
]


@pytest.fixture
def system(uniform_points_500):
    system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=5))
    for i, p in enumerate(uniform_points_500[:120]):
        system.add_user(MobileUser(i, p, PrivacyProfile.always(k=5)))
    for j in range(40):
        system.add_poi(f"poi-{j}", Point((17 * j) % 100, (41 * j) % 100))
    system.publish_all()
    return system


def last_seq(system) -> int:
    return max((event.seq for event in system.obs.events.events()), default=0)


def accounted(system, run) -> tuple[dict, dict, dict]:
    """What ``run()`` added to the three places a kind is written:
    ``ServerStats.queries_by_kind``, the ``server.query`` events, and
    the ``engine.queries{kind=}`` counters."""
    before = dict(system.server.stats().queries_by_kind)
    seq = last_seq(system)

    def engine_counts():
        out: dict[str, int] = {}
        for (name, labels), counter in system.obs.registry.counters():
            if name == "engine.queries":
                kind = dict(labels)["kind"]
                out[kind] = out.get(kind, 0) + counter.value
        return out

    engine_before = engine_counts()
    run()
    stats = {
        kind: n - before.get(kind, 0)
        for kind, n in system.server.stats().queries_by_kind.items()
        if n != before.get(kind, 0)
    }
    logged: dict[str, int] = {}
    for event in system.obs.events.events(SERVER_QUERY):
        if event.seq > seq:
            kind = event.attrs["query"]
            logged[kind] = logged.get(kind, 0) + event.attrs["n"]
    engine = {
        kind: n - engine_before.get(kind, 0)
        for kind, n in engine_counts().items()
        if n != engine_before.get(kind, 0)
    }
    return stats, logged, engine


def test_every_spec_shape_maps_to_exactly_one_kind():
    for kind, specs in SHAPES.items():
        for spec in specs:
            assert native_kind(spec) == kind, spec
    assert set(SHAPES) == set(NATIVE_KINDS)
    # Everything keyed by kind is keyed by this one table.
    assert set(RUNNERS) == set(BATCH_KERNELS) == set(TIE_BREAK) == set(NATIVE_KINDS)
    for kind, runner in RUNNERS.items():
        assert (runner.kernel is None) == (BATCH_KERNELS[kind] is None)
    with pytest.raises(QueryError):
        native_kind(WINDOW)


@pytest.mark.parametrize(
    "kind,spec", BOUND_SPECS, ids=[f"{k}-{i}" for i, (k, _) in enumerate(BOUND_SPECS)]
)
def test_one_name_under_every_forced_backend_and_route(system, kind, spec):
    planner = system.planner
    pairs = planner.conformance_backends(spec)
    assert pairs
    for backend, route in pairs:
        # Singly.
        stats, logged, engine = accounted(
            system, lambda: planner.execute(spec, backend=backend, route=route)
        )
        assert stats == logged == {kind: 1}, (backend, route)
        assert engine == ({kind: 1} if route == "vectorized" else {})
        # Batched: the same name, accounted once per batch or per query.
        stats, logged, engine = accounted(
            system,
            lambda: planner.execute_batch([spec] * 3, backend=backend, route=route),
        )
        assert stats == logged == {kind: 3}, (backend, route)
        assert set(engine) <= {kind}
    # The planner groups its decisions and its accuracy windows by it too.
    assert planner.decide(spec).kind == kind
    groups = planner.accuracy.report()
    for section in ("groups", "pinned_groups"):
        for group in groups[section].values():
            assert group["kind"] in NATIVE_KINDS


def test_exact_knn_and_probabilistic_nn_land_in_two_counters(system):
    """The collision: five vectorized exact k-NN used to be counted under
    ``public_nn``, the probabilistic NN's name."""
    planner = system.planner
    knn = [KNNSpec(point=Point(10.0 * i, 50.0), k=2) for i in range(5)]
    probabilistic = NNSpec(point=POINT, dataset="private", samples=32)
    stats, logged, engine = accounted(
        system,
        lambda: (
            planner.execute_batch(knn, route="vectorized"),
            planner.execute(probabilistic),
        ),
    )
    assert stats == logged == {"public_knn": 5, "public_nn": 1}
    assert engine == {"public_knn": 5}


def test_user_bound_queries_use_the_same_names(system):
    for kind, specs in SHAPES.items():
        for spec in specs:
            if getattr(spec, "user", None) is None:
                continue
            seq = last_seq(system)
            stats, logged, _ = accounted(system, lambda: system.query(spec))
            assert stats == logged == {kind: 1}
            completed = [
                e for e in system.obs.events.events(QUERY_COMPLETED) if e.seq > seq
            ]
            assert [e.attrs["query"] for e in completed] == [kind]


def test_recovery_rebuilds_the_same_counters_from_the_wal(tmp_path, uniform_points_500):
    system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=5))
    system.attach_wal(tmp_path)
    for i, p in enumerate(uniform_points_500[:60]):
        system.add_user(MobileUser(i, p, PrivacyProfile.always(k=4)))
    for j in range(20):
        system.add_poi(f"poi-{j}", Point((17 * j) % 100, (41 * j) % 100))
    system.publish_all()
    specs = list(itertools.chain.from_iterable(SHAPES.values()))
    for spec in specs:
        system.query(spec)
    system.checkpoint(tmp_path)
    system.execute_batch(specs)  # the WAL tail past the checkpoint
    live = system.server.stats()
    system.obs.events.detach_jsonl()
    assert set(live.queries_by_kind) == set(NATIVE_KINDS)

    recovered = PrivacySystem.recover(tmp_path).server.stats()
    assert recovered.queries_by_kind == live.queries_by_kind
    assert recovered.queries_served == live.queries_served
