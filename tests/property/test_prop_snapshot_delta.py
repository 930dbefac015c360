"""Property-based tests: a snapshot is a view of the store columns.

For *any* sequence of store mutation batches — public adds/moves/removes,
private single and bulk region publications, removals, re-additions of a
previously removed id — on an integer lattice, where distance ties are
the rule, every way of answering a query agrees exactly: the vectorised
route, the scalar route, the single planned query and the brute-force
oracle built from ``store.items()``.  They can, because they all rank by
one row order: a captured snapshot's rows are ``items()`` order,
position for position.  A snapshot captured earlier never changes, and
a side that did not change keeps its arrays and its grid.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.server import LocationServer
from repro.engine import BruteForceOracle
from repro.engine.snapshot import ServerSnapshot
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.queries.spec import CountSpec, KNNSpec, RangeSpec

coord = st.integers(min_value=0, max_value=6).map(float)
public_pool = [f"p{i}" for i in range(8)]
private_pool = [f"r{i}" for i in range(8)]

#: Probes on the same lattice: windows with corners on it, degenerate
#: ones included, and query points equidistant from many objects.
WINDOWS = [Rect(0, 0, 3, 3), Rect(2, 2, 6, 6), Rect(1, 0, 1, 6), Rect(0, 0, 6, 6)]
PROBES = [Point(0, 0), Point(3, 3), Point(6, 0), Point(2.5, 4)]
SPECS = (
    [RangeSpec(window=w) for w in WINDOWS]
    + [CountSpec(window=w) for w in WINDOWS]
    + [KNNSpec(point=p, k=k) for p in PROBES for k in (1, 2, 3)]
)


@st.composite
def small_rects(draw) -> Rect:
    x0 = draw(coord)
    y0 = draw(coord)
    return Rect(x0, y0, x0 + draw(coord), y0 + draw(coord))


@st.composite
def mutations(draw) -> tuple:
    kind = draw(
        st.sampled_from(
            ["pub_set", "pub_remove", "priv_set", "priv_bulk", "priv_remove"]
        )
    )
    if kind == "pub_set":
        return kind, draw(st.sampled_from(public_pool)), Point(
            draw(coord), draw(coord)
        )
    if kind == "pub_remove":
        return kind, draw(st.sampled_from(public_pool)), None
    if kind == "priv_set":
        return kind, draw(st.sampled_from(private_pool)), draw(small_rects())
    if kind == "priv_bulk":
        ids = draw(
            st.lists(
                st.sampled_from(private_pool), min_size=1, max_size=6, unique=True
            )
        )
        return kind, ids, [draw(small_rects()) for _ in ids]
    return kind, draw(st.sampled_from(private_pool)), None


def apply_mutation(server: LocationServer, mutation: tuple) -> None:
    kind, target, payload = mutation
    if kind == "pub_set":
        if target in server.public:
            server.move_public_object(target, payload)
        else:
            server.add_public_object(target, payload)
    elif kind == "pub_remove":
        if target in server.public:
            server.remove_public_object(target)
    elif kind == "priv_set":
        server.receive_region(target, payload)
    elif kind == "priv_bulk":
        server.receive_regions(target, np.array([rect.as_tuple() for rect in payload]))
    elif kind == "priv_remove":
        if target in server.private:
            server.forget_region(target)


def contents(snapshot: ServerSnapshot) -> tuple:
    """Everything a snapshot describes, as plain values."""
    return (
        snapshot.public_version,
        snapshot.private_version,
        snapshot.public_ids,
        snapshot.public_xs.tolist(),
        snapshot.public_ys.tolist(),
        snapshot.private_ids,
        snapshot.private_bounds.tolist(),
        dict(snapshot.public_rank),
        dict(snapshot.private_rank),
    )


def assert_rows_are_items(snapshot: ServerSnapshot, server: LocationServer) -> None:
    public = list(server.public.items())
    assert snapshot.public_ids == tuple(item for item, _ in public)
    assert snapshot.public_xs.tolist() == [p.x for _, p in public]
    assert snapshot.public_ys.tolist() == [p.y for _, p in public]
    private = list(server.private.items())
    assert snapshot.private_ids == tuple(item for item, _ in private)
    assert snapshot.private_bounds.tolist() == [list(r.as_tuple()) for _, r in private]
    assert dict(snapshot.public_rank) == {
        item: row for row, item in enumerate(snapshot.public_ids)
    }
    assert dict(snapshot.private_rank) == {
        item: row for row, item in enumerate(snapshot.private_ids)
    }


def oracle_answer(oracle: BruteForceOracle, spec):
    if isinstance(spec, RangeSpec):
        return tuple(oracle.public_range(spec.window))
    if isinstance(spec, CountSpec):
        return oracle.public_count(spec.window)
    return tuple(oracle.public_knn(spec.point, spec.k))


def plain(answer):
    """Counts compare by their probability items, order included."""
    if hasattr(answer, "probabilities"):
        return list(answer.probabilities.items())
    return answer


@settings(max_examples=40, deadline=None)
@given(
    setup=st.lists(mutations(), max_size=10),
    batches=st.lists(
        st.lists(mutations(), min_size=1, max_size=8), min_size=1, max_size=5
    ),
)
def test_absorb_equals_refreeze(setup, batches):
    server = LocationServer(telemetry=Telemetry(enabled=False))
    for mutation in setup:
        apply_mutation(server, mutation)
    held = server.engine.snapshot()
    _ = held.public_grid  # built, so later captures may share it
    held_contents = contents(held)
    for batch in batches:
        for mutation in batch:
            apply_mutation(server, mutation)
        vectorised = server.execute_batch(SPECS, routes=[True] * len(SPECS))
        scalar = server.execute_batch(SPECS, routes=[False] * len(SPECS))
        planned = [server.planner.execute(spec) for spec in SPECS]
        oracle = BruteForceOracle.from_server(server)
        for spec, a, b, c in zip(SPECS, vectorised, scalar, planned):
            want = plain(oracle_answer(oracle, spec))
            assert plain(a) == plain(b) == plain(c) == want, spec
        snapshot = server.engine.snapshot()
        assert snapshot.matches(server)
        assert_rows_are_items(snapshot, server)
        for array in (
            snapshot.public_xs, snapshot.public_ys, snapshot.private_bounds
        ):
            assert not array.flags.writeable
        assert contents(held) == held_contents


def test_absorb_refuses_truncated_gap():
    """A snapshot held across more than 4 096 writes still describes its
    own version, and a fresh capture describes the store."""
    server = LocationServer(telemetry=Telemetry(enabled=False))
    server.add_public_object("p0", Point(1.0, 1.0))
    server.receive_region("r0", Rect(0.0, 0.0, 1.0, 1.0))
    held = server.engine.snapshot()
    before = contents(held)
    for step in range(4097):
        server.receive_region(f"r{step % 7}", Rect(0.0, 0.0, 2.0, 2.0 + step))
        server.move_public_object("p0", Point(1.0 + step, 1.0))
    server.forget_region("r3")
    assert contents(held) == before
    assert not held.matches(server)
    fresh = server.engine.snapshot()
    assert fresh is not held
    assert fresh.matches(server)
    assert_rows_are_items(fresh, server)
    assert fresh.private_ids == ("r0", "r1", "r2", "r4", "r5", "r6")
    assert fresh.public_xs.tolist() == [4097.0]


def test_absorb_shares_grid_when_public_quiet():
    """The public grid outlives private-only writes and is rebuilt after a
    public one."""
    server = LocationServer(telemetry=Telemetry(enabled=False))
    server.add_public_object("p0", Point(1.0, 1.0))
    server.receive_region("r0", Rect(0.0, 0.0, 1.0, 1.0))
    first = server.engine.snapshot()
    grid = first.public_grid
    server.receive_region("r0", Rect(0.0, 0.0, 2.0, 2.0))
    server.receive_regions(["r1"], np.array([[1.0, 1.0, 2.0, 2.0]]))
    server.forget_region("r0")
    second = server.engine.snapshot()
    assert second is not first
    assert second.public_xs is first.public_xs
    assert second.public_grid is grid
    assert second.private_ids == ("r1",)
    server.move_public_object("p0", Point(5.0, 5.0))
    third = server.engine.snapshot()
    assert "public_grid" not in third.__dict__
    assert third.private_bounds is second.private_bounds
    assert third.public_grid is not grid
    assert third.public_xs.tolist() == [5.0]
