"""Property-based tests: vectorized route ≡ scalar route ≡ oracle.

For *any* interleaving of the query kinds over *any* server state —
including empty batches, duplicate queries, empty stores, coincident
points, and cloaked regions degenerate in one axis (the PR-3
``membership_probability`` regression surface) — the vectorized kernels
must return exactly what the scalar per-query processors return, in the
same canonical order, and both must be the brute-force oracle's answer.

Coordinates are drawn from small integer grids so exact distance ties
and boundary-touching windows occur constantly; both routes break k-NN
ties by snapshot rank, so even equidistant neighbours come back in one
order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.core.server import LocationServer
from repro.engine import BatchEngine, BruteForceOracle
from repro.engine.batch import RUNNERS
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.queries.spec import CountSpec, KNNSpec, NNSpec, RangeSpec, native_kind

coord = st.integers(min_value=0, max_value=12).map(float)
span = st.integers(min_value=0, max_value=6).map(float)


@st.composite
def rects(draw) -> Rect:
    x0 = draw(coord)
    y0 = draw(coord)
    # Degenerate-in-one-axis regions are first-class citizens here.
    return Rect(x0, y0, x0 + draw(span), y0 + draw(span))


@st.composite
def batch_queries(draw):
    kind = draw(st.sampled_from(
        ["public_range", "public_knn", "public_count", "private_range", "private_nn"]
    ))
    if kind == "public_range":
        return RangeSpec(window=draw(rects()))
    if kind == "public_knn":
        return KNNSpec(
            point=Point(draw(coord), draw(coord)), k=draw(st.integers(1, 6))
        )
    if kind == "public_count":
        return CountSpec(window=draw(rects()))
    if kind == "private_range":
        return RangeSpec(
            flavor="private",
            region=draw(rects()),
            radius=float(draw(st.integers(0, 8))),
            method=draw(st.sampled_from(["exact", "mbr"])),
        )
    return NNSpec(
        flavor="private",
        region=draw(rects()),
        method=draw(st.sampled_from(["range", "filter", "exact"])),
    )


def build_server(points, regions) -> LocationServer:
    server = LocationServer(telemetry=Telemetry(enabled=False))
    for i, (x, y) in enumerate(points):
        server.add_public_object(i, Point(x, y))
    for i, region in enumerate(regions):
        server.receive_region(f"u{i}", region)
    return server


servers = st.tuples(
    st.lists(st.tuples(coord, coord), max_size=25),   # public points
    st.lists(rects(), max_size=15),                   # private regions
)


@given(
    servers,
    st.lists(batch_queries(), max_size=20).flatmap(
        # Duplicate queries are part of the contract: re-append a prefix.
        lambda qs: st.integers(0, len(qs)).map(lambda n: qs + qs[:n])
    ),
)
@settings(max_examples=120, deadline=None)
def test_batched_equals_sequential(server_data, batch):
    points, regions = server_data
    server = build_server(points, regions)
    planner = server.planner
    kinds = [native_kind(spec) for spec in batch]
    if not points and "private_nn" in kinds:
        # NN over an empty public store raises in the scalar processor;
        # the engine and the planner must both propagate the error.
        with pytest.raises(QueryError):
            BatchEngine(server).execute(batch)
        with pytest.raises(QueryError):
            planner.execute_batch(batch, route="scalar")
        return
    scalar = planner.execute_batch(batch, route="scalar")
    has_kernel = [
        i for i, kind in enumerate(kinds) if RUNNERS[kind].kernel is not None
    ]
    vectorized = dict(
        zip(
            has_kernel,
            planner.execute_batch(
                [batch[i] for i in has_kernel], route="vectorized"
            ),
        )
    )
    # A direct engine call takes the kernel wherever one exists.
    direct = BatchEngine(server).execute(batch)
    assert len(direct) == len(scalar) == len(batch)

    oracle = BruteForceOracle.from_server(server)
    for i, (spec, kind, seq) in enumerate(zip(batch, kinds, scalar)):
        vec = vectorized.get(i, seq)
        assert direct[i] == vec
        if kind == "public_range":
            assert vec == seq == tuple(oracle.public_range(spec.window))
        elif kind == "public_knn":
            assert vec == seq == tuple(oracle.public_knn(spec.point, spec.k))
        elif kind == "public_count":
            want = oracle.public_count(spec.window).probabilities
            assert vec.probabilities == seq.probabilities == want
        elif kind == "private_range":
            assert vec == seq
            assert vec.candidates == tuple(
                oracle.private_range(spec.region, spec.radius, spec.method)
            )
        else:  # private_nn has no kernel: one route, checked for coverage
            assert oracle.private_nn_witnesses(spec.region) <= set(seq.candidates)


@given(servers)
@settings(max_examples=30, deadline=None)
def test_empty_batch(server_data):
    server = build_server(*server_data)
    assert BatchEngine(server).execute([]) == []
    assert server.planner.execute_batch([]) == []


@given(rects(), st.lists(rects(), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_degenerate_region_counts_match_scalar_path(window, regions):
    """Regression guard for the PR-3 degenerate-axis membership fix."""
    server = LocationServer(telemetry=Telemetry(enabled=False))
    for i, region in enumerate(regions):
        # Force at least one degenerate axis on every other region.
        if i % 2:
            region = Rect(region.min_x, region.min_y, region.max_x, region.min_y)
        server.receive_region(f"u{i}", region)
    spec = CountSpec(window=window)
    vec = server.planner.execute(spec, route="vectorized")
    scalar = server.planner.execute(spec, route="scalar")
    assert vec.probabilities == scalar.probabilities
    assert vec.expected == scalar.expected
