"""Property-based tests for cloaking invariants (paper requirement 1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.hilbert import HilbertCloaker
from repro.cloaking.mbr import MBRCloaker
from repro.cloaking.naive import NaiveCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.cloaking.quadtree_cloak import QuadtreeCloaker
from repro.core.profiles import PrivacyRequirement
from repro.engine.cloak import bulk_cloak
from repro.geometry.point import Point
from repro.geometry.rect import Rect

BOUNDS = Rect(0, 0, 100, 100)

coord = st.floats(min_value=0, max_value=100, allow_nan=False)
populations = st.lists(
    st.tuples(coord, coord), min_size=2, max_size=50, unique=True
)

CLOAKER_FACTORIES = [
    lambda: NaiveCloaker(BOUNDS),
    lambda: MBRCloaker(BOUNDS),
    lambda: QuadtreeCloaker(BOUNDS, capacity=2, max_depth=10),
    lambda: GridCloaker(BOUNDS, cols=10),
    lambda: PyramidCloaker(BOUNDS, height=5),
    lambda: HilbertCloaker(BOUNDS, order=6),
]


@given(populations, st.data())
@settings(max_examples=40, deadline=None)
def test_cloak_contains_user_and_k_others(raw_points, data):
    """For every algorithm, random population, and feasible k:
    the region contains the requester, lies in bounds, and holds >= k users."""
    points = {i: Point(x, y) for i, (x, y) in enumerate(raw_points)}
    k = data.draw(st.integers(min_value=1, max_value=len(points)))
    victim = data.draw(st.sampled_from(sorted(points)))
    requirement = PrivacyRequirement(k=k)
    for factory in CLOAKER_FACTORIES:
        cloaker = factory()
        for i, p in points.items():
            cloaker.add_user(i, p)
        result = cloaker.cloak(victim, requirement)
        assert result.region.contains_point(points[victim]), cloaker.name
        assert BOUNDS.contains_rect(result.region), cloaker.name
        assert result.user_count >= k, (cloaker.name, k, result.user_count)


@given(populations, st.data())
@settings(max_examples=30, deadline=None)
def test_cloak_area_monotone_in_k(raw_points, data):
    """Asking for more anonymity never produces a smaller region."""
    points = {i: Point(x, y) for i, (x, y) in enumerate(raw_points)}
    if len(points) < 3:
        return
    victim = data.draw(st.sampled_from(sorted(points)))
    k_small = data.draw(st.integers(min_value=1, max_value=len(points) - 1))
    k_large = data.draw(st.integers(min_value=k_small, max_value=len(points)))
    for factory in CLOAKER_FACTORIES:
        cloaker = factory()
        if isinstance(cloaker, HilbertCloaker):
            # Hilbert buckets re-partition with k: a larger k can land the
            # user in a tighter bucket, so area monotonicity does not hold
            # (and cannot be forced without breaking reciprocity).
            continue
        for i, p in points.items():
            cloaker.add_user(i, p)
        small = cloaker.cloak(victim, PrivacyRequirement(k=k_small)).area
        large = cloaker.cloak(victim, PrivacyRequirement(k=k_large)).area
        assert large >= small - 1e-9, cloaker.name


@given(populations, st.floats(min_value=0.1, max_value=500), st.data())
@settings(max_examples=30, deadline=None)
def test_min_area_respected(raw_points, min_area, data):
    """A_min is satisfied whenever it is satisfiable within the universe."""
    points = {i: Point(x, y) for i, (x, y) in enumerate(raw_points)}
    victim = data.draw(st.sampled_from(sorted(points)))
    requirement = PrivacyRequirement(k=1, min_area=min_area)
    for factory in CLOAKER_FACTORIES:
        cloaker = factory()
        for i, p in points.items():
            cloaker.add_user(i, p)
        result = cloaker.cloak(victim, requirement)
        assert result.region.area >= min_area - 1e-6, cloaker.name


@given(populations, st.data())
@settings(max_examples=25, deadline=None)
def test_cloak_deterministic(raw_points, data):
    """Cloaking the same user twice with no interleaved updates is stable."""
    points = {i: Point(x, y) for i, (x, y) in enumerate(raw_points)}
    victim = data.draw(st.sampled_from(sorted(points)))
    k = data.draw(st.integers(min_value=1, max_value=len(points)))
    requirement = PrivacyRequirement(k=k)
    for factory in CLOAKER_FACTORIES:
        cloaker = factory()
        for i, p in points.items():
            cloaker.add_user(i, p)
        first = cloaker.cloak(victim, requirement).region
        second = cloaker.cloak(victim, requirement).region
        assert first == second, cloaker.name


@given(
    populations,
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_bulk_grid_chain_reproduces_scalar_cloak(raw_points, cols, rows, data):
    """The bulk kernel walks one expansion chain per start cell; for
    arbitrary (k, A_min) every user must stop on it exactly where
    ``GridCloaker._cloak`` stops from her cell -- same region floats,
    same inclusive user count."""
    points = {i: Point(x, y) for i, (x, y) in enumerate(raw_points)}
    cloaker = GridCloaker(BOUNDS, cols=cols, rows=rows)
    for i, p in points.items():
        cloaker.add_user(i, p)
    requests = [
        (
            i,
            PrivacyRequirement(
                k=data.draw(st.integers(min_value=2, max_value=len(points))),
                min_area=data.draw(
                    st.floats(min_value=0.0, max_value=1.5 * BOUNDS.area)
                ),
            ),
        )
        for i in points
    ]
    outcome = bulk_cloak(cloaker, requests)
    assert outcome.path == "kernel"
    for i, requirement in requests:
        want = cloaker.cloak(i, requirement)
        got = outcome.results[i]
        assert got.region == want.region, (cols, rows, points[i], requirement)
        assert got.user_count == want.user_count, (cols, rows, points[i], requirement)
