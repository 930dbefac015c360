"""Property-based tests for the event log's audit and EXPLAIN invariants.

Two ISSUE-level guarantees, checked over generated workloads:

* every ``cloak.result`` either fully attains its requirement
  (``k_achieved >= k`` and ``area >= min_area``) or explicitly declares
  degradation — the :class:`PrivacyAuditor` never finds an undeclared
  violation in an honest pipeline;
* EXPLAIN's measured index work equals the ``IndexCounters`` totals for
  the same query on a fresh server (the plan executes the real query,
  exactly once).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    MobileUser,
    NNSpec,
    PrivacyProfile,
    PrivacySystem,
    PyramidCloaker,
    RangeSpec,
)
from repro.core.server import LocationServer
from repro.core.stores import PublicStore
from repro.geometry import Point, Rect
from repro.obs import PrivacyAuditor, QueryExplainer, Telemetry
from repro.obs.events import CLOAK_DEGRADED, CLOAK_RESULT

BOUNDS = Rect(0, 0, 100, 100)

user_specs = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),  # x
        st.floats(min_value=0, max_value=100, allow_nan=False),  # y
        st.integers(min_value=1, max_value=40),                  # k (may exceed pop)
        st.floats(min_value=0.0, max_value=50.0),                # min_area
    ),
    min_size=2,
    max_size=25,
)


@given(user_specs, st.integers(min_value=0, max_value=5))
@settings(max_examples=50, deadline=None)
def test_published_regions_attain_or_declare_degradation(specs, queries):
    system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=5))
    for i, (x, y, k, min_area) in enumerate(specs):
        system.add_user(
            MobileUser(i, Point(x, y), PrivacyProfile.always(k=k, min_area=min_area))
        )
    system.add_poi("poi", Point(50, 50))
    system.publish_all()
    for i in range(queries):
        system.query(RangeSpec(flavor="private", user=i % len(specs), radius=8.0))

    events = list(system.obs.events.events())
    declared = {
        e.attrs.get("result_seq") for e in events if e.kind == CLOAK_DEGRADED
    }
    results = [e for e in events if e.kind == CLOAK_RESULT]
    assert results, "publishing must emit cloak results"
    for event in results:
        attrs = event.attrs
        attained = (
            attrs["k_achieved"] >= attrs["k"] and attrs["area"] >= attrs["min_area"]
        )
        assert attained or attrs["degraded"] or event.seq in declared, (
            f"undeclared degradation in {attrs}"
        )

    # The auditor agrees: nothing slipped through undeclared.
    auditor = PrivacyAuditor.from_log(system.obs.events)
    assert auditor.violations() == []
    assert auditor.report()["totals"]["cloaks"] == len(results)


query_rects = st.tuples(
    st.floats(min_value=0, max_value=70, allow_nan=False),
    st.floats(min_value=0, max_value=70, allow_nan=False),
    st.floats(min_value=1, max_value=30, allow_nan=False),  # width
    st.floats(min_value=1, max_value=30, allow_nan=False),  # height
)


def fresh_server(n_points, n_regions):
    server = LocationServer(telemetry=Telemetry(enabled=False))
    server.public = PublicStore.from_points(
        {i: Point((i * 17) % 100, (i * 31) % 100) for i in range(n_points)}
    )
    for i in range(n_regions):
        base = (i * 13) % 80
        server.receive_region(f"r{i}", Rect(base, base, base + 9, base + 9))
    return server


@given(
    query_rects,
    st.integers(min_value=5, max_value=60),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["public_range", "private_range", "private_nn"]),
)
@settings(max_examples=50, deadline=None)
def test_explain_counts_equal_index_counter_totals(rect, n_points, n_regions, path):
    x, y, w, h = rect
    region = Rect(x, y, x + w, y + h)
    server = fresh_server(n_points, n_regions)
    explainer = QueryExplainer(server)
    if path == "public_range":
        plan = explainer.explain(RangeSpec(window=region))
        counters = server.public.index_counters
    elif path == "private_range":
        plan = explainer.explain(
            RangeSpec(flavor="private", region=region, radius=5.0)
        )
        counters = server.public.index_counters
    else:
        plan = explainer.explain(NNSpec(flavor="private", region=region))
        counters = server.public.index_counters
    index_nodes = (
        plan.find("index.range_query")
        + plan.find("index.nearest")
        + plan.find("index.nearest_iter")
    )
    assert index_nodes, "every plan must report its index work"
    measured = index_nodes[0].detail
    totals = counters.snapshot()
    for name in ("node_visits", "leaf_scans", "distance_computations"):
        assert measured[name] == totals[name]
