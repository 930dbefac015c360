"""Event emission must cost < 5 % of real query work on the hot path.

The ISSUE 5 acceptance bar: running a 10k-query microloop with the event
ring enabled (JSONL sink off) adds < 5 % over the same loop with no
event calls at all.  An enabled emit is one dict build, one dataclass
construction and a deque append; a real range query is tens of
microseconds of index work, so the ratio holds with a wide noise margin.
"""

import time

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.index.rtree import RTree
from repro.obs import EventLog

QUERIES = 10_000
REPEATS = 5


@pytest.fixture(scope="module")
def workload():
    """An R-tree of 2000 points plus the 10k query windows to run."""
    rng = np.random.default_rng(11)
    tree = RTree()
    for i in range(2000):
        x, y = rng.uniform(0, 100, 2)
        tree.insert_point(i, Point(float(x), float(y)))
    windows = []
    for _ in range(QUERIES):
        x, y = rng.uniform(0, 80, 2)
        windows.append(Rect(float(x), float(y), float(x) + 20.0, float(y) + 20.0))
    return tree, windows


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_enabled_event_emission_overhead_under_5_percent(workload):
    """Per-event emit cost (ring on, sink off) vs per-query index work.

    Same methodology as the tracing gate: measure the two per-iteration
    costs separately, each best-of-N, instead of racing two ~second-long
    wall times against CI clock noise.  The laps alternate between the
    two loops, so a slow stretch of a shared machine slows one lap of
    each side rather than every lap of one side.
    """
    tree, windows = workload
    log = EventLog(keep=2048)  # ring on, no registry, no JSONL sink

    def queries():
        for window in windows:
            tree.range_query(window)

    def emits_only():
        for i in range(QUERIES):
            log.emit("query.completed", query="private_range", i=i, overhead=2.0)

    queries()
    emits_only()
    laps = [(_timed(queries), _timed(emits_only)) for _ in range(REPEATS)]
    query_cost = min(lap[0] for lap in laps) / QUERIES
    emit_cost = min(lap[1] for lap in laps) / QUERIES
    overhead = emit_cost / query_cost
    assert overhead < 0.05, (
        f"enabled emit costs {emit_cost * 1e9:.0f}ns = "
        f"{overhead * 100:.2f}% of a {query_cost * 1e6:.1f}us query"
    )


def test_disabled_event_log_records_nothing(workload):
    tree, windows = workload
    log = EventLog(enabled=False)
    for window in windows[:100]:
        tree.range_query(window)
        assert log.emit("query.completed", query="private_range") is None
    assert len(log) == 0
    assert log.counts() == {}
