"""Cost-based query planning over the declarative QuerySpec API.

The package turns the repo's descriptive layers prescriptive: PR 4's
EXPLAIN showed what each execution *did cost*; the planner uses the
same measured signals — :class:`~repro.index.base.IndexCounters`
deltas, calibration probe timings, snapshot freshness — to choose,
per query, the native R-tree or a uniform-grid replica and the
vectorized-kernel vs scalar route, without ever changing answers.

Layout:

* :mod:`repro.planner.replicas` — grid copies of the server's stores,
  built lazily per store version;
* :mod:`repro.planner.stats` — the statistics collector and its
  calibration probes;
* :mod:`repro.planner.cost` — the cost model pricing (backend, route)
  candidates;
* :mod:`repro.planner.planner` — :class:`QueryPlanner`: decisions,
  canonical executors, batch routing, ``planner.decision`` events.

See ``docs/planner.md`` for the cost model and decision examples.
"""

from repro.planner.cost import CostEstimate, CostModel
from repro.planner.planner import Decision, QueryPlanner
from repro.planner.replicas import BACKEND_NAMES, ReplicaSet
from repro.planner.stats import (
    BackendCalibration,
    KernelCalibration,
    PlannerStats,
    StatisticsCollector,
)

__all__ = [
    "BACKEND_NAMES",
    "BackendCalibration",
    "CostEstimate",
    "CostModel",
    "Decision",
    "KernelCalibration",
    "PlannerStats",
    "QueryPlanner",
    "ReplicaSet",
    "StatisticsCollector",
]
