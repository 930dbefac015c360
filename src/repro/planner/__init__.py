"""Query planning over the declarative QuerySpec API.

The planner routes each spec by its native kind through one measured
route table: in a batch, the public range, count and k-NN kinds run on
the batch engine's vectorized kernels; every other kind, and every
single spec, runs the per-query scalar processor over the native R-tree
store.  Routes never change answers.

Layout:

* :mod:`repro.planner.planner` — :class:`QueryPlanner`: the route
  table, canonical executors, batch routing, ``planner.decision`` and
  ``planner.measured`` events;
* :mod:`repro.planner.stats` — the live store statistics
  ``python -m repro plan`` prints.

See ``docs/planner.md`` for the table and the measurements behind it.
"""

from repro.planner.planner import Decision, QueryPlanner
from repro.planner.stats import PlannerStats, StatisticsCollector

__all__ = [
    "Decision",
    "PlannerStats",
    "QueryPlanner",
    "StatisticsCollector",
]
