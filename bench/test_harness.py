"""Unit tests of the harness itself (``pytest bench -q``).

Tier-1 (``testpaths = tests``) does not collect this file; it guards the
instrument, not the program: the self-time arithmetic, the
ten-samples-beyond percentile rule, the seed -> identical-inputs
property, and that the manifest names exactly what the harness reports.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import trace as tr  # noqa: E402
from bench.pipeline import Run  # noqa: E402
from bench.stats import cycle_percentile, rate_median, supported_percentile  # noqa: E402
from bench.workloads import WORKLOADS, Inputs  # noqa: E402


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_is_duration_minus_child_coverage():
    #        name       start end  parent trace
    spans = [
        ["a.root", 0.0, 10.0, -1, 1],
        ["b.child", 1.0, 4.0, 0, 1],
        ["c.grandchild", 2.0, 3.0, 1, 1],
        ["b.child", 5.0, 9.0, 0, 1],
    ]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    rows = tr.fold(spans)
    assert rows["b.child"] == {"calls": 2, "self_s": 6.0, "inclusive_s": 7.0}
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(row["self_s"] for row in rows.values()) == 10.0


def test_inclusive_time_skips_spans_nested_under_their_own_name():
    spans = [
        ["x.outer", 0.0, 8.0, -1, 1],
        ["x.outer", 1.0, 7.0, 0, 1],  # re-entrant: same name inside itself
        ["y.leaf", 2.0, 3.0, 1, 1],
    ]
    rows = tr.fold(spans)
    assert rows["x.outer"]["inclusive_s"] == 8.0
    assert rows["x.outer"]["self_s"] == 2.0 + 5.0
    assert rows["y.leaf"]["inclusive_s"] == 1.0


def test_child_coverage_is_clipped_to_the_parent():
    spans = [["p.parent", 2.0, 4.0, -1, 1], ["p.child", 1.0, 3.0, 0, 1]]
    assert tr.self_times(spans)[0] == 1.0


class _Inner:
    def work(self, n):
        return n + 1


class _Outer:
    def __init__(self):
        self.inner = _Inner()

    def run(self, n):
        return self.inner.work(n) + self.inner.work(n)

    @classmethod
    def build(cls):
        return cls()


def test_tracer_records_nesting_and_restores_what_it_patched():
    module = __name__
    seen = []
    tracer = tr.Tracer()
    raw_run, raw_build = _Outer.__dict__["run"], _Outer.__dict__["build"]
    tracer.install([
        (module, "_Outer", "run", "outer.run", seen.append),
        (module, "_Outer", "build", "outer.build"),
        (module, "_Inner", "work", "inner.work"),
        (module, "_Inner", "absent", "inner.absent"),
    ])
    assert _Outer.build().run(1) == 4 and tracer.spans == []  # inert until active
    tracer.active = True
    with tracer.span("harness.cycle", new_trace=True):
        outer = _Outer.build()
        assert outer.run(1) == 4
    tracer.active = False
    names = [s[tr.NAME] for s in tracer.spans]
    assert names == ["harness.cycle", "outer.build", "outer.run", "inner.work", "inner.work"]
    parents = [s[tr.PARENT] for s in tracer.spans]
    assert parents == [-1, 0, 0, 2, 2]
    assert {s[tr.TRACE] for s in tracer.spans} == {1}
    assert all(s[tr.START] <= s[tr.END] for s in tracer.spans)
    assert seen == [4]
    tracer.uninstall()
    assert _Outer.__dict__["run"] is raw_run and _Outer.__dict__["build"] is raw_build


def test_layer_of_maps_modules_to_budget_layers():
    assert tr.layer_of("repro.geometry.rect") == "geometry"
    assert tr.layer_of("repro.core.stores") == "core.server"
    assert tr.layer_of("repro.core.profiles") == "core.anonymizer"
    assert tr.layer_of("repro.obs.events") == "obs"
    assert tr.layer_of("json.encoder") is None


# ----------------------------------------------------------------------
# Percentiles and rates
# ----------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert supported_percentile(list(range(199)), 95) is None
    assert supported_percentile(list(range(200)), 95) == 189
    assert supported_percentile(list(range(19)), 50) is None
    assert supported_percentile(list(range(1, 21)), 50) == 10
    assert supported_percentile([], 50) is None


def test_percentile_returns_a_measured_value():
    samples = [0.3, 9.0, 0.1, 0.2] * 50
    assert supported_percentile(samples, 95) in samples


def test_cycle_percentile_is_robust_to_one_slow_cycle():
    fast = [float(i) for i in range(1, 101)]
    slow = [10.0 * x for x in fast]
    assert cycle_percentile([fast, fast, slow], 95) == 95.0
    assert supported_percentile(fast + fast + slow, 95) > 95.0  # the pooled tail is the slow cycle's
    assert cycle_percentile([fast[:50], fast[:50]], 95) is None  # 100 samples: 5 beyond


def test_rate_median_is_robust_to_one_slow_cycle():
    assert rate_median([100, 100, 100], [1.0, 1.0, 10.0]) == 100.0
    assert rate_median([], []) is None


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _plan_signature(plan):
    return (plan.movers, plan.flips, plan.batch, plan.private, plan.check_positions)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = WORKLOADS[name].scaled(20)
    first, second, other = Inputs(workload, 7), Inputs(workload, 7), Inputs(workload, 8)
    assert first.fingerprint == second.fingerprint != other.fingerprint
    for _ in range(2):  # cycle i draws the same inputs in every run
        assert _plan_signature(first.plan()) == _plan_signature(second.plan())
    assert first.model.step(1.0) == second.model.step(1.0)


def test_batch_has_the_declared_composition():
    plan = Inputs(WORKLOADS["query_mix_10k"].scaled(20), 3).plan()
    kinds = [type(spec).__name__ + ":" + spec.flavor for spec in plan.batch]
    assert len(plan.batch) == 100
    assert kinds.count("CountSpec:public") == 20
    assert kinds.count("KNNSpec:public") == 20
    assert kinds.count("RangeSpec:public") == 40
    assert kinds.count("RangeSpec:private") == 19
    assert kinds.count("NNSpec:public") == 1


# ----------------------------------------------------------------------
# The manifest names exactly what a run reports
# ----------------------------------------------------------------------


@pytest.mark.parametrize("traced", [False, True])
def test_a_run_reports_every_metric_the_manifest_names(tmp_path, traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    workload = WORKLOADS["pipeline_10k"].scaled(20)
    result = Run(workload, 5, 0.5, traced, str(tmp_path), log=lambda *_: None).run()
    declared = manifest["per_layer" if traced else "end_to_end"]
    reported = result["per_layer" if traced else "end_to_end"]
    assert set(reported) == {metric["name"] for metric in declared}
    assert result["ops_failed"] == 0 and result["preconditions_failed"] == []
    assert not os.listdir(tmp_path) or traced  # temporary WAL directories are gone
    if traced:
        assert reported["trace.span_coverage"] > 0.9
        assert reported["engine.bulk_path_kernel"] == 1.0
        assert os.path.exists(result["spans"])
