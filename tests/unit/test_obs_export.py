"""Exporters (repro.obs.export) and the PrivacySystem.telemetry() snapshot."""

import json

import numpy as np
import pytest

from repro import (
    CountSpec,
    MobileUser,
    NNSpec,
    PrivacyProfile,
    PrivacySystem,
    PyramidCloaker,
    RangeSpec,
    Telemetry,
)
from repro.geometry import Point, Rect
from repro.obs.export import render_dashboard, to_json, to_prometheus


@pytest.fixture(scope="module")
def system():
    rng = np.random.default_rng(11)
    bounds = Rect(0, 0, 100, 100)
    sys_ = PrivacySystem(bounds, PyramidCloaker(bounds, height=5))
    for j in range(10):
        x, y = rng.uniform(0, 100, 2)
        sys_.add_poi(f"poi-{j}", Point(float(x), float(y)))
    for i in range(60):
        x, y = rng.uniform(0, 100, 2)
        sys_.add_user(
            MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=5))
        )
    sys_.publish_all()
    for i in range(5):
        sys_.query(RangeSpec(flavor="private", user=i, radius=15.0))
        sys_.query(NNSpec(flavor="private", user=i))
    # Forced onto the native store so its index counters see the query.
    sys_.planner.execute(
        CountSpec(window=Rect(10, 10, 90, 90)), backend="rtree", route="scalar"
    )
    return sys_


class TestSystemTelemetry:
    def test_sections_present(self, system):
        snap = system.telemetry()
        assert set(snap) >= {
            "enabled", "stages", "counters", "gauges",
            "histograms", "indexes", "server", "qos",
        }

    def test_pipeline_stages_have_quantiles(self, system):
        stages = system.telemetry()["stages"]
        for stage in (
            "anonymizer.cloak",
            "server.private_range",
            "server.private_nn",
            "client.refine",
            "query.private_range",
            "query.private_nn",
        ):
            assert stage in stages, f"missing stage {stage}"
            summary = stages[stage]
            assert summary["count"] >= 5
            assert 0 <= summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]

    def test_index_visit_counters(self, system):
        indexes = system.telemetry()["indexes"]
        assert indexes["server.public"]["nn_queries"] >= 5
        assert indexes["server.public"]["node_visits"] > 0
        assert indexes["server.private"]["range_queries"] >= 1
        # The pyramid cloaker exposes its backing index too.
        assert indexes["anonymizer.cloaker"]["node_visits"] > 0

    def test_server_and_qos_sections(self, system):
        snap = system.telemetry()
        assert snap["server"]["queries_private_range"] >= 5
        assert all(isinstance(v, int) for v in snap["server"].values())
        assert snap["qos"]["range_accuracy"] == 1.0

    def test_snapshot_is_json_serialisable(self, system):
        round_tripped = json.loads(to_json(system.telemetry()))
        assert round_tripped["server"]["public_objects"] == 10

    def test_per_system_isolation(self):
        bounds = Rect(0, 0, 10, 10)
        a = PrivacySystem(bounds, PyramidCloaker(bounds, height=3))
        b = PrivacySystem(bounds, PyramidCloaker(bounds, height=3))
        a.add_user(MobileUser("u", Point(5, 5), PrivacyProfile.always(k=1)))
        a.publish_all()
        assert a.telemetry()["stages"]
        assert not b.telemetry()["stages"]

    def test_injected_telemetry_is_used(self):
        bounds = Rect(0, 0, 10, 10)
        obs = Telemetry(enabled=False)
        system = PrivacySystem(bounds, PyramidCloaker(bounds, height=3), telemetry=obs)
        system.add_user(MobileUser("u", Point(5, 5), PrivacyProfile.always(k=1)))
        system.publish_all()
        assert system.obs is obs
        assert system.telemetry()["stages"] == {}  # tracing was off


class TestPrometheus:
    def test_exposition_format(self, system):
        text = to_prometheus(system.telemetry())
        assert "# TYPE repro_server_queries_total counter" in text
        assert 'repro_server_queries_total{kind="private_nn"} ' in text
        assert 'repro_stage_latency_ms{quantile="0.95",span="query.private_nn"}' in text
        assert 'repro_index_node_visits_total{index="server.public"}' in text

    def test_type_lines_unique(self, system):
        lines = to_prometheus(system.telemetry()).splitlines()
        type_lines = [l for l in lines if l.startswith("# TYPE ")]
        assert len(type_lines) == len(set(type_lines))

    def test_sample_lines_parse(self, system):
        for line in to_prometheus(system.telemetry()).splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample ends in a number
            assert name_part.startswith("repro_")


class TestPrometheusEdgeCases:
    def test_label_values_escaped(self):
        obs = Telemetry()
        obs.registry.counter('odd', label='a"b\\c\nd').inc()
        text = to_prometheus(obs.snapshot())
        assert 'label="a\\"b\\\\c\\nd"' in text

    def test_dotted_event_counter_names(self):
        obs = Telemetry()
        obs.emit("cloak.result", user="u")
        obs.emit("cloak.result", user="v")
        obs.emit("query.completed", query="private_nn")
        text = to_prometheus(obs.snapshot())
        assert 'repro_events_emitted_total{kind="cloak.result"} 2' in text
        assert 'repro_events_emitted_total{kind="query.completed"} 1' in text
        # One TYPE line for the whole labelled family.
        assert text.count("# TYPE repro_events_emitted_total counter") == 1

    def test_histogram_buckets_cumulative_and_monotone(self):
        obs = Telemetry()
        hist = obs.registry.histogram("explain.visits")
        for value in (0.5, 3.0, 7.0, 40.0, 900.0):
            hist.observe(value)
        text = to_prometheus(obs.snapshot())
        assert "# TYPE repro_explain_visits histogram" in text
        bucket_lines = [
            l for l in text.splitlines() if l.startswith("repro_explain_visits_bucket")
        ]
        counts = [float(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts), "cumulative buckets must be monotone"
        assert bucket_lines[-1].startswith('repro_explain_visits_bucket{le="+Inf"}')
        assert counts[-1] == 5.0
        assert "repro_explain_visits_count 5" in text

    def test_histogram_without_buckets_falls_back_to_summary(self):
        snapshot = {
            "histograms": {
                "legacy": {"count": 2, "sum": 3.0, "p50": 1.0, "p95": 2.0, "p99": 2.0}
            }
        }
        text = to_prometheus(snapshot)
        assert "# TYPE repro_legacy summary" in text
        assert 'repro_legacy{quantile="0.95"} 2.0' in text


class TestDashboard:
    def test_sections_render(self, system):
        text = render_dashboard(system.telemetry())
        assert "pipeline stages" in text
        assert "index work" in text
        assert "quality of service" in text
        assert "query.private_nn" in text

    def test_empty_snapshot(self):
        assert "no telemetry" in render_dashboard({})


@pytest.fixture()
def feedback_snapshot():
    """One correlated query + one SLO verdict, as both exporters see it."""
    from repro.obs import SLOMonitor, SLOSpec

    obs = Telemetry()
    with obs.correlate("b"):
        with obs.correlate("q"):
            obs.emit(
                "query.completed", query="private_range", overhead=2.0,
                correct=True,
            )
    SLOMonitor([SLOSpec("answer_accuracy", "query_accuracy", 0.5)]).evaluate(
        snapshot=obs.snapshot(),
        events=list(obs.events.events()),
        telemetry=obs,
    )
    return obs.snapshot()


class TestFeedbackLoopGoldens:
    """Golden output: correlation-ID counters and SLO gauges in exporters."""

    def test_prometheus_correlation_counters(self, feedback_snapshot):
        text = to_prometheus(feedback_snapshot)
        assert "# TYPE repro_correlation_ids_total counter" in text
        assert 'repro_correlation_ids_total{kind="q"} 1' in text
        assert 'repro_correlation_ids_total{kind="b"} 1' in text

    def test_prometheus_slo_gauges(self, feedback_snapshot):
        text = to_prometheus(feedback_snapshot)
        assert "# TYPE repro_slo_ok gauge" in text
        assert 'repro_slo_ok{slo="answer_accuracy"} 1.0' in text
        assert 'repro_slo_value{slo="answer_accuracy"} 1.0' in text
        assert 'repro_events_emitted_total{kind="slo.evaluated"} 1' in text

    def test_dashboard_correlation_and_slo_lines(self, feedback_snapshot):
        text = render_dashboard(feedback_snapshot)
        assert "correlation.ids{kind=q} = 1" in text
        assert "correlation.ids{kind=b} = 1" in text
        assert "slo.ok{slo=answer_accuracy} = 1.0" in text
        assert "slo.value{slo=answer_accuracy} = 1.0" in text
