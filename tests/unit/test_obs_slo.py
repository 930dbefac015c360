"""SLO specs and the rolling health monitor (repro.obs.slo)."""

import json

import pytest

from repro.obs import DEFAULT_SLOS, SLOMonitor, SLOSpec, Telemetry, load_slos
from repro.obs.events import (
    QUERY_COMPLETED,
    SLO_EVALUATED,
    SNAPSHOT_CAPTURED,
    SNAPSHOT_REUSED,
)
from repro.obs.slo import EXIT_SLO_VIOLATION, SLO_SCHEMA, HealthReport


def emit_cloak(obs, k=5, k_achieved=5, degraded=False):
    k_satisfied = k_achieved >= k
    obs.emit(
        "cloak.result",
        user="u",
        t=0.0,
        algo="test",
        k=k,
        k_achieved=k_achieved,
        min_area=0.0,
        max_area=None,
        area=4.0,
        k_satisfied=k_satisfied,
        area_satisfied=True,
        reused=False,
        degraded=degraded or not k_satisfied,
    )


class TestSLOSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLOSpec("x", "latency_p42", 1.0, stage="s")

    def test_stage_required_iff_latency(self):
        with pytest.raises(ValueError, match="stage is required"):
            SLOSpec("x", "latency_p95", 1.0)
        with pytest.raises(ValueError, match="stage is required"):
            SLOSpec("x", "attainment_rate", 0.9, stage="anonymizer.cloak")

    def test_directions_and_units(self):
        latency = SLOSpec("l", "latency_p95", 5.0, stage="s")
        floor = SLOSpec("a", "attainment_rate", 0.9)
        assert (latency.direction, latency.unit) == ("<=", "ms")
        assert (floor.direction, floor.unit) == (">=", "rate")

    def test_round_trips_through_dict(self):
        spec = SLOSpec("l", "latency_p95", 5.0, stage="s", description="d")
        assert SLOSpec.from_dict(spec.to_dict()) == spec

    def test_load_slos_from_json_file(self, tmp_path):
        path = tmp_path / "slos.json"
        path.write_text(json.dumps([spec.to_dict() for spec in DEFAULT_SLOS]))
        assert load_slos(str(path)) == DEFAULT_SLOS

    def test_load_slos_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(ValueError, match="expected a JSON list"):
            load_slos(str(path))


class TestEvaluation:
    def test_attainment_floor_pass_and_fail(self):
        spec = SLOSpec("attainment", "attainment_rate", 0.8)
        obs = Telemetry()
        for _ in range(8):
            emit_cloak(obs)
        emit_cloak(obs, k=10, k_achieved=2)
        report = SLOMonitor([spec]).evaluate(
            snapshot=obs.snapshot(), events=obs.events.events()
        )
        assert report.healthy and report.results[0].measured == 8 / 9

        obs2 = Telemetry()
        emit_cloak(obs2)
        emit_cloak(obs2, k=10, k_achieved=2)
        report2 = SLOMonitor([spec]).evaluate(
            snapshot=obs2.snapshot(), events=obs2.events.events()
        )
        assert not report2.healthy
        assert report2.exit_code == EXIT_SLO_VIOLATION
        assert report2.violated[0].spec.name == "attainment"

    def test_no_evidence_passes_vacuously(self):
        report = SLOMonitor(DEFAULT_SLOS).evaluate(snapshot={}, events=[])
        assert report.healthy
        assert all(result.measured is None for result in report.results)
        assert all("no evidence" in result.detail for result in report.results)

    def test_latency_spec_reads_stage_p95(self):
        spec = SLOSpec("cloak", "latency_p95", 10.0, stage="anonymizer.cloak")
        snapshot = {
            "stages": {"anonymizer.cloak": {"count": 4, "p95_ms": 25.0}}
        }
        report = SLOMonitor([spec]).evaluate(snapshot=snapshot, events=[])
        assert not report.healthy
        assert report.results[0].measured == 25.0

    def test_snapshot_reuse_rate_over_window(self):
        spec = SLOSpec("reuse", "snapshot_reuse_rate", 0.5)
        obs = Telemetry()
        obs.emit(SNAPSHOT_CAPTURED, objects=10)
        obs.emit(SNAPSHOT_REUSED, objects=10)
        obs.emit(SNAPSHOT_REUSED, objects=10)
        report = SLOMonitor([spec]).evaluate(
            snapshot=obs.snapshot(), events=obs.events.events()
        )
        assert report.results[0].measured == pytest.approx(2 / 3)
        assert report.healthy

    def test_query_accuracy_weighted_by_count(self):
        spec = SLOSpec("acc", "query_accuracy", 0.9)
        obs = Telemetry()
        for correct in (True, True, True, False):
            obs.emit(QUERY_COMPLETED, query="private_range", overhead=2.0,
                     correct=correct)
        report = SLOMonitor([spec]).evaluate(
            snapshot=obs.snapshot(), events=obs.events.events()
        )
        assert report.results[0].measured == 0.75
        assert not report.healthy

    def test_rolling_window_forgets_old_failures(self):
        spec = SLOSpec("attainment", "attainment_rate", 0.9)
        obs = Telemetry()
        emit_cloak(obs, k=10, k_achieved=2)  # old failure
        for _ in range(5):
            emit_cloak(obs)  # recovery
        monitor = SLOMonitor([spec], window=5)
        report = monitor.evaluate(
            snapshot=obs.snapshot(), events=obs.events.events()
        )
        assert report.healthy, "window should only see the recovered tail"
        assert report.window == 5


class TestVerdictTelemetry:
    def test_gauges_and_event_published(self):
        obs = Telemetry()
        emit_cloak(obs)
        monitor = SLOMonitor(
            [SLOSpec("attainment", "attainment_rate", 0.5)]
        )
        monitor.evaluate(
            snapshot=obs.snapshot(),
            events=list(obs.events.events()),
            telemetry=obs,
        )
        gauges = obs.snapshot()["gauges"]
        assert gauges["slo.ok{slo=attainment}"] == 1.0
        assert gauges["slo.value{slo=attainment}"] == 1.0
        evaluated = list(obs.events.events(SLO_EVALUATED))
        assert len(evaluated) == 1
        assert evaluated[0].attrs["healthy"] is True


class TestHealthReport:
    def _report(self):
        obs = Telemetry()
        emit_cloak(obs)
        return SLOMonitor(DEFAULT_SLOS).evaluate(
            snapshot=obs.snapshot(), events=obs.events.events()
        )

    def test_to_dict_is_json_serialisable(self):
        payload = self._report().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["schema"] == SLO_SCHEMA
        assert payload["total"] == len(DEFAULT_SLOS)
        assert payload["exit_code"] == 0

    def test_render_shows_verdict_and_rows(self):
        text = self._report().render()
        assert "== SLO health ==" in text
        assert "HEALTHY" in text
        for spec in DEFAULT_SLOS:
            assert spec.name in text

    def test_render_flags_failures(self):
        spec = SLOSpec("attainment", "attainment_rate", 0.99)
        obs = Telemetry()
        emit_cloak(obs, k=10, k_achieved=2)
        report = SLOMonitor([spec]).evaluate(
            snapshot=obs.snapshot(), events=obs.events.events()
        )
        assert "UNHEALTHY" in report.render()
        assert "FAIL attainment" in report.render()

    def test_empty_specs_render(self):
        assert "(no SLO specs)" in HealthReport().render()
