"""Plan accuracy (repro.obs.accuracy): the planner's online monitor."""

import json

import pytest

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.obs import AccuracyMonitor, SLOMonitor, SLOSpec
from repro.obs.events import PLANNER_CALIBRATED, PLANNER_MISPREDICT
from repro.planner.planner import Decision
from repro.queries.spec import NNSpec


def small_system():
    bounds = Rect(0, 0, 100, 100)
    system = PrivacySystem(bounds, PyramidCloaker(bounds, height=5))
    for i in range(30):
        system.add_user(
            MobileUser(
                i,
                Point((13 * i) % 100, (29 * i) % 100),
                PrivacyProfile.always(k=3),
            )
        )
    for j in range(10):
        system.add_poi(("poi", j), Point((17 * j) % 100, (41 * j) % 100))
    system.publish_all()
    return system


def decision(
    kind="public_range",
    backend="rtree",
    route="scalar",
    seconds=1e-4,
    pinned=False,
):
    return Decision(
        kind=kind,
        backend=backend,
        route=route,
        seconds=seconds,
        reason="test",
        pinned=pinned,
    )


class TestAccuracyMonitor:
    def test_calibrated_group_stays_quiet(self):
        monitor = AccuracyMonitor(min_samples=4)
        emitted = []
        for _ in range(10):
            ratio = monitor.observe(
                decision(seconds=1e-4),
                1.1e-4,
                emit=lambda *a, **k: emitted.append(a[0]),
            )
        assert ratio == 1.1e-4 / 1e-4
        assert emitted == []
        assert monitor.mispredicts == 0
        assert monitor.poll_recalibration() is None

    def test_mispredict_is_edge_triggered(self):
        monitor = AccuracyMonitor(threshold=4.0, min_samples=4)
        emitted = []
        emit = lambda *args, **attrs: emitted.append((args[0], attrs))
        for _ in range(10):
            monitor.observe(decision(seconds=1e-5), 1e-3, emit=emit)
        kinds = [kind for kind, _ in emitted]
        assert kinds == [PLANNER_MISPREDICT], "one event per excursion, not per obs"
        attrs = emitted[0][1]
        assert attrs["query"] == "public_range"
        assert attrs["backend"] == "rtree"
        assert attrs["route"] == "scalar"
        assert attrs["median_ratio"] > 4.0
        assert monitor.mispredicts == 1

    def test_underprediction_and_overprediction_both_fold(self):
        slow = AccuracyMonitor(min_samples=2)
        fast = AccuracyMonitor(min_samples=2)
        for _ in range(4):
            slow.observe(decision(seconds=1e-5), 1e-3)  # 100x too slow
            fast.observe(decision(seconds=1e-3), 1e-5)  # 100x too fast
        assert slow.mispredicts == 1
        assert fast.mispredicts == 1

    def test_sub_nanosecond_predictions_are_skipped(self):
        monitor = AccuracyMonitor()
        assert monitor.observe(decision(seconds=1e-12), 1.0) is None
        assert monitor.observed == 0

    def test_drift_triggers_recalibration_request(self):
        monitor = AccuracyMonitor(threshold=4.0, drift_band=4.0, min_samples=4)
        for _ in range(8):
            monitor.observe(decision(seconds=1e-5), 1e-3)
        reason = monitor.poll_recalibration()
        assert reason is not None and "drift" in reason
        assert monitor.recalibrations == 1
        # Collected once; windows reset and the check re-arms quietly.
        assert monitor.poll_recalibration() is None
        assert monitor.report()["groups"] == {}

    def test_quiet_period_after_recalibration(self):
        monitor = AccuracyMonitor(
            threshold=4.0, drift_band=4.0, window=8, min_samples=4
        )
        for _ in range(8):
            monitor.observe(decision(seconds=1e-5), 1e-3)
        assert monitor.poll_recalibration() is not None
        # Still mispredicting, but within the quiet window: no new request.
        for _ in range(4):
            monitor.observe(decision(seconds=1e-5), 1e-3)
        assert monitor.poll_recalibration() is None
        # Once the quiet window has been re-sampled, the request re-arms.
        for _ in range(8):
            monitor.observe(decision(seconds=1e-5), 1e-3)
        assert monitor.poll_recalibration() is not None

    def test_groups_tracked_independently(self):
        monitor = AccuracyMonitor(min_samples=4)
        for _ in range(6):
            monitor.observe(decision(kind="public_range", seconds=1e-4), 1.2e-4)
            monitor.observe(decision(kind="public_nn", seconds=1e-5), 2e-3)
        report = monitor.report()
        assert report["groups"]["public_range/rtree/scalar"]["mispredict"] is False
        assert report["groups"]["public_nn/rtree/scalar"]["mispredict"] is True
        assert report["drift_folded"] > 1.0

    def test_report_is_json_serialisable(self):
        monitor = AccuracyMonitor(min_samples=2)
        for _ in range(4):
            monitor.observe(decision(), 2e-4)
        report = monitor.report()
        assert json.loads(json.dumps(report)) == report
        assert report["schema"] == "repro.obs.accuracy/1"
        assert report["source"] == "online"


class TestPinnedRoutes:
    """Pinned decisions learn a cost bias instead of raising mispredicts."""

    def test_pinned_observations_never_flag(self):
        monitor = AccuracyMonitor(threshold=4.0, min_samples=4)
        emitted = []
        emit = lambda *args, **attrs: emitted.append((args[0], attrs))
        for _ in range(10):
            monitor.observe(decision(seconds=1e-5, pinned=True), 1e-3, emit=emit)
        assert monitor.mispredicts == 0
        assert PLANNER_MISPREDICT not in [kind for kind, _ in emitted]
        assert monitor.poll_recalibration() is None  # no drift either

    def test_bias_learned_from_median_ratio(self):
        monitor = AccuracyMonitor(min_samples=4)
        emitted = []
        emit = lambda *args, **attrs: emitted.append((args[0], attrs))
        for _ in range(4):
            monitor.observe(decision(seconds=1e-4, pinned=True), 1e-3, emit=emit)
        assert monitor.pinned_bias("public_range", "rtree", "scalar") == (
            pytest.approx(10.0)
        )
        assert monitor.pinned_recalibrations == 1
        kinds = [kind for kind, _ in emitted]
        assert kinds == [PLANNER_CALIBRATED]
        attrs = emitted[0][1]
        assert attrs["scope"] == "pinned"
        assert attrs["bias"] == pytest.approx(10.0)

    def test_bias_update_converges_and_goes_quiet(self):
        monitor = AccuracyMonitor(min_samples=4)
        base = 1e-4
        for _ in range(4):
            monitor.observe(decision(seconds=base, pinned=True), 1e-3)
        bias = monitor.pinned_bias("public_range", "rtree", "scalar")
        # The planner now predicts base * bias; measured ratios sit at
        # 1.0 and the band (1.5x) keeps the bias untouched.
        for _ in range(10):
            monitor.observe(
                decision(seconds=base * bias, pinned=True), 1e-3
            )
        assert monitor.pinned_bias("public_range", "rtree", "scalar") == bias
        assert monitor.pinned_recalibrations == 1

    def test_in_band_pinned_group_learns_no_bias(self):
        monitor = AccuracyMonitor(min_samples=4)
        for _ in range(10):
            monitor.observe(decision(seconds=1e-4, pinned=True), 1.2e-4)
        assert monitor.pinned_bias("public_range", "rtree", "scalar") == 1.0
        assert monitor.pinned_recalibrations == 0

    def test_report_carries_pinned_groups(self):
        monitor = AccuracyMonitor(min_samples=4)
        for _ in range(6):
            monitor.observe(
                decision(kind="private_nn", seconds=1e-5, pinned=True), 1e-3
            )
        report = monitor.report()
        group = report["pinned_groups"]["private_nn/rtree/scalar"]
        assert group["bias"] > 1.0
        assert report["pinned_recalibrations"] == 1
        assert json.loads(json.dumps(report)) == report

    def test_reset_clears_pinned_state(self):
        monitor = AccuracyMonitor(min_samples=2)
        for _ in range(4):
            monitor.observe(decision(seconds=1e-5, pinned=True), 1e-3)
        assert monitor.pinned_recalibrations >= 1
        monitor.reset()
        assert monitor.pinned_bias("public_range", "rtree", "scalar") == 1.0
        assert monitor.pinned_recalibrations == 0
        assert monitor.report()["pinned_groups"] == {}

    def test_planner_applies_bias_to_pinned_decisions(self):
        system = small_system()
        planner = system.planner
        spec = NNSpec(flavor="private", user=0)
        before = planner.decide(spec)
        assert before.pinned
        # Ten observations, each 10x the (possibly biased) prediction.
        for _ in range(10):
            current = planner.decide(spec)
            planner.accuracy.observe(current, current.seconds * 10.0)
        after = planner.decide(spec)
        bias = planner.accuracy.pinned_bias(
            after.kind, after.backend, after.route
        )
        assert bias > 1.0
        assert after.seconds == pytest.approx(before.seconds * bias)
        assert planner.accuracy.mispredicts == 0


class TestPlanAccuracyAuditor:
    """The mispredict SLO reads the planner's own monitor, not the trail."""

    SPEC = SLOSpec("plan", "mispredict_ratio", 4.0)

    def test_ratio_survives_evicted_decision(self):
        # The evidence is the monitor's ratio windows, so a ring that
        # dropped every planner event still yields the ratio.
        system = small_system()
        monitor = system.planner.accuracy
        for _ in range(monitor.min_samples):
            monitor.observe(decision(seconds=1e-4), 4e-4)
        report = SLOMonitor([self.SPEC]).evaluate(system, events=[])
        assert report.results[0].measured == pytest.approx(4.0)
        assert report.healthy

    def test_empty_trail_reports_cleanly(self):
        # A system that never planned has no planner; judging it must
        # not build one, and the objective passes vacuously.
        system = small_system()
        report = SLOMonitor([self.SPEC]).evaluate(system)
        assert report.healthy
        assert report.results[0].measured is None
        assert "no evidence" in report.results[0].detail
        assert system.server._planner is None
        # A planner that has observed nothing is no evidence either.
        assert system.planner.accuracy.observed == 0
        assert SLOMonitor([self.SPEC]).evaluate(system).results[0].measured is None
