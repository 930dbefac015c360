"""The planner's route census (``planner.accuracy``): executions per
(kind, backend, route) group, the report the pipeline benchmark reads."""

import json

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.obs import EVENT_KINDS, SLOMonitor
from repro.queries.spec import CountSpec, NNSpec, RangeSpec

WINDOW = Rect(20, 20, 60, 60)


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


class TestAccuracyMonitor:
    def test_calibrated_group_stays_quiet(self):
        system = small_system()
        for _ in range(10):
            system.query(RangeSpec(window=WINDOW))
        assert system.planner.accuracy.mispredicts == 0
        kinds = {event.kind for event in system.obs.events.events()}
        assert not {"planner.calibrated", "planner.mispredict"} & kinds
        assert "planner.mispredict" not in EVENT_KINDS

    def test_groups_tracked_independently(self):
        system = small_system()
        system.query(RangeSpec(window=WINDOW))
        system.execute_batch([RangeSpec(window=WINDOW)] * 3)
        system.execute_batch([CountSpec(window=WINDOW)] * 2)
        groups = system.planner.accuracy.report()["groups"]
        assert {key: group["samples"] for key, group in groups.items()} == {
            "public_count/rtree/vectorized": 2,
            "public_range/rtree/scalar": 1,
            "public_range/rtree/vectorized": 3,
        }

    def test_report_is_json_serialisable(self):
        system = small_system()
        system.query(RangeSpec(window=WINDOW))
        report = system.planner.accuracy.report()
        assert json.loads(json.dumps(report)) == report
        assert report["schema"] == "repro.planner.routes/1"
        assert report["observed"] == 1


class TestPinnedRoutes:
    """Kinds without a kernel are counted under ``pinned_groups``."""

    def test_pinned_observations_never_flag(self):
        system = small_system()
        for _ in range(4):
            system.query(NNSpec(flavor="private", user=0))
        census = system.planner.accuracy
        assert census.mispredicts == 0
        assert census.observed == 4
        assert census.report()["groups"] == {}

    def test_report_carries_pinned_groups(self):
        system = small_system()
        region = Rect(20, 20, 30, 30)
        system.execute_batch([NNSpec(flavor="private", region=region)] * 3)
        report = system.planner.accuracy.report()
        group = report["pinned_groups"]["private_nn/rtree/scalar"]
        assert (group["kind"], group["route"], group["samples"]) == (
            "private_nn",
            "scalar",
            3,
        )
        assert json.loads(json.dumps(report)) == report

    def test_reset_clears_pinned_state(self):
        system = small_system()
        system.query(NNSpec(flavor="private", user=0))
        census = system.planner.accuracy
        assert census.observed >= 1
        census.reset()
        assert census.observed == 0
        assert census.report()["pinned_groups"] == {}


class TestPlanAccuracyAuditor:
    def test_empty_trail_reports_cleanly(self):
        # A system that never planned has no planner; judging its health
        # must not build one.
        system = small_system()
        assert SLOMonitor().evaluate(system).healthy
        assert system.server._planner is None
        # A planner that has run nothing reports an empty census.
        report = system.planner.accuracy.report()
        assert report["observed"] == report["mispredicts"] == 0
        assert report["groups"] == report["pinned_groups"] == {}
