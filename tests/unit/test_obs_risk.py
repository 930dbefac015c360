"""Unit tests for the online privacy-risk monitor (repro.obs.risk)."""

import math
import random

import pytest
from published_rows import columns_from_rows

from repro import (
    MobileUser,
    PrivacyProfile,
    PrivacySystem,
    PyramidCloaker,
    RangeSpec,
)
from repro.attacks.streaming import bucket_anonymity
from repro.geometry import Point, Rect
from repro.mobility.users import UserMode
from repro.obs.events import REGIONS_PUBLISHED_BULK, RISK_SCORED, Event
from repro.obs.risk import RISK_SCHEMA, PrivacyRiskMonitor
from repro.obs.slo import SLOMonitor

BOUNDS = Rect(0, 0, 100, 100)


def build_system(users=40, pois=15, k=5, seed=0, monitor_first=True):
    system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=5))
    if monitor_first:
        system.enable_monitoring(interval=1e9)  # tap installed, no auto windows
    rng = random.Random(seed)
    for j in range(pois):
        system.add_poi(f"poi-{j}", Point(rng.uniform(0, 100), rng.uniform(0, 100)))
    for i in range(users):
        system.add_user(
            MobileUser(
                f"u{i}",
                Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                PrivacyProfile.always(k=k),
            )
        )
    system.publish_all()
    return system


class TestStreamConsumption:
    def test_tracks_population_and_publications(self):
        system = build_system(users=30)
        monitor = system.risk
        assert monitor.density.population == 30
        assert monitor.posterior.population == 30
        assert monitor.events_consumed > 0

    def test_posterior_buckets_match_batch_oracle(self):
        system = build_system(users=30)
        regions = {
            str(uid): system.server.private.region_of(reg.pseudonym)
            for uid, reg in system.anonymizer._registrations.items()
        }
        oracle = bucket_anonymity(regions)
        for user, expected in oracle.items():
            assert system.risk.posterior.anonymity_of(user) == expected

    def test_retirement_removes_user_everywhere(self):
        system = build_system(users=20)
        monitor = system.risk
        system.set_mode("u0", UserMode.PASSIVE)
        assert monitor.density.population == 19
        assert monitor.posterior.anonymity_of("u0") is None

    def test_unknown_kinds_ignored_no_recursion(self):
        system = build_system(users=10)
        before = system.risk.events_consumed
        # risk.scored is emitted from inside the tap; it must not feed
        # back into the dispatch (that would recurse forever).
        system.risk.score()
        assert system.risk.events_consumed == before

    def test_k_attainment_from_cloak_results(self):
        system = build_system(users=40, k=5)
        for i in range(5):
            system.query(RangeSpec(flavor="private", user=f"u{i}", radius=8.0))
        score = system.risk.score(emit=False)
        assert score["k_attainment"] is not None
        assert score["k_attainment"] >= 1.0  # k=5 easily met at n=40
        assert score["k_attainment_entropy_bits"] >= math.log2(5)

    def test_learned_max_speed_from_user_added(self):
        monitor = PrivacyRiskMonitor(BOUNDS)
        assert monitor.max_speed == 0.0
        monitor.consume(
            type(
                "E",
                (),
                {"kind": "user.added", "attrs": {"user": "u", "x": 1, "y": 1, "speed": 3.5}},
            )()
        )
        assert monitor.max_speed == 3.5


class TestLinkageColumns:
    def test_every_publishing_user_keeps_her_row(self):
        # No cap on rows: a user evicted between two publications would
        # never reach a second step, and linkage would read "nothing
        # learned" for the whole population by construction.
        monitor = PrivacyRiskMonitor(BOUNDS, max_speed=1.0)
        rows = [
            [f"u{i}", f"p{i}", i % 90, i % 70, i % 90 + 5.0, i % 70 + 5.0]
            for i in range(5000)
        ]
        for seq in (1, 2):
            monitor.consume(Event(seq, REGIONS_PUBLISHED_BULK, columns_from_rows(rows)))
        assert monitor.report()["linkage"]["trackers"] == 5000
        assert all(
            monitor.linkage.track(f"u{i}")["steps"] == 2 for i in range(5000)
        )

    def test_bulk_rotation_restarts_the_users_row(self):
        system = PrivacySystem(
            BOUNDS, PyramidCloaker(BOUNDS, height=5), rotate_pseudonyms=True
        )
        system.enable_monitoring(interval=1e9)
        rng = random.Random(3)
        for i in range(300):
            system.add_user(
                MobileUser(
                    f"u{i}",
                    Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                    PrivacyProfile.always(k=5),
                )
            )
        for _ in range(4):
            system.publish_all(bulk=True)
        assert system.risk.report()["linkage"]["trackers"] == 300
        for i in range(300):
            track = system.risk.linkage.track(f"u{i}")
            assert track["pseudonym"] == system.anonymizer.pseudonym_of(f"u{i}")
            assert track["steps"] == 1  # each rotation starts afresh


class TestSeeding:
    def test_seed_from_matches_live_tap(self):
        live = build_system(users=30, monitor_first=True)
        late = build_system(users=30, monitor_first=False)
        late.enable_monitoring(interval=1e9)  # seeds from current state
        assert late.risk.density.population == live.risk.density.population
        assert late.risk.posterior.population == live.risk.posterior.population
        assert late.risk.posterior.bucket_count == live.risk.posterior.bucket_count
        for i in range(30):
            assert late.risk.posterior.anonymity_of(
                f"u{i}"
            ) == live.risk.posterior.anonymity_of(f"u{i}")


class TestScoring:
    def test_score_emits_event_and_gauges(self):
        system = build_system(users=30)
        score = system.risk.score()
        kinds = [e.kind for e in system.obs.events.events()]
        assert RISK_SCORED in kinds
        gauges = system.obs.snapshot()["gauges"]
        assert gauges["risk.reidentification"] == pytest.approx(
            score["reidentification"]
        )
        assert "risk.posterior_entropy_bits" in gauges

    def test_reidentification_bounds(self):
        system = build_system(users=30, k=5)
        score = system.risk.score(emit=False)
        assert 0.0 < score["reidentification"] <= 1.0
        # k=5 cloaking: mean bucket >= 1 user, so risk well below unique.
        assert score["reidentification"] < 1.0

    def test_report_schema(self):
        import json

        system = build_system(users=20)
        report = system.risk.report()
        assert report["schema"] == RISK_SCHEMA
        assert report["posterior"]["population"] == 20
        json.dumps(report)

    def test_render_smoke(self):
        system = build_system(users=20)
        text = system.risk.render()
        assert "privacy risk" in text
        assert "reidentification" in text


class TestSLOIntegration:
    def test_risk_slos_vacuous_without_monitoring(self):
        system = build_system(users=20, monitor_first=False)
        report = SLOMonitor().evaluate(system)
        by_name = {r.spec.name: r for r in report.results}
        assert by_name["reidentification_risk"].measured is None
        assert by_name["reidentification_risk"].ok  # vacuous pass

    def test_risk_slos_measured_after_score(self):
        system = build_system(users=30, k=5)
        score = system.risk.score()
        report = SLOMonitor().evaluate(system)
        by_name = {r.spec.name: r for r in report.results}
        assert by_name["reidentification_risk"].measured == pytest.approx(
            score["reidentification"]
        )
        assert by_name["reidentification_risk"].ok
        assert by_name["k_attainment_entropy"].measured is not None

    def test_disable_monitoring_detaches_tap(self):
        system = build_system(users=10)
        monitor = system.risk
        consumed = monitor.events_consumed
        system.disable_monitoring()
        assert system.risk is None and system.timeseries is None
        system.add_user(
            MobileUser("late", Point(1, 1), PrivacyProfile.always(k=2))
        )
        assert monitor.events_consumed == consumed
