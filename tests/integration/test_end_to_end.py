"""Integration tests: the full Figure 1 pipeline over a moving population."""

import numpy as np
import pytest

from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyProfile, example_profile, hhmm
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.random_waypoint import RandomWaypointModel
from repro.mobility.users import MobileUser, UserMode
from repro.queries.spec import CountSpec, NNSpec, RangeSpec

BOUNDS = Rect(0, 0, 100, 100)


@pytest.fixture
def world(rng):
    """A system with 300 users, 60 POIs, and a waypoint mobility model."""
    system = PrivacySystem(
        BOUNDS, IncrementalCloaker(PyramidCloaker(BOUNDS, height=6))
    )
    model = RandomWaypointModel(BOUNDS, rng, speed_range=(0.5, 2.0))
    coords = rng.uniform(0, 100, size=(300, 2))
    for i, (x, y) in enumerate(coords):
        p = Point(float(x), float(y))
        system.add_user(MobileUser(i, p, PrivacyProfile.always(k=8)))
        model.add_user(i, p)
    for j in range(60):
        x, y = rng.uniform(0, 100, 2)
        system.add_poi(("poi", j), Point(float(x), float(y)))
    return system, model


class TestMovingPipeline:
    def test_multi_step_simulation_stays_consistent(self, world):
        system, model = world
        for _ in range(5):
            system.apply_movement(model.step(1.0))
            # Server invariant: every stored region has positive area
            # (all users want privacy) and there is one region per user.
            assert len(system.server.private) == 300
            for _, region in system.server.private.items():
                assert region.area > 0
        # Queries stay exact throughout.
        for victim in (0, 100, 299):
            outcome, _ = system.query(RangeSpec(flavor="private", user=victim, radius=10.0))
            assert outcome.correct
            nn_outcome, _ = system.query(NNSpec(flavor="private", user=victim))
            assert nn_outcome.correct

    def test_server_count_matches_reality_in_expectation(self, world, rng):
        system, model = world
        system.apply_movement(model.step(1.0))
        window = Rect(20, 20, 80, 80)
        answer = system.query(CountSpec(window=window))
        truth = sum(
            1 for u in system.users.values() if window.contains_point(u.location)
        )
        lo, hi = answer.interval
        assert lo <= truth <= hi
        # Expectation should land near the truth for a large window.
        assert abs(answer.expected - truth) < 0.25 * truth + 10

    def test_incremental_reuse_kicks_in_over_steps(self, world):
        system, model = world
        for _ in range(4):
            system.apply_movement(model.step(0.2))  # small moves
        assert system.anonymizer.cloaker.stats.reuses > 0

    def test_continuous_monitor_tracks_movement(self, world):
        system, model = world
        system.publish_all()
        monitor = system.server.register_count_monitor("m", Rect(0, 0, 50, 50))
        for _ in range(3):
            system.apply_movement(model.step(2.0))
        recomputed = monitor.recompute(system.server.private)
        assert monitor.expected_count == pytest.approx(recomputed.expected)


class TestTemporalProfiles:
    def test_profile_switches_cloaking_over_the_day(self, rng):
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
        coords = rng.uniform(0, 100, size=(400, 2))
        for i, (x, y) in enumerate(coords):
            system.add_user(
                MobileUser(i, Point(float(x), float(y)), example_profile())
            )
        # Daytime: k = 1, exact locations on the server.
        system.clock = hhmm("12:00")
        system.publish_all()
        day_areas = [r.area for _, r in system.server.private.items()]
        assert all(a == 0.0 for a in day_areas)
        # Evening: k = 100, A_min 1.
        system.clock = hhmm("18:00")
        system.publish_all()
        evening_areas = [r.area for _, r in system.server.private.items()]
        assert all(a >= 1.0 for a in evening_areas)

    def test_night_regions_larger_than_evening(self, rng):
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
        coords = rng.uniform(0, 100, size=(1200, 2))
        for i, (x, y) in enumerate(coords):
            system.add_user(
                MobileUser(i, Point(float(x), float(y)), example_profile())
            )
        system.clock = hhmm("18:00")
        system.publish_all()
        evening = np.mean([r.area for _, r in system.server.private.items()])
        system.clock = hhmm("23:00")
        system.publish_all()
        night = np.mean([r.area for _, r in system.server.private.items()])
        assert night > evening


class TestMixedPopulation:
    def test_mixed_modes_and_profiles(self, rng):
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
        coords = rng.uniform(0, 100, size=(200, 2))
        for i, (x, y) in enumerate(coords):
            p = Point(float(x), float(y))
            if i % 10 == 0:
                system.add_user(MobileUser(i, p, mode=UserMode.PASSIVE))
            elif i % 3 == 0:
                system.add_user(MobileUser(i, p, PrivacyProfile.always(k=1)))
            else:
                system.add_user(MobileUser(i, p, PrivacyProfile.always(k=15)))
        system.publish_all()
        # Passive users have no server-side region at all.
        assert len(system.server.private) == 200 - 20
        # k=1 users appear as exact points, k=15 users as true regions.
        areas = {}
        for i in range(200):
            if i % 10 == 0:
                continue
            pseudonym = system.anonymizer.pseudonym_of(i)
            areas[i] = system.server.private.region_of(pseudonym).area
        for i, area in areas.items():
            if i % 3 == 0:
                assert area == 0.0
            else:
                assert area > 0.0

    def test_unsubscribe_mid_simulation(self, rng):
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
        coords = rng.uniform(0, 100, size=(100, 2))
        for i, (x, y) in enumerate(coords):
            system.add_user(
                MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=5))
            )
        system.publish_all()
        for i in range(0, 50):
            system.set_mode(i, UserMode.PASSIVE)
        assert len(system.server.private) == 50
        # Remaining users still get valid cloaks against the smaller pool.
        outcome = system.anonymizer.cloak_user(75, t=0.0)
        assert outcome.user_count >= 5
