"""Integration: a full server state survives a checkpoint / recover round trip."""

import pytest

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyProfile, example_profile
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.queries.spec import CountSpec, RangeSpec

BOUNDS = Rect(0, 0, 100, 100)


@pytest.fixture
def populated_system(uniform_points_500):
    system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
    for i, p in enumerate(uniform_points_500):
        profile = example_profile() if i % 2 else PrivacyProfile.always(k=10)
        system.add_user(MobileUser(i, p, profile))
    for j in range(80):
        system.add_poi(f"poi-{j}", Point((37 * j) % 100, (53 * j) % 100))
    system.clock = 9 * 3600.0
    system.publish_all()
    return system


@pytest.fixture
def restored_system(populated_system, tmp_path):
    populated_system.checkpoint(tmp_path)
    return PrivacySystem.recover(tmp_path)


class TestServerStateRoundTrip:
    def test_query_answers_identical_after_restore(
        self, populated_system, restored_system
    ):
        candidates = RangeSpec(
            flavor="private", region=Rect(30, 30, 55, 50), radius=8.0
        )
        before = populated_system.query(candidates)
        after = restored_system.query(candidates)
        assert sorted(before.candidates, key=str) == sorted(after.candidates, key=str)

        count = CountSpec(window=Rect(20, 20, 70, 70))
        count_before = populated_system.query(count)
        count_after = restored_system.query(count)
        assert count_before.expected == pytest.approx(count_after.expected)
        assert count_before.interval == count_after.interval

    def test_profiles_round_trip_through_registry(
        self, populated_system, restored_system
    ):
        assert len(restored_system.users) == len(populated_system.users)
        for uid, user in populated_system.users.items():
            uid = str(uid)  # durable ids are canonicalised through str()
            restored = restored_system.users[uid].profile
            for t in (0.0, 9 * 3600.0, 18 * 3600.0, 23 * 3600.0):
                assert restored.requirement_at(t) == user.profile.requirement_at(t), (
                    uid,
                    t,
                )
            # The anonymizer's registry holds the same profile.
            assert restored_system.anonymizer.requirement_for(
                uid, 18 * 3600.0
            ) == user.profile.requirement_at(18 * 3600.0)

    def test_restored_stores_accept_new_data(self, populated_system, restored_system):
        restored_system.add_poi("new-poi", Point(1, 2))
        assert "new-poi" in restored_system.server.public
        assert len(restored_system.server.public) == (
            len(populated_system.server.public) + 1
        )
        assert "new-poi" in restored_system.query(
            RangeSpec(window=Rect(0, 0, 5, 5))
        )
