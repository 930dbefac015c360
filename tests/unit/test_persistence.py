"""Store and profile state through the one persistence path.

What the server keeps — public objects, cloaked regions, each user's
privacy profile — must come back exactly from
``PrivacySystem.checkpoint`` / ``PrivacySystem.recover``: bit-equal
floats, queryable stores, and a refused load when the file is damaged.
(The checkpoint document's own shape is pinned in
``test_persist_checkpoint.py``; these tests only look at what a caller
gets back.)
"""

import pytest

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyProfile, PrivacyRequirement, example_profile, hhmm
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.persist.recovery import RecoveryError

BOUNDS = Rect(0, 0, 100, 100)


def fresh_system() -> PrivacySystem:
    return PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=4))


def round_trip(system: PrivacySystem, directory) -> PrivacySystem:
    system.checkpoint(directory)
    return PrivacySystem.recover(directory)


def recovered_profile(profile: PrivacyProfile, directory) -> PrivacyProfile:
    system = fresh_system()
    system.add_user(MobileUser("u", Point(5, 5), profile))
    return round_trip(system, directory).users["u"].profile


class TestPublicStoreRoundtrip:
    def test_roundtrip(self, tmp_path, uniform_points_500):
        system = fresh_system()
        for i, p in enumerate(uniform_points_500[:50]):
            system.add_poi(f"poi-{i}", p)
        loaded = round_trip(system, tmp_path).server.public
        assert len(loaded) == 50
        for i, p in enumerate(uniform_points_500[:50]):
            assert loaded.point_of(f"poi-{i}") == p

    def test_loaded_store_is_queryable(self, tmp_path):
        system = fresh_system()
        system.add_poi("a", Point(10, 10))
        system.add_poi("b", Point(90, 90))
        loaded = round_trip(system, tmp_path).server.public
        assert loaded.range_query(Rect(0, 0, 20, 20)) == ["a"]
        assert loaded.nearest(Point(80, 80), 1) == ["b"]

    def test_empty_store(self, tmp_path):
        assert len(round_trip(fresh_system(), tmp_path).server.public) == 0

    def test_malformed_row_raises(self, tmp_path):
        system = fresh_system()
        system.add_poi("a", Point(10, 10))
        path = system.checkpoint(tmp_path)
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(len(handle.read()) // 2)
        with pytest.raises(RecoveryError):
            PrivacySystem.recover(tmp_path)


class TestPrivateStoreRoundtrip:
    def test_roundtrip_exact_floats(self, tmp_path):
        system = fresh_system()
        system.server.receive_region("u1", Rect(0.1, 0.2, 10.33333333333333, 20.5))
        system.server.receive_region("u2", Rect.from_point(Point(5, 5)))
        loaded = round_trip(system, tmp_path).server.private
        assert loaded.region_of("u1") == Rect(0.1, 0.2, 10.33333333333333, 20.5)
        assert loaded.region_of("u2").area == 0.0
        assert sorted(loaded.overlapping(Rect(0, 0, 100, 100))) == ["u1", "u2"]


class TestProfileRoundtrip:
    def test_example_profile_roundtrips(self, tmp_path):
        system = fresh_system()
        system.add_user(MobileUser("alice", Point(5, 5), example_profile()))
        system.add_user(MobileUser("bob", Point(6, 6), PrivacyProfile.always(k=7)))
        users = round_trip(system, tmp_path).users
        alice, bob = users["alice"].profile, users["bob"].profile
        assert alice.requirement_at(hhmm("18:00")).k == 100
        assert alice.requirement_at(hhmm("03:00")).k == 1000
        assert alice.requirement_at(hhmm("18:00")).max_area == 3.0
        assert bob.requirement_at(0.0).k == 7

    def test_unbounded_max_area_roundtrips(self, tmp_path):
        loaded = recovered_profile(PrivacyProfile.always(k=3, min_area=1.0), tmp_path)
        assert loaded.requirement_at(0.0).max_area is None

    def test_empty_profile_becomes_no_privacy_row(self, tmp_path):
        loaded = recovered_profile(PrivacyProfile(), tmp_path)
        assert not loaded.requirement_at(12345.0).wants_privacy

    def test_requirement_fields_roundtrip(self, tmp_path):
        req = PrivacyRequirement(k=42, min_area=3.25, max_area=9.75)
        loaded = recovered_profile(
            PrivacyProfile.always(req.k, req.min_area, req.max_area), tmp_path
        )
        got = loaded.requirement_at(0.0)
        assert (got.k, got.min_area, got.max_area) == (42, 3.25, 9.75)
