"""Unit tests for the LocationAnonymizer (the trusted third party)."""

import pytest

from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.anonymizer import LocationAnonymizer
from repro.core.errors import RegistrationError
from repro.core.profiles import PrivacyProfile, example_profile, hhmm
from repro.core.server import LocationServer
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.queries.spec import NNSpec, RangeSpec

BOUNDS = Rect(0, 0, 100, 100)


@pytest.fixture
def anonymizer(uniform_points_500):
    cloaker = PyramidCloaker(BOUNDS, height=6)
    server = LocationServer()
    anonymizer = LocationAnonymizer(cloaker, server)
    for i, p in enumerate(uniform_points_500):
        anonymizer.register(i, PrivacyProfile.always(k=10), p)
    return anonymizer


class TestRegistration:
    def test_register_returns_pseudonym(self, anonymizer):
        pseudonym = anonymizer.register("new", PrivacyProfile.always(k=2), Point(5, 5))
        assert pseudonym.startswith("anon-")
        assert anonymizer.pseudonym_of("new") == pseudonym

    def test_pseudonyms_unique(self, anonymizer):
        pseudonyms = {anonymizer.pseudonym_of(i) for i in range(500)}
        assert len(pseudonyms) == 500

    def test_duplicate_registration_raises(self, anonymizer):
        with pytest.raises(RegistrationError):
            anonymizer.register(0, PrivacyProfile(), Point(1, 1))

    def test_unregister_removes_everywhere(self, anonymizer):
        anonymizer.publish(0, t=0.0)
        pseudonym = anonymizer.pseudonym_of(0)
        anonymizer.unregister(0)
        assert 0 not in anonymizer.registered_users()
        assert pseudonym not in anonymizer.server.private

    def test_unregister_unknown_raises(self, anonymizer):
        with pytest.raises(RegistrationError):
            anonymizer.unregister("ghost")

    def test_update_location_unknown_raises(self, anonymizer):
        with pytest.raises(RegistrationError):
            anonymizer.update_location("ghost", Point(1, 1))


class TestProfiles:
    def test_requirement_follows_temporal_profile(self, uniform_points_500):
        anonymizer = LocationAnonymizer(PyramidCloaker(BOUNDS, height=6))
        for i, p in enumerate(uniform_points_500):
            anonymizer.register(i, example_profile(), p)
        assert anonymizer.requirement_for(0, hhmm("12:00")).k == 1
        assert anonymizer.requirement_for(0, hhmm("18:00")).k == 100

    def test_update_profile(self, anonymizer):
        anonymizer.update_profile(0, PrivacyProfile.always(k=42))
        assert anonymizer.requirement_for(0, 0.0).k == 42


class TestCloaking:
    def test_cloak_respects_profile(self, anonymizer):
        result = anonymizer.cloak_user(0, t=0.0)
        assert result.user_count >= 10

    def test_oversized_k_clamped_best_effort(self, anonymizer):
        """k beyond the population yields the densest possible region and
        an honestly-unsatisfied result, not an exception."""
        anonymizer.update_profile(0, PrivacyProfile.always(k=10_000))
        result = anonymizer.cloak_user(0, t=0.0)
        assert result.requirement.k == 10_000
        assert result.user_count == 500  # everyone subscribed
        assert not result.k_satisfied

    def test_no_privacy_yields_exact_point(self, anonymizer, uniform_points_500):
        anonymizer.update_profile(0, PrivacyProfile.always(k=1))
        result = anonymizer.cloak_user(0, t=0.0)
        assert result.region == Rect.from_point(uniform_points_500[0])
        assert result.region.area == 0.0

    def test_temporal_switch_between_cloaked_and_exact(self, uniform_points_500):
        anonymizer = LocationAnonymizer(PyramidCloaker(BOUNDS, height=6))
        for i, p in enumerate(uniform_points_500):
            anonymizer.register(i, example_profile(), p)
        daytime = anonymizer.cloak_user(0, hhmm("12:00"))
        evening = anonymizer.cloak_user(0, hhmm("18:00"))
        assert daytime.region.area == 0.0
        assert evening.region.area > 0.0
        assert evening.user_count >= 100


class TestPublication:
    def test_publish_pushes_region(self, anonymizer):
        result = anonymizer.publish(3, t=0.0)
        pseudonym = anonymizer.pseudonym_of(3)
        assert anonymizer.server.private.region_of(pseudonym) == result.region

    def test_publish_all(self, anonymizer):
        results = anonymizer.publish_all_bulk(t=0.0)
        assert len(results) == 500
        assert len(anonymizer.server.private) == 500

    def test_publish_all_shared_matches_per_user(self, uniform_points_500):
        """A bulk round that shares cloaks per partition (the scalar
        fallback of a neighbour-merge pyramid) publishes exactly the
        per-user regions."""
        shared_server = LocationServer()
        solo_server = LocationServer()
        shared_anonymizer = LocationAnonymizer(
            PyramidCloaker(BOUNDS, height=6, neighbor_merge=True), shared_server
        )
        solo_anonymizer = LocationAnonymizer(
            PyramidCloaker(BOUNDS, height=6, neighbor_merge=True), solo_server
        )
        for i, p in enumerate(uniform_points_500):
            shared_anonymizer.register(i, PrivacyProfile.always(k=10), p)
            solo_anonymizer.register(i, PrivacyProfile.always(k=10), p)
        shared_anonymizer.publish_all_bulk(t=0.0)
        for i in range(500):
            solo_anonymizer.publish(i, t=0.0)
        for i in range(500):
            a = shared_server.private.region_of(shared_anonymizer.pseudonym_of(i))
            b = solo_server.private.region_of(solo_anonymizer.pseudonym_of(i))
            assert a == b, i

    def test_publish_all_shared_saves_cloak_computations(self, uniform_points_500):
        # Coarse pyramid, no kernel: the fallback shares heavily.
        cloaker = PyramidCloaker(BOUNDS, height=4, neighbor_merge=True)
        anonymizer = LocationAnonymizer(cloaker, LocationServer())
        for i, p in enumerate(uniform_points_500):
            anonymizer.register(i, PrivacyProfile.always(k=10), p)
        anonymizer.publish_all_bulk(t=0.0)
        assert anonymizer.last_bulk_outcome.path == "scalar"
        assert cloaker.stats.cloaks < 500

    def test_publish_all_shared_handles_mixed_profiles(self, uniform_points_500):
        anonymizer = LocationAnonymizer(
            PyramidCloaker(BOUNDS, height=6, neighbor_merge=True), LocationServer()
        )
        for i, p in enumerate(uniform_points_500):
            if i % 3 == 0:
                profile = PrivacyProfile.always(k=1)  # exact point path
            elif i % 3 == 1:
                profile = PrivacyProfile.always(k=10)
            else:
                profile = PrivacyProfile.always(k=10_000)  # clamped path
            anonymizer.register(i, profile, p)
        results = anonymizer.publish_all_bulk(t=0.0)
        assert len(results) == 500
        for i, result in results.items():
            if i % 3 == 0:
                assert result.region.area == 0.0
            elif i % 3 == 2:
                assert not result.k_satisfied  # honest best-effort record
                assert result.user_count == 500
            assert result.region.contains_point(uniform_points_500[i])

    def test_publish_without_server_raises(self, uniform_points_500):
        anonymizer = LocationAnonymizer(PyramidCloaker(BOUNDS, height=6))
        anonymizer.register("u", PrivacyProfile(), Point(1, 1))
        with pytest.raises(RegistrationError, match="not connected"):
            anonymizer.publish("u", t=0.0)

    def test_connect_later(self, uniform_points_500):
        anonymizer = LocationAnonymizer(PyramidCloaker(BOUNDS, height=6))
        for i, p in enumerate(uniform_points_500):
            anonymizer.register(i, PrivacyProfile.always(k=5), p)
        anonymizer.connect(LocationServer())
        anonymizer.publish(0, t=0.0)
        assert len(anonymizer.server.private) == 1

    def test_stable_pseudonym_updates_in_place(self, anonymizer):
        anonymizer.publish(0, t=0.0)
        anonymizer.update_location(0, Point(99, 1))
        anonymizer.publish(0, t=1.0)
        assert len(anonymizer.server.private) == 1

    def test_rotating_pseudonyms(self, uniform_points_500):
        server = LocationServer()
        anonymizer = LocationAnonymizer(
            PyramidCloaker(BOUNDS, height=6), server, rotate_pseudonyms=True
        )
        for i, p in enumerate(uniform_points_500):
            anonymizer.register(i, PrivacyProfile.always(k=5), p)
        first = anonymizer.pseudonym_of(0)
        anonymizer.publish(0, t=0.0)
        anonymizer.publish(0, t=1.0)
        second = anonymizer.pseudonym_of(0)
        assert first != second
        assert len(server.private) == 1  # old pseudonym retired

    def test_exact_location_never_reaches_server(self, anonymizer, uniform_points_500):
        """The core privacy property: with k > 1 the server never stores a
        region small enough to pinpoint the user."""
        anonymizer.publish_all_bulk(t=0.0)
        for i in range(500):
            pseudonym = anonymizer.pseudonym_of(i)
            region = anonymizer.server.private.region_of(pseudonym)
            assert region.area > 0.0
            assert region.contains_point(uniform_points_500[i])


class TestTradeoffPreview:
    def test_preview_reports_monotone_areas(self, anonymizer):
        rows = anonymizer.preview(0, [1, 5, 20, 100])
        areas = [area for _, area, _ in rows]
        assert areas == sorted(areas)
        for k, _, users in rows:
            assert users >= k

    def test_preview_does_not_publish(self, anonymizer):
        anonymizer.preview(0, [10, 50])
        assert len(anonymizer.server.private) == 0

    def test_preview_unknown_user_raises(self, anonymizer):
        with pytest.raises(RegistrationError):
            anonymizer.preview("ghost", [5])

    def test_suggest_k_for_area_is_maximal(self, anonymizer):
        from repro.core.profiles import PrivacyRequirement

        budget = 100.0
        k = anonymizer.suggest_k_for_area(0, budget)
        assert anonymizer.cloaker.cloak(0, PrivacyRequirement(k=k)).area <= budget
        if k < anonymizer.cloaker.user_count():
            over = anonymizer.cloaker.cloak(0, PrivacyRequirement(k=k + 1)).area
            assert over > budget

    def test_suggest_k_huge_budget_returns_population(self, anonymizer):
        assert anonymizer.suggest_k_for_area(0, 1e9) == 500

    def test_suggest_k_zero_budget_returns_one(self, anonymizer):
        assert anonymizer.suggest_k_for_area(0, 0.0) == 1

    def test_suggest_k_respects_ceiling(self, anonymizer):
        assert anonymizer.suggest_k_for_area(0, 1e9, k_ceiling=25) == 25

    def test_suggest_k_negative_budget_raises(self, anonymizer):
        with pytest.raises(RegistrationError):
            anonymizer.suggest_k_for_area(0, -1.0)


class TestQueryProxying:
    def test_private_range_query(self, anonymizer, uniform_points_500):
        for j in range(30):
            anonymizer.server.add_public_object(("poi", j), Point(3 * j, 50))
        cloak = anonymizer.cloak_user(0, t=0.0)
        result = anonymizer.server.planner.execute(
            RangeSpec(flavor="private", region=cloak.region, radius=10.0)
        )
        assert result.region == cloak.region
        # The server-side region is the cloak, not the user point.
        assert cloak.region.area > 0.0

    def test_private_nn_query(self, anonymizer):
        for j in range(30):
            anonymizer.server.add_public_object(("poi", j), Point(3 * j, 50))
        cloak = anonymizer.cloak_user(0, t=0.0)
        result = anonymizer.server.planner.execute(
            NNSpec(flavor="private", region=cloak.region)
        )
        assert len(result.candidates) >= 1


class TestWithIncrementalCloaker:
    def test_anonymizer_over_incremental_wrapper(self, uniform_points_500):
        wrapper = IncrementalCloaker(PyramidCloaker(BOUNDS, height=6))
        server = LocationServer()
        anonymizer = LocationAnonymizer(wrapper, server)
        for i, p in enumerate(uniform_points_500):
            anonymizer.register(i, PrivacyProfile.always(k=10), p)
        first = anonymizer.publish(0, t=0.0)
        second = anonymizer.publish(0, t=1.0)
        assert not first.reused and second.reused
        assert second.region == first.region
