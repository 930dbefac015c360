"""Property-based tests for system-level equivalences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.profiles import PrivacyProfile, PrivacyRequirement, ProfileEntry
from repro.core.system import PrivacySystem
from repro.engine.cloak import bulk_cloak
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser

BOUNDS = Rect(0, 0, 100, 100)
coord = st.floats(min_value=0, max_value=100, allow_nan=False)


class TestIncrementalEquivalence:
    @given(
        st.lists(st.tuples(coord, coord), min_size=3, max_size=40, unique=True),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_incremental_results_always_valid(self, raw, data):
        """Whatever the reuse pattern, every result satisfies the
        requirement exactly as a fresh computation would."""
        inner = PyramidCloaker(BOUNDS, height=5)
        wrapper = IncrementalCloaker(inner)
        for i, (x, y) in enumerate(raw):
            wrapper.add_user(i, Point(x, y))
        k = data.draw(st.integers(min_value=1, max_value=len(raw)))
        requirement = PrivacyRequirement(k=k)
        victim = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        for _ in range(3):
            result = wrapper.cloak(victim, requirement)
            assert result.user_count >= k
            assert result.region.contains_point(inner.location_of(victim))
            # Random small movement between cloaks.
            dx = data.draw(st.floats(min_value=-2, max_value=2))
            dy = data.draw(st.floats(min_value=-2, max_value=2))
            p = inner.location_of(victim)
            moved = Point(
                min(max(p.x + dx, 0.0), 100.0), min(max(p.y + dy, 0.0), 100.0)
            )
            wrapper.move_user(victim, moved)


class TestSharedBatchEquivalence:
    @given(
        st.lists(st.tuples(coord, coord), min_size=2, max_size=40, unique=True),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_individual(self, raw, k):
        """``bulk_cloak``'s fallback shares one cloak per partition and
        requirement, and every user still gets the per-user region
        (``k = 1`` asks for no privacy: the exact point)."""
        k = min(k, len(raw))
        batch_side = PyramidCloaker(BOUNDS, height=4, neighbor_merge=True)
        solo_side = PyramidCloaker(BOUNDS, height=4, neighbor_merge=True)
        for i, (x, y) in enumerate(raw):
            batch_side.add_user(i, Point(x, y))
            solo_side.add_user(i, Point(x, y))
        requirement = PrivacyRequirement(k=k)
        outcome = bulk_cloak(batch_side, [(i, requirement) for i in range(len(raw))])
        assert outcome.path == "scalar"
        for i, (x, y) in enumerate(raw):
            want = (
                solo_side.cloak(i, requirement).region
                if requirement.wants_privacy
                else Rect.from_point(Point(x, y))
            )
            assert outcome.results[i].region == want


class TestPersistenceProperties:
    """Whatever goes into a checkpoint comes back from ``recover``
    exactly: ids as written, floats bit for bit."""

    @staticmethod
    def round_trip(system: PrivacySystem, tmp_path_factory) -> PrivacySystem:
        directory = tmp_path_factory.mktemp("prop")
        system.checkpoint(directory)
        return PrivacySystem.recover(directory)

    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Lu", "Ll", "Nd"), min_codepoint=33
                ),
                min_size=1,
                max_size=8,
            ),
            st.tuples(coord, coord),
            max_size=25,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_public_store_roundtrip(self, tmp_path_factory, raw):
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=3))
        for object_id, (x, y) in raw.items():
            system.add_poi(object_id, Point(x, y))
        loaded = self.round_trip(system, tmp_path_factory).server.public
        assert len(loaded) == len(raw)
        for object_id, (x, y) in raw.items():
            assert loaded.point_of(object_id) == Point(x, y)

    @given(
        st.lists(
            st.tuples(coord, coord, st.floats(min_value=0, max_value=20)),
            max_size=25,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_private_store_roundtrip(self, tmp_path_factory, raw):
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=3))
        store = system.server.private
        for i, (cx, cy, half) in enumerate(raw):
            system.server.receive_region(
                f"u{i}", Rect(cx - half, cy - half, cx + half, cy + half)
            )
        loaded = self.round_trip(system, tmp_path_factory).server.private
        assert len(loaded) == len(store)
        for object_id, region in store.items():
            assert loaded.region_of(object_id) == region

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=86399, allow_nan=False),
                st.integers(min_value=1, max_value=1000),
                st.floats(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda row: row[0],
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_profile_roundtrip(self, tmp_path_factory, rows):
        profile = PrivacyProfile(
            ProfileEntry(start, PrivacyRequirement(k=k, min_area=a))
            for start, k, a in rows
        )
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=3))
        system.add_user(MobileUser("u", Point(50, 50), profile))
        loaded = self.round_trip(system, tmp_path_factory).users["u"].profile
        for t in (0.0, 21_600.0, 43_200.0, 64_800.0, 86_000.0):
            assert loaded.requirement_at(t) == profile.requirement_at(t)
