"""Unit tests for the end-to-end PrivacySystem."""

import pytest

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.errors import QueryError, RegistrationError
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser, UserMode
from repro.obs import Telemetry
from repro.persist import WAL_NAME, system_digest
from repro.queries.spec import KNNSpec, NNSpec, RangeSpec

BOUNDS = Rect(0, 0, 100, 100)


def _durable_system(directory) -> PrivacySystem:
    """20 users and no POIs, every event streamed to ``directory``."""
    system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=5), telemetry=Telemetry())
    system.attach_wal(directory)
    for i in range(20):
        system.add_user(MobileUser(i, Point(5.0 * i, 5.0 * i), PrivacyProfile.always(k=3)))
    return system


def _wal_lines(directory) -> int:
    with open(directory / WAL_NAME, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


@pytest.fixture
def system(uniform_points_500):
    system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
    for i, p in enumerate(uniform_points_500):
        system.add_user(MobileUser(i, p, PrivacyProfile.always(k=10)))
    for j in range(50):
        system.add_poi(("poi", j), Point(2.0 * j, (7.0 * j) % 100))
    return system


class TestSetup:
    def test_duplicate_user_raises(self, system, uniform_points_500):
        with pytest.raises(RegistrationError):
            system.add_user(MobileUser(0, uniform_points_500[0]))

    def test_an_id_stored_as_another_ids_string_is_refused(self, tmp_path):
        """The checkpoint and the WAL write ids through ``str()``: user 3
        and user "3" used to be merged into one user by any recovery."""
        system = _durable_system(tmp_path)
        digest = system_digest(system)
        lines = _wal_lines(tmp_path)
        with pytest.raises(RegistrationError, match="'3'"):
            system.add_user(MobileUser("3", Point(1.0, 1.0)))
        assert "3" not in system.users
        assert system_digest(system) == digest
        assert _wal_lines(tmp_path) == lines
        recovered = PrivacySystem.recover(tmp_path, telemetry=Telemetry())
        assert system_digest(recovered) == digest
        with pytest.raises(RegistrationError):
            recovered.add_user(MobileUser(3, Point(1.0, 1.0)))

    def test_passive_user_not_registered(self):
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=4))
        system.add_user(
            MobileUser("ghost", Point(1, 1), mode=UserMode.PASSIVE)
        )
        assert system.anonymizer.registered_users() == []

    def test_mode_switch_registers_and_unregisters(self, system, uniform_points_500):
        system.set_mode(0, UserMode.PASSIVE)
        assert 0 not in system.anonymizer.registered_users()
        system.set_mode(0, UserMode.ACTIVE)
        assert 0 in system.anonymizer.registered_users()

    def test_reactivated_user_keeps_the_profile_in_force(self, system):
        """A profile change made while registered survives passive -> active
        (it used to be re-admitted under the profile she joined with)."""
        system.anonymizer.update_profile(0, PrivacyProfile.always(k=20))
        system.set_mode(0, UserMode.PASSIVE)
        assert system.users[0].profile.requirement_at(0.0).k == 20
        system.set_mode(0, UserMode.ACTIVE)
        assert system.anonymizer.requirement_for(0, 0.0).k == 20

    def test_passive_users_dont_lend_anonymity(self, uniform_points_500):
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
        for i, p in enumerate(uniform_points_500):
            mode = UserMode.PASSIVE if i % 2 else UserMode.ACTIVE
            system.add_user(
                MobileUser(i, p, PrivacyProfile.always(k=10), mode=mode)
            )
        assert system.anonymizer.cloaker.user_count() == 250


class TestMovement:
    def test_apply_movement_updates_everything(self, system, uniform_points_500):
        system.apply_movement({0: Point(50, 50)}, dt=1.0)
        assert system.users[0].location == Point(50, 50)
        assert system.anonymizer.cloaker.location_of(0) == Point(50, 50)
        pseudonym = system.anonymizer.pseudonym_of(0)
        region = system.server.private.region_of(pseudonym)
        assert region.contains_point(Point(50, 50))
        assert system.clock == 1.0

    def test_an_unknown_id_refuses_the_whole_step(self, tmp_path):
        """It used to move the users listed before the unknown one (clock,
        user table and cloaker) and then raise, leaving them unpublished."""
        system = _durable_system(tmp_path)
        system.publish_all()
        version = system.server.private.version
        lines = _wal_lines(tmp_path)
        with pytest.raises(RegistrationError, match="ghost"):
            system.apply_movement({0: Point(50, 50), "ghost": Point(1, 1)})
        assert system.clock == 0.0
        assert system.users[0].location == Point(0.0, 0.0)
        assert system.anonymizer.cloaker.location_of(0) == Point(0.0, 0.0)
        assert system.server.private.version == version
        assert _wal_lines(tmp_path) == lines

    def test_publish_all_populates_server(self, system):
        system.publish_all()
        assert len(system.server.private) == 500


class TestQueries:
    def test_range_query_is_exact_after_refinement(self, system):
        outcome, refined = system.query(RangeSpec(flavor="private", user=3, radius=12.0))
        assert outcome.correct
        assert outcome.candidates >= outcome.answer_size
        assert outcome.overhead >= 1.0 or outcome.answer_size == 0

    def test_nn_query_is_exact_after_refinement(self, system):
        outcome, answer = system.query(NNSpec(flavor="private", user=3))
        assert outcome.correct
        assert answer == system.server.public.nearest(
            system.users[3].location, k=1
        )[0]

    def test_equidistant_objects_are_the_same_nn_answer(self, uniform_points_500):
        """Refinement and ``store.nearest`` may break a tie differently;
        the judge used to compare ids and log such a query as wrong."""
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
        for i, p in enumerate(uniform_points_500[:200]):
            system.add_user(MobileUser(i, p, PrivacyProfile.always(k=10)))
        askers = {f"asker{n}": Point(12.5 + 25 * (n % 4), 12.5 + 25 * (n // 4)) for n in range(16)}
        for name, at in askers.items():
            system.add_user(MobileUser(name, at, PrivacyProfile.always(k=10)))
            for dx, dy in ((3, 0), (-3, 0), (0, 3), (0, -3)):  # mirror images about the asker
                for copy in ("a", "b"):  # and two objects at each address
                    system.add_poi((name, dx, dy, copy), Point(at.x + dx, at.y + dy))
        different_id = 0
        for name, at in askers.items():
            outcome, answer = system.query(NNSpec(flavor="private", user=name))
            assert system.server.public.point_of(answer).distance_to(at) == 3.0
            assert outcome.correct
            different_id += answer != system.server.public.nearest(at, k=1)[0]
        assert different_id  # else the ids agreed and nothing was tested
        assert system.ledger.summary()["nn_accuracy"] == 1.0

    def test_query_switches_mode(self, system):
        system.query(NNSpec(flavor="private", user=5))
        assert system.users[5].mode is UserMode.QUERY

    def test_refused_query_leaves_the_mode_and_recovers_to_the_live_digest(
        self, tmp_path
    ):
        """An NN over an empty public store is refused.  The asker used to
        be left in query mode with no event recording it, so the recovered
        system read that user as active."""
        system = _durable_system(tmp_path)
        with pytest.raises(QueryError, match="empty public store"):
            system.query(NNSpec(flavor="private", user=0))
        assert system.users[0].mode is UserMode.ACTIVE
        assert system.ledger.summary() == {}
        recovered = PrivacySystem.recover(tmp_path, telemetry=Telemetry())
        assert system_digest(recovered) == system_digest(system)

    def test_a_refused_call_over_an_empty_public_store_changes_nothing(
        self, tmp_path
    ):
        """Private NN and k-NN have no answer over an empty public store.
        They used to be refused only after the query was counted and its
        cloak and accounting records written, and a batch only after the
        user-bound specs before the refused one had run."""
        system = PrivacySystem(
            BOUNDS, PyramidCloaker(BOUNDS, height=4), telemetry=Telemetry()
        )
        system.attach_wal(tmp_path)
        for i in range(4):
            system.add_user(
                MobileUser(f"u{i}", Point(10.0 + 20 * i, 30.0), PrivacyProfile.always(k=2))
            )
        system.publish_all()
        digest, size = system_digest(system), (tmp_path / WAL_NAME).stat().st_size
        region = Rect(0, 0, 5, 5)
        planner = system.planner
        for call in (
            lambda: system.query(NNSpec(flavor="private", user="u0")),
            lambda: system.query(KNNSpec(flavor="private", user="u0", k=2)),
            lambda: system.execute_batch([
                RangeSpec(flavor="private", user="u2", radius=5.0),
                NNSpec(flavor="private", region=region),
            ]),
            lambda: planner.execute(NNSpec(flavor="private", region=region)),
            lambda: planner.execute_batch([
                RangeSpec(window=region),
                KNNSpec(flavor="private", region=region, k=2),
            ]),
        ):
            with pytest.raises(QueryError, match="empty public store"):
                call()
            assert system_digest(system) == digest
            assert (tmp_path / WAL_NAME).stat().st_size == size
        assert system.server.queries_served == 0

    def test_a_batch_naming_a_passive_user_runs_none_of_it(self, system):
        system.set_mode(9, UserMode.PASSIVE)
        with pytest.raises(RegistrationError, match="passive"):
            system.execute_batch([
                RangeSpec(flavor="private", user=1, radius=5.0),
                RangeSpec(flavor="private", user=9, radius=5.0),
            ])
        assert system.ledger.summary() == {}
        assert system.server.queries_served == 0

    def test_passive_user_cannot_query(self, system):
        system.set_mode(9, UserMode.PASSIVE)
        with pytest.raises(RegistrationError, match="passive"):
            system.query(RangeSpec(flavor="private", user=9, radius=5.0))

    def test_ledger_accumulates(self, system):
        system.query(RangeSpec(flavor="private", user=1, radius=5.0))
        system.query(RangeSpec(flavor="private", user=2, radius=5.0))
        system.query(NNSpec(flavor="private", user=3))
        summary = system.ledger.summary()
        assert summary["range_queries"] == 2
        assert summary["nn_queries"] == 1
        assert summary["range_accuracy"] == 1.0
        assert summary["nn_accuracy"] == 1.0
        assert summary["mean_cloak_area"] > 0

    def test_empty_ledger_summary(self):
        system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=4))
        assert system.ledger.summary() == {}


class TestPrivacyQosTension:
    def test_higher_k_means_more_candidates(self, uniform_points_500):
        candidate_means = []
        for k in (2, 50):
            system = PrivacySystem(BOUNDS, PyramidCloaker(BOUNDS, height=6))
            for i, p in enumerate(uniform_points_500):
                system.add_user(MobileUser(i, p, PrivacyProfile.always(k=k)))
            for j in range(80):
                system.add_poi(("poi", j), Point((13 * j) % 100, (29 * j) % 100))
            for victim in range(10):
                system.query(RangeSpec(flavor="private", user=victim, radius=8.0))
            candidate_means.append(
                system.ledger.summary()["range_mean_candidates"]
            )
        assert candidate_means[1] > candidate_means[0]
