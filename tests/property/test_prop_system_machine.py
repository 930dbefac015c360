"""A stateful model test of the whole system with its WAL attached.

Hypothesis drives one :class:`~repro.core.system.PrivacySystem` through
interleaved rules — add and retire users, move a batch through
``update_location`` (reports, as a bulk tick makes them) or through
``apply_movement``, per-user and bulk publication rounds, queries of
every native kind, checkpoints, and crash-and-recover onto a copy of the
durability directory — and checks after every step that

* every answer agrees with the :class:`BruteForceOracle` over the
  server's own tables;
* attain-or-declare holds: the auditor folded from the WAL reports no
  undeclared violation;
* a fresh :class:`~repro.persist.Recovery` of the directory gives the
  live system's ``system_digest`` (reading the log closes the open run
  of reports, so the WAL holds everything the live system does);
* a call that raises changes nothing: the digest and the WAL (its bytes
  and the open run's rows) are what they were before the call.

Tier-1 replays the same derandomized runs each time; ``make
test-explore`` runs them randomized.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.errors import ReproError
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.engine.oracle import BruteForceOracle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser, UserMode
from repro.obs import Telemetry
from repro.obs.audit import PrivacyAuditor
from repro.persist import WAL_NAME, Recovery, system_digest
from repro.queries.spec import CountSpec, KNNSpec, NNSpec, RangeSpec

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
#: User ids are drawn from a pool larger than the users ever added, so
#: rules also name unknown users (and must then change nothing).
MAX_USERS = 8

coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)
user_ref = st.integers(0, MAX_USERS).map(lambda i: f"u{i}")
window = st.builds(
    lambda x, y, w, h: Rect(x, y, min(100.0, x + w), min(100.0, y + h)),
    coord, coord, st.floats(0.0, 60.0), st.floats(0.0, 60.0),
)
moves = st.lists(st.tuples(user_ref, coord, coord), min_size=1, max_size=4)


class SystemMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-machine-")
        self.generation = 0
        self.directory = self._fresh_directory()
        self.system = PrivacySystem(
            BOUNDS, PyramidCloaker(BOUNDS, height=4), telemetry=Telemetry()
        )
        self.system.attach_wal(self.directory)
        self.added = 0
        self.checkpointed = False

    def teardown(self) -> None:
        self.system.obs.events.detach_jsonl()
        shutil.rmtree(self.root, ignore_errors=True)

    def _fresh_directory(self) -> str:
        self.generation += 1
        directory = os.path.join(self.root, f"d{self.generation}")
        os.makedirs(directory)
        return directory

    # ------------------------------------------------------------------
    # A call that raises changes nothing
    # ------------------------------------------------------------------

    def _wal_length(self) -> tuple[int, int]:
        """The WAL's bytes and the rows of the log's open run."""
        run = self.system.obs.events._run
        size = os.path.getsize(os.path.join(self.directory, WAL_NAME))
        return size, 0 if run is None else len(run[0])

    def _call(self, call, *args):
        """``call(*args)``; a library error is allowed only if it left the
        digest and the WAL as they were.  Returns ``(ok, result)``."""
        digest, length = system_digest(self.system), self._wal_length()
        try:
            return True, call(*args)
        except ReproError:
            assert system_digest(self.system) == digest, call
            assert self._wal_length() == length, call
            return False, None

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @initialize(pois=st.lists(st.tuples(coord, coord), min_size=1, max_size=5))
    def add_pois(self, pois):
        for i, (x, y) in enumerate(pois):
            self.system.add_poi(f"p{i}", Point(x, y))

    @precondition(lambda self: self.added < MAX_USERS)
    @rule(x=coord, y=coord, k=st.integers(1, 4))
    def add_user(self, x, y, k):
        user = MobileUser(
            f"u{self.added}", Point(x, y), PrivacyProfile.always(k=k)
        )
        self.added += 1
        self._call(self.system.add_user, user)

    @rule(user=user_ref)
    def retire_user(self, user):
        self._call(self.system.set_mode, user, UserMode.PASSIVE)

    @rule(batch=moves)
    def report_batch(self, batch):
        """Reports as a bulk tick makes them: ``update_location``, then
        the user table's row."""
        for user, x, y in batch:
            point = Point(x, y)
            ok, _ = self._call(self.system.anonymizer.update_location, user, point)
            if ok:
                self.system.users[user].location = point

    @rule(batch=moves)
    def move_batch(self, batch):
        self._call(
            self.system.apply_movement, {user: Point(x, y) for user, x, y in batch}
        )

    @rule(bulk=st.booleans())
    def publish_all(self, bulk):
        self._call(lambda: self.system.publish_all(bulk=bulk))

    @rule(area=window)
    def public_range(self, area):
        oracle = BruteForceOracle.from_server(self.system.server)
        ok, answer = self._call(self.system.query, RangeSpec(window=area))
        if ok:
            assert list(answer) == oracle.public_range(area)

    @rule(x=coord, y=coord, k=st.integers(1, 3))
    def public_knn(self, x, y, k):
        oracle = BruteForceOracle.from_server(self.system.server)
        point = Point(x, y)
        ok, answer = self._call(self.system.query, KNNSpec(point=point, k=k))
        if ok:
            assert oracle.validate_knn(answer, point, k)

    @rule(area=window)
    def public_count(self, area):
        oracle = BruteForceOracle.from_server(self.system.server)
        ok, answer = self._call(self.system.query, CountSpec(window=area))
        if ok:
            reference = oracle.public_count(area)
            assert answer.interval == reference.interval
            assert answer.expected == pytest.approx(reference.expected)

    @rule(
        user=user_ref,
        kind=st.sampled_from(["range", "nn", "knn"]),
        radius=st.floats(1.0, 40.0),
        k=st.integers(1, 3),
    )
    def private_query(self, user, kind, radius, k):
        oracle = BruteForceOracle.from_server(self.system.server)
        spec = {
            "range": RangeSpec(flavor="private", user=user, radius=radius),
            "nn": NNSpec(flavor="private", user=user),
            "knn": KNNSpec(flavor="private", user=user, k=k),
        }[kind]
        ok, result = self._call(self.system.query, spec)
        if not ok:
            return
        outcome, refined = result
        at = self.system.users[user].location
        assert outcome.correct
        if kind == "range":
            exact = oracle.private_range(Rect.from_point(at), radius)
            assert sorted(refined) == sorted(exact)
        elif kind == "nn":
            assert oracle.validate_knn([refined], at, 1)
        else:
            assert oracle.validate_knn(refined, at, k)

    @rule()
    def checkpoint(self):
        self.system.checkpoint(self.directory)
        self.checkpointed = True

    @rule()
    def crash_and_recover(self):
        """The process dies; a fresh recovery of a copy of its directory
        (tail read past a checkpoint) carries on in its place."""
        live = system_digest(self.system)
        self.system.obs.events.detach_jsonl()
        copy = self._fresh_directory()
        shutil.copytree(self.directory, copy, dirs_exist_ok=True)
        recovery = Recovery(copy, telemetry=Telemetry(), attach=True)
        self.system = recovery.recover()
        self.directory = copy
        assert system_digest(self.system) == live
        assert recovery.report["wal_read"] == ("tail" if self.checkpointed else "full")

    # ------------------------------------------------------------------
    # Invariants after every step
    # ------------------------------------------------------------------

    @invariant()
    def recovers_to_the_live_digest(self):
        self.system.obs.events.close_run()
        recovered = Recovery(self.directory, telemetry=Telemetry()).recover()
        assert system_digest(recovered) == system_digest(self.system)

    @invariant()
    def attain_or_declare(self):
        path = os.path.join(self.directory, WAL_NAME)
        report = PrivacyAuditor.from_jsonl(path).report()
        assert report["totals"]["undeclared_violations"] == 0


SystemMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSystemMachine = SystemMachine.TestCase
