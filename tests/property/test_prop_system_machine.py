"""A stateful model test of the whole system with its WAL attached.

Hypothesis drives one :class:`~repro.core.system.PrivacySystem` through
interleaved rules — add, retire and reactivate users, remove public
objects (down to none), move a batch through ``update_location``
(reports, as a bulk tick makes them) or through ``apply_movement``,
per-user and bulk publication rounds, queries of every native kind,
singly and in mixed batches, checkpoints, and crash-and-recover onto a
copy of the durability directory — and checks after every step that

* every answer agrees with the :class:`BruteForceOracle` over the
  server's own tables;
* attain-or-declare holds: the auditor folded from the WAL reports no
  undeclared violation;
* a fresh :class:`~repro.persist.Recovery` of the directory gives the
  live system's ``system_digest`` (reading the log closes the open run
  of reports, so the WAL holds everything the live system does);
* a call that raises changes nothing: the digest and the WAL (its bytes
  and the open run's rows) are what they were before the call;
* the risk monitor tapping the event log (installed before the first
  user, seeded afresh after each recovery) files every user whose
  pseudonym the server holds in a bucket the size
  :func:`bucket_anonymity` gives over the server's regions, and no one
  else.

Tier-1 replays the same derandomized runs each time; ``make
test-explore`` runs them randomized.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from fractions import Fraction

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

from repro.attacks.streaming import bucket_anonymity
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
from repro.obs.events import read_jsonl
from repro.obs.risk import PrivacyRiskMonitor
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
user_spec = st.builds(
    lambda kind, user, radius, k: {
        "range": RangeSpec(flavor="private", user=user, radius=radius),
        "nn": NNSpec(flavor="private", user=user),
        "knn": KNNSpec(flavor="private", user=user, k=k),
    }[kind],
    st.sampled_from(["range", "nn", "knn"]),
    user_ref,
    st.floats(1.0, 40.0),
    st.integers(1, 3),
)
bound_spec = st.one_of(
    window.map(lambda area: RangeSpec(window=area)),
    st.builds(
        lambda x, y, k: KNNSpec(point=Point(x, y), k=k),
        coord, coord, st.integers(1, 3),
    ),
    window.map(lambda area: CountSpec(window=area)),
    window.map(lambda area: NNSpec(flavor="private", region=area)),
)


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
        self.risk = PrivacyRiskMonitor(BOUNDS).install(self.system.obs.events)
        self._audit_afresh()
        self.added = 0
        self.checkpointed = False

    def teardown(self) -> None:
        self.system.obs.events.detach_jsonl()
        shutil.rmtree(self.root, ignore_errors=True)

    def _audit_afresh(self) -> None:
        """One auditor per WAL directory, and the WAL bytes it has folded."""
        self.auditor = PrivacyAuditor()
        self.audited = 0

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

    def _check(self, oracle: BruteForceOracle, spec, answer) -> None:
        """``answer`` to ``spec`` agrees with ``oracle``, built over the
        server's tables before the call."""
        if getattr(spec, "user", None) is not None:
            outcome, refined = answer
            at = self.system.users[spec.user].location
            assert outcome.correct
            if spec.kind == "range":
                exact = oracle.private_range(Rect.from_point(at), spec.radius)
                assert sorted(refined) == sorted(exact)
            elif spec.kind == "nn":
                assert oracle.validate_knn([refined], at, 1)
            else:
                assert oracle.validate_knn(refined, at, spec.k)
        elif spec.flavor == "private":  # region-bound NN: a candidate set
            candidates = set(answer.candidates)
            assert oracle.private_nn_witnesses(spec.region) <= candidates
            assert candidates <= set(oracle.private_nn_bound(spec.region))
        elif spec.kind == "range":
            assert list(answer) == oracle.public_range(spec.window)
        elif spec.kind == "knn":
            assert oracle.validate_knn(answer, spec.point, spec.k)
        else:
            reference = oracle.public_count(spec.window)
            assert answer.interval == reference.interval
            assert answer.expected == pytest.approx(reference.expected)

    def _query(self, spec) -> None:
        oracle = BruteForceOracle.from_server(self.system.server)
        ok, answer = self._call(self.system.query, spec)
        if ok:
            self._check(oracle, spec, answer)

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

    @rule(user=user_ref)
    def reactivate_user(self, user):
        """The passive → active return: the user is admitted afresh."""
        self._call(self.system.set_mode, user, UserMode.ACTIVE)

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

    @rule(data=st.data())
    def remove_poi(self, data):
        """``poi.removed``: the public store may end up empty."""
        objects = list(self.system.server.public)
        if objects:
            self._call(
                self.system.server.remove_public_object,
                data.draw(st.sampled_from(objects)),
            )

    @rule(area=window)
    def public_range(self, area):
        self._query(RangeSpec(window=area))

    @rule(x=coord, y=coord, k=st.integers(1, 3))
    def public_knn(self, x, y, k):
        self._query(KNNSpec(point=Point(x, y), k=k))

    @rule(area=window)
    def public_count(self, area):
        self._query(CountSpec(window=area))

    @rule(spec=user_spec)
    def private_query(self, spec):
        self._query(spec)

    @rule(batch=st.lists(st.one_of(bound_spec, user_spec), min_size=1, max_size=5))
    def execute_batch(self, batch):
        oracle = BruteForceOracle.from_server(self.system.server)
        ok, answers = self._call(self.system.execute_batch, batch)
        if ok:
            for spec, answer in zip(batch, answers):
                self._check(oracle, spec, answer)

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
        self._audit_afresh()
        self.risk = PrivacyRiskMonitor(BOUNDS).install(self.system.obs.events)
        self.risk.seed_from(self.system)
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
        """Fold the WAL's complete lines appended since the last step;
        ``consume`` re-settles every declaration on each call."""
        with open(os.path.join(self.directory, WAL_NAME), "rb") as wal:
            wal.seek(self.audited)
            tail = wal.read()
        complete = tail[: tail.rfind(b"\n") + 1]
        self.audited += len(complete)
        self.auditor.consume(read_jsonl(complete.decode("utf-8").splitlines()))
        report = self.auditor.report()
        assert report["totals"]["undeclared_violations"] == 0

    @invariant()
    def risk_buckets_follow_the_server(self):
        anonymizer, private = self.system.anonymizer, self.system.server.private
        regions = {}
        for user in anonymizer.registered_users():
            pseudonym = anonymizer.pseudonym_of(user)
            if pseudonym in private:
                regions[str(user)] = private.region_of(pseudonym)
        oracle = bucket_anonymity(regions)
        posterior = self.risk.posterior
        assert posterior.population == len(oracle)
        # A bucket of n users contributes n shares of 1/n.
        assert posterior.bucket_count == sum(Fraction(1, n) for n in oracle.values())
        for i in range(MAX_USERS + 1):
            assert posterior.anonymity_of(f"u{i}") == oracle.get(f"u{i}")


SystemMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSystemMachine = SystemMachine.TestCase
