"""Checkpoints, atomic writes, and config round-trips.

``tests/fixtures/persist_checkpoint_mini_v4.npz`` pins the full
``repro.persist/4`` checkpoint of a small deterministic system, member
by member (``np.savez`` stamps zip times, so the bytes differ between
writes); a drift in any written field fails here before it can make a
stored checkpoint unreadable.  Regenerate it (only when the schema is
meant to change) with ``PYTHONPATH=src python
tests/unit/test_persist_checkpoint.py``.  The two ``_v3`` fixtures are
the previous release's form, still read: each must recover to the
digest of the system it was written from.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import repro.cloaking
from repro.cloaking.base import Cloaker
from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.hilbert import HilbertCloaker
from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.mbr import MBRCloaker
from repro.cloaking.naive import NaiveCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.cloaking.quadtree_cloak import QuadtreeCloaker
from repro.core.anonymizer import LocationAnonymizer
from repro.core.profiles import PrivacyProfile
from repro.core.server import LocationServer
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.obs import Telemetry
from repro.obs.events import PERSIST_CHECKPOINT, EventLog
from repro.persist import (
    META_NAME,
    SCHEMA,
    WAL_NAME,
    CheckpointError,
    checkpoint_state,
    cloaker_config,
    cloaker_from_config,
    list_checkpoints,
    load_checkpoint,
    system_digest,
    write_checkpoint,
    write_wal_meta,
)
from repro.persist import recovery
from repro.persist.checkpoint import COLUMNS
from repro.queries.spec import KNNSpec, NNSpec, RangeSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)

#: Manifest keys, in the exact order checkpoint_state emits them, then
#: the columns beside them.
DOCUMENT_KEYS = [
    "schema",
    "wal_seq",
    "wal_offset",
    "clock",
    "bounds",
    "rotate_pseudonyms",
    "pseudonym_seq",
    "cloaker",
    "profiles",
    "modes",
    "users",
    "registrations",
    "pseudonyms",
    "server",
    "stores",
    "ledger",
    "columns",
]
COLUMN_KEYS = list(COLUMNS)
#: One user-bound query of each kind, answered by :func:`_asked`.
ASKED = (
    RangeSpec(flavor="private", user="u2", radius=15.0),
    NNSpec(flavor="private", user="u0"),
    KNNSpec(flavor="private", user="u1", k=2),
)


def _mini_system() -> PrivacySystem:
    """The deterministic system the golden fixture was generated from."""
    system = PrivacySystem(
        BOUNDS, GridCloaker(BOUNDS, cols=4, rows=4), telemetry=Telemetry()
    )
    system.add_poi("p0", Point(10.0, 10.0))
    system.add_poi("p1", Point(60.0, 70.0))
    for i, (x, y) in enumerate([(20.0, 20.0), (22.0, 24.0), (70.0, 75.0)]):
        system.add_user(
            MobileUser(f"u{i}", Point(x, y), PrivacyProfile.always(k=2, min_area=4.0))
        )
    system.publish_all()
    system.server.register_count_monitor("m0", Rect(0.0, 0.0, 50.0, 50.0))
    return system


def _asked(system: PrivacySystem) -> PrivacySystem:
    """``system`` after answering the :data:`ASKED` queries."""
    for spec in ASKED:
        system.query(spec)
    return system


def _assert_same_state(state: dict, other: dict) -> None:
    """Equal manifests, and the same columns with equal dtypes and values."""
    columns, other_columns = state["columns"], other["columns"]
    assert {k: v for k, v in state.items() if k != "columns"} == {
        k: v for k, v in other.items() if k != "columns"
    }
    assert list(columns) == list(other_columns)
    for name, column in columns.items():
        assert column.dtype == other_columns[name].dtype, name
        assert np.array_equal(column, other_columns[name]), name


def _members(path) -> dict:
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _recover(directory) -> PrivacySystem:
    return PrivacySystem.recover(directory, telemetry=Telemetry())


def _recover_fixture(name: str, tmp_path) -> PrivacySystem:
    """Recover from one golden checkpoint placed in an empty directory."""
    source = os.path.join(FIXTURES, name)
    target = tmp_path / name.replace(".", "_")
    target.mkdir()
    seq = load_checkpoint(source)["wal_seq"]
    shutil.copy(source, target / f"checkpoint-{seq:012d}.npz")
    return _recover(target)


class _ReadKeys(dict):
    """A document that remembers which top-level keys were asked for."""

    def __init__(self, document: dict) -> None:
        super().__init__(document)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestCheckpointDocument:
    def test_matches_golden_fixture(self, tmp_path):
        golden = _members(os.path.join(FIXTURES, "persist_checkpoint_mini_v4.npz"))
        written = _members(write_checkpoint(_mini_system(), tmp_path))
        assert list(written) == list(golden)
        assert json.loads(written.pop("manifest").tobytes()) == json.loads(
            golden.pop("manifest").tobytes()
        )
        for name, column in written.items():
            assert column.dtype == golden[name].dtype, name
            assert column.shape == golden[name].shape, name
            assert np.array_equal(column, golden[name]), name

    def test_key_order_is_pinned(self):
        state = checkpoint_state(_mini_system())
        assert list(state) == DOCUMENT_KEYS
        assert list(state["columns"]) == COLUMN_KEYS
        assert state["schema"] == SCHEMA

    def test_previous_release_document_recovers_to_the_same_digest(self, tmp_path):
        current = _recover_fixture("persist_checkpoint_mini_v3.npz", tmp_path)
        assert system_digest(current) == system_digest(_mini_system())

    def test_previous_release_ledger_rows_fold_to_the_live_sums(self, tmp_path):
        """A ``/3`` checkpoint kept one ledger row per answered query; it
        loads as the ``/4`` table of sums.  The fixture was written by the
        last ``/3`` build (commit 5addb16) with::

            git archive 5addb16 | tar -x -C /tmp/v3 && cd /tmp/v3 &&
            PYTHONPATH=src:tests/unit python -c "
            import shutil, tempfile
            from test_persist_checkpoint import _mini_system
            from repro.persist import write_checkpoint
            from repro.queries.spec import KNNSpec, NNSpec, RangeSpec
            system = _mini_system()
            for spec in (
                RangeSpec(flavor='private', user='u2', radius=15.0),
                NNSpec(flavor='private', user='u0'),
                KNNSpec(flavor='private', user='u1', k=2),
            ):
                system.query(spec)
            shutil.copy(write_checkpoint(system, tempfile.mkdtemp()),
                        '<repo>/tests/fixtures/persist_checkpoint_asked_v3.npz')"
        """
        name = "persist_checkpoint_asked_v3.npz"
        state = load_checkpoint(os.path.join(FIXTURES, name))
        live = _asked(_mini_system())
        assert state["ledger"] == checkpoint_state(live)["ledger"]
        assert list(state["columns"]) == COLUMN_KEYS
        recovered = _recover_fixture(name, tmp_path)
        assert system_digest(recovered) == system_digest(live)
        assert system_digest(recovered)["qos"]["range_mean_overhead"] == 2.0

    def test_every_written_section_is_read(self, tmp_path, monkeypatch):
        """A section nothing reads is not a durable fact: it must go."""
        system = _mini_system()
        state = checkpoint_state(system)
        write_checkpoint(system, tmp_path)
        documents: list[_ReadKeys] = []

        def recording_load(path):
            loaded = load_checkpoint(path)
            loaded["columns"] = _ReadKeys(loaded["columns"])
            documents.append(_ReadKeys(loaded))
            return documents[-1]

        monkeypatch.setattr(recovery, "load_checkpoint", recording_load)
        _recover(tmp_path)
        (document,) = documents
        # ``schema`` is read by load_checkpoint itself, before the wrap.
        assert set(state) - document.read == {"schema"}
        assert set(state["columns"]) - document["columns"].read == set()

    def test_wal_seq_tracks_event_log(self):
        system = _mini_system()
        before = system.obs.events._seq
        assert checkpoint_state(system)["wal_seq"] == before
        system.apply_movement({"u0": Point(21.0, 21.0)})
        assert checkpoint_state(system)["wal_seq"] > before

    def test_one_profile_row_per_distinct_profile(self, tmp_path):
        """Equal profiles held in distinct objects share one table row,
        and a user and their registration restore to one profile object."""
        system = _mini_system()
        system.add_user(MobileUser("u3", Point(5.0, 5.0), PrivacyProfile.always(k=2, min_area=4.0)))
        system.add_user(MobileUser("u4", Point(6.0, 6.0), PrivacyProfile.always(k=3)))
        state = checkpoint_state(system)
        assert len(state["profiles"]) == 2
        assert state["columns"]["user_profiles"].tolist() == [0, 0, 0, 0, 1]
        write_checkpoint(system, tmp_path)
        recovered = _recover(tmp_path)
        for user_id, registration in recovered.anonymizer._registrations.items():
            assert recovered.users[user_id].profile is registration.profile
        assert system_digest(recovered) == system_digest(system)

    def test_no_member_is_a_pickled_object(self, tmp_path):
        members = _members(write_checkpoint(_mini_system(), tmp_path))
        assert all(column.dtype != object for column in members.values())
        assert members["manifest"].dtype == np.uint8


#: Every applier a live method calls, by owner.  The stores' ``restore``
#: is not here: a live store changes one entry at a time.
APPLIERS = [
    (PrivacySystem, "_add_user"),
    (PrivacySystem, "_move_user"),
    (PrivacySystem, "_change_mode"),
    (PrivacySystem, "_retire"),
    (PrivacySystem, "_record"),
    (LocationAnonymizer, "_admit"),
    (LocationAnonymizer, "_retire"),
    (LocationAnonymizer, "_adopt"),
    (LocationAnonymizer, "_change_profile"),
    (LocationAnonymizer, "_advance_pseudonyms"),
    (LocationServer, "_count_queries"),
]
RESTORE = "checkpoint restore"


class TestOneApplierPerFact:
    def test_live_restore_and_replay_share_every_applier(self, tmp_path, monkeypatch):
        """Each applier runs live, and again in restore or replay, where it
        replays exactly the event kinds the live path emits after it.  A
        second copy of an applier, live or in recovery, leaves one side's
        calls uncounted."""
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "crash"))
        harness = importlib.import_module("harness")
        live: dict[str, set] = defaultdict(set)
        recovered: dict[str, set] = defaultdict(set)
        pending: list[str] = []  # live appliers waiting for their event
        replaying: list[str] = []  # the kind in replay, or RESTORE

        def spy(owner, name):
            original = getattr(owner, name)
            key = f"{owner.__name__}.{name}"

            def counted(*args, **kwargs):
                if replaying:
                    recovered[key].add(replaying[-1])
                else:
                    pending.append(key)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in APPLIERS:
            spy(owner, name)
        emit = EventLog.emit

        def emitting(log, kind, /, **attrs):
            for key in pending:
                live[key].add(kind)
            pending.clear()
            return emit(log, kind, **attrs)

        monkeypatch.setattr(EventLog, "emit", emitting)
        apply_event = recovery._apply_event

        def replaying_event(system, event):
            replaying.append(event.kind)
            try:
                return apply_event(system, event)
            finally:
                replaying.pop()

        monkeypatch.setattr(recovery, "_apply_event", replaying_event)

        directory = tmp_path / "durable"
        system = harness.build_system(str(directory))
        harness.run_ops(system, harness.small_workload(), str(directory))
        system.obs.events.detach_jsonl()
        cold = tmp_path / "cold"  # the same trail without its checkpoint
        cold.mkdir()
        for name in (WAL_NAME, META_NAME):
            shutil.copy(directory / name, cold / name)
        replaying.append(RESTORE)
        warm_system = _recover(directory)
        cold_system = _recover(cold)
        replaying.pop()

        assert system_digest(warm_system) == system_digest(system)
        assert system_digest(cold_system) == system_digest(system)
        for owner, name in APPLIERS:
            key = f"{owner.__name__}.{name}"
            assert live[key], f"{key} never ran live"
            assert recovered[key], f"{key} never ran in restore or replay"
            assert recovered[key] - {RESTORE} == live[key], key


class TestWriteCheckpoint:
    def test_writes_named_file_and_no_tmp_orphan(self, tmp_path):
        system = _mini_system()
        path = write_checkpoint(system, tmp_path)
        seq = system.obs.events._seq - 1  # the emit itself took one seq
        assert os.path.basename(path) == f"checkpoint-{seq:012d}.npz"
        assert os.path.exists(path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_emits_persist_checkpoint_event(self, tmp_path):
        system = _mini_system()
        path = write_checkpoint(system, tmp_path)
        events = list(system.obs.events.events(PERSIST_CHECKPOINT))
        assert len(events) == 1
        attrs = events[0].attrs
        assert attrs["file"] == os.path.basename(path)
        assert attrs["wal_seq"] == int(Path(path).stem.split("-")[1])
        assert attrs["bytes"] == os.path.getsize(path)
        assert attrs["seconds"] >= 0.0

    def test_round_trips_through_load(self, tmp_path):
        system = _mini_system()
        # Capture first: the write itself emits one event, moving _seq.
        state = checkpoint_state(system)
        path = write_checkpoint(system, tmp_path)
        _assert_same_state(load_checkpoint(path), state)


def _archive(path, manifest) -> None:
    """A ``/3``-shaped archive holding ``manifest`` and no columns."""
    with open(path, "wb") as handle:
        np.savez(handle, manifest=np.frombuffer(json.dumps(manifest).encode(), np.uint8))


class TestLoadCheckpoint:
    def test_foreign_schema_rejected(self, tmp_path):
        archive = tmp_path / "checkpoint-000000000002.npz"
        _archive(archive, {"schema": "somebody.else/9", "wal_seq": 2})
        # The schema before /3 is foreign too, in an archive or not.
        renamed = tmp_path / "checkpoint-000000000003.npz"
        _archive(renamed, {"schema": "repro.persist/2", "wal_seq": 3})
        for path in (archive, renamed):
            with pytest.raises(
                CheckpointError,
                match="not a repro.persist/4 or repro.persist/3 checkpoint",
            ):
                load_checkpoint(path)
        document = tmp_path / "checkpoint-000000000001.json"
        document.write_text(json.dumps({"schema": "repro.persist/2", "wal_seq": 1}))
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            load_checkpoint(document)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "checkpoint-000000000001.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        archive = tmp_path / "checkpoint-000000000002.npz"
        _archive(archive, [1, 2, 3])
        with pytest.raises(CheckpointError):
            load_checkpoint(archive)

    def test_torn_json_raises_value_error(self, tmp_path):
        """A checkpoint name holding torn JSON, not an archive, is a
        CheckpointError, which recovery catches as the ValueError it is."""
        path = tmp_path / "checkpoint-000000000001.npz"
        path.write_text('{"schema": "repro.persist/3", "wal_seq":')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert issubclass(CheckpointError, ValueError)

    def test_a_missing_column_is_refused(self, tmp_path):
        path = write_checkpoint(_mini_system(), tmp_path)
        members = _members(path)
        del members["speeds"]
        with open(path, "wb") as handle:
            np.savez(handle, **members)
        with pytest.raises(CheckpointError, match="columns"):
            load_checkpoint(path)


class TestListCheckpoints:
    def test_sorted_oldest_first_and_tmp_ignored(self, tmp_path):
        names = [
            "checkpoint-000000000042.npz",
            "checkpoint-000000000007.json",
            "checkpoint-000000000100.npz",
        ]
        for name in names:
            (tmp_path / name).write_text("{}")
        (tmp_path / "checkpoint-000000000999.npz.tmp").write_text("{")
        (tmp_path / "checkpoint-000000000998.json.tmp").write_text("{")
        (tmp_path / "wal.jsonl").write_text("")
        found = [p.name for p in list_checkpoints(tmp_path)]
        # A ``.json`` file, the form before /3, is not a checkpoint.
        assert found == [names[0], names[2]]


class TestRecoveryPhases:
    def test_four_phases_are_spans_with_row_counts(self, tmp_path):
        """Answered queries are no rows: the ledger is a fixed-size table
        of sums, and the checkpoint's members keep their names and shapes."""

        def shapes(path) -> list:
            members = _members(path)
            ledger = json.loads(members.pop("manifest").tobytes())["ledger"]
            return [
                [(name, column.shape) for name, column in members.items()],
                {kind: list(sums) for kind, sums in ledger.items()},
            ]

        system = _mini_system()
        before = shapes(write_checkpoint(system, tmp_path / "unasked"))
        _asked(system)
        system.attach_wal(tmp_path)
        assert shapes(write_checkpoint(system, tmp_path)) == before
        system.apply_movement({"u0": Point(21.0, 21.0)})
        system.obs.events.detach_jsonl()
        telemetry = Telemetry()
        PrivacySystem.recover(tmp_path, telemetry=telemetry)
        rows = {
            span.name: span.attrs["rows"]
            for span in telemetry.tracer.spans()
            if span.name.startswith("recovery.")
        }
        assert rows == {
            # 3 users + 3 registrations + 2 POIs + 3 regions, no ledger rows
            # for the three answered queries
            "recovery.load": 11,
            "recovery.tables": 6,
            "recovery.indexes": 5,
            # clock.advanced, users.moved and region.published; the
            # checkpoint and cloak records change no state
            "recovery.replay": 3,
        }


def _monitor_answers(system: PrivacySystem) -> dict:
    """Each standing monitor's window, membership probabilities and
    running expected count — none of which ``system_digest`` records."""
    return {
        monitor_id: (
            monitor.window,
            monitor.answer().probabilities,
            monitor.expected_count,
        )
        for monitor_id, monitor in system.server._monitors.items()
    }


class TestMonitors:
    @staticmethod
    def _assert_same_answers(recovered: dict, live: dict) -> None:
        assert set(recovered) == set(live)
        for monitor_id, (window, probabilities, expected) in live.items():
            got_window, got_probabilities, got_expected = recovered[monitor_id]
            assert got_window == window
            assert got_probabilities == probabilities
            assert got_expected == pytest.approx(expected)

    def test_monitors_recover_their_counts(self, tmp_path):
        """A monitor restored from a checkpoint is seeded from the
        checkpoint's regions, then kept up by the replayed tail."""
        system = _mini_system()
        system.server.register_count_monitor("m1", Rect(15.0, 15.0, 80.0, 80.0))
        system.attach_wal(tmp_path)
        write_checkpoint(system, tmp_path)
        at_checkpoint = _monitor_answers(system)
        assert all(probabilities for _, probabilities, _ in at_checkpoint.values())
        self._assert_same_answers(_monitor_answers(_recover(tmp_path)), at_checkpoint)

        system.apply_movement({"u0": Point(21.0, 21.0), "u2": Point(40.0, 45.0)})
        system.publish_all()
        system.obs.events.detach_jsonl()
        self._assert_same_answers(
            _monitor_answers(_recover(tmp_path)), _monitor_answers(system)
        )


CLOAKERS = {
    "pyramid": lambda: PyramidCloaker(BOUNDS, height=5),
    "pyramid_topdown": lambda: PyramidCloaker(
        BOUNDS, height=4, bottom_up=False, neighbor_merge=False
    ),
    "grid": lambda: GridCloaker(BOUNDS, cols=6, rows=3),
    "quadtree": lambda: QuadtreeCloaker(BOUNDS, capacity=3, max_depth=7),
    "hilbert": lambda: HilbertCloaker(BOUNDS, order=5),
    "naive": lambda: NaiveCloaker(BOUNDS, precision=0.5),
    "mbr": lambda: MBRCloaker(BOUNDS, pad_fraction=0.25),
    "incremental": lambda: IncrementalCloaker(
        PyramidCloaker(BOUNDS, height=4), max_reuses=7
    ),
}


class TestCloakerConfig:
    @pytest.mark.parametrize("name", sorted(CLOAKERS))
    def test_round_trip(self, name):
        original = CLOAKERS[name]()
        config = cloaker_config(original)
        assert config is not None
        rebuilt = cloaker_from_config(config)
        assert type(rebuilt) is type(original)
        # Construction parameters survive: serialising again is a no-op.
        assert cloaker_config(rebuilt) == config
        assert json.loads(json.dumps(config)) == config  # JSON-clean

    def test_unregistered_type_maps_to_none(self):
        assert cloaker_config(object()) is None

    def test_unknown_class_rejected(self):
        with pytest.raises(CheckpointError, match="unknown cloaker class"):
            cloaker_from_config({"class": "TimeMachineCloaker"})

    def test_a_new_mechanism_needs_only_its_config(self, monkeypatch):
        """Declaring a mechanism is its class, its ``config()`` and a row
        in ``ALL_CLOAKERS`` — nothing in ``repro.persist`` names it."""

        class RingCloaker(Cloaker):
            def __init__(self, bounds, rings=3):
                super().__init__(bounds)
                self.rings = rings

            def config(self):
                return {"rings": self.rings}

            def _cloak(self, user_id, point, requirement):
                return self.bounds

        assert cloaker_config(RingCloaker(BOUNDS)) is None  # not listed yet
        monkeypatch.setattr(
            repro.cloaking,
            "ALL_CLOAKERS",
            (*repro.cloaking.ALL_CLOAKERS, RingCloaker),
        )
        config = cloaker_config(IncrementalCloaker(RingCloaker(BOUNDS, rings=5)))
        assert config["inner"] == {
            "class": "RingCloaker",
            "bounds": [0.0, 0.0, 100.0, 100.0],
            "rings": 5,
        }
        rebuilt = cloaker_from_config(json.loads(json.dumps(config)))
        assert type(rebuilt.inner) is RingCloaker
        assert rebuilt.inner.rings == 5
        assert cloaker_config(rebuilt) == config


class TestSnapshotState:
    """The engine snapshot is derived state: a checkpoint does not carry
    it, and the first batch after a recovery captures it from the
    restored stores."""

    WINDOW = RangeSpec(window=Rect(0.0, 0.0, 50.0, 50.0))

    def _live_and_recovered(self, tmp_path):
        live = _mini_system()
        live.execute_batch([self.WINDOW])  # the live engine holds a snapshot
        write_checkpoint(live, tmp_path)
        recovered = _recover(tmp_path)
        assert recovered.server.engine._cached is None
        answers = recovered.execute_batch([self.WINDOW])
        assert answers == live.execute_batch([self.WINDOW])
        return live.server.engine._cached, recovered

    def test_round_trip_preserves_arrays_and_versions(self, tmp_path):
        snapshot, recovered = self._live_and_recovered(tmp_path)
        rebuilt = recovered.server.engine._cached
        counters = recovered.obs.snapshot()["counters"]
        assert counters["engine.snapshot{result=captured}"] == 1
        assert rebuilt.public_version == snapshot.public_version
        assert rebuilt.private_version == snapshot.private_version
        # The stores' rows come back in the live row order.
        assert rebuilt.public_ids == snapshot.public_ids
        assert rebuilt.private_ids == snapshot.private_ids
        assert np.array_equal(rebuilt.public_xs, snapshot.public_xs)
        assert np.array_equal(rebuilt.public_ys, snapshot.public_ys)
        assert np.array_equal(rebuilt.private_bounds, snapshot.private_bounds)

    def test_rebuilt_arrays_are_frozen_and_ranks_recomputed(self, tmp_path):
        _, recovered = self._live_and_recovered(tmp_path)
        rebuilt = recovered.server.engine._cached
        assert not rebuilt.public_xs.flags.writeable
        assert not rebuilt.public_ys.flags.writeable
        assert not rebuilt.private_bounds.flags.writeable
        assert rebuilt.public_rank == {
            item: row for row, item in enumerate(rebuilt.public_ids)
        }
        assert rebuilt.private_rank == {
            item: row for row, item in enumerate(rebuilt.private_ids)
        }


class TestWalMeta:
    def test_sidecar_records_construction_parameters(self, tmp_path):
        system = _mini_system()
        path = write_wal_meta(system, tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        assert meta == {
            "wal": "repro.wal/2",
            "bounds": [0.0, 0.0, 100.0, 100.0],
            "rotate_pseudonyms": False,
            "cloaker": {
                "class": "GridCloaker",
                "bounds": [0.0, 0.0, 100.0, 100.0],
                "cols": 4,
                "rows": 4,
            },
        }
        assert not list(tmp_path.glob("*.tmp"))


if __name__ == "__main__":
    import tempfile

    shutil.copy(
        write_checkpoint(_mini_system(), tempfile.mkdtemp()),
        os.path.join(FIXTURES, "persist_checkpoint_mini_v4.npz"),
    )
