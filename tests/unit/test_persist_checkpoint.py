"""Checkpoint documents, atomic writes, and config round-trips.

``tests/fixtures/persist_checkpoint_mini.json`` pins the full
``repro.persist/1`` checkpoint document for a small deterministic
system; a drift in any serialised field fails here before it can make
a stored checkpoint unreadable.  ``persist_checkpoint_mini_prev.json``
is the same system as the previous release wrote it (two more sections,
both derived state): the one reader must land both on the same digest.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
from collections import defaultdict

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
from repro.queries.spec import RangeSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)

#: Top-level document keys, in the exact order checkpoint_state emits
#: them (insertion order is part of the wire format).
DOCUMENT_KEYS = [
    "schema",
    "wal_seq",
    "clock",
    "bounds",
    "rotate_pseudonyms",
    "pseudonym_seq",
    "cloaker",
    "users",
    "registrations",
    "server",
    "stores",
    "ledger",
]


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


def _as_wire(state: dict) -> dict:
    """The document as it lands on disk (tuples become JSON arrays)."""
    return json.loads(json.dumps(state, default=str))


def _recover(directory) -> PrivacySystem:
    return PrivacySystem.recover(directory, telemetry=Telemetry())


def _recover_fixture(name: str, tmp_path) -> PrivacySystem:
    """Recover from one golden document placed in an empty directory."""
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as handle:
        document = handle.read()
    target = tmp_path / name.removesuffix(".json")
    target.mkdir()
    seq = json.loads(document)["wal_seq"]
    (target / f"checkpoint-{seq:012d}.json").write_text(document)
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
    def test_matches_golden_fixture(self):
        path = os.path.join(FIXTURES, "persist_checkpoint_mini.json")
        with open(path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert _as_wire(checkpoint_state(_mini_system())) == golden

    def test_key_order_is_pinned(self):
        state = checkpoint_state(_mini_system())
        assert list(state) == DOCUMENT_KEYS
        assert state["schema"] == SCHEMA

    def test_previous_release_document_recovers_to_the_same_digest(self, tmp_path):
        current = _recover_fixture("persist_checkpoint_mini.json", tmp_path)
        previous = _recover_fixture("persist_checkpoint_mini_prev.json", tmp_path)
        expected = system_digest(_mini_system())
        assert system_digest(current) == expected
        assert system_digest(previous) == expected

    def test_every_written_section_is_read(self, tmp_path, monkeypatch):
        """A section nothing reads is not a durable fact: it must go."""
        system = _mini_system()
        written = set(checkpoint_state(system))
        write_checkpoint(system, tmp_path)
        documents: list[_ReadKeys] = []

        def recording_load(path):
            documents.append(_ReadKeys(load_checkpoint(path)))
            return documents[-1]

        monkeypatch.setattr(recovery, "load_checkpoint", recording_load)
        _recover(tmp_path)
        (document,) = documents
        # ``schema`` is read by load_checkpoint itself, before the wrap.
        assert written - document.read == {"schema"}

    def test_wal_seq_tracks_event_log(self):
        system = _mini_system()
        before = system.obs.events._seq
        assert checkpoint_state(system)["wal_seq"] == before
        system.apply_movement({"u0": Point(21.0, 21.0)})
        assert checkpoint_state(system)["wal_seq"] > before


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
        assert os.path.basename(path) == f"checkpoint-{seq:012d}.json"
        assert os.path.exists(path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_emits_persist_checkpoint_event(self, tmp_path):
        system = _mini_system()
        path = write_checkpoint(system, tmp_path)
        events = list(system.obs.events.events(PERSIST_CHECKPOINT))
        assert len(events) == 1
        attrs = events[0].attrs
        assert attrs["file"] == os.path.basename(path)
        assert attrs["wal_seq"] == int(os.path.basename(path)[11:-5])
        assert attrs["bytes"] == os.path.getsize(path)
        assert attrs["seconds"] >= 0.0

    def test_round_trips_through_load(self, tmp_path):
        system = _mini_system()
        # Capture first: the write itself emits one event, moving _seq.
        state = _as_wire(checkpoint_state(system))
        path = write_checkpoint(system, tmp_path)
        assert load_checkpoint(path) == state


class TestLoadCheckpoint:
    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "checkpoint-000000000001.json"
        path.write_text(json.dumps({"schema": "somebody.else/9", "wal_seq": 1}))
        with pytest.raises(CheckpointError, match="repro.persist/1"):
            load_checkpoint(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "checkpoint-000000000001.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_torn_json_raises_value_error(self, tmp_path):
        path = tmp_path / "checkpoint-000000000001.json"
        path.write_text('{"schema": "repro.persist/1", "wal_seq":')
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestListCheckpoints:
    def test_sorted_oldest_first_and_tmp_ignored(self, tmp_path):
        names = [
            "checkpoint-000000000042.json",
            "checkpoint-000000000007.json",
            "checkpoint-000000000100.json",
        ]
        for name in names:
            (tmp_path / name).write_text("{}")
        (tmp_path / "checkpoint-000000000999.json.tmp").write_text("{")
        (tmp_path / "wal.jsonl").write_text("")
        found = [p.name for p in list_checkpoints(tmp_path)]
        assert found == sorted(names)


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
        # Recovery restores rows in the checkpoint's sorted-entry order,
        # not the live first-insertion order, so compare id -> row.
        assert dict(
            zip(rebuilt.public_ids, zip(rebuilt.public_xs, rebuilt.public_ys))
        ) == dict(
            zip(snapshot.public_ids, zip(snapshot.public_xs, snapshot.public_ys))
        )
        assert dict(
            zip(rebuilt.private_ids, rebuilt.private_bounds.tolist())
        ) == dict(zip(snapshot.private_ids, snapshot.private_bounds.tolist()))

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
            "schema": SCHEMA,
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
