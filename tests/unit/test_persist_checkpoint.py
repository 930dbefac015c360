"""Checkpoint documents, atomic writes, and config round-trips.

``tests/fixtures/persist_checkpoint_mini.json`` pins the full
``repro.persist/1`` checkpoint document for a small deterministic
system; a drift in any serialised field fails here before it can make
a stored checkpoint unreadable.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.hilbert import HilbertCloaker
from repro.cloaking.incremental import IncrementalCloaker
from repro.cloaking.mbr import MBRCloaker
from repro.cloaking.naive import NaiveCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.cloaking.quadtree_cloak import QuadtreeCloaker
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.obs import Telemetry
from repro.obs.events import PERSIST_CHECKPOINT
from repro.persist import (
    SCHEMA,
    CheckpointError,
    checkpoint_state,
    cloaker_config,
    cloaker_from_config,
    list_checkpoints,
    load_checkpoint,
    snapshot_from_state,
    snapshot_state,
    write_checkpoint,
    write_wal_meta,
)

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
    "cloaker_index",
    "engine_snapshot",
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

    def test_wal_seq_tracks_event_log(self):
        system = _mini_system()
        before = system.obs.events._seq
        assert checkpoint_state(system)["wal_seq"] == before
        system.apply_movement({"u0": Point(21.0, 21.0)})
        assert checkpoint_state(system)["wal_seq"] > before


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


class TestSnapshotState:
    def _cached_snapshot(self):
        from repro.core.server import LocationServer
        from repro.core.stores import PublicStore
        from repro.queries.spec import RangeSpec

        server = LocationServer(telemetry=Telemetry())
        server.public = PublicStore.from_points(
            {f"p{i}": Point(float(i * 10), float(i * 7)) for i in range(5)}
        )
        server.execute_batch([RangeSpec(window=Rect(0.0, 0.0, 50.0, 50.0))])
        return server.engine._cached

    def test_round_trip_preserves_arrays_and_versions(self):
        snapshot = self._cached_snapshot()
        state = snapshot_state(snapshot)
        rebuilt = snapshot_from_state(state)
        assert rebuilt.public_version == snapshot.public_version
        assert rebuilt.private_version == snapshot.private_version
        assert rebuilt.public_ids == tuple(str(i) for i in snapshot.public_ids)
        assert rebuilt.public_xs.tolist() == snapshot.public_xs.tolist()
        assert rebuilt.public_ys.tolist() == snapshot.public_ys.tolist()
        assert rebuilt.private_bounds.shape == (len(snapshot.private_ids), 4)

    def test_rebuilt_arrays_are_frozen_and_ranks_recomputed(self):
        rebuilt = snapshot_from_state(snapshot_state(self._cached_snapshot()))
        assert not rebuilt.public_xs.flags.writeable
        assert not rebuilt.public_ys.flags.writeable
        assert not rebuilt.private_bounds.flags.writeable
        assert rebuilt.public_rank == {
            item: row for row, item in enumerate(rebuilt.public_ids)
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
