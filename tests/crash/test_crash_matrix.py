"""The crash matrix: kill the pipeline at arbitrary event boundaries.

Each scenario damages a real durability directory the way a specific
crash would, recovers, and asserts the recovered system is equivalent
to an uncrashed run of the surviving prefix — by canonical state
digest, by oracle-validated query answers, and by recover-twice
idempotence.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile

import numpy as np
import pytest

from repro.core.system import PrivacySystem
from repro.engine.oracle import BruteForceOracle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.queries.spec import CountSpec, KNNSpec, RangeSpec
from repro.persist import (
    CheckpointError,
    Recovery,
    RecoveryError,
    list_checkpoints,
    load_checkpoint,
    system_digest,
)

from harness import (
    CrashingSink,
    SimulatedCrash,
    build_system,
    reference_digest,
    run_ops,
    small_workload,
    tear_final_line,
    truncate_wal_to_seq,
    wal_path,
)

CHECKPOINT_AT = 8


def _recover(directory, **kwargs) -> PrivacySystem:
    return PrivacySystem.recover(directory, telemetry=Telemetry(), **kwargs)


def _durable_run(tmp_path, ops):
    directory = str(tmp_path / "state")
    os.makedirs(directory)
    system = build_system(directory)
    seqs = run_ops(system, ops, directory)
    system.obs.events.detach_jsonl()
    return directory, system, seqs


def _assert_probe_queries_valid(system: PrivacySystem) -> None:
    """The recovered server answers match a brute-force oracle over its
    own (recovered) tables — structural validity, not just digest bits."""
    oracle = BruteForceOracle.from_server(system.server)
    window = Rect(15.0, 15.0, 75.0, 75.0)
    assert set(system.query(RangeSpec(window=window))) == set(
        oracle.public_range(window)
    )
    if len(system.server.public):
        probe = Point(33.0, 41.0)
        answer = system.query(KNNSpec(point=probe, k=2))
        assert oracle.validate_knn(answer, probe, 2)
    count = system.query(CountSpec(window=window))
    reference = oracle.public_count(window)
    assert count.expected == pytest.approx(reference.expected)
    assert count.interval == reference.interval


def test_crash_at_every_post_checkpoint_boundary(tmp_path):
    """Kill between any two ops after the checkpoint: recovery rebuilds
    exactly the uncrashed prefix, at every single boundary."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, _, seqs = _durable_run(tmp_path, ops)
    wal = wal_path(directory)
    with open(wal, "r", encoding="utf-8") as handle:
        full_wal = handle.read()
    for boundary in range(CHECKPOINT_AT, len(ops)):
        with open(wal, "w", encoding="utf-8") as handle:
            handle.write(full_wal)
        truncate_wal_to_seq(directory, seqs[boundary])
        recovered = _recover(directory)
        assert system_digest(recovered) == reference_digest(ops[: boundary + 1]), (
            f"digest mismatch after crash at op boundary {boundary} "
            f"({ops[boundary][0]!r})"
        )
    _assert_probe_queries_valid(recovered)


def test_torn_final_wal_line_is_tolerated(tmp_path):
    """A kill mid-append leaves a partial record; recovery drops exactly
    that record and rebuilds the state before it."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, _, seqs = _durable_run(tmp_path, ops)
    truncate_wal_to_seq(directory, seqs[-2])
    tear_final_line(directory, keep_chars=25)
    recovered = _recover(directory)
    # The torn record was the last one of op -2, so the surviving state
    # is the prefix through op -3.
    assert system_digest(recovered) == reference_digest(ops[:-2])


def test_live_sink_crash_mid_write(tmp_path):
    """Kill the pipeline *during* a WAL write via the crashing sink; the
    torn trail recovers to a consistent, idempotently-recoverable state."""
    directory = str(tmp_path / "state")
    os.makedirs(directory)
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    system = build_system(directory)
    system.obs.events.detach_jsonl()
    sink = CrashingSink(wal_path(directory), crash_on_write=40, write_cut=17)
    system.obs.events.attach_jsonl(sink)
    with pytest.raises(SimulatedCrash):
        run_ops(system, ops, directory)
    once = _recover(directory)
    twice = _recover(directory)
    # A mid-write kill lands *inside* an op, so the recovered state is an
    # event-prefix (not an op-prefix): assert determinism + consistency.
    assert system_digest(once) == system_digest(twice)
    registrations = once.anonymizer._registrations
    assert set(registrations) <= set(once.users)
    published = sum(1 for r in registrations.values() if r.published)
    assert len(once.server.private) == len(
        {r.pseudonym for r in registrations.values() if r.published}
    ) == published
    _assert_probe_queries_valid(once)


def test_checkpoint_tmp_orphan_is_ignored(tmp_path):
    """A kill mid-checkpoint-write leaves ``<name>.npz.tmp``; the scan
    never considers it and recovery uses the previous good checkpoint."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, live, _ = _durable_run(tmp_path, ops)
    newest = list_checkpoints(directory)[-1]
    orphan = os.path.join(directory, "checkpoint-999999999999.npz.tmp")
    with open(newest, "rb") as handle:
        torn = handle.read()
    with open(orphan, "wb") as handle:
        handle.write(torn[: len(torn) // 2])
    assert all(p.suffix == ".npz" for p in list_checkpoints(directory))
    recovery = Recovery(directory, telemetry=Telemetry())
    recovered = recovery.recover()
    assert system_digest(recovered) == system_digest(live)
    assert recovery.report["checkpoint"] == newest.name
    assert not recovery.report["unreadable_checkpoints"]


def test_corrupt_newest_checkpoint_falls_back(tmp_path):
    """An unreadable newest checkpoint is skipped in favour of the older
    good one, and the skip is reported."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, live, seqs = _durable_run(tmp_path, ops)
    with open(list_checkpoints(directory)[-1], "rb") as handle:
        data = handle.read()
    bad = os.path.join(directory, f"checkpoint-{seqs[-1] + 1:012d}.npz")
    with open(bad, "wb") as handle:
        handle.write(data[: len(data) // 2])  # a torn archive
    recovery = Recovery(directory, telemetry=Telemetry())
    recovered = recovery.recover()
    assert system_digest(recovered) == system_digest(live)
    assert recovery.report["unreadable_checkpoints"]
    assert os.path.basename(bad) in recovery.report["unreadable_checkpoints"][0]


def _cut_points(data: bytes) -> dict[str, int]:
    """Where to cut a ``/3`` archive: halfway through its largest
    member's data, inside its central directory, and at zero bytes."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        largest = max(archive.infolist(), key=lambda info: info.compress_size)
    local = largest.header_offset
    name_length, extra_length = struct.unpack("<HH", data[local + 26 : local + 30])
    start = local + 30 + name_length + extra_length
    return {
        "member": start + largest.compress_size // 2,
        "central_directory": data.rindex(b"PK\x01\x02") + 10,
        "empty": 0,
    }


@pytest.mark.parametrize("cut", ["member", "central_directory", "empty"])
def test_a_torn_newest_checkpoint_falls_back_to_its_predecessor(tmp_path, cut):
    """A ``/3`` checkpoint cut short — inside a member, inside the
    central directory, or at zero bytes — is listed as unreadable, and
    recovery lands on the digest its predecessor gives."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, _, _ = _durable_run(tmp_path, ops)
    predecessor = list_checkpoints(directory)[-1]
    expected = system_digest(_recover(directory))
    system = _recover(directory, attach=True)
    system.apply_movement({"u0": Point(31.0, 29.0)})
    newest = system.checkpoint(directory)
    system.obs.events.detach_jsonl()
    assert system_digest(_recover(directory)) != expected
    with open(newest, "rb") as handle:
        data = handle.read()
    with open(newest, "wb") as handle:
        handle.write(data[: _cut_points(data)[cut]])
    recovery = Recovery(directory, telemetry=Telemetry())
    recovered = recovery.recover()
    assert recovery.report["checkpoint"] == predecessor.name
    (skipped,) = recovery.report["unreadable_checkpoints"]
    assert skipped.startswith(os.path.basename(newest))
    # The WAL tail past the predecessor still holds the move: recovery
    # replays it, so only the checkpoint, not the state, is lost.
    assert system_digest(recovered) == system_digest(system)
    assert recovery.report["wal_read"] == "tail"


def test_a_foreign_schema_manifest_is_refused(tmp_path):
    """An archive whose manifest names another schema is not read."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, live, _ = _durable_run(tmp_path, ops)
    newest = list_checkpoints(directory)[-1]
    with np.load(newest, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    manifest = json.loads(members["manifest"].tobytes())
    manifest["schema"] = "somebody.else/3"
    members["manifest"] = np.frombuffer(json.dumps(manifest).encode(), np.uint8)
    foreign = newest.with_name(f"checkpoint-{manifest['wal_seq'] + 1:012d}.npz")
    with open(foreign, "wb") as handle:
        np.savez(handle, **members)
    with pytest.raises(CheckpointError, match="repro.persist/3"):
        load_checkpoint(foreign)
    recovery = Recovery(directory, telemetry=Telemetry())
    recovered = recovery.recover()
    assert recovery.report["checkpoint"] == newest.name
    assert foreign.name in recovery.report["unreadable_checkpoints"][0]
    assert system_digest(recovered) == system_digest(live)


def test_cold_start_from_wal_alone(tmp_path):
    """No checkpoint was ever written: the wal-meta sidecar plus a full
    replay still rebuild the whole system."""
    ops = small_workload(checkpoint_after=None)
    directory, live, _ = _durable_run(tmp_path, ops)
    assert not list_checkpoints(directory)
    recovered = _recover(directory)
    assert system_digest(recovered) == system_digest(live)


def test_recover_twice_is_idempotent(tmp_path):
    """Recovery only reads: a second recovery of the same directory gives
    the same system, and the directory still recovers after that."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, live, _ = _durable_run(tmp_path, ops)
    first = _recover(directory)
    second = _recover(directory)
    assert system_digest(first) == system_digest(second) == system_digest(live)


def test_interior_wal_hole_refuses_recovery(tmp_path):
    """A missing *middle* record is silent data loss, not a crash tail:
    strict recovery refuses, best-effort mode proceeds."""
    ops = small_workload(checkpoint_after=None)
    directory, _, _ = _durable_run(tmp_path, ops)
    wal = wal_path(directory)
    with open(wal, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    del lines[len(lines) // 2]
    with open(wal, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    with pytest.raises(RecoveryError, match="sequence hole"):
        _recover(directory)
    recovered = _recover(directory, allow_gaps=True)
    assert len(recovered.users) > 0


def test_declared_ring_truncation_refuses_recovery(tmp_path):
    """A ``log.truncated`` marker in the trail (ring evicted unflushed
    events) blocks strict recovery with an explanatory error."""
    ops = small_workload(checkpoint_after=None)
    directory, _, _ = _durable_run(tmp_path, ops)
    wal = wal_path(directory)
    marker = {
        "kind": "log.truncated",
        "seq": 3,
        "first_seq": 3,
        "last_seq": 7,
        "lost": 5,
        "flushed_seq": 2,
    }
    with open(wal, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    lines.insert(2, json.dumps(marker) + "\n")
    with open(wal, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    with pytest.raises(RecoveryError, match="declared truncation"):
        _recover(directory)


def test_wal_tail_behind_checkpoint_refuses_recovery(tmp_path):
    """A WAL whose tail starts past checkpoint_seq + 1 (rotated away)
    cannot prove continuity and is refused."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, _, seqs = _durable_run(tmp_path, ops)
    checkpoint_seq = int(
        list_checkpoints(directory)[-1].stem.split("-")[1]
    )
    wal = wal_path(directory)
    with open(wal, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    kept = [
        line
        for line in lines
        if json.loads(line)["seq"] > checkpoint_seq + 3
    ]
    with open(wal, "w", encoding="utf-8") as handle:
        handle.writelines(kept)
    with pytest.raises(RecoveryError, match="missing"):
        _recover(directory)


def test_recovered_system_keeps_working(tmp_path):
    """Post-recovery, the system is not a museum piece: it cloaks,
    publishes, answers private queries, and can checkpoint again."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, _, _ = _durable_run(tmp_path, ops)
    recovered = _recover(directory)
    from repro.queries.spec import RangeSpec

    recovered.publish_all()
    outcome, answer = recovered.query(
        RangeSpec(flavor="private", user="u0", radius=30.0)
    )
    assert outcome.correct
    oracle = BruteForceOracle.from_server(recovered.server)
    user = recovered.users["u0"]
    truth = {
        item
        for item in oracle.public
        if user.location.distance_to(oracle.public[item]) <= 30.0
    }
    assert set(answer) == truth
    second = recovered.checkpoint(directory)
    assert os.path.exists(second)
    assert len(list_checkpoints(directory)) == 2


def test_reattach_keeps_wal_contiguous(tmp_path):
    """``recover(attach=True)`` resumes the same WAL: the persist.replayed
    record and all post-recovery events land seq-contiguously, so a
    second crash-recover cycle still passes the strict gap check."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT)
    directory, _, _ = _durable_run(tmp_path, ops)
    resumed = _recover(directory, attach=True)
    resumed.apply_movement({"u0": Point(30.0, 30.0)})
    resumed.publish_all()
    resumed.obs.events.detach_jsonl()
    final = _recover(directory)
    assert system_digest(final) == system_digest(resumed)
