"""Crash contract for runs of location reports, and the WAL tail read.

A move reported through ``update_location`` joins the event log's open
run and is durable once the run closes as one ``users.moved`` line
(docs/durability.md).  Recovery parses only the WAL tail past the
checkpoint's recorded offset, and falls back to the full read, with all
its refusals, whenever that offset does not land on the tail's first
line.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.system import PrivacySystem
from repro.obs import PrivacyAuditor, Telemetry
from repro.obs.events import (
    LOG_TRUNCATED,
    REGIONS_PUBLISHED_BULK,
    USERS_MOVED,
    read_jsonl,
)
from repro.persist import (
    META_NAME,
    CheckpointError,
    Recovery,
    RecoveryError,
    list_checkpoints,
    load_checkpoint,
    system_digest,
)
from repro.persist import recovery as recovery_module
from repro.persist.checkpoint import WAL_FORM

from harness import (
    build_system,
    reference_digest,
    run_ops,
    small_workload,
    tear_final_line,
    truncate_wal_to_seq,
    wal_path,
)

CHECKPOINT_AT = 7


def report_workload() -> list[tuple]:
    """Reports between publishes, the first one after the checkpoint."""
    return [
        ("poi", "p0", 10.0, 10.0),
        ("poi", "p1", 50.0, 55.0),
        ("user", "u0", 20.0, 20.0, 2, 0.0),
        ("user", "u1", 25.0, 22.0, 2, 0.0),
        ("user", "u2", 70.0, 70.0, 2, 0.0),
        ("user", "u3", 72.0, 68.0, 2, 0.0),
        ("publish_bulk",),
        ("checkpoint",),
        # The far corner is inside the universe: its cell is the last one.
        ("report", [("u0", 21.0, 23.0), ("u2", 66.0, 72.0), ("u3", 100.0, 100.0)]),
        ("publish_bulk",),
        ("report", [("u1", 30.0, 30.0), ("u0", 22.0, 24.0), ("u1", 31.0, 29.0)]),
        ("range", "u1", 20.0),
        ("report", [("u3", 71.0, 69.0)]),
        ("mode", "u3", "passive"),
        ("publish",),
    ]


def _recover(directory, **kwargs) -> tuple[PrivacySystem, dict]:
    recovery = Recovery(directory, telemetry=Telemetry(), **kwargs)
    system = recovery.recover()
    return system, recovery.report


def _durable_run(tmp_path, ops):
    directory = str(tmp_path / "state")
    os.makedirs(directory)
    system = build_system(directory)
    seqs = run_ops(system, ops, directory)
    system.obs.events.detach_jsonl()
    return directory, system, seqs


def _wal_lines(directory) -> list[str]:
    with open(wal_path(directory), "r", encoding="utf-8") as handle:
        return handle.readlines()


def _write_wal(directory, lines) -> None:
    with open(wal_path(directory), "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _wal_meta(directory) -> dict:
    with open(os.path.join(directory, META_NAME), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_wal_meta(directory, meta: dict) -> None:
    with open(os.path.join(directory, META_NAME), "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def _as_pre_marker(directory) -> None:
    """Rewrite the sidecar as a build before the WAL-form marker wrote it:
    ``schema`` naming the checkpoint schema, and no ``wal``."""
    meta = _wal_meta(directory)
    assert meta.pop("wal") == WAL_FORM
    _write_wal_meta(directory, {"schema": "repro.persist/3", **meta})


def _checkpoint_document(directory) -> tuple[str, dict]:
    path = list_checkpoints(directory)[-1]
    return str(path), load_checkpoint(path)


def test_a_report_is_durable_once_its_run_closes(tmp_path):
    """Cut at a ``report`` boundary: the run never reached the WAL, so
    recovery lands before the report.  Cut after the next op: the run
    closed ahead of that op's first event, so the moves are back."""
    ops = report_workload()
    directory, _, seqs = _durable_run(tmp_path, ops)
    full_wal = _wal_lines(directory)
    reports = [i for i, op in enumerate(ops) if op[0] == "report"]
    assert reports and all(i > CHECKPOINT_AT for i in reports)
    for i in reports:
        assert seqs[i] == seqs[i - 1]  # nothing emitted by the report itself
        before, moved = reference_digest(ops[:i]), reference_digest(ops[: i + 2])
        assert before != reference_digest(ops[: i + 1])
        for boundary, expected in ((i, before), (i + 1, moved)):
            _write_wal(directory, full_wal)
            truncate_wal_to_seq(directory, seqs[boundary])
            recovered, report = _recover(directory)
            assert system_digest(recovered) == expected, (i, boundary)
            assert report["wal_read"] == "tail"


def test_a_torn_final_users_moved_line_drops_the_whole_run(tmp_path):
    ops = report_workload()
    directory, _, seqs = _durable_run(tmp_path, ops)
    report_at = next(i for i, op in enumerate(ops) if op[0] == "report")
    moved = [
        json.loads(line)
        for line in _wal_lines(directory)
        if json.loads(line)["kind"] == USERS_MOVED
    ]
    first_run = moved[0]
    assert first_run["users"] == ["u0", "u2", "u3"]
    truncate_wal_to_seq(directory, first_run["seq"])
    tear_final_line(directory, keep_chars=60)
    recovered, _ = _recover(directory)
    # Not one of the run's rows is applied: the state is the one before it.
    assert system_digest(recovered) == reference_digest(ops[:report_at])


def test_recovery_parses_only_the_tail_past_the_checkpoint(tmp_path):
    ops = report_workload()
    directory, live, _ = _durable_run(tmp_path, ops)
    _, document = _checkpoint_document(directory)
    offset = document["wal_offset"]
    with open(wal_path(directory), "rb") as handle:
        data = handle.read()
    assert data[offset - 1 : offset] == b"\n"
    assert json.loads(data[offset:].split(b"\n", 1)[0])["seq"] == document["wal_seq"] + 1
    recovered, report = _recover(directory)
    assert report["wal_read"] == "tail"
    assert report["wal_events"] == len(data[offset:].splitlines())
    assert report["wal_events"] < len(data.splitlines())
    assert system_digest(recovered) == system_digest(live)


@pytest.mark.parametrize("damage", ["hole", "marker"])
def test_damage_before_the_checkpoint_offset_forces_the_full_read(tmp_path, damage):
    """A hole or a declared truncation in the covered prefix moves the
    line at the offset: the full read runs and refuses the trail."""
    ops = report_workload()
    directory, _, _ = _durable_run(tmp_path, ops)
    lines = _wal_lines(directory)
    if damage == "hole":
        del lines[3]
        match = "sequence hole"
    else:
        marker = {
            "kind": LOG_TRUNCATED, "seq": 3, "first_seq": 3, "last_seq": 3, "lost": 1
        }
        lines.insert(3, json.dumps(marker, sort_keys=True) + "\n")
        match = "declared truncation"
    _write_wal(directory, lines)
    with pytest.raises(RecoveryError, match=match):
        _recover(directory)
    _, report = _recover(directory, allow_gaps=True)
    assert report["wal_read"] == "full"


def test_an_offset_on_another_lines_start_falls_back_to_the_full_read(tmp_path):
    """The covered prefix rewritten with the same records in fewer bytes,
    so the recorded offset lands exactly on the start of the line after
    the tail's first: the tail read is not taken, and the full read
    recovers the trail."""
    ops = report_workload()
    directory, live, _ = _durable_run(tmp_path, ops)
    _, document = _checkpoint_document(directory)
    offset = document["wal_offset"]
    with open(wal_path(directory), "rb") as handle:
        data = handle.read()
    prefix, tail = data[:offset], data[offset:]
    first = tail[: tail.index(b"\n") + 1]
    compact = [
        json.dumps(json.loads(line), separators=(",", ":")).encode() + b"\n"
        for line in prefix.splitlines()
    ]
    padding = offset + len(first) - sum(map(len, compact))
    assert padding >= 0
    compact[0] = compact[0][:-1] + b" " * padding + b"\n"  # JSON whitespace
    with open(wal_path(directory), "wb") as handle:
        handle.write(b"".join(compact) + tail)
    recovered, report = _recover(directory)
    assert report["wal_read"] == "full"
    assert system_digest(recovered) == system_digest(live)


def test_a_checkpoint_without_a_wal_offset_gets_the_full_read(tmp_path):
    """A ``/3`` manifest whose ``wal_offset`` is ``null`` (no usable
    offset, as the first checkpoints had) gets the full WAL read and
    recovers."""
    ops = report_workload()
    directory, live, _ = _durable_run(tmp_path, ops)
    path, _ = _checkpoint_document(directory)
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    manifest = json.loads(members["manifest"].tobytes())
    manifest["wal_offset"] = None
    members["manifest"] = np.frombuffer(json.dumps(manifest).encode(), np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, **members)
    assert load_checkpoint(path)["wal_offset"] is None
    recovered, report = _recover(directory)
    assert report["checkpoint"] == os.path.basename(path)
    assert report["wal_read"] == "full"
    assert system_digest(recovered) == system_digest(live)


def _as_wal_2(lines: list[str]) -> list[str]:
    """``lines`` as the writer of ``repro.wal/2`` wrote them: every typed
    column read back and written as the list it stands for."""
    out = []
    for event in read_jsonl(lines):
        record = {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in event.to_dict().items()
        }
        out.append(json.dumps(record, sort_keys=True) + "\n")
    return out


def test_a_wal_2_tail_with_list_columns_recovers_and_audits_the_same(tmp_path):
    """A ``repro.wal/2`` tail, whose ``users.moved`` and
    ``regions.published_bulk`` lines carry lists where this build writes
    typed columns, recovers to the same digest, with the same query
    count, and audits to the same report as the tail this build wrote."""
    directory = str(tmp_path / "state")
    os.makedirs(directory)
    live = build_system(directory, rotate=True)
    run_ops(live, small_workload(), directory)
    live.obs.events.detach_jsonl()
    _, state = _checkpoint_document(directory)
    lines = _wal_lines(directory)
    head = [line for line in lines if json.loads(line)["seq"] <= state["wal_seq"]]
    old_tail = _as_wal_2(lines[len(head):])
    changed = {
        json.loads(line)["kind"]
        for line, old in zip(lines[len(head):], old_tail)
        if json.loads(line) != json.loads(old)
    }
    assert changed == {USERS_MOVED, REGIONS_PUBLISHED_BULK}

    current = PrivacyAuditor.from_jsonl(wal_path(directory)).report()
    assert current["totals"]["cloaks"] > 0
    _write_wal(directory, head + old_tail)
    _write_wal_meta(directory, {**_wal_meta(directory), "wal": "repro.wal/2"})
    recovered, report = _recover(directory)
    assert report["wal_read"] == "tail"
    assert system_digest(recovered) == system_digest(live)
    assert recovered.server.queries_served == live.server.queries_served > 0
    assert PrivacyAuditor.from_jsonl(wal_path(directory)).report() == current


def test_a_wal_1_directory_is_refused_and_not_attached(tmp_path):
    """``repro.wal/1`` is no longer read, whatever its file holds: a ``/1``
    label on a file that a ``/2`` build appended to (it kept the label
    until a rotation) is refused like any other ``/1`` file.  Recovery
    raises naming the form, and ``attach_wal`` writes nothing."""
    directory, _, _ = _durable_run(tmp_path, report_workload())
    _write_wal(directory, _as_wal_2(_wal_lines(directory)))
    _write_wal_meta(directory, {**_wal_meta(directory), "wal": "repro.wal/1"})
    files = {path.name: path.read_bytes() for path in Path(directory).iterdir()}
    with pytest.raises(RecoveryError, match="'repro.wal/1'"):
        _recover(directory)
    system = build_system()
    with pytest.raises(CheckpointError, match="'repro.wal/1'"):
        system.attach_wal(directory)
    assert system.obs.events._sink is None
    assert {path.name: path.read_bytes() for path in Path(directory).iterdir()} == files


@pytest.mark.parametrize("checkpoint", [True, False])
def test_a_foreign_wal_form_is_refused_before_anything_is_built(
    tmp_path, monkeypatch, checkpoint
):
    """A sidecar naming a WAL form this build does not write is refused,
    with or without a checkpoint, before a checkpoint is listed or a
    system is built."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT if checkpoint else None)
    directory, _, _ = _durable_run(tmp_path, ops)
    assert bool(list_checkpoints(directory)) == checkpoint
    _write_wal_meta(directory, {**_wal_meta(directory), "wal": "repro.wal/99"})

    def built(*_args, **_kwargs):
        raise AssertionError("recovery went past the WAL form")

    monkeypatch.setattr(recovery_module, "list_checkpoints", built)
    monkeypatch.setattr(recovery_module, "PrivacySystem", built)
    with pytest.raises(RecoveryError, match="'repro.wal/99'"):
        _recover(directory)


@pytest.mark.parametrize("checkpoint", [True, False])
def test_a_pre_marker_directory_is_refused_and_not_attached(
    tmp_path, monkeypatch, checkpoint
):
    """A directory written before the sidecar named the WAL form (``schema``
    and no ``wal``) is refused, with or without a checkpoint, before a
    checkpoint is listed or a system is built; ``attach_wal`` on it
    raises before it writes anything."""
    ops = small_workload(checkpoint_after=CHECKPOINT_AT if checkpoint else None)
    directory, _, _ = _durable_run(tmp_path, ops)
    assert bool(list_checkpoints(directory)) == checkpoint
    _as_pre_marker(directory)
    files = {path.name: path.read_bytes() for path in Path(directory).iterdir()}

    system = build_system()
    with pytest.raises(CheckpointError, match="form None"):
        system.attach_wal(directory)
    assert system.obs.events._sink is None
    assert {path.name: path.read_bytes() for path in Path(directory).iterdir()} == files

    def built(*_args, **_kwargs):
        raise AssertionError("recovery went past the WAL form")

    monkeypatch.setattr(recovery_module, "list_checkpoints", built)
    monkeypatch.setattr(recovery_module, "PrivacySystem", built)
    with pytest.raises(RecoveryError, match="form None"):
        _recover(directory, attach=True)


def test_attaching_keeps_the_recorded_form_and_rotation_records_this_one(
    tmp_path,
):
    """``Recovery(attach=True)`` on a ``repro.wal/2`` directory leaves it
    ``repro.wal/2``: the lines in ``wal.jsonl`` were written in that
    form, and this build's typed lines appended to them read too, in one
    file.  A later rotation starts a fresh file, and the sidecar names
    this build's form for it."""
    directory, live, _ = _durable_run(tmp_path, report_workload())
    _write_wal(directory, _as_wal_2(_wal_lines(directory)))
    _write_wal_meta(directory, {**_wal_meta(directory), "wal": "repro.wal/2"})
    system, _ = _recover(directory, attach=True)
    assert _wal_meta(directory)["wal"] == "repro.wal/2"
    assert system_digest(system) == system_digest(live)
    run_ops(system, [("report", [("u1", 33.0, 31.0)]), ("publish_bulk",)], directory)
    system.obs.events.detach_jsonl()
    columnar = [
        record
        for record in map(json.loads, _wal_lines(directory))
        if record["kind"] in (USERS_MOVED, REGIONS_PUBLISHED_BULK)
    ]
    typed = [isinstance(record.get("xs", record.get("sides")), dict) for record in columnar]
    assert not typed[0] and typed[-1]  # both forms in one file
    recovered, _ = _recover(directory)
    assert system_digest(recovered) == system_digest(system)
    system.attach_wal(directory)
    assert system.rotate_wal() is not None
    assert _wal_meta(directory)["wal"] == WAL_FORM
    system.checkpoint(directory)
    system.obs.events.detach_jsonl()
    recovered, report = _recover(directory)
    assert report["wal_read"] == "tail"
    assert system_digest(recovered) == system_digest(system)
