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

import pytest
from published_rows import rows_from_columns

from repro.core.system import PrivacySystem
from repro.obs import PrivacyAuditor, Telemetry
from repro.obs.events import (
    CLOAK_DEGRADED,
    CLOAK_RESULT,
    LOG_TRUNCATED,
    PLANNER_MEASURED,
    REGIONS_PUBLISHED_BULK,
    SERVER_QUERY,
    USERS_MOVED,
)
from repro.persist import (
    Recovery,
    RecoveryError,
    list_checkpoints,
    load_checkpoint,
    system_digest,
)
from repro.persist.checkpoint import OUTCOME_TYPES, ledger_fields

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


def _as_schema_2(state: dict) -> dict:
    """The ``repro.persist/2`` document a ``/2`` writer made of ``state``,
    without a ``wal_offset``."""
    columns = state["columns"]
    profiles = state["profiles"]

    def entries(name: str) -> list:
        block = columns[name].tolist()
        rows = [[i, *sides, *sides] if len(sides) == 2 else [i, *sides]
                for i, sides in zip(state["stores"][name]["ids"], block)]
        return sorted(rows)

    return {
        "schema": "repro.persist/2",
        **{key: state[key] for key in (
            "wal_seq", "clock", "bounds", "rotate_pseudonyms", "pseudonym_seq",
            "cloaker",
        )},
        "users": [
            [i, x, y, state["modes"][mode], speed, profiles[p]]
            for i, x, y, mode, speed, p in zip(
                state["users"], *(columns[name].tolist() for name in (
                    "xs", "ys", "modes", "speeds", "user_profiles"
                ))
            )
        ],
        "registrations": [
            [i, pseudonym, published, profiles[p]]
            for i, pseudonym, published, p in zip(
                state["registrations"], state["pseudonyms"],
                columns["published"].tolist(),
                columns["registration_profiles"].tolist(),
            )
        ],
        "server": state["server"],
        "stores": {
            name: {
                "version": state["stores"][name]["version"],
                "index": {
                    "backend": "rtree",
                    "params": {"max_entries": 16, "min_entries": 8},
                    "entries": entries(name),
                },
            }
            for name in ("public", "private")
        },
        "ledger": {
            key: [
                [user, *values]
                for user, *values in zip(state["ledger"][key], *(
                    columns[f"ledger.{key}.{name}"].tolist()
                    for name, _ in ledger_fields(outcome_type)
                ))
            ]
            for key, outcome_type in OUTCOME_TYPES.items()
        },
    }


def test_a_schema_1_checkpoint_and_a_per_row_user_moved_wal_still_recover(tmp_path):
    """A ``/2`` checkpoint without a usable ``wal_offset`` (the kind a
    ``/1`` document was) still gets the full WAL read and recovers."""
    ops = report_workload()
    directory, live, _ = _durable_run(tmp_path, ops)
    path, state = _checkpoint_document(directory)
    os.remove(path)
    document = _as_schema_2(state)
    assert "wal_offset" not in document
    with open(path.removesuffix(".npz") + ".json", "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    recovered, report = _recover(directory)
    assert report["checkpoint"].endswith(".json")
    assert report["wal_read"] == "full"
    assert system_digest(recovered) == system_digest(live)


def _with_retired_kinds(records: list[dict], first_seq: int) -> list[dict]:
    """``records`` as a writer of ``cloak.attempt``, ``candidates.generated``
    and ``batch.executed`` wrote them, renumbered from ``first_seq``."""
    out: list[dict] = []
    for record in records:
        record = dict(record)
        kind = record["kind"]
        ids = {name: record[name] for name in ("qid", "bid") if name in record}
        if kind == CLOAK_RESULT:
            out.append({"kind": "cloak.attempt", **ids, **{
                name: record[name]
                for name in ("user", "t", "algo", "k", "min_area", "max_area")
            }})
        elif kind == PLANNER_MEASURED and "candidates" in record:
            moved = {
                name: record.pop(name)
                for name in ("method", "candidates", "region_area", "radius")
                if name in record
            }
            out.append({"kind": "candidates.generated", **ids,
                        "query": record["query"], **moved})
        out.append(record)
        if kind == SERVER_QUERY:
            out.append({"kind": "batch.executed", **ids, "size": record["n"],
                        "kinds": {record["query"]: record["n"]}})
    renumbered = {record["seq"]: first_seq + i
                  for i, record in enumerate(out) if "seq" in record}
    for i, record in enumerate(out):
        record["seq"] = first_seq + i
        if record["kind"] == CLOAK_DEGRADED:
            record["result_seq"] = renumbered[record["result_seq"]]
    return out


def test_a_tail_with_the_retired_duplicate_kinds_recovers_and_audits_the_same(
    tmp_path,
):
    """A WAL whose tail still holds the three kinds that only repeated
    another record's facts recovers to the same digest, and audits to
    the same report, as the same tail without them."""
    directory, live, _ = _durable_run(tmp_path, small_workload())
    _, state = _checkpoint_document(directory)
    lines = _wal_lines(directory)
    head = [line for line in lines if json.loads(line)["seq"] <= state["wal_seq"]]
    tail = [json.loads(line) for line in lines[len(head):]]
    old_tail = _with_retired_kinds(tail, state["wal_seq"] + 1)
    assert {r["kind"] for r in old_tail} - {r["kind"] for r in tail} == {
        "cloak.attempt", "candidates.generated", "batch.executed",
    }

    current = PrivacyAuditor.from_jsonl(wal_path(directory)).report()
    assert current["totals"]["cloaks"] > 0
    _write_wal(directory, head + [
        json.dumps(record, sort_keys=True) + "\n" for record in old_tail
    ])
    recovered, report = _recover(directory)
    assert report["wal_read"] == "tail"
    assert system_digest(recovered) == system_digest(live)
    assert PrivacyAuditor.from_jsonl(wal_path(directory)).report() == current


@pytest.mark.parametrize("rotate", [False, True])
def test_a_row_form_published_bulk_tail_recovers_and_audits_the_same(
    tmp_path, rotate
):
    """A WAL tail whose bulk publications are in the row form (one
    ``[user, pseudonym, min_x, min_y, max_x, max_y]`` list per user under
    ``regions``) recovers to the same digest, with the same report, and
    audits to the same report as the column-form tail it was made from."""
    directory = str(tmp_path / "state")
    os.makedirs(directory)
    live = build_system(directory, rotate=rotate)
    run_ops(live, small_workload(), directory)
    live.obs.events.detach_jsonl()
    columns, columns_report = _recover(directory)
    current = PrivacyAuditor.from_jsonl(wal_path(directory)).report()

    _, state = _checkpoint_document(directory)
    lines = _wal_lines(directory)
    rewritten = 0
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["seq"] <= state["wal_seq"] or record["kind"] != REGIONS_PUBLISHED_BULK:
            continue
        record["regions"] = rows_from_columns(record)
        for column in ("users", "pseudonyms", "sides", "region"):
            del record[column]
        lines[i] = json.dumps(record, sort_keys=True) + "\n"
        rewritten += 1
    assert rewritten == 3
    _write_wal(directory, lines)
    rows, rows_report = _recover(directory)
    assert rows_report == columns_report and rows_report["wal_read"] == "tail"
    assert system_digest(rows) == system_digest(columns) == system_digest(live)
    assert PrivacyAuditor.from_jsonl(wal_path(directory)).report() == current
