"""Runs of location reports, the row-weighted ring and the one-shot encoder.

``update_location`` appends a move to the event log's open run; the run
leaves as one columnar ``users.moved`` event under the correlation
scope its first row came in under (docs/durability.md, *Location
reports travel in runs*).
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import GridCloaker, MobileUser, PrivacyProfile, PrivacySystem
from repro.geometry import Point, Rect
from repro.obs import EventLog, Telemetry
from repro.obs.events import (
    CLOAK_BULK,
    CLOCK_ADVANCED,
    REGIONS_PUBLISHED_BULK,
    USERS_MOVED,
    _encode,
    encode_column,
    read_jsonl,
)
from repro.persist import load_checkpoint

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


def _system(n: int = 20) -> PrivacySystem:
    system = PrivacySystem(BOUNDS, GridCloaker(BOUNDS, cols=8), telemetry=Telemetry())
    for i in range(n):
        point = Point(5.0 * i % 100, 3.0 * i % 100)
        system.add_user(MobileUser(f"u{i}", point, PrivacyProfile.always(k=3)))
    system.publish_all(bulk=True)
    return system


def _kinds(log: EventLog) -> list[str]:
    return [event.kind for event in log.events()]


class TestRun:
    def test_a_bulk_tick_is_one_users_moved_event_outside_the_publish_scope(self):
        system = _system()
        log = system.obs.events
        before = log._seq
        for i in range(20):
            system.anonymizer.update_location(f"u{i}", Point(50.0, 1.0 + i))
        assert log._seq == before  # the run is open, nothing emitted yet
        system.publish_all(bulk=True)
        tick = [e for e in log.events() if e.seq > before]
        moved = [e for e in tick if e.kind == USERS_MOVED]
        assert len(moved) == 1
        (event,) = moved
        assert event.attrs["users"] == [f"u{i}" for i in range(20)]
        assert event.attrs["xs"].tolist() == [50.0] * 20
        assert event.attrs["ys"].tolist() == [1.0 + i for i in range(20)]
        # The run came in under no scope: it is not the publish batch's.
        assert "qid" not in event.attrs and "bid" not in event.attrs
        assert tick[0] is event  # emitted ahead of the publish it preceded
        assert tick[1].kind == CLOAK_BULK and tick[1].attrs["qid"].startswith("b-")

    def test_a_row_under_another_scope_closes_the_run(self):
        telemetry = Telemetry()
        log = telemetry.events
        log.append_move("a", 1.0, 2.0)
        with telemetry.correlate("q") as qid:
            log.append_move("b", 3.0, 4.0)
            log.append_move("c", 5.0, 6.0)
        log.append_move("d", 7.0, 8.0)
        runs = [event.attrs for event in log.events(USERS_MOVED)]
        assert [run["users"] for run in runs] == [["a"], ["b", "c"], ["d"]]
        assert "qid" not in runs[0] and "qid" not in runs[2]
        assert runs[1]["qid"] == qid

    def test_a_batch_scope_stamps_qid_and_bid_like_emit(self):
        telemetry = Telemetry()
        log = telemetry.events
        with telemetry.correlate("b") as bid:
            with telemetry.correlate("q") as qid:
                log.append_move("a", 1.0, 2.0)
                stamped = {"kind": "probe"}
                telemetry.correlation.stamp(stamped)
        (run,) = [event.attrs for event in log.events(USERS_MOVED)]
        assert (run["qid"], run["bid"]) == (qid, bid)
        assert (stamped["qid"], stamped["bid"]) == (qid, bid)

    def test_reports_reuse_the_callers_objects(self):
        """The user id is the caller's object; the coordinates leave as
        float arrays."""
        log = EventLog()
        user, x, y = "u7", 12.5, 3.25
        log.append_move(user, x, y)
        (event,) = log.events(USERS_MOVED)
        assert event.attrs["users"][0] is user
        for column, value in ((event.attrs["xs"], x), (event.attrs["ys"], y)):
            assert column.dtype == np.float64 and column.tolist() == [value]

    @pytest.mark.parametrize(
        "close",
        [
            lambda log: log.emit(CLOCK_ADVANCED, t=1.0),
            lambda log: list(log.events()),
            lambda log: log.counts(),
            lambda log: log.dump_jsonl(),
            lambda log: len(log),
            lambda log: log.close_run(),
            lambda log: log.detach_jsonl(),
            lambda log: log.disable(),
            lambda log: log.reset(),
        ],
        ids=[
            "emit", "events", "counts", "dump", "len",
            "close_run", "detach", "disable", "reset",
        ],
    )
    def test_the_run_reaches_the_sink_when_it_closes(self, close):
        sink = io.StringIO()
        log = EventLog()
        log.attach_jsonl(sink)
        log.append_move("a", 1.0, 2.0)
        log.append_move("b", 3.0, 4.0)
        assert sink.getvalue() == ""
        close(log)
        first = json.loads(sink.getvalue().splitlines()[0])
        assert first == {
            "kind": USERS_MOVED, "seq": 1, "users": ["a", "b"],
            "xs": encode_column(np.array([1.0, 3.0])),
            "ys": encode_column(np.array([2.0, 4.0])),
        }

    def test_a_disabled_log_keeps_no_run(self):
        log = EventLog(enabled=False)
        log.append_move("a", 1.0, 2.0)
        assert log.close_run() is None
        log.enable()
        assert len(log) == 0

    def test_apply_movement_emits_one_users_moved_per_call(self):
        system = _system(6)
        log = system.obs.events
        before = log._seq
        system.apply_movement({"u1": Point(10.0, 10.0), "u4": Point(90.0, 20.0)})
        moved = [e for e in log.events(USERS_MOVED) if e.seq > before]
        assert len(moved) == 1
        attrs = moved[0].attrs
        assert sorted(attrs) == ["users", "xs", "ys"]
        assert attrs["users"] == ["u1", "u4"]
        assert attrs["xs"].tolist() == [10.0, 90.0]
        assert attrs["ys"].tolist() == [10.0, 20.0]

    def test_checkpoint_and_rotation_close_the_run(self, tmp_path):
        system = _system(4)
        system.attach_wal(str(tmp_path))
        system.anonymizer.update_location("u0", Point(1.0, 1.0))
        checkpoint = system.checkpoint(str(tmp_path))
        wal = str(tmp_path / "wal.jsonl")
        (run,) = [e for e in read_jsonl(wal) if e.kind == USERS_MOVED]
        assert run.attrs["users"] == ["u0"]
        assert load_checkpoint(checkpoint)["wal_seq"] == run.seq  # the checkpoint covers it
        system.anonymizer.update_location("u1", Point(2.0, 2.0))
        segment = system.rotate_wal()
        sealed = read_jsonl(str(tmp_path / segment))
        runs = [e.attrs["users"] for e in sealed if e.kind == USERS_MOVED]
        assert runs == [["u0"], ["u1"]]
        system.obs.events.detach_jsonl()


class TestRowWeightedRing:
    def test_keep_counts_the_rows_of_a_run(self):
        log = EventLog(keep=10)
        for i in range(6):
            log.emit("cloak.attempt", i=i)
        for i in range(6):
            log.append_move(f"u{i}", 0.0, 0.0)
        log.close_run()
        # 6 + 6 rows > 10: the two oldest plain events went.
        assert [e.kind for e in log._ring] == ["cloak.attempt"] * 4 + [USERS_MOVED]
        assert log._held == 10

    def test_a_bulk_publication_weighs_its_regions(self):
        log = EventLog(keep=10)
        for i in range(5):
            log.emit("cloak.attempt", i=i)
        log.emit(REGIONS_PUBLISHED_BULK, n=4, users=["u"] * 4, region=[0] * 4)
        log.emit("cloak.attempt", i=5)
        assert len(log) == 7 and log._held == 10
        log.emit(REGIONS_PUBLISHED_BULK, n=12, users=["u"] * 12, region=[0] * 12)
        # The newest event stays even when it alone exceeds keep.
        assert _kinds(log)[-1] == REGIONS_PUBLISHED_BULK and len(log._ring) == 1
        log.emit("cloak.attempt", i=6)
        assert [e.kind for e in log._ring] == ["cloak.attempt"]

    def test_evicting_an_unstreamed_run_declares_one_lost_event(self):
        log = EventLog(keep=4)
        for i in range(3):
            log.append_move(f"u{i}", 0.0, 0.0)
        log.close_run()
        for _ in range(3):
            log.emit("cloak.attempt")
        marker = log.truncated
        assert marker.attrs["first_seq"] == marker.attrs["last_seq"] == 1
        assert marker.attrs["lost"] == 1


class TestEncoder:
    def test_circular_references_are_still_refused(self):
        document: dict = {"kind": "x"}
        document["self"] = document
        with pytest.raises(ValueError, match="[Cc]ircular"):
            _encode(document)
        assert _encode({"kind": "x"}) == '{"kind": "x"}'

    def test_a_failed_encode_does_not_poison_the_next(self):
        class Unprintable:
            def __str__(self) -> str:
                raise RuntimeError("no text form")

        document = {"kind": "x", "rows": [[1.0, Unprintable()]]}
        with pytest.raises(RuntimeError):
            _encode(document)
        # The same containers again: markers left behind by the failed
        # encode would refuse them as circular.
        document["rows"][0][1] = 2.0
        assert _encode(document) == '{"kind": "x", "rows": [[1.0, 2.0]]}'

    def test_matches_json_dumps(self):
        document = {
            "b": [1, {"z": None, "a": float("inf")}],
            "a": (1, 2),
            "u": "ü\n",
            "p": Point(1, 2),
        }
        assert _encode(document) == json.dumps(document, sort_keys=True, default=str)
