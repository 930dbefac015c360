"""Golden bytes for the event log's JSONL form (the WAL's line format).

``tests/fixtures/events_golden.jsonl`` was written by the encoder as it
stood before the emit hot path was shaved (one ``json.dumps(...,
sort_keys=True, default=str)`` per event).  Whatever emit does to get
faster, a fixed event sequence must still serialise to those bytes: the
WAL is replayed by :mod:`repro.persist` and sized by the pipeline
benchmark's ``wal_bytes_per_update``.  Its ``regions.published_bulk``
line was rewritten, by the same encoder, when that event became columns,
and again when the columnar events took typed columns (``repro.wal/3``):
that line's ``sides`` and ``region`` and the ``users.moved`` line, a run
of three reports, carry ``{"dtype", "b64"}`` columns, written by the
encoder's ``default`` hook.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.obs.events import (
    CLOAK_BULK,
    CLOCK_ADVANCED,
    QUERY_COMPLETED,
    REGIONS_PUBLISHED_BULK,
    USER_ADMITTED,
    EventLog,
)
from repro.obs.metrics import MetricsRegistry

GOLDEN = Path(__file__).parent.parent / "fixtures" / "events_golden.jsonl"
#: A per-row kind the fixture was written with; the encoder takes any kind.
USER_MOVED = "user.moved"


def emit_fixed_sequence(log: EventLog) -> None:
    """Every value shape the pipeline puts on the wire, in a fixed order."""
    log.emit(USER_ADMITTED, user="u0", k=5, min_area=0.1, max_area=None)
    log.emit(USER_MOVED, user="u0", x=0.1 + 0.2, y=1e-07, t=3)
    log.emit(CLOCK_ADVANCED, dt=1.0, clock=1e22)
    log.emit(
        CLOAK_BULK, t=2.0, algo="grid", path="kernel", k=32, min_area=25.0,
        max_area=None, n=3, escalated=0, k_attained=3, area_attained=True,
        fully_attained=3, degraded=0, k_sum=99, k_min=33, area_sum=2197.265625,
        area_min=732.421875,
    )
    log.emit(
        REGIONS_PUBLISHED_BULK, n=3, rotated=0, area_sum=488.28125,
        path="kernel", algo="grid", escalated=0, degraded=0,
        users=["u0", "ü1", "u2"], pseudonyms=["p-000001", "p-000002", "p-000003"],
        sides=np.array([[0.0, 15.625, 15.625, 31.25], [984.375, 0.0, 1000.0, 15.625]]),
        region=np.array([0, 1, 0]),
    )
    # A run of reports: one users.moved line, closed by the next emit.
    for user, x, y in (("u0", 0.1 + 0.2, -0.0), ("ü1", 1e22, 5e-324), ("u2", 1e-07, 3.0)):
        log.append_move(user, x, y)
    # Non-JSON values go through ``default=str``.
    log.emit(QUERY_COMPLETED, region=Rect(0, 0, 1, 2), at=Point(0.5, 0.25),
             nested={"b": [1, {"z": None, "a": float("inf")}], "a": (1, 2)},
             qid="q-7", query="private_range", overhead=1.75)
    log.emit("custom.kind", note='quote " and \\ backslash\n', zero=-0.0)
    for i in range(3):
        log.emit(USER_MOVED, user=f"u{i}", x=float(i), y=i / 3, t=4)


def test_streamed_sink_is_byte_identical_to_golden():
    log = EventLog(registry=MetricsRegistry())
    sink = io.StringIO()
    log.attach_jsonl(sink)
    emit_fixed_sequence(log)
    assert sink.getvalue().encode("utf-8") == GOLDEN.read_bytes()


def test_dump_and_late_attach_backfill_are_byte_identical_to_golden():
    log = EventLog(registry=MetricsRegistry())
    emit_fixed_sequence(log)
    assert log.dump_jsonl().encode("utf-8") == GOLDEN.read_bytes()
    sink = io.StringIO()
    log.attach_jsonl(sink)
    assert sink.getvalue().encode("utf-8") == GOLDEN.read_bytes()


def test_per_kind_counters_survive_the_lookup_cache():
    telemetry = Telemetry()
    emit_fixed_sequence(telemetry.events)
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["events.emitted{kind=user.moved}"] == 4
    assert counters["events.emitted{kind=custom.kind}"] == 1
    # A reset drops the registry's counters; emit must tally into the
    # fresh ones, not into the ones it looked up before.
    telemetry.reset()
    telemetry.emit(USER_MOVED, user="u0", x=0.0, y=0.0, t=5)
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["events.emitted{kind=user.moved}"] == 1
