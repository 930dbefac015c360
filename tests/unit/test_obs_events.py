"""The structured event log (repro.obs.events) and its pipeline wiring."""

import io
import json

import numpy as np
import pytest

from repro import (
    MobileUser,
    NNSpec,
    PrivacyProfile,
    PrivacySystem,
    PyramidCloaker,
    RangeSpec,
)
from repro.geometry import Point, Rect
from repro.obs import EVENT_KINDS, Event, EventLog, MetricsRegistry, Telemetry
from repro.obs.events import (
    CLOAK_BULK,
    CLOAK_RESULT,
    PLANNER_DECISION,
    PLANNER_MEASURED,
    QUERY_COMPLETED,
    REGION_PUBLISHED,
    SNAPSHOT_CAPTURED,
    SNAPSHOT_REUSED,
    USER_ADMITTED,
    USER_RETIRED,
    read_jsonl,
)


class TestEvent:
    def test_to_dict_flattens_attrs(self):
        event = Event(3, "cloak.result", {"user": "u1", "k": 5})
        assert event.to_dict() == {"seq": 3, "kind": "cloak.result", "user": "u1", "k": 5}

    def test_from_dict_round_trips(self):
        event = Event(7, "query.completed", {"overhead": 2.5, "correct": True})
        assert Event.from_dict(event.to_dict()) == event

    def test_kinds_are_unique_and_dotted(self):
        assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)
        assert all("." in kind for kind in EVENT_KINDS)


class TestEventLog:
    def test_emit_records_and_returns_seq(self):
        log = EventLog()
        assert log.emit("cloak.attempt", user="a") == 1
        assert log.emit("cloak.result", user="a") == 2
        events = list(log.events())
        assert [e.kind for e in events] == ["cloak.attempt", "cloak.result"]
        assert [e.seq for e in events] == [1, 2]

    def test_disabled_emit_is_dropped_and_returns_none(self):
        log = EventLog(enabled=False)
        assert log.emit("cloak.attempt") is None
        assert len(log) == 0
        log.enable()
        assert log.emit("cloak.attempt") == 1

    def test_ring_buffer_bounds_memory(self):
        log = EventLog(keep=4)
        for i in range(10):
            log.emit("cloak.attempt", i=i)
        events = list(log.events())
        # Ring holds 4; a pinned log.truncated marker declares the six
        # events that fell off without ever reaching a sink.
        assert len(log) == 4
        assert len(events) == 5
        marker, *kept = events
        assert marker.kind == "log.truncated"
        assert marker.attrs == {
            "first_seq": 1,
            "last_seq": 6,
            "lost": 6,
            "flushed_seq": 0,
        }
        # Oldest fell off the front; sequence numbers keep counting.
        assert [e.attrs["i"] for e in kept] == [6, 7, 8, 9]
        assert kept[-1].seq == 10

    def test_kind_filter_and_counts(self):
        log = EventLog()
        log.emit("cloak.attempt")
        log.emit("cloak.result")
        log.emit("cloak.attempt")
        assert len(list(log.events("cloak.attempt"))) == 2
        assert log.counts() == {"cloak.attempt": 2, "cloak.result": 1}

    def test_registry_counters_tallied_per_kind(self):
        registry = MetricsRegistry()
        log = EventLog(registry)
        log.emit("cloak.attempt")
        log.emit("cloak.attempt")
        log.emit("cloak.result")
        counters = registry.snapshot()["counters"]
        assert counters["events.emitted{kind=cloak.attempt}"] == 2
        assert counters["events.emitted{kind=cloak.result}"] == 1

    def test_reset_clears_ring_but_not_sequence(self):
        log = EventLog()
        log.emit("cloak.attempt")
        log.reset()
        assert len(log) == 0
        assert log.emit("cloak.attempt") == 2


class TestTruncationMarker:
    """The ring is bounded; the WAL must be complete — lossy evictions
    leave a pinned ``log.truncated`` marker declaring the gap."""

    def test_no_marker_until_a_lossy_eviction(self):
        log = EventLog(keep=3)
        for _ in range(3):
            log.emit("cloak.attempt")
        assert log.truncated is None
        log.emit("cloak.attempt")  # evicts seq 1, never flushed
        marker = log.truncated
        assert marker is not None and marker.kind == "log.truncated"
        assert marker.attrs["first_seq"] == marker.attrs["last_seq"] == 1
        assert marker.attrs["lost"] == 1

    def test_consecutive_evictions_widen_marker_in_place(self):
        log = EventLog(keep=2)
        for _ in range(6):
            log.emit("cloak.attempt")
        marker = log.truncated
        assert marker.attrs == {
            "first_seq": 1,
            "last_seq": 4,
            "lost": 4,
            "flushed_seq": 0,
        }
        # One marker, not one per eviction.
        events = list(log.events())
        assert sum(1 for e in events if e.kind == "log.truncated") == 1

    def test_streamed_evictions_are_not_lossy(self):
        sink = io.StringIO()
        log = EventLog(keep=2)
        log.attach_jsonl(sink)
        for _ in range(6):
            log.emit("cloak.attempt")
        # Every event reached the sink before falling off the ring.
        assert log.truncated is None
        assert len(sink.getvalue().splitlines()) == 6

    def test_late_attach_backfills_ring_and_declares_prior_loss(self):
        sink = io.StringIO()
        log = EventLog(keep=2)
        log.emit("cloak.attempt")
        log.emit("cloak.attempt")
        log.emit("cloak.attempt")  # seq 1 lost before any sink existed
        log.attach_jsonl(sink)
        for _ in range(4):
            log.emit("cloak.attempt")
        # The attach backfilled the surviving ring (seqs 2, 3) behind the
        # marker declaring seq 1 gone, then streamed 4..7 live: a trail
        # that is complete from seq 2 on and honest about seq 1.
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [l["kind"] for l in lines][0] == "log.truncated"
        assert [l["seq"] for l in lines[1:]] == [2, 3, 4, 5, 6, 7]
        # Nothing evicted after the backfill was unflushed, so the
        # marker never widens past the pre-attach loss.
        assert log.truncated.attrs == {
            "first_seq": 1,
            "last_seq": 1,
            "lost": 1,
            "flushed_seq": 0,
        }

    def test_reattach_does_not_duplicate_streamed_events(self):
        first, second = io.StringIO(), io.StringIO()
        log = EventLog(keep=4)
        log.attach_jsonl(first)
        log.emit("cloak.attempt")
        log.emit("cloak.attempt")
        log.detach_jsonl()
        log.emit("cloak.attempt")  # unstreamed, still in ring
        log.attach_jsonl(second)
        log.emit("cloak.attempt")
        # Only the event the first sink never saw is backfilled.
        assert [json.loads(l)["seq"] for l in second.getvalue().splitlines()] == [3, 4]

    def test_reset_clears_the_marker(self):
        log = EventLog(keep=1)
        log.emit("cloak.attempt")
        log.emit("cloak.attempt")
        assert log.truncated is not None
        log.reset()
        assert log.truncated is None

    def test_dump_jsonl_leads_with_marker(self):
        log = EventLog(keep=1)
        log.emit("cloak.attempt")
        log.emit("cloak.result")
        lines = [json.loads(l) for l in log.dump_jsonl().splitlines()]
        assert lines[0]["kind"] == "log.truncated"
        assert lines[1]["kind"] == "cloak.result"

    def test_strict_read_refuses_self_declared_truncation(self):
        log = EventLog(keep=1)
        log.emit("cloak.attempt")
        log.emit("cloak.result")
        trail = log.dump_jsonl().splitlines()
        assert read_jsonl(trail) == list(log.events())  # lenient passes it
        with pytest.raises(ValueError, match="truncation"):
            read_jsonl(trail, strict=True)


class TestJsonl:
    def test_stream_sink_receives_every_event(self):
        sink = io.StringIO()
        log = EventLog()
        log.attach_jsonl(sink)
        log.emit("cloak.result", user="u", area=4.0)
        log.detach_jsonl()
        log.emit("cloak.result", user="v")  # after detach: not streamed
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert len(lines) == 1
        assert lines[0]["user"] == "u" and lines[0]["area"] == 4.0

    def test_path_sink_appends_and_read_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        log.attach_jsonl(str(path))
        log.emit("cloak.attempt", user="a", k=3)
        log.emit("cloak.result", user="a", k=3, area=1.5)
        log.detach_jsonl()
        events = read_jsonl(str(path))
        assert [e.kind for e in events] == ["cloak.attempt", "cloak.result"]
        assert events[1].attrs["area"] == 1.5
        assert events == list(log.events())

    def test_dump_jsonl_matches_ring(self):
        log = EventLog()
        log.emit("cloak.attempt", user="a")
        text = log.dump_jsonl()
        assert read_jsonl(text.splitlines()) == list(log.events())

    def test_dump_jsonl_empty_log_is_empty_string(self):
        assert EventLog().dump_jsonl() == ""

    def test_truncated_final_line_is_dropped(self, tmp_path):
        # A crash mid-write leaves a half-serialised last record; the
        # reader salvages everything before it.
        log = EventLog()
        log.emit("cloak.attempt", user="a")
        log.emit("cloak.result", user="a", area=2.0)
        path = tmp_path / "crashed.jsonl"
        path.write_text(log.dump_jsonl() + '{"seq": 3, "kind": "cloak.re')
        events = read_jsonl(str(path))
        assert [e.kind for e in events] == ["cloak.attempt", "cloak.result"]

    def test_truncated_final_line_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        path.write_text('{"seq": 1, "kind": "cloak.attempt"}\n{"seq": 2, "ki')
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(str(path), strict=True)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        # Only the *final* line gets the crash-tolerance benefit of the
        # doubt; garbage in the middle is real corruption.
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            '{"seq": 1, "kind": "cloak.attempt"}\n'
            "NOT JSON\n"
            '{"seq": 3, "kind": "cloak.result"}\n'
        )
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(str(path))

    def test_trailing_blank_lines_do_not_mask_truncation(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        path.write_text('{"seq": 1, "kind": "cloak.attempt"}\n{"seq": 2\n\n')
        events = read_jsonl(str(path))
        assert [e.seq for e in events] == [1]


class TestTelemetryIntegration:
    def test_emit_bound_on_telemetry(self):
        obs = Telemetry()
        obs.emit("cloak.attempt", user="x")
        assert [e.kind for e in obs.events.events()] == ["cloak.attempt"]

    def test_events_follow_enabled_by_default(self):
        assert Telemetry(enabled=False).events.enabled is False
        assert Telemetry(enabled=True).events.enabled is True

    def test_events_enabled_override(self):
        obs = Telemetry(enabled=False, events_enabled=True)
        assert obs.events.enabled is True
        obs.emit("cloak.attempt")
        assert len(obs.events) == 1

    def test_snapshot_carries_events_section(self):
        obs = Telemetry()
        obs.emit("cloak.attempt")
        obs.emit("cloak.attempt")
        assert obs.snapshot()["events"] == {"cloak.attempt": 2}

    def test_reset_clears_events(self):
        obs = Telemetry()
        obs.emit("cloak.attempt")
        obs.reset()
        assert len(obs.events) == 0


def small_population() -> PrivacySystem:
    """15 POIs and 60 users asking for k = 5, nothing published yet."""
    rng = np.random.default_rng(3)
    bounds = Rect(0, 0, 100, 100)
    system = PrivacySystem(bounds, PyramidCloaker(bounds, height=6))
    for j in range(15):
        x, y = rng.uniform(0, 100, 2)
        system.add_poi(f"poi-{j}", Point(float(x), float(y)))
    for i in range(60):
        x, y = rng.uniform(0, 100, 2)
        system.add_user(
            MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=5))
        )
    return system


@pytest.fixture(scope="module")
def worked_system():
    """A small end-to-end workload whose events the tests inspect."""
    system = small_population()
    system.publish_all()
    for i in range(6):
        system.query(RangeSpec(flavor="private", user=i, radius=10.0))
        system.query(NNSpec(flavor="private", user=i))
    return system


class TestPipelineEmission:
    def test_admission_events(self, worked_system):
        admitted = list(worked_system.obs.events.events(USER_ADMITTED))
        assert len(admitted) == 60
        assert admitted[0].attrs["pseudonym"].startswith("anon-")

    def test_cloak_results_carry_audit_payload(self, worked_system):
        results = list(worked_system.obs.events.events(CLOAK_RESULT))
        assert results, "publish_all and queries must emit cloak results"
        for event in results:
            attrs = event.attrs
            assert attrs["k"] == 5
            assert attrs["k_achieved"] >= 1
            assert attrs["area"] >= 0
            assert isinstance(attrs["k_satisfied"], bool)
            assert isinstance(attrs["degraded"], bool)

    def test_shared_publish_emits_batch_summary(self):
        system = small_population()
        system.publish_all(bulk=True)
        groups = [e.attrs for e in system.obs.events.events(CLOAK_BULK)]
        assert groups
        assert sum(group["n"] for group in groups) == 60
        outcome = system.anonymizer.last_bulk_outcome
        assert len(outcome.regions) < len(outcome.users) == 60

    def test_per_user_publish_is_not_a_bulk_round(self):
        """``publish_all()`` is the per-user path: one audit record and one
        publication per user, no bulk outcome and no ``cloak.bulk``
        aggregate (the scalar benchmark workload rejects a run with one)."""
        system = small_population()
        system.publish_all()
        events = system.obs.events
        assert list(events.events(CLOAK_BULK)) == []
        assert system.anonymizer.last_bulk_outcome is None
        users = [str(i) for i in range(60)]
        for kind in (CLOAK_RESULT, REGION_PUBLISHED):
            assert sorted(e.attrs["user"] for e in events.events(kind)) == sorted(users)

    def test_region_published_per_user(self, worked_system):
        published = list(worked_system.obs.events.events(REGION_PUBLISHED))
        assert len(published) >= 60
        assert all(e.attrs["area"] >= 0 for e in published)

    def test_candidates_and_query_completion(self, worked_system):
        measured = [
            e.attrs
            for e in worked_system.obs.events.events(PLANNER_MEASURED)
            if "candidates" in e.attrs
        ]
        completed = list(worked_system.obs.events.events(QUERY_COMPLETED))
        assert len(measured) == 12  # 6 range + 6 nn
        for attrs in measured:
            assert attrs["candidates"] >= 0
            assert attrs["region_area"] > 0
            assert ("radius" in attrs) == (attrs["query"] == "private_range")
        assert len(completed) == 12
        for event in completed:
            assert event.attrs["overhead"] >= 1.0
            assert event.attrs["query"] in ("private_range", "private_nn")

    def test_unregister_emits_retirement(self):
        bounds = Rect(0, 0, 10, 10)
        system = PrivacySystem(bounds, PyramidCloaker(bounds, height=3))
        system.add_user(MobileUser(0, Point(5, 5), PrivacyProfile.always(k=1)))
        system.anonymizer.unregister(0)
        retired = list(system.obs.events.events(USER_RETIRED))
        assert len(retired) == 1 and retired[0].attrs["user"] == "0"


class TestTrailShape:
    """One record per fact: each call writes no record whose every field
    another record of the same call already carries."""

    def test_user_query_and_per_user_publish_records(self):
        system = small_population()
        system.publish_all()
        trail: list = []
        system.obs.events.add_tap(trail.append)

        system.query(RangeSpec(flavor="private", user=1, radius=10.0))
        system.query(NNSpec(flavor="private", user=2))
        queries = [trail[:4], trail[4:8]]
        assert len(trail) == 8
        for records in queries:
            assert [e.kind for e in records] == [
                CLOAK_RESULT, PLANNER_DECISION, PLANNER_MEASURED, QUERY_COMPLETED,
            ]
            assert len({e.attrs["qid"] for e in records}) == 1
        # The candidate fields the retired ``candidates.generated`` record
        # carried for these two queries, now on the measurement.
        range_measured, nn_measured = (records[2].attrs for records in queries)
        assert {k: range_measured[k] for k in
                ("query", "method", "candidates", "region_area", "radius")} == {
            "query": "private_range", "method": "exact", "candidates": 2,
            "region_area": 625.0, "radius": 10.0,
        }
        assert {k: nn_measured[k] for k in
                ("query", "method", "candidates", "region_area")} == {
            "query": "private_nn", "method": "filter", "candidates": 4,
            "region_area": 625.0,
        }
        assert "radius" not in nn_measured

        del trail[:]
        system.anonymizer.publish(3, system.clock)
        assert [e.kind for e in trail] == [CLOAK_RESULT, REGION_PUBLISHED]


class TestEngineEmission:
    def test_snapshot_capture_then_reuse(self):
        from repro.core.server import LocationServer
        from repro.core.stores import PublicStore

        server = LocationServer(telemetry=Telemetry())
        server.public = PublicStore.from_points({i: Point(i, i) for i in range(5)})
        batch = [RangeSpec(window=Rect(0, 0, 3, 3))]
        server.execute_batch(batch)
        server.execute_batch(batch)
        events = server.telemetry.events
        assert len(list(events.events(SNAPSHOT_CAPTURED))) == 1
        assert len(list(events.events(SNAPSHOT_REUSED))) == 1
        # The bare engine call counts nothing; the planner's batch writes
        # one accounting record per kind, its decision.
        assert server.stats().queries_served == 0
        assert not list(events.events(PLANNER_DECISION))
        server.planner.execute_batch(batch * 3)
        accounted = [e.attrs for e in events.events(PLANNER_DECISION)]
        assert [(a["query"], a["n"]) for a in accounted] == [("public_range", 3)]
        assert server.stats().queries_by_kind == {"public_range": 3}
