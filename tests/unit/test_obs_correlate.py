"""Correlation IDs (repro.obs.correlate) and their pipeline wiring."""

import json

import numpy as np
import pytest

from repro import (
    CountSpec,
    MobileUser,
    NNSpec,
    PrivacyProfile,
    PrivacySystem,
    PyramidCloaker,
    RangeSpec,
    Telemetry,
)
from repro.geometry import Point, Rect
from repro.obs import CorrelationIds, correlate_events
from repro.obs.correlate import CORRELATION_METRIC
from repro.core.server import LocationServer
from repro.obs.events import (
    PLANNER_DECISION,
    PLANNER_MEASURED,
    QUERY_COMPLETED,
    REGIONS_PUBLISHED_BULK,
    USERS_MOVED,
    read_jsonl,
)
from repro.obs.metrics import MetricsRegistry


class TestCorrelationIds:
    def test_mint_is_monotonic_and_kind_prefixed(self):
        ids = CorrelationIds()
        assert ids.mint("q") == "q-000001"
        assert ids.mint("b") == "b-000002"
        assert ids.mint("q") == "q-000003"

    def test_mint_counts_per_kind(self):
        registry = MetricsRegistry()
        ids = CorrelationIds(registry)
        ids.mint("q")
        ids.mint("q")
        ids.mint("b")
        counters = registry.snapshot()["counters"]
        assert counters[f"{CORRELATION_METRIC}{{kind=q}}"] == 2
        assert counters[f"{CORRELATION_METRIC}{{kind=b}}"] == 1

    def test_scope_sets_and_restores_current(self):
        ids = CorrelationIds()
        assert ids.current is None
        with ids.scope("q") as qid:
            assert ids.current == qid
        assert ids.current is None

    def test_batch_scope_sets_both_ids(self):
        ids = CorrelationIds()
        with ids.scope("b") as bid:
            assert ids.current == bid
            assert ids.batch == bid
        assert ids.current is None and ids.batch is None

    def test_nested_query_inside_batch(self):
        ids = CorrelationIds()
        with ids.scope("b") as bid:
            with ids.scope("q") as qid:
                assert qid != bid
                assert ids.current == qid
                assert ids.batch == bid
            assert ids.current == bid

    def test_reuse_joins_active_scope_of_same_kind(self):
        ids = CorrelationIds()
        with ids.scope("b") as bid:
            with ids.scope("b", reuse=True) as inner:
                assert inner == bid
        with ids.scope("q") as qid:
            with ids.scope("q", reuse=True) as inner:
                assert inner == qid

    def test_reuse_without_active_scope_mints(self):
        ids = CorrelationIds()
        with ids.scope("q", reuse=True) as qid:
            assert qid.startswith("q-")

    def test_reuse_query_under_batch_mints_fresh(self):
        # A batch id is not a query id: planner.execute under a bare
        # batch scope is a new query, not the batch itself.
        ids = CorrelationIds()
        with ids.scope("b") as bid:
            with ids.scope("q", reuse=True) as qid:
                assert qid != bid and qid.startswith("q-")

    def test_stamp_writes_qid_and_bid(self):
        ids = CorrelationIds()
        with ids.scope("b"):
            with ids.scope("q"):
                attrs = {}
                ids.stamp(attrs)
                assert attrs == {"qid": ids.current, "bid": ids.batch}

    def test_stamp_omits_bid_when_identical(self):
        ids = CorrelationIds()
        with ids.scope("b") as bid:
            attrs = {}
            ids.stamp(attrs)
            assert attrs == {"qid": bid}

    def test_stamp_is_noop_outside_scope(self):
        ids = CorrelationIds()
        attrs = {"kind": "x"}
        ids.stamp(attrs)
        assert attrs == {"kind": "x"}

    def test_explicit_ids_win_over_stamp(self):
        ids = CorrelationIds()
        with ids.scope("q"):
            attrs = {"qid": "caller-chose"}
            ids.stamp(attrs)
            assert attrs["qid"] == "caller-chose"


class TestTelemetryStamping:
    def test_events_and_spans_stamped_inside_scope(self):
        obs = Telemetry()
        with obs.correlate("q") as qid:
            obs.emit("cloak.attempt", user="u")
            with obs.span("server.private_range"):
                pass
        event = next(iter(obs.events.events()))
        span = list(obs.tracer.spans())[0]
        assert event.attrs["qid"] == qid
        assert span.attrs["qid"] == qid

    def test_unscoped_emission_is_unstamped(self):
        obs = Telemetry()
        obs.emit("cloak.attempt", user="u")
        event = next(iter(obs.events.events()))
        assert "qid" not in event.attrs


class TestCorrelateEvents:
    def test_groups_by_qid_in_first_seen_order(self):
        obs = Telemetry()
        with obs.correlate("q") as first:
            obs.emit("cloak.attempt")
            obs.emit("cloak.result")
        with obs.correlate("q") as second:
            obs.emit("query.completed")
        records = correlate_events(obs.events.events())
        assert list(records) == [first, second]
        assert records[first].kinds() == ["cloak.attempt", "cloak.result"]
        assert records[second].first("query.completed") is not None
        assert records[first].first("query.completed") is None

    def test_unstamped_events_are_skipped(self):
        obs = Telemetry()
        obs.emit("cloak.attempt")
        assert correlate_events(obs.events.events()) == {}

    def test_spans_joined_and_bid_recovered(self):
        obs = Telemetry()
        with obs.correlate("b") as bid:
            with obs.correlate("q") as qid:
                obs.emit("query.completed")
                with obs.span("client.refine"):
                    pass
        records = correlate_events(obs.events.events(), obs.tracer.spans())
        assert records[qid].bid == bid
        assert [span.name for span in records[qid].spans] == ["client.refine"]

    def test_to_dict_is_plain_data(self):
        obs = Telemetry()
        with obs.correlate("q") as qid:
            obs.emit("cloak.attempt")
            with obs.span("anonymizer.cloak"):
                pass
        record = obs.correlated_records()[qid]
        payload = record.to_dict()
        assert payload["qid"] == qid
        assert payload["events"][0]["kind"] == "cloak.attempt"
        assert payload["spans"][0]["name"] == "anonymizer.cloak"

    def test_a_bulk_rounds_record_serialises_and_its_columns_read_back(self):
        """The records of a correlated bulk round (its reports, made in a
        batch scope, and its publication) go through a bare
        ``json.dumps``; their events, read back as JSONL lines, hold the
        live columns."""
        bounds = Rect(0, 0, 100, 100)
        system = PrivacySystem(bounds, PyramidCloaker(bounds, height=4))
        for i in range(12):
            system.add_user(
                MobileUser(f"u{i}", Point(8.0 * i, 5.0 * i), PrivacyProfile.always(k=3))
            )
        with system.obs.correlate("b"):
            for i in range(12):
                system.anonymizer.update_location(f"u{i}", Point(7.5 * i, 1.0 + i))
            system.publish_all(bulk=True)
        columnar = {USERS_MOVED, REGIONS_PUBLISHED_BULK}
        records = [
            record
            for record in system.obs.correlated_records().values()
            if columnar & set(record.kinds())
        ]
        assert columnar <= {kind for record in records for kind in record.kinds()}
        for record in records:
            payload = json.loads(json.dumps(record.to_dict()))
            events = read_jsonl(json.dumps(event) for event in payload["events"])
            assert [(e.seq, e.kind) for e in events] == [
                (e.seq, e.kind) for e in record.events
            ]
            for live, read in zip(record.events, events):
                for name in ("xs", "ys", "sides", "region"):
                    if name in live.attrs:
                        assert read.attrs[name].tolist() == live.attrs[name].tolist()


@pytest.fixture(scope="module")
def worked_system():
    rng = np.random.default_rng(5)
    bounds = Rect(0, 0, 100, 100)
    system = PrivacySystem(bounds, PyramidCloaker(bounds, height=5))
    for j in range(12):
        x, y = rng.uniform(0, 100, 2)
        system.add_poi(f"poi-{j}", Point(float(x), float(y)))
    for i in range(40):
        x, y = rng.uniform(0, 100, 2)
        system.add_user(
            MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=4))
        )
    system.publish_all()
    for i in range(4):
        system.query(RangeSpec(flavor="private", user=i, radius=10.0))
        system.query(NNSpec(flavor="private", user=i))
    system.query(CountSpec(window=Rect(20, 20, 80, 80)))
    return system


class TestEndToEndCorrelation:
    def test_every_query_entry_point_mints_an_id(self, worked_system):
        counters = worked_system.obs.snapshot()["counters"]
        assert counters[f"{CORRELATION_METRIC}{{kind=q}}"] >= 9
        assert counters[f"{CORRELATION_METRIC}{{kind=b}}"] >= 1

    def test_query_completed_events_carry_qids(self, worked_system):
        completed = list(worked_system.obs.events.events(QUERY_COMPLETED))
        assert completed
        qids = [event.attrs["qid"] for event in completed]
        assert all(qid.startswith("q-") for qid in qids)
        assert len(set(qids)) == len(qids), "each query has its own id"

    def test_decision_and_measurement_share_a_qid(self, worked_system):
        records = worked_system.obs.correlated_records()
        joined = [
            record
            for record in records.values()
            if record.first(PLANNER_DECISION) is not None
            and record.first(PLANNER_MEASURED) is not None
        ]
        assert len(joined) >= 9
        for record in joined:
            decision = record.first(PLANNER_DECISION)
            measured = record.first(PLANNER_MEASURED)
            assert decision.attrs["query"] == measured.attrs["query"]

    def test_bare_server_batch_accounts_under_the_batch_id(self):
        """A bare ``server.execute_batch`` counts nothing and writes no
        accounting record; the planner's batch counts through its
        decisions, which carry the batch's id with its snapshot events."""
        server = LocationServer(telemetry=Telemetry())
        for i in range(20):
            server.add_public_object(f"o{i}", Point(float(i), float(i)))
        batch = [RangeSpec(window=Rect(0, 0, 5, 5)), CountSpec(window=Rect(0, 0, 9, 9))]
        events = server.telemetry.events
        server.execute_batch(batch)
        assert server.stats().queries_served == 0
        assert not list(events.events(PLANNER_DECISION))

        seq = max(event.seq for event in events.events())
        server.planner.execute_batch(batch)
        fresh = [event for event in events.events() if event.seq > seq]
        decisions = [event for event in fresh if event.kind == PLANNER_DECISION]
        snapshots = [event for event in fresh if event.kind.startswith("snapshot.")]
        assert len(decisions) == 2 and snapshots
        assert server.stats().queries_served == 2
        ids = {event.attrs.get("qid") for event in decisions + snapshots}
        assert len(ids) == 1
        assert ids.pop().startswith("b-")

    def test_publish_all_is_one_batch_scope(self, worked_system):
        records = worked_system.obs.correlated_records()
        batch_records = [
            record for record in records.values() if record.qid.startswith("b-")
        ]
        assert batch_records, "publish_all must open a batch scope"
        cloak_kinds = {"cloak.result", "region.published"}
        assert any(
            cloak_kinds & set(record.kinds()) for record in batch_records
        )
