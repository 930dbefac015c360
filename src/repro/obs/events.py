"""Bounded structured event log: the pipeline's per-query evidence trail.

Where :mod:`repro.obs.metrics` aggregates and :mod:`repro.obs.trace`
times, this module *records decisions*: one typed event per pipeline
action — a user admitted, a cloak attempted/escalated/degraded, a region
published, a candidate list generated, a batch snapshot reused — each
carrying the numbers an auditor needs to judge it (requested vs achieved
k, cloaked area vs A_min, candidate overhead).  The paper's anonymizer
silently trades region area against each user's (k, A_min) profile;
events make that trade inspectable per query instead of only in
aggregate (:mod:`repro.obs.audit` rolls them into attainment reports).

Design constraints match the rest of the package: dependency-free, a
bounded ring buffer so a long-lived system cannot grow without bound,
and an optional JSONL sink for durable trails.  Disabled emission is a
single attribute check.  An enabled emit stamps the correlation id,
builds an :class:`Event`, appends it to the ring and bumps its per-kind
counter; with a sink attached (the WAL) it also JSON-encodes and writes
the line, and every tap (the risk monitor) runs inline before ``emit``
returns.  ``tests/unit/test_obs_events_overhead.py`` holds the ring-only
cost under 5 % of a real query; ``tools/tick_split.py`` splits the full
cost of a bulk tick's events part by part.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping

from repro.obs.metrics import MetricsRegistry

#: Counter family under which every emission is tallied (per kind).
EVENT_METRIC = "events.emitted"

#: The one JSONL line encoder (what ``json.dumps(..., sort_keys=True,
#: default=str)`` would build afresh for every event).
_encode = json.JSONEncoder(sort_keys=True, default=str).encode

# ----------------------------------------------------------------------
# Event taxonomy (see docs/observability.md for the paper-stage mapping)
# ----------------------------------------------------------------------

#: A mobile user joined the simulated world (any mode, passive included).
USER_ADDED = "user.added"
#: A user subscribed to the anonymizer with a privacy profile.
USER_ADMITTED = "user.admitted"
#: A user unsubscribed; her server-side region was retired.
USER_RETIRED = "user.retired"
#: A user reported an exact location (anonymizer-side knowledge only).
USER_MOVED = "user.moved"
#: A user switched participation mode (passive/active/query).
USER_MODE_CHANGED = "user.mode"
#: A user changed her privacy profile (Section 4: "at any time").
PROFILE_UPDATED = "profile.updated"
#: A public point of interest was registered with the server.
POI_ADDED = "poi.added"
#: A moving public object reported a new position.
POI_MOVED = "poi.moved"
#: A public object was dropped from the server.
POI_REMOVED = "poi.removed"
#: The simulation clock advanced one mobility step.
CLOCK_ADVANCED = "clock.advanced"
#: The server accounted one (or ``n``) served queries under a kind.
SERVER_QUERY = "server.query"
#: A standing continuous count monitor was installed over a window.
MONITOR_REGISTERED = "monitor.registered"
#: A standing continuous count monitor was dropped.
MONITOR_DROPPED = "monitor.dropped"
#: A cloak was requested (requirement in force at time ``t``).
CLOAK_ATTEMPT = "cloak.attempt"
#: Best-effort escalation: requested k exceeded the population and was clamped.
CLOAK_ESCALATED = "cloak.escalated"
#: A cloaked region was produced; the per-query privacy audit record.
CLOAK_RESULT = "cloak.result"
#: Explicit declaration that a produced region missed its requirement.
CLOAK_DEGRADED = "cloak.degraded"
#: Shared-execution round summary (Section 5.3 batch cloaking).
CLOAK_BATCH = "cloak.batch"
#: One requirement-group aggregate of a vectorized bulk cloaking round;
#: carries the attainment counts a per-user ``cloak.result`` stream would,
#: with every degradation declared in-band (the ``degraded`` count).
CLOAK_BULK = "cloak.bulk"
#: A cloaked region reached the server under a pseudonym.
REGION_PUBLISHED = "region.published"
#: A whole population's regions reached the server in one bulk push.
REGIONS_PUBLISHED_BULK = "regions.published_bulk"
#: The server generated a candidate set for a private query.
CANDIDATES_GENERATED = "candidates.generated"
#: An end-to-end private query finished; carries the overhead ratio.
QUERY_COMPLETED = "query.completed"
#: The batch engine froze a fresh server snapshot (cache invalidation).
SNAPSHOT_CAPTURED = "snapshot.captured"
#: The batch engine answered from the cached snapshot (stores quiescent).
SNAPSHOT_REUSED = "snapshot.reused"
#: One heterogeneous batch was executed.
BATCH_EXECUTED = "batch.executed"
#: The planner chose a route for one query, or for one kind group of a
#: batch (``n`` specs); carries the route table's reason.
PLANNER_DECISION = "planner.decision"
#: Measured execution time of one planned query (joins its
#: ``planner.decision`` on ``qid`` and carries counter deltas) or of one
#: whole planned batch (``n`` specs).
PLANNER_MEASURED = "planner.measured"
#: The SLO monitor evaluated its specs over the rolling event window.
SLO_EVALUATED = "slo.evaluated"
#: The bounded ring evicted events that never reached the JSONL sink;
#: the marker declares the lost ``[first_seq, last_seq]`` range so a
#: replay reader can surface the gap instead of silently recovering
#: from an incomplete trail.
LOG_TRUNCATED = "log.truncated"
#: A durable checkpoint of the whole pipeline state was written.
PERSIST_CHECKPOINT = "persist.checkpoint"
#: A recovered system finished replaying its event-log tail.
PERSIST_REPLAYED = "persist.replayed"
#: The online privacy-risk monitor scored the live stream: rolling
#: re-identification risk, k-attainment entropy, linkage shrinkage and
#: density-weighted effective anonymity (repro.obs.risk).
RISK_SCORED = "risk.scored"
#: The WAL sink was rotated into a sealed segment file; the fresh WAL
#: starts with a ``log.truncated`` marker carrying ``rotated_to`` so
#: recovery can tell deliberate rotation from silent data loss.
WAL_ROTATED = "wal.rotated"

#: Every kind this package emits, for validation and documentation.
EVENT_KINDS: tuple[str, ...] = (
    USER_ADDED,
    USER_ADMITTED,
    USER_RETIRED,
    USER_MOVED,
    USER_MODE_CHANGED,
    PROFILE_UPDATED,
    POI_ADDED,
    POI_MOVED,
    POI_REMOVED,
    CLOCK_ADVANCED,
    SERVER_QUERY,
    MONITOR_REGISTERED,
    MONITOR_DROPPED,
    CLOAK_ATTEMPT,
    CLOAK_ESCALATED,
    CLOAK_RESULT,
    CLOAK_DEGRADED,
    CLOAK_BATCH,
    CLOAK_BULK,
    REGION_PUBLISHED,
    REGIONS_PUBLISHED_BULK,
    CANDIDATES_GENERATED,
    QUERY_COMPLETED,
    SNAPSHOT_CAPTURED,
    SNAPSHOT_REUSED,
    BATCH_EXECUTED,
    PLANNER_DECISION,
    PLANNER_MEASURED,
    SLO_EVALUATED,
    LOG_TRUNCATED,
    PERSIST_CHECKPOINT,
    PERSIST_REPLAYED,
    RISK_SCORED,
    WAL_ROTATED,
)


@dataclass(frozen=True, slots=True)
class Event:
    """One recorded pipeline decision.

    Attributes:
        seq: monotonically increasing per-log sequence number (the join
            key between related events, e.g. a ``cloak.degraded`` names
            its ``cloak.result`` via the ``result_seq`` attribute).
        kind: one of the ``EVENT_KINDS`` constants.
        attrs: the decision's payload (plain JSON-serialisable values).
    """

    seq: int
    kind: str
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSONL-ready form: ``{**attrs, "seq": ..., "kind": ...}``.

        The reserved keys win: an attribute named ``seq`` or ``kind``
        must never corrupt the record's identity on the round trip
        (emitters use ``query`` for the query kind for this reason).
        """
        return {**self.attrs, "seq": self.seq, "kind": self.kind}

    @classmethod
    def from_dict(cls, record: Mapping) -> "Event":
        """Inverse of :meth:`to_dict` (JSONL ingestion)."""
        attrs = {k: v for k, v in record.items() if k not in ("seq", "kind")}
        return cls(seq=int(record["seq"]), kind=str(record["kind"]), attrs=attrs)


class EventLog:
    """Bounded ring buffer of :class:`Event` s with an optional JSONL sink.

    Args:
        registry: destination for the per-kind ``events.emitted`` counters;
            emission is not tallied when omitted.
        enabled: start recording (the default) or dark.  A disabled log's
            :meth:`emit` is a single attribute check.
        keep: ring-buffer capacity; older events fall off the front.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        enabled: bool = True,
        keep: int = 2048,
    ) -> None:
        self.registry = registry
        self.enabled = enabled
        #: Optional :class:`~repro.obs.correlate.CorrelationIds` whose
        #: active scope is stamped onto every emission (set by Telemetry).
        self.correlation = None
        self._ring: deque[Event] = deque(maxlen=keep)
        self._seq = 0
        # Per-kind ``events.emitted`` counters, looked up once per kind
        # (dropped by reset(), which follows a registry reset).
        self._emitted: dict = {}
        self._sink: IO[str] | None = None
        self._sink_owned = False
        # WAL-completeness accounting: the highest seq the sink has seen,
        # and a pinned gap marker for events the ring evicted before they
        # were ever streamed.  The marker lives *outside* the ring (it
        # would otherwise evict a live event and recurse) and is mutated
        # in place to coalesce consecutive lossy evictions.
        self._streamed_seq = 0
        self._gap: Event | None = None
        # Live-stream taps (repro.obs.risk): callables invoked with every
        # emitted Event.  An empty list costs one truthiness check on the
        # hot path; taps must not raise and may re-enter emit() (a tap
        # emitting its own event simply takes the next seq).
        self._taps: list = []

    # ------------------------------------------------------------------
    # The one hot entry point
    # ------------------------------------------------------------------

    def emit(self, kind: str, /, **attrs: object) -> int | None:
        """Record one event (dropped entirely while disabled).

        Returns the event's sequence number so related events can carry
        a join key (e.g. ``cloak.degraded`` naming its ``cloak.result``
        via ``result_seq``); ``None`` while disabled.
        """
        if not self.enabled:
            return None
        if self.correlation is not None:
            self.correlation.stamp(attrs)
        self._seq += 1
        event = Event(self._seq, kind, attrs)
        ring = self._ring
        if len(ring) == ring.maxlen and ring[0].seq > self._streamed_seq:
            self._note_lossy_eviction(ring[0])
        ring.append(event)
        if self.registry is not None:
            counter = self._emitted.get(kind)
            if counter is None:
                counter = self._emitted[kind] = self.registry.counter(
                    EVENT_METRIC, kind=kind
                )
            counter.inc()
        if self._sink is not None:
            self._sink.write(_encode(event.to_dict()) + "\n")
            self._streamed_seq = event.seq
        if self._taps:
            for tap in self._taps:
                tap(event)
        return event.seq

    def _note_lossy_eviction(self, victim: Event) -> None:
        """Record that ``victim`` fell off the ring without ever being
        flushed to a JSONL sink — i.e. it is gone for good.

        The first lossy eviction creates the pinned ``log.truncated``
        marker (carrying the victim's seq as its own, so replay readers
        see where the trail breaks); later ones widen its range.
        """
        if self._gap is None:
            self._gap = Event(
                victim.seq,
                LOG_TRUNCATED,
                {
                    "first_seq": victim.seq,
                    "last_seq": victim.seq,
                    "lost": 1,
                    "flushed_seq": self._streamed_seq,
                },
            )
        else:
            self._gap.attrs["last_seq"] = victim.seq
            self._gap.attrs["lost"] += 1

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def resume_after(self, seq: int) -> None:
        """Number the next event past ``seq`` (a recovered log continues its WAL)."""
        self._seq = max(self._seq, seq)

    def add_tap(self, tap) -> None:
        """Invoke ``tap(event)`` for every future emission (live stream).

        Taps see events *after* ring/sink handling, in registration
        order.  They are the feed of the online risk monitor — cheap by
        contract: a tap runs inline on the emit hot path.
        """
        if tap not in self._taps:
            self._taps.append(tap)

    def remove_tap(self, tap) -> None:
        """Stop invoking a previously added tap (no-op when absent)."""
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    def attach_jsonl(self, target: str | IO[str]) -> None:
        """Stream every future event to ``target`` (path or open text file).

        A path is opened in append mode and owned (closed by
        :meth:`detach_jsonl` / a later ``attach``); a file object is
        borrowed and left open.

        Buffered events the sink has never seen are backfilled first,
        oldest-first, so attaching late still yields a complete trail of
        everything the ring remembers.  If unflushed events were already
        evicted, the ``log.truncated`` marker is written ahead of them —
        the sink's trail then *declares* its own incompleteness instead
        of hiding it (strict readers refuse such trails).
        """
        self.detach_jsonl()
        if isinstance(target, str):
            # Line-buffered: each event record reaches the OS as soon as
            # it is written, which is what makes the sink usable as a
            # write-ahead log — a crashed process loses at most the one
            # record it was mid-write on (repro.persist tolerates exactly
            # that torn final line).
            self._sink = open(target, "a", encoding="utf-8", buffering=1)
            self._sink_owned = True
        else:
            self._sink = target
            self._sink_owned = False
        pending = [e for e in self._buffered() if e.seq > self._streamed_seq]
        for event in pending:
            self._sink.write(_encode(event.to_dict()) + "\n")
        if pending:
            self._streamed_seq = pending[-1].seq

    def detach_jsonl(self) -> None:
        """Stop streaming; closes the sink only if this log opened it."""
        sink, owned = self._sink, self._sink_owned
        self._sink = None
        self._sink_owned = False
        if sink is not None:
            if owned:
                sink.close()
            else:
                sink.flush()

    def reset(self) -> None:
        """Forget buffered events (sequence numbers keep increasing).

        An explicit reset also drops the truncation marker: the caller
        deliberately discarded the buffer, which is not the silent data
        loss the marker exists to declare.
        """
        self._ring.clear()
        self._gap = None
        self._emitted.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def truncated(self) -> Event | None:
        """The pinned ``log.truncated`` gap marker, if any loss occurred."""
        return self._gap

    def _buffered(self) -> list[Event]:
        """Gap marker (when present) followed by the ring, oldest-first."""
        if self._gap is None:
            return list(self._ring)
        return [self._gap, *self._ring]

    def events(self, kind: str | None = None) -> Iterator[Event]:
        """Buffered events oldest-first, optionally filtered by kind.

        When unflushed events have been evicted, the stream starts with
        the ``log.truncated`` marker declaring the lost seq range.
        """
        if kind is None:
            return iter(self._buffered())
        return iter([e for e in self._buffered() if e.kind == kind])

    def counts(self) -> dict[str, int]:
        """Buffered events per kind (ring-buffer view, not lifetime)."""
        out: dict[str, int] = {}
        for event in self._buffered():
            out[event.kind] = out.get(event.kind, 0) + 1
        return dict(sorted(out.items()))

    def dump_jsonl(self, stream: IO[str] | None = None) -> str:
        """Serialise the buffered events as JSONL; also returns the text.

        The ``log.truncated`` marker (when present) leads the dump, so a
        trail reconstructed from the ring declares its own incompleteness
        to :func:`read_jsonl` / replay instead of passing for a full WAL.
        """
        lines = [_encode(e.to_dict()) for e in self._buffered()]
        text = "\n".join(lines) + ("\n" if lines else "")
        if stream is not None:
            stream.write(text)
        return text

    def __len__(self) -> int:
        return len(self._ring)


def read_jsonl(
    source: str | IO[str] | Iterable[str], *, strict: bool = False
) -> list[Event]:
    """Parse a JSONL event trail back into :class:`Event` values.

    Accepts a path, an open text file, or any iterable of lines; blank
    lines are skipped, so concatenated sink files ingest cleanly.

    A truncated or otherwise unparsable *final* line is dropped instead
    of raising: a process that crashes mid-``write`` leaves exactly one
    partial record at the tail, and a recovery reader (the event log is
    the ROADMAP's write-ahead log in waiting) must still ingest the
    complete prefix.  Corruption anywhere *before* the final line still
    raises — that is data loss, not an interrupted append.  Pass
    ``strict=True`` to raise on any bad line.

    ``strict=True`` additionally refuses trails that *declare* their own
    incompleteness via a ``log.truncated`` marker: a recovery reader must
    not silently rebuild state from a trail whose ring evicted unflushed
    events.  Non-strict reads pass the marker through so callers (the
    :mod:`repro.persist` recovery engine) can surface the gap themselves.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    lines = [line for line in lines if line.strip()]
    events: list[Event] = []
    last = len(lines) - 1
    for position, line in enumerate(lines):
        try:
            events.append(Event.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            if strict or position != last:
                raise
    if strict:
        for event in events:
            if event.kind == LOG_TRUNCATED:
                raise ValueError(
                    "event trail declares a truncation gap: events "
                    f"{event.attrs.get('first_seq')}..{event.attrs.get('last_seq')} "
                    "were evicted before reaching the sink"
                )
    return events
