"""Correlation IDs: join every telemetry signal for one request.

The event log, the span tracer, the planner's decision stream and
EXPLAIN each record their own view of a query.  Until now nothing tied
those views together: a ``planner.decision`` and the ``query.completed``
it caused were only related by their position in the ring buffer.  This
module mints a request-scoped identifier at every entry point —
``q-000042`` for a single query, ``b-000007`` for a batch — and the
:class:`~repro.obs.events.EventLog` and :class:`~repro.obs.trace.Tracer`
stamp it onto everything recorded while the scope is active, so all
telemetry for one request joins into a single record.

Design constraints match the rest of the package: dependency-free and
cheap enough to sit on the hot path.  An active scope costs two
attribute writes on entry and two on exit; stamping is one ``None``
check per event/span.  Thread-safety is out of scope — the system is
single-process synchronous today (see ROADMAP), and the scope stack
restores correctly under any nesting of entry points.

Scope semantics
---------------

* ``scope("q")`` mints a fresh query id.  Nested query scopes mint
  fresh ids too (each user-bound query inside a batch gets its own).
* ``scope("b")`` mints a batch id and makes it both the current id and
  the ambient batch id, so events emitted directly by the batch driver
  carry it as ``qid`` while per-query children carry it as ``bid``.
* ``reuse=True`` joins an already-active scope of the same kind instead
  of minting: ``BatchEngine.execute`` inside ``server.execute_batch``
  inside ``system.execute_batch`` is one batch, not three, and
  ``planner.execute`` called under ``system.query`` shares the query's
  id so decision and measurement join on it.

The offline join (:func:`correlate_events`) groups a recorded event
trail by ``qid``, so one request's full story can be reconstructed from
a JSONL file alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.events import Event
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import SpanRecord

#: Counter family tallying minted ids per kind (``correlation.ids{kind=q}``).
CORRELATION_METRIC = "correlation.ids"

#: Kind prefix for single-query scopes.
QUERY_KIND = "q"
#: Kind prefix for batch scopes (``execute_batch``, ``publish_all``).
BATCH_KIND = "b"


class CorrelationIds:
    """Mints and scopes the request ids one telemetry unit stamps.

    One instance lives on each :class:`~repro.obs.Telemetry`; the event
    log and tracer hold a reference and read :attr:`current` /
    :attr:`batch` at record time.

    Args:
        registry: optional metrics registry; each mint increments
            ``correlation.ids{kind=...}`` so exporters can show request
            volume per entry-point kind.
    """

    __slots__ = ("registry", "current", "batch", "_next")

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.registry = registry
        #: Innermost active scope id (stamped as ``qid``), or ``None``.
        self.current: str | None = None
        #: Innermost active *batch* scope id (stamped as ``bid``), or ``None``.
        self.batch: str | None = None
        self._next = 1

    def mint(self, kind: str = QUERY_KIND) -> str:
        """A fresh id like ``q-000042`` (monotonic per telemetry unit)."""
        ident = f"{kind}-{self._next:06d}"
        self._next += 1
        if self.registry is not None:
            self.registry.counter(CORRELATION_METRIC, kind=kind).inc()
        return ident

    @contextmanager
    def scope(self, kind: str = QUERY_KIND, reuse: bool = False) -> Iterator[str]:
        """Activate a correlation scope; yields the active id.

        Args:
            kind: ``"q"`` for one query, ``"b"`` for a batch.
            reuse: join an already-active scope of the same kind instead
                of minting a fresh id (nested entry points that are the
                *same* request, not a sub-request).
        """
        if reuse:
            existing = (
                self.batch
                if kind == BATCH_KIND
                else (
                    self.current
                    if self.current is not None
                    and self.current.startswith(kind + "-")
                    else None
                )
            )
            if existing is not None:
                yield existing
                return
        ident = self.mint(kind)
        prev_current, prev_batch = self.current, self.batch
        self.current = ident
        if kind == BATCH_KIND:
            self.batch = ident
        try:
            yield ident
        finally:
            self.current, self.batch = prev_current, prev_batch

    def stamp(self, attrs: dict) -> None:
        """Write ``qid`` (and ``bid`` under a batch) into ``attrs`` in place.

        Explicit caller-provided ids win; outside any scope this is a
        no-op, so uncorrelated emission stays byte-identical.
        """
        qid = self.current
        if qid is None:
            return
        attrs.setdefault("qid", qid)
        bid = self.batch
        if bid is not None and bid != qid:
            attrs.setdefault("bid", bid)


# ----------------------------------------------------------------------
# Offline join
# ----------------------------------------------------------------------


@dataclass
class CorrelatedRecord:
    """Every telemetry signal recorded under one correlation id."""

    qid: str
    #: Ambient batch id, when the request ran inside a batch scope.
    bid: str | None = None
    events: list["Event"] = field(default_factory=list)
    spans: list["SpanRecord"] = field(default_factory=list)

    def kinds(self) -> list[str]:
        """Event kinds in arrival order (handy in tests and reports)."""
        return [event.kind for event in self.events]

    def first(self, kind: str) -> "Event | None":
        """The first event of ``kind`` in this record, or ``None``."""
        for event in self.events:
            if event.kind == kind:
                return event
        return None

    def to_dict(self) -> dict:
        return {
            "qid": self.qid,
            "bid": self.bid,
            "events": [event.to_dict() for event in self.events],
            "spans": [
                {
                    "name": span.name,
                    "path": span.path,
                    "duration_ms": span.duration_ms,
                }
                for span in self.spans
            ],
        }


def correlate_events(
    events: Iterable["Event"],
    spans: Iterable["SpanRecord"] = (),
) -> dict[str, CorrelatedRecord]:
    """Group an event trail (and optionally spans) by correlation id.

    Events without a ``qid`` (emitted outside any scope, or by an older
    log format) are skipped — correlation is additive, not required.
    Returns ``{qid: record}`` in first-seen order.
    """
    records: dict[str, CorrelatedRecord] = {}

    def _record_for(qid: str, bid: object) -> CorrelatedRecord:
        record = records.get(qid)
        if record is None:
            record = records[qid] = CorrelatedRecord(qid=qid)
        if record.bid is None and isinstance(bid, str):
            record.bid = bid
        return record

    for event in events:
        qid = event.attrs.get("qid")
        if isinstance(qid, str):
            _record_for(qid, event.attrs.get("bid")).events.append(event)
    for span in spans:
        qid = span.attrs.get("qid")
        if isinstance(qid, str):
            _record_for(qid, span.attrs.get("bid")).spans.append(span)
    return records
