"""Privacy-attainment auditing over the structured event log.

The anonymizer's contract (paper, Section 5) is per-query: every cloaked
region must hold at least ``k`` subscribed users and at least ``A_min``
area, or the degradation must be explicit (best-effort clamping).  The
:class:`PrivacyAuditor` replays ``cloak.result`` / ``cloak.bulk`` /
``cloak.degraded`` / ``query.completed`` events
(:mod:`repro.obs.events`) and rolls them into
per-user and per-profile attainment reports, flagging any *undeclared*
violation — a region that missed its requirement without a matching
``cloak.degraded`` event.  ``tests/property/test_prop_obs_events.py``
holds the pipeline to zero undeclared violations on arbitrary workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.events import (
    CLOAK_BULK,
    CLOAK_DEGRADED,
    CLOAK_RESULT,
    EVENT_KINDS,
    QUERY_COMPLETED,
    Event,
    EventLog,
    read_jsonl,
)

#: The kinds the auditor folds into its tallies.  Everything else in
#: ``EVENT_KINDS`` carries no privacy semantics — telemetry plumbing
#: (``planner.*``, ``slo.evaluated``, snapshot and batch bookkeeping) —
#: and is ignored *by rule*, not by accident:
#: ``tests/unit/test_obs_audit.py`` asserts the two sets partition the
#: registry, so a future kind must be explicitly classified here.
AUDITED_KINDS: frozenset[str] = frozenset(
    {CLOAK_RESULT, CLOAK_BULK, CLOAK_DEGRADED, QUERY_COMPLETED}
)

#: Registered kinds the auditor deliberately skips (the folding rule).
AUDIT_IGNORED_KINDS: frozenset[str] = frozenset(EVENT_KINDS) - AUDITED_KINDS


def _profile_key(attrs: dict) -> str:
    """Canonical label of the (k, A_min, A_max) profile behind an event."""
    max_area = attrs.get("max_area")
    return (
        f"k={attrs.get('k', 1)},"
        f"a_min={attrs.get('min_area', 0.0):g},"
        f"a_max={'inf' if max_area is None else format(max_area, 'g')}"
    )


@dataclass
class _Tally:
    """Attainment counters for one user or one profile."""

    cloaks: int = 0
    k_attained: int = 0
    area_attained: int = 0
    fully_attained: int = 0
    degraded_declared: int = 0
    undeclared_violations: int = 0
    areas: list = field(default_factory=list)
    k_achieved: list = field(default_factory=list)
    # Aggregate moments contributed by ``cloak.bulk`` group events, which
    # carry sums/minima over many users instead of per-user samples.
    area_agg_sum: float = 0.0
    area_agg_n: int = 0
    area_agg_min: float | None = None
    k_agg_sum: int = 0
    k_agg_n: int = 0
    k_agg_min: int | None = None

    def as_dict(self) -> dict:
        out = {
            "cloaks": self.cloaks,
            "k_attained": self.k_attained,
            "area_attained": self.area_attained,
            "fully_attained": self.fully_attained,
            "degraded_declared": self.degraded_declared,
            "undeclared_violations": self.undeclared_violations,
            "attainment_rate": (
                self.fully_attained / self.cloaks if self.cloaks else 1.0
            ),
        }
        if self.areas or self.area_agg_n:
            n = len(self.areas) + self.area_agg_n
            out["mean_area"] = (sum(self.areas) + self.area_agg_sum) / n
            mins = [min(self.areas)] if self.areas else []
            if self.area_agg_min is not None:
                mins.append(self.area_agg_min)
            out["min_area"] = min(mins)
        if self.k_achieved or self.k_agg_n:
            n = len(self.k_achieved) + self.k_agg_n
            out["mean_k_achieved"] = (sum(self.k_achieved) + self.k_agg_sum) / n
            mins = [min(self.k_achieved)] if self.k_achieved else []
            if self.k_agg_min is not None:
                mins.append(self.k_agg_min)
            out["min_k_achieved"] = min(mins)
        return out


class PrivacyAuditor:
    """Rolls audit events into per-user / per-profile attainment reports.

    Feed it events from a live :class:`~repro.obs.events.EventLog`
    (:meth:`from_log`), a JSONL trail on disk (:meth:`from_jsonl`), or
    any iterable of :class:`~repro.obs.events.Event` (:meth:`consume`);
    then read :meth:`report` or :meth:`violations`.
    """

    def __init__(self) -> None:
        self._users: dict[str, _Tally] = {}
        self._profiles: dict[str, _Tally] = {}
        self._results: list[Event] = []
        self._bulk_events: list[Event] = []
        self._bulk_totals = _Tally()
        self._degraded_seqs: set[int] = set()
        self._degraded_result_seqs: set[int] = set()
        self._query_overheads: dict[str, list[float]] = {}
        self._query_counts: dict[str, int] = {}
        self._query_correct: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @classmethod
    def from_log(cls, log: EventLog) -> "PrivacyAuditor":
        return cls().consume(log.events())

    @classmethod
    def from_jsonl(cls, path: str) -> "PrivacyAuditor":
        return cls().consume(read_jsonl(path))

    def consume(self, events: Iterable[Event]) -> "PrivacyAuditor":
        """Fold a stream of events into the running tallies; returns self."""
        for event in events:
            if event.kind == CLOAK_RESULT:
                self._consume_result(event)
            elif event.kind == CLOAK_BULK:
                self._consume_bulk(event)
            elif event.kind == CLOAK_DEGRADED:
                self._degraded_seqs.add(event.seq)
                result_seq = event.attrs.get("result_seq")
                if result_seq is not None:
                    self._degraded_result_seqs.add(int(result_seq))
            elif event.kind == QUERY_COMPLETED:
                self._consume_query(event)
        # Declarations may arrive after their results within one batch of
        # events; settle the undeclared counts once the stream is folded.
        self._settle()
        return self

    def _consume_result(self, event: Event) -> None:
        self._results.append(event)
        attrs = event.attrs
        user = str(attrs.get("user"))
        for tally in (
            self._users.setdefault(user, _Tally()),
            self._profiles.setdefault(_profile_key(attrs), _Tally()),
        ):
            tally.cloaks += 1
            tally.k_attained += bool(attrs.get("k_satisfied"))
            tally.area_attained += bool(attrs.get("area_satisfied"))
            tally.fully_attained += bool(
                attrs.get("k_satisfied") and attrs.get("area_satisfied")
            )
            if "area" in attrs:
                tally.areas.append(float(attrs["area"]))
            if "k_achieved" in attrs:
                tally.k_achieved.append(int(attrs["k_achieved"]))

    def _consume_bulk(self, event: Event) -> None:
        """Fold one ``cloak.bulk`` requirement-group aggregate.

        Bulk rounds carry no per-user identity (one event per distinct
        requirement, not per user), so they contribute to the profile
        tallies and the report totals but leave the per-user section
        untouched.  Degradations are declared in-band via the event's
        ``degraded`` count, settled alongside per-result declarations.
        """
        self._bulk_events.append(event)
        attrs = event.attrs
        n = int(attrs.get("n", 0))
        for tally in (
            self._profiles.setdefault(_profile_key(attrs), _Tally()),
            self._bulk_totals,
        ):
            tally.cloaks += n
            tally.k_attained += int(attrs.get("k_attained", 0))
            tally.area_attained += int(attrs.get("area_attained", 0))
            tally.fully_attained += int(attrs.get("fully_attained", 0))
            if "area_sum" in attrs:
                tally.area_agg_sum += float(attrs["area_sum"])
                tally.area_agg_n += n
            if "area_min" in attrs:
                low = float(attrs["area_min"])
                if tally.area_agg_min is None or low < tally.area_agg_min:
                    tally.area_agg_min = low
            if "k_sum" in attrs:
                tally.k_agg_sum += int(attrs["k_sum"])
                tally.k_agg_n += n
            if "k_min" in attrs:
                low = int(attrs["k_min"])
                if tally.k_agg_min is None or low < tally.k_agg_min:
                    tally.k_agg_min = low

    def _consume_query(self, event: Event) -> None:
        kind = str(event.attrs.get("query", "query"))
        self._query_counts[kind] = self._query_counts.get(kind, 0) + 1
        self._query_correct[kind] = self._query_correct.get(kind, 0) + bool(
            event.attrs.get("correct", True)
        )
        overhead = event.attrs.get("overhead")
        if overhead is not None:
            self._query_overheads.setdefault(kind, []).append(float(overhead))

    def _settle(self) -> None:
        tallies = (
            list(self._users.values())
            + list(self._profiles.values())
            + [self._bulk_totals]
        )
        for tally in tallies:
            tally.degraded_declared = 0
            tally.undeclared_violations = 0
        for event in self._bulk_events:
            attrs = event.attrs
            declared = int(attrs.get("degraded", 0))
            missed = int(attrs.get("n", 0)) - int(attrs.get("fully_attained", 0))
            undeclared = max(0, missed - declared)
            for tally in (
                self._profiles[_profile_key(attrs)],
                self._bulk_totals,
            ):
                tally.degraded_declared += declared
                tally.undeclared_violations += undeclared
        for event in self._results:
            attrs = event.attrs
            satisfied = bool(
                attrs.get("k_satisfied") and attrs.get("area_satisfied")
            )
            declared = (
                bool(attrs.get("degraded"))
                or event.seq in self._degraded_result_seqs
            )
            user = str(attrs.get("user"))
            for tally in (self._users[user], self._profiles[_profile_key(attrs)]):
                if satisfied:
                    continue
                if declared:
                    tally.degraded_declared += 1
                else:
                    tally.undeclared_violations += 1

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------

    def violations(self, declared: bool = False) -> list[Event]:
        """``cloak.result`` events that missed their requirement.

        With ``declared=False`` (the default) only *undeclared* misses —
        no ``degraded`` marker anywhere — are returned; those are
        contract breaches.  ``declared=True`` returns every miss.

        Bulk rounds participate too: a ``cloak.bulk`` group event is a
        declared miss when its ``degraded`` count covers every user that
        missed, and an undeclared violation otherwise.
        """
        out = []
        for event in self._results:
            attrs = event.attrs
            if attrs.get("k_satisfied") and attrs.get("area_satisfied"):
                continue
            is_declared = (
                bool(attrs.get("degraded"))
                or event.seq in self._degraded_result_seqs
            )
            if declared or not is_declared:
                out.append(event)
        for event in self._bulk_events:
            attrs = event.attrs
            missed = int(attrs.get("n", 0)) - int(attrs.get("fully_attained", 0))
            if missed <= 0:
                continue
            is_declared = int(attrs.get("degraded", 0)) >= missed
            if declared or not is_declared:
                out.append(event)
        out.sort(key=lambda e: e.seq)
        return out

    def report(self) -> dict:
        """Plain-data attainment report (JSON-serialisable as-is)."""
        totals = _Tally()
        for tally in self._users.values():
            totals.cloaks += tally.cloaks
            totals.k_attained += tally.k_attained
            totals.area_attained += tally.area_attained
            totals.fully_attained += tally.fully_attained
            totals.degraded_declared += tally.degraded_declared
            totals.undeclared_violations += tally.undeclared_violations
            totals.areas.extend(tally.areas)
            totals.k_achieved.extend(tally.k_achieved)
        bulk = self._bulk_totals
        totals.cloaks += bulk.cloaks
        totals.k_attained += bulk.k_attained
        totals.area_attained += bulk.area_attained
        totals.fully_attained += bulk.fully_attained
        totals.degraded_declared += bulk.degraded_declared
        totals.undeclared_violations += bulk.undeclared_violations
        totals.area_agg_sum = bulk.area_agg_sum
        totals.area_agg_n = bulk.area_agg_n
        totals.area_agg_min = bulk.area_agg_min
        totals.k_agg_sum = bulk.k_agg_sum
        totals.k_agg_n = bulk.k_agg_n
        totals.k_agg_min = bulk.k_agg_min
        queries = {
            kind: {
                "count": count,
                "accuracy": self._query_correct.get(kind, 0) / count,
                **(
                    {
                        "mean_overhead": sum(overheads) / len(overheads),
                        "max_overhead": max(overheads),
                    }
                    if (overheads := self._query_overheads.get(kind))
                    else {}
                ),
            }
            for kind, count in sorted(self._query_counts.items())
        }
        return {
            "schema": "repro.obs.audit/1",
            "totals": totals.as_dict(),
            "users": {
                user: tally.as_dict()
                for user, tally in sorted(self._users.items())
            },
            "profiles": {
                profile: tally.as_dict()
                for profile, tally in sorted(self._profiles.items())
            },
            "queries": queries,
        }
