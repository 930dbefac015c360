"""Declarative SLO specs and the rolling health monitor.

The paper's user profiles are QoS contracts — each user names the
privacy (k, A_min) she requires and implicitly the service quality she
expects back.  This module states the *system-wide* counterpart as
data: a tuple of :class:`SLOSpec` values (p95 per-stage latency,
privacy-attainment rate, degradation rate, snapshot-reuse rate,
answer accuracy, re-identification risk), evaluated by
:class:`SLOMonitor` over the rolling event-log window and the
telemetry snapshot into a typed :class:`HealthReport` with stable exit
codes — ``python -m repro health`` is the operational front door, and
CI smoke-checks it.

Two evidence sources, deliberately different windows:

* **event-derived** SLOs (attainment, degradation, snapshot reuse,
  accuracy, risk) evaluate over the last ``window`` events of the ring
  buffer — a *rolling* view that recovers when the system does;
* **latency** SLOs read the span histograms, which are lifetime
  aggregates — drift across commits is the pipeline benchmark's job
  (``bench/run.py``), not this monitor's.

A spec with no evidence in the window (e.g. snapshot-reuse before any
batch ran) passes vacuously with ``measured=None`` — absence of
traffic is not an outage.  Evaluation emits one ``slo.evaluated``
event and publishes ``slo.ok{slo=...}`` / ``slo.value{slo=...}``
gauges so dashboards and the Prometheus exporter carry the verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.audit import PrivacyAuditor
from repro.obs.events import (
    RISK_SCORED,
    SLO_EVALUATED,
    SNAPSHOT_CAPTURED,
    SNAPSHOT_REUSED,
    Event,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import PrivacySystem
    from repro.obs import Telemetry

#: Report envelope schema tag.
SLO_SCHEMA = "repro.obs.slo/1"

#: Process exit code for "one or more SLOs violated" (``repro health``).
#: Distinct from the audit CLI's 2.
EXIT_SLO_VIOLATION = 4

#: Rolling event window (most recent events) for event-derived SLOs.
DEFAULT_WINDOW = 512

#: Spec kinds -> (comparison direction, unit).  ``<=`` kinds are upper
#: bounds (latency, degradation); ``>=`` kinds are floors (attainment).
SLO_KINDS: dict[str, tuple[str, str]] = {
    "latency_p95": ("<=", "ms"),
    "attainment_rate": (">=", "rate"),
    "degradation_rate": ("<=", "rate"),
    "undeclared_violations": ("<=", "count"),
    "snapshot_reuse_rate": (">=", "rate"),
    "query_accuracy": (">=", "rate"),
    "reidentification_risk": ("<=", "rate"),
    "k_attainment_entropy": (">=", "bits"),
}


@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    Attributes:
        name: unique label (the gauge/report key).
        kind: one of :data:`SLO_KINDS`.
        target: the bound, in the kind's unit.
        stage: span name, required for (and only for) ``latency_p95``.
        description: one human line for reports.
    """

    name: str
    kind: str
    target: float
    stage: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; known: {sorted(SLO_KINDS)}"
            )
        if (self.kind == "latency_p95") != (self.stage is not None):
            raise ValueError(
                "stage is required for latency_p95 specs and meaningless "
                f"for any other kind (got kind={self.kind!r}, "
                f"stage={self.stage!r})"
            )

    @property
    def direction(self) -> str:
        return SLO_KINDS[self.kind][0]

    @property
    def unit(self) -> str:
        return SLO_KINDS[self.kind][1]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "stage": self.stage,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SLOSpec":
        if not isinstance(record, dict):
            raise ValueError("expected a JSON object")
        missing = [key for key in ("name", "kind", "target") if key not in record]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}")
        return cls(
            name=str(record["name"]),
            kind=str(record["kind"]),
            target=float(record["target"]),
            stage=record.get("stage"),
            description=str(record.get("description", "")),
        )


def load_slos(path: str) -> tuple[SLOSpec, ...]:
    """Read a JSON list of spec dicts (the ``--specs`` CLI flag).

    Raises:
        ValueError: naming ``path`` (and the bad record, if one is) when
            the file cannot be read or parsed, is not a JSON list, or
            holds a record that is not a valid spec.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            records = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: cannot read SLO specs: {exc}") from exc
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON list of SLO spec objects")
    specs = []
    for position, record in enumerate(records):
        try:
            specs.append(SLOSpec.from_dict(record))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: record {position} {record!r} is not an SLO spec: {exc}"
            ) from exc
    return tuple(specs)


#: The stock objectives ``python -m repro health`` evaluates.  Latency
#: bounds are generous — they catch pathologies, not CI-runner jitter;
#: the behavioural floors mirror the paper's contracts (answers exact,
#: every degradation declared).
DEFAULT_SLOS: tuple[SLOSpec, ...] = (
    SLOSpec(
        "cloak_latency_p95",
        "latency_p95",
        250.0,
        stage="anonymizer.cloak",
        description="per-cloak p95 stays interactive",
    ),
    SLOSpec(
        "private_range_latency_p95",
        "latency_p95",
        250.0,
        stage="server.private_range",
        description="candidate generation p95 stays interactive",
    ),
    SLOSpec(
        "attainment",
        "attainment_rate",
        0.5,
        description="cloaks fully attaining their (k, A_min) requirement",
    ),
    SLOSpec(
        "degradation",
        "degradation_rate",
        0.5,
        description="declared best-effort degradations stay the exception",
    ),
    SLOSpec(
        "undeclared_violations",
        "undeclared_violations",
        0.0,
        description="every missed requirement is declared (paper contract)",
    ),
    SLOSpec(
        "snapshot_reuse",
        "snapshot_reuse_rate",
        0.0,
        description="batch rounds answered without re-freezing (informational floor)",
    ),
    SLOSpec(
        "answer_accuracy",
        "query_accuracy",
        0.99,
        description="refined private-query answers match ground truth",
    ),
    SLOSpec(
        "reidentification_risk",
        "reidentification_risk",
        0.9,
        description=(
            "mean posterior re-identification probability stays below "
            "near-certain (risk monitor evidence)"
        ),
    ),
    SLOSpec(
        "k_attainment_entropy",
        "k_attainment_entropy",
        0.0,
        description=(
            "anonymity entropy the cloaks deliver (informational floor)"
        ),
    ),
)


@dataclass(frozen=True)
class SLOResult:
    """One evaluated objective.

    ``measured is None`` means the window held no evidence for this
    spec; the objective passes vacuously (``ok=True``) and the detail
    says so.
    """

    spec: SLOSpec
    measured: float | None
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "measured": self.measured,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass
class HealthReport:
    """The typed verdict ``python -m repro health`` prints and exits on."""

    results: list[SLOResult] = field(default_factory=list)
    window: int = DEFAULT_WINDOW
    events_seen: int = 0

    @property
    def healthy(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def violated(self) -> list[SLOResult]:
        return [result for result in self.results if not result.ok]

    @property
    def exit_code(self) -> int:
        return 0 if self.healthy else EXIT_SLO_VIOLATION

    def to_dict(self) -> dict:
        return {
            "schema": SLO_SCHEMA,
            "healthy": self.healthy,
            "exit_code": self.exit_code,
            "window": self.window,
            "events_seen": self.events_seen,
            "ok": sum(result.ok for result in self.results),
            "total": len(self.results),
            "violated": [result.spec.name for result in self.violated],
            "results": [result.to_dict() for result in self.results],
        }

    def render(self) -> str:
        """ASCII verdict table (the ``repro health`` default output)."""
        verdict = "HEALTHY" if self.healthy else "UNHEALTHY"
        ok = sum(result.ok for result in self.results)
        lines = [
            f"== SLO health ==  {verdict} ({ok}/{len(self.results)} ok)  "
            f"window={self.window} events ({self.events_seen} seen)"
        ]
        if not self.results:
            lines.append("  (no SLO specs)")
            return "\n".join(lines)
        name_width = max(len(result.spec.name) for result in self.results)
        for result in self.results:
            mark = "ok " if result.ok else "FAIL"
            lines.append(
                f"  {mark:<4} {result.spec.name:<{name_width}}  {result.detail}"
            )
        return "\n".join(lines)


class SLOMonitor:
    """Evaluates :class:`SLOSpec` s against a live system or raw telemetry.

    Args:
        specs: objectives to evaluate (default :data:`DEFAULT_SLOS`).
        window: rolling event window for event-derived objectives.
    """

    def __init__(
        self,
        specs: Sequence[SLOSpec] = DEFAULT_SLOS,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.specs = tuple(specs)
        self.window = window

    def evaluate(
        self,
        system: "PrivacySystem | None" = None,
        *,
        snapshot: dict | None = None,
        events: Iterable[Event] | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> HealthReport:
        """One health verdict right now.

        Either pass a :class:`~repro.core.system.PrivacySystem` (its
        telemetry snapshot, event ring and sink are used), or supply
        ``snapshot`` (for latency specs) and ``events`` (for the rest)
        directly.  When a telemetry unit is reachable
        the verdict is itself observable: ``slo.ok`` / ``slo.value``
        gauges are set and one ``slo.evaluated`` event is emitted.
        """
        if system is not None:
            snapshot = system.telemetry() if snapshot is None else snapshot
            events = (
                list(system.obs.events.events()) if events is None else events
            )
            telemetry = system.obs if telemetry is None else telemetry
        event_list = list(events) if events is not None else []
        windowed = event_list[-self.window :]
        stages = (snapshot or {}).get("stages", {})

        audit = PrivacyAuditor().consume(windowed).report()
        snapshot_counts = {SNAPSHOT_REUSED: 0, SNAPSHOT_CAPTURED: 0}
        for event in windowed:
            if event.kind in snapshot_counts:
                snapshot_counts[event.kind] += 1
        # Risk evidence: the newest risk.scored event in the window (the
        # online monitor emits one per sampling tick).  No monitoring
        # enabled -> no event -> the risk SLOs pass vacuously.
        risk: dict | None = None
        for event in reversed(windowed):
            if event.kind == RISK_SCORED:
                risk = event.attrs
                break

        results = [
            self._evaluate_one(spec, stages, audit, snapshot_counts, risk)
            for spec in self.specs
        ]
        report = HealthReport(
            results=results, window=self.window, events_seen=len(event_list)
        )
        if telemetry is not None:
            for result in results:
                telemetry.set_gauge(
                    "slo.ok", float(result.ok), slo=result.spec.name
                )
                if result.measured is not None:
                    telemetry.set_gauge(
                        "slo.value", result.measured, slo=result.spec.name
                    )
            telemetry.emit(
                SLO_EVALUATED,
                healthy=report.healthy,
                ok=sum(result.ok for result in results),
                total=len(results),
                violated=[result.spec.name for result in report.violated],
                window=self.window,
            )
        return report

    # ------------------------------------------------------------------

    def _evaluate_one(
        self,
        spec: SLOSpec,
        stages: dict,
        audit: dict,
        snapshot_counts: dict,
        risk: dict | None,
    ) -> SLOResult:
        measured = self._measure(spec, stages, audit, snapshot_counts, risk)
        if measured is None:
            return SLOResult(
                spec,
                None,
                True,
                f"no evidence in window (vacuously ok, target "
                f"{spec.direction} {spec.target:g}{_unit_suffix(spec)})",
            )
        ok = (
            measured <= spec.target
            if spec.direction == "<="
            else measured >= spec.target
        )
        return SLOResult(
            spec,
            measured,
            ok,
            f"{measured:g}{_unit_suffix(spec)} {spec.direction} "
            f"{spec.target:g}{_unit_suffix(spec)}",
        )

    def _measure(
        self,
        spec: SLOSpec,
        stages: dict,
        audit: dict,
        snapshot_counts: dict,
        risk: dict | None,
    ) -> float | None:
        kind = spec.kind
        if kind == "latency_p95":
            stage = stages.get(spec.stage)
            if not stage or not stage.get("count"):
                return None
            return float(stage["p95_ms"])
        totals = audit["totals"]
        if kind == "attainment_rate":
            if not totals["cloaks"]:
                return None
            return float(totals["attainment_rate"])
        if kind == "degradation_rate":
            if not totals["cloaks"]:
                return None
            return totals["degraded_declared"] / totals["cloaks"]
        if kind == "undeclared_violations":
            if not totals["cloaks"]:
                return None
            return float(totals["undeclared_violations"])
        if kind == "snapshot_reuse_rate":
            rounds = sum(snapshot_counts.values())
            if not rounds:
                return None
            return snapshot_counts[SNAPSHOT_REUSED] / rounds
        if kind == "query_accuracy":
            queries = audit["queries"]
            total = sum(entry["count"] for entry in queries.values())
            if not total:
                return None
            correct = sum(
                entry["accuracy"] * entry["count"]
                for entry in queries.values()
            )
            return correct / total
        if kind == "reidentification_risk":
            if risk is None or risk.get("reidentification") is None:
                return None
            return float(risk["reidentification"])
        if kind == "k_attainment_entropy":
            if risk is None or risk.get("k_attainment_entropy_bits") is None:
                return None
            return float(risk["k_attainment_entropy_bits"])
        raise ValueError(f"unknown SLO kind: {kind!r}")  # pragma: no cover


def _unit_suffix(spec: SLOSpec) -> str:
    unit = spec.unit
    if unit == "ms":
        return " ms"
    if unit == "bits":
        return " bits"
    return ""
