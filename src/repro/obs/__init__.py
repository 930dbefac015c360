"""Pipeline-wide observability: metrics, tracing, exporters.

This package makes the paper's privacy/QoS dial *measurable*.  Every
stage of the Figure 1 architecture — user update, anonymizer admission,
cloaking, server candidate generation, client refinement, plus the
public/probabilistic paths and the batch engine's snapshot/kernel
stages — is wrapped in a :func:`Telemetry.span`, and the spatial
indexes count node visits, leaf scans and distance computations per
query (see ``docs/observability.md`` for the complete
span/metric -> paper-stage mapping).

The :class:`Telemetry` facade bundles a :class:`~repro.obs.metrics.
MetricsRegistry` with a :class:`~repro.obs.trace.Tracer`.  A process
global (:func:`get_telemetry`) serves components constructed standalone;
:class:`~repro.core.system.PrivacySystem` builds a private instance per
system so concurrent systems never mix numbers.  Exporters for JSON,
Prometheus text format and an ASCII dashboard live in
:mod:`repro.obs.export` and behind ``python -m repro obs``.
"""

from __future__ import annotations

from repro.obs.correlate import (
    CORRELATION_METRIC,
    CorrelatedRecord,
    CorrelationIds,
    correlate_events,
)
from repro.obs.events import EVENT_KINDS, EVENT_METRIC, Event, EventLog
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_key,
)
from repro.obs.trace import SPAN_METRIC, SpanRecord, Tracer


class Telemetry:
    """One registry + one tracer + one event log: the injection unit.

    The three hot-path methods are bound per instance (one call instead
    of two on the hottest paths in the package):

    * ``span(name, **attrs)`` times one stage; a no-op fast path while
      tracing is disabled.
    * ``emit(kind, /, **attrs)`` records one structured event; dropped
      while events are disabled.
    * ``correlate(kind="q", reuse=False)`` opens a correlation scope:
      everything recorded inside carries the minted ``qid`` (see
      :class:`~repro.obs.correlate.CorrelationIds`).

    Args:
        enabled: whether spans are recorded; metrics counters always work
            (they are integer adds, cheaper than the spans they'd gate).
        keep: completed-span ring-buffer size.
        events_enabled: whether structured events are recorded; follows
            ``enabled`` when omitted, so dark telemetry stays dark.
        events_keep: event ring-buffer size.
    """

    def __init__(
        self,
        enabled: bool = True,
        keep: int = 512,
        events_enabled: bool | None = None,
        events_keep: int = 2048,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.registry, enabled=enabled, keep=keep)
        self.events = EventLog(
            self.registry,
            enabled=enabled if events_enabled is None else events_enabled,
            keep=events_keep,
        )
        # One correlation-id unit shared by the log and the tracer, so a
        # scope opened at any entry point stamps both streams.
        self.correlation = CorrelationIds(self.registry)
        self.events.correlation = self.correlation
        self.tracer.correlation = self.correlation
        self.span = self.tracer.span
        self.emit = self.events.emit
        self.correlate = self.correlation.scope

    def correlated_records(self):
        """Join buffered events and spans by ``qid`` (offline view)."""
        return correlate_events(self.events.events(), self.tracer.spans())

    def count(self, name: str, amount: int = 1, **labels: object) -> None:
        """Increment counter ``name`` (created on first use)."""
        self.registry.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record ``value`` into histogram ``name``."""
        self.registry.histogram(name, **labels).observe(value)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self.registry.gauge(name, **labels).set(value)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def enable(self) -> None:
        self.tracer.enable()

    def disable(self) -> None:
        self.tracer.disable()

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()
        self.events.reset()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def stage_latencies(self) -> dict[str, dict[str, float]]:
        """Per-span-name latency summaries (count, mean, p50/p95/p99, ms)."""
        stages: dict[str, dict[str, float]] = {}
        for (name, labels), hist in self.registry.histograms():
            if name != SPAN_METRIC:
                continue
            label_map = dict(labels)
            span_name = label_map.get("span")
            if span_name is None:
                continue
            stages[span_name] = {
                "count": hist.count,
                "total_ms": hist.total,
                "mean_ms": hist.mean,
                "p50_ms": hist.quantile(0.50),
                "p95_ms": hist.quantile(0.95),
                "p99_ms": hist.quantile(0.99),
                "max_ms": hist.max,
            }
        return dict(sorted(stages.items()))

    def snapshot(self) -> dict[str, object]:
        """Plain-data snapshot: stages + raw metrics, JSON-serialisable."""
        events = self.events.counts()  # emits an open run: count it too
        raw = self.registry.snapshot()
        histograms = {
            key: value
            for key, value in raw["histograms"].items()
            if not key.startswith(SPAN_METRIC + "{")
        }
        return {
            "enabled": self.enabled,
            "stages": self.stage_latencies(),
            "counters": raw["counters"],
            "gauges": raw["gauges"],
            "histograms": histograms,
            "events": events,
        }


_GLOBAL = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-global telemetry used by standalone components."""
    return _GLOBAL


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Swap the process-global telemetry; returns the previous one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = telemetry
    return previous


def span(name: str, **attrs: object):
    """Span on the process-global telemetry (module-level convenience)."""
    return _GLOBAL.span(name, **attrs)


def enable_tracing() -> None:
    _GLOBAL.enable()


def disable_tracing() -> None:
    _GLOBAL.disable()


# Imported after Telemetry exists: audit builds on events, explain on the
# index counters — none depends back on this module at import time.
from repro.obs.audit import PrivacyAuditor  # noqa: E402
from repro.obs.explain import (  # noqa: E402
    PlanNode,
    QueryExplainer,
    plan_to_json,
    render_plan,
)
from repro.obs.risk import PrivacyRiskMonitor  # noqa: E402
from repro.obs.serve import (  # noqa: E402
    TelemetryEndpoint,
    validate_exposition,
)
from repro.obs.slo import (  # noqa: E402
    DEFAULT_SLOS,
    HealthReport,
    SLOMonitor,
    SLOSpec,
    load_slos,
)
from repro.obs.timeseries import TimeSeriesStore, Window  # noqa: E402

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "SPAN_METRIC",
    "SpanRecord",
    "Tracer",
    "Telemetry",
    "Event",
    "EventLog",
    "EVENT_KINDS",
    "EVENT_METRIC",
    "CorrelationIds",
    "CorrelatedRecord",
    "correlate_events",
    "CORRELATION_METRIC",
    "PrivacyAuditor",
    "PrivacyRiskMonitor",
    "TimeSeriesStore",
    "Window",
    "TelemetryEndpoint",
    "validate_exposition",
    "SLOSpec",
    "SLOMonitor",
    "HealthReport",
    "DEFAULT_SLOS",
    "load_slos",
    "PlanNode",
    "QueryExplainer",
    "plan_to_json",
    "render_plan",
    "get_telemetry",
    "set_telemetry",
    "span",
    "enable_tracing",
    "disable_tracing",
    "render_key",
]
