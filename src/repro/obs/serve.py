"""stdlib HTTP telemetry endpoint: /metrics, /health, /risk, /timeseries.

The paper's trusted third party is a *service*; external monitors (and
the ROADMAP's future shard aggregators) watch services over the network,
not by importing their modules.  :class:`TelemetryEndpoint` exposes a
running :class:`~repro.core.system.PrivacySystem` on an
``http.server.ThreadingHTTPServer``:

- ``GET /metrics`` — Prometheus text exposition (reuses
  :func:`repro.obs.export.to_prometheus` on the live snapshot);
- ``GET /health`` — the SLO :class:`HealthReport` as JSON, status 503
  when any objective is violated (load-balancer semantics);
- ``GET /risk`` — the online :class:`~repro.obs.risk.PrivacyRiskMonitor`
  report (fresh score per scrape);
- ``GET /timeseries`` — the windowed
  :class:`~repro.obs.timeseries.TimeSeriesStore` snapshot;
- ``GET /`` — a JSON index of the above.

Routing is a pure function (:meth:`TelemetryEndpoint.respond`) so the
body/status logic is unit-testable without sockets; the HTTP layer adds
only framing.  Reads race benignly with the serving thread — snapshots
iterate over list() copies and the GIL keeps single dict reads atomic —
which is the same trade the in-process exporters already make.

``validate_exposition`` checks Prometheus text-format well-formedness
(the ``make serve-smoke`` gate).
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro.obs.events import json_default
from repro.obs.export import to_prometheus
from repro.obs.slo import EXIT_SLO_VIOLATION, SLOMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import PrivacySystem

#: Paths the endpoint serves (the JSON index body).
ENDPOINT_PATHS = ("/metrics", "/health", "/risk", "/timeseries")

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+( \d+)?$"
)
_COMMENT_RE = re.compile(r"^#\s(HELP|TYPE)\s[a-zA-Z_:][a-zA-Z0-9_:]*(\s.*)?$")


def validate_exposition(text: str) -> list[str]:
    """Problems with a Prometheus text-exposition body (empty = valid).

    Checks line shape (``name{labels} value``), float-parsable sample
    values, and balanced label quoting — the format properties a real
    scraper would reject on.
    """
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not _COMMENT_RE.match(line):
                problems.append(f"line {lineno}: malformed comment: {line!r}")
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        value = line.rsplit("}", 1)[-1].strip().split()[0] if "}" in line else line.split()[1]
        try:
            float(value)
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value: {value!r}")
        if line.count('"') % 2:
            problems.append(f"line {lineno}: unbalanced label quotes")
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    return problems


class TelemetryEndpoint:
    """HTTP face of one :class:`PrivacySystem`'s telemetry.

    Args:
        system: the system to expose; monitoring (time-series + risk) is
            enabled on it if not already.
        slo_monitor: objectives behind ``/health`` (default
            :data:`DEFAULT_SLOS` via a fresh :class:`SLOMonitor`).
    """

    def __init__(
        self,
        system: "PrivacySystem",
        slo_monitor: SLOMonitor | None = None,
    ) -> None:
        self.system = system
        self.slo_monitor = slo_monitor if slo_monitor is not None else SLOMonitor()
        if system.timeseries is None or system.risk is None:
            system.enable_monitoring()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Pure routing (unit-testable without sockets)
    # ------------------------------------------------------------------

    def respond(self, path: str) -> tuple[int, str, str]:
        """Route one GET: returns (status, content_type, body)."""
        self.requests_served += 1
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            return (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                to_prometheus(self.system.telemetry()),
            )
        if path == "/health":
            report = self.slo_monitor.evaluate(self.system)
            status = 200 if report.healthy else 503
            return status, "application/json", _json(report.to_dict())
        if path == "/risk":
            if self.system.risk is None:  # pragma: no cover - ctor enables
                return 404, "application/json", _json({"error": "risk monitoring disabled"})
            return 200, "application/json", _json(self.system.risk.report())
        if path == "/timeseries":
            if self.system.timeseries is None:  # pragma: no cover
                return 404, "application/json", _json({"error": "time-series disabled"})
            # A scrape is a natural sampling tick: cut a window if due.
            self.system.timeseries.maybe_sample()
            return 200, "application/json", _json(self.system.timeseries.snapshot())
        if path == "/":
            return 200, "application/json", _json(
                {
                    "service": "repro-telemetry",
                    "paths": list(ENDPOINT_PATHS),
                    "requests_served": self.requests_served,
                }
            )
        return 404, "application/json", _json(
            {"error": f"unknown path {path!r}", "paths": list(ENDPOINT_PATHS)}
        )

    # ------------------------------------------------------------------
    # Socket lifecycle
    # ------------------------------------------------------------------

    def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns (host, bound_port).

        ``port=0`` asks the OS for an ephemeral port (the smoke-test and
        CI path — no collisions, no configuration).
        """
        if self._server is not None:
            raise RuntimeError("endpoint already started")
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                status, content_type, body = endpoint.respond(self.path)
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args: object) -> None:
                pass  # quiet: the CLI owns stdout

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-telemetry", daemon=True
        )
        self._thread.start()
        bound_host, bound_port = self._server.server_address[:2]
        return str(bound_host), int(bound_port)

    def shutdown(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return self._server is not None


def scrape(host: str, port: int, path: str) -> tuple[int, str]:
    """Minimal stdlib GET against a running endpoint (smoke tests)."""
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def smoke(system: "PrivacySystem", host: str = "127.0.0.1") -> dict:
    """Start, scrape every path, validate, shut down; returns a verdict.

    The ``make serve-smoke`` body: asserts the exposition format parses,
    the JSON endpoints round-trip, /health carries the SLO verdict (503
    maps to exit code 4 semantics), and shutdown releases the socket.
    """
    endpoint = TelemetryEndpoint(system)
    bound_host, port = endpoint.start(host=host, port=0)
    problems: list[str] = []
    checks: dict[str, dict] = {}
    try:
        status, body = scrape(bound_host, port, "/metrics")
        checks["/metrics"] = {"status": status, "bytes": len(body)}
        if status != 200:
            problems.append(f"/metrics returned {status}")
        problems.extend(validate_exposition(body))

        status, body = scrape(bound_host, port, "/health")
        health = json.loads(body)
        checks["/health"] = {"status": status, "healthy": health["healthy"]}
        if health["healthy"] != (status == 200):
            problems.append("/health status disagrees with verdict")
        if not health["healthy"] and health["exit_code"] != EXIT_SLO_VIOLATION:
            problems.append("/health exit_code mismatch")

        status, body = scrape(bound_host, port, "/risk")
        risk = json.loads(body)
        checks["/risk"] = {"status": status, "schema": risk.get("schema")}
        if status != 200 or risk.get("schema") != "repro.obs.risk/1":
            problems.append(f"/risk invalid (status {status})")

        status, body = scrape(bound_host, port, "/timeseries")
        series = json.loads(body)
        checks["/timeseries"] = {
            "status": status,
            "windows": len(series.get("windows", [])),
        }
        if status != 200:
            problems.append(f"/timeseries returned {status}")
    finally:
        endpoint.shutdown()
    if endpoint.running:
        problems.append("endpoint still running after shutdown")
    return {
        "ok": not problems,
        "host": bound_host,
        "port": port,
        "checks": checks,
        "problems": problems,
    }


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=json_default) + "\n"
