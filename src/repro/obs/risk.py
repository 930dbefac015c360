"""Online privacy-risk scoring over the live event stream.

Mokbel'06 casts the anonymizer as a *continuously running* trusted third
party, yet the attack library (:mod:`repro.attacks`) only ever ran
offline, after an experiment.  :class:`PrivacyRiskMonitor` closes that
gap: it taps the structured event stream (:meth:`EventLog.add_tap`) and
maintains the streaming forms of the three estimators
(:mod:`repro.attacks.streaming`) incrementally —

- **density**: a :class:`StreamingDensityModel` grid tracking the
  admitted population through ``user.admitted``/``users.moved``/
  ``user.retired``, scoring published regions by density-weighted
  effective anonymity (skewed populations pin victims to the packed
  corner of a nominally k-anonymous region);
- **linkage**: :class:`StreamingLinkageColumns`, one row per publishing
  user, fed by ``region.published`` / ``regions.published_bulk`` with
  time taken from the cloak events' ``t`` (pseudonym rotation restarts
  the row — that is the defense the columns quantify);
- **posterior**: a :class:`StreamingPosteriorIndex` counting the users
  that publish each equal region — the rolling estimate of the
  inversion-set anonymity an omniscient adversary would compute;
- **k-attainment**: a bounded window of (k requested, k achieved) pairs
  from ``cloak.result``/``cloak.bulk``, summarised as attainment entropy
  (bits of anonymity actually delivered).

Per-event cost is a dict/row update, a bulk publication one columnar
pass; the full scoring pass
(:meth:`score`) runs on the time-series sampling cadence, publishes
``risk.*`` gauges, and emits one ``risk.scored`` event the SLO monitor
reads (kinds ``reidentification_risk`` / ``k_attainment_entropy``), so
``python -m repro health`` covers privacy risk, not just latency.

Schema: ``repro.obs.risk/1``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Mapping

import numpy as np

from repro.attacks.streaming import (
    StreamingDensityModel,
    StreamingLinkageColumns,
    StreamingPosteriorIndex,
)
from repro.geometry.rect import Rect
from repro.obs.events import (
    CLOAK_BULK,
    CLOAK_RESULT,
    CLOCK_ADVANCED,
    REGION_PUBLISHED,
    REGIONS_PUBLISHED_BULK,
    RISK_SCORED,
    USER_ADDED,
    USER_ADMITTED,
    USER_RETIRED,
    USERS_MOVED,
    Event,
)

#: Versioned schema tag stamped on every risk report.
RISK_SCHEMA = "repro.obs.risk/1"

#: Default density-grid resolution (kept modest: scoring scans the grid).
DEFAULT_RESOLUTION = 16

#: Distinct regions scored for effective anonymity per :meth:`score`.
DEFAULT_SAMPLE_REGIONS = 16

#: Bounded window of (k, k_achieved, weight) attainment records.
DEFAULT_ATTAINMENT_WINDOW = 512


class PrivacyRiskMonitor:
    """Incremental adversary models fed by the live event stream.

    Args:
        bounds: the universe rectangle (density grid extent).
        resolution: density-grid resolution per axis.
        max_speed: linkage adversary's speed bound; when ``None`` it is
            learned as the fastest ``speed`` any ``user.added`` event has
            declared so far (0.0 until one is seen).
        telemetry: optional :class:`repro.obs.Telemetry` that receives
            ``risk.*`` gauges and the ``risk.scored`` events.
    """

    def __init__(
        self,
        bounds: Rect,
        resolution: int = DEFAULT_RESOLUTION,
        max_speed: float | None = None,
        telemetry=None,
    ) -> None:
        self.telemetry = telemetry
        self.density = StreamingDensityModel(bounds, resolution)
        self.posterior = StreamingPosteriorIndex()
        self.linkage = StreamingLinkageColumns(max_speed or 0.0)
        self._learns_speed = max_speed is None
        self._attainment: deque[tuple[int, int, int]] = deque(
            maxlen=DEFAULT_ATTAINMENT_WINDOW
        )
        self._t = 0.0
        self.events_consumed = 0
        self.scores = 0
        self.last_score: dict | None = None
        self._installed_log = None
        self._dispatch = {
            USER_ADDED: self._on_user_added,
            USER_ADMITTED: self._on_user_admitted,
            USERS_MOVED: self._on_users_moved,
            USER_RETIRED: self._on_user_retired,
            CLOCK_ADVANCED: self._on_clock,
            CLOAK_BULK: self._on_cloak_bulk,
            CLOAK_RESULT: self._on_cloak_result,
            REGION_PUBLISHED: self._on_region_published,
            REGIONS_PUBLISHED_BULK: self._on_regions_bulk,
        }

    # ------------------------------------------------------------------
    # Stream plumbing
    # ------------------------------------------------------------------

    def install(self, event_log) -> "PrivacyRiskMonitor":
        """Tap ``event_log`` so every future emission feeds the monitor."""
        event_log.add_tap(self.consume)
        self._installed_log = event_log
        return self

    def uninstall(self) -> None:
        if self._installed_log is not None:
            self._installed_log.remove_tap(self.consume)
            self._installed_log = None

    def consume(self, event: Event) -> None:
        """Feed one event (the EventLog tap entry point)."""
        handler = self._dispatch.get(event.kind)
        if handler is None:
            return
        self.events_consumed += 1
        handler(event.attrs)

    def seed_from(self, system) -> "PrivacyRiskMonitor":
        """Bootstrap from a system's current state (late enablement).

        Events emitted before the monitor existed are gone from the ring;
        seeding reconstructs the density grid and posterior buckets from
        the anonymizer's registrations and the server's live regions so
        ``/risk`` is meaningful immediately.
        """
        anonymizer = system.anonymizer
        cloaker = anonymizer.cloaker
        private = system.server.private if system.server is not None else None
        for user_id in anonymizer.registered_users():
            location = cloaker.location_of(user_id)
            self.density.admit(str(user_id), location.x, location.y)
            pseudonym = anonymizer.pseudonym_of(user_id)
            if private is not None and pseudonym in private:
                self.posterior.publish(str(user_id), private.region_of(pseudonym))
        self._t = system.clock
        return self

    # ------------------------------------------------------------------
    # Event handlers (hot path: cheap incremental updates only)
    # ------------------------------------------------------------------

    @property
    def max_speed(self) -> float:
        """The linkage adversary's speed bound (fixed or learned)."""
        return self.linkage.max_speed

    def _on_user_added(self, attrs: Mapping) -> None:
        speed = attrs.get("speed")
        if self._learns_speed and speed is not None and float(speed) > self.max_speed:
            self.linkage.max_speed = float(speed)

    def _on_user_admitted(self, attrs: Mapping) -> None:
        self.density.admit(attrs["user"], attrs["x"], attrs["y"])

    def _on_users_moved(self, attrs: Mapping) -> None:
        # StreamingDensityModel ignores users it never admitted, which
        # filters the system-side moves of passive (invisible) users.
        self.density.move_many(attrs["users"], attrs["xs"], attrs["ys"])

    def _on_user_retired(self, attrs: Mapping) -> None:
        user = attrs["user"]
        self.density.retire(user)
        self.posterior.retire(user)
        self.linkage.retire(user)

    def _on_clock(self, attrs: Mapping) -> None:
        t = attrs.get("t")
        if t is not None and float(t) > self._t:
            self._t = float(t)

    def _on_cloak_result(self, attrs: Mapping) -> None:
        self._on_clock(attrs)
        k = attrs.get("k")
        achieved = attrs.get("k_achieved")
        if k is not None and achieved is not None:
            self._attainment.append((int(k), int(achieved), 1))

    def _on_cloak_bulk(self, attrs: Mapping) -> None:
        self._on_clock(attrs)
        n = int(attrs.get("n") or 0)
        k = attrs.get("k")
        k_sum = attrs.get("k_sum")
        if n > 0 and k is not None and k_sum is not None:
            # One aggregate record per requirement group, weighted by its
            # population; the mean achieved k stands in for the per-user
            # stream the bulk path deliberately does not emit.
            self._attainment.append((int(k), int(round(k_sum / n)), n))

    def _on_region_published(self, attrs: Mapping) -> None:
        # A new pseudonym restarts the user's row.
        sides = (attrs["min_x"], attrs["min_y"], attrs["max_x"], attrs["max_y"])
        self.posterior.publish(attrs["user"], Rect(*sides))
        self.linkage.observe(attrs["user"], attrs["pseudonym"], self._t, sides)

    def _on_regions_bulk(self, attrs: Mapping) -> None:
        users = attrs.get("users")
        if not users:
            return
        sides = np.array(attrs["sides"], dtype=float).reshape(-1, 4)
        region = np.array(attrs["region"], dtype=np.intp)
        self.posterior.publish_many(users, sides, region)
        self.linkage.observe_many(users, attrs["pseudonyms"], self._t, sides, region)

    # ------------------------------------------------------------------
    # Scoring (sampling-cadence path)
    # ------------------------------------------------------------------

    def score(self, emit: bool = True) -> dict:
        """Summarise the current adversary estimates into risk gauges.

        Returns the score dict and (by default) publishes it as
        ``risk.*`` gauges plus one ``risk.scored`` event — the evidence
        the SLO monitor's ``reidentification_risk`` /
        ``k_attainment_entropy`` kinds read.
        """
        score = self._estimate()
        self.scores += 1
        self.last_score = score
        if emit and self.telemetry is not None:
            for key in (
                "reidentification",
                "posterior_entropy_bits",
                "k_attainment",
                "k_attainment_entropy_bits",
                "linkage_shrinkage",
                "effective_anonymity",
            ):
                if score[key] is not None:
                    self.telemetry.set_gauge(f"risk.{key}", score[key])
            self.telemetry.emit(RISK_SCORED, **score)
        return score

    def _estimate(self) -> dict:
        """The current adversary estimates, as :meth:`score` records them."""
        reid = self.posterior.mean_reidentification()
        entropy = self.posterior.mean_entropy_bits()
        attainment = None
        k_entropy = None
        if self._attainment:
            weight = sum(w for _, _, w in self._attainment)
            attainment = (
                sum(min(1.0, ka / k) * w for k, ka, w in self._attainment)
                / weight
            )
            k_entropy = (
                sum(math.log2(max(1, ka)) * w for _, ka, w in self._attainment)
                / weight
            )
        shrinkage = self.linkage.mean_shrinkage()
        effective = None
        recent = self.posterior.recent_regions(DEFAULT_SAMPLE_REGIONS)
        if recent:
            effective = sum(
                self.density.effective_anonymity(region) for region in recent
            ) / len(recent)
        return {
            "t": self._t,
            "population": self.density.population,
            "publishing": self.posterior.population,
            "buckets": self.posterior.bucket_count,
            "trackers": len(self.linkage),
            "events_consumed": self.events_consumed,
            "max_speed": self.max_speed,
            "reidentification": reid,
            "posterior_entropy_bits": entropy,
            "k_attainment": attainment,
            "k_attainment_entropy_bits": k_entropy,
            "linkage_shrinkage": shrinkage,
            "effective_anonymity": effective,
        }

    def report(self) -> dict:
        """Full JSON risk report (the ``/risk`` endpoint body); reading
        it records no score."""
        score = self._estimate()
        sizes = self.posterior.bucket_sizes()
        return {
            "schema": RISK_SCHEMA,
            "score": score,
            "posterior": {
                "population": self.posterior.population,
                "buckets": self.posterior.bucket_count,
                "smallest_bucket": min(sizes, default=None),
                "largest_bucket": max(sizes, default=None),
            },
            "linkage": {
                "trackers": len(self.linkage),
                "max_speed": self.max_speed,
                "inconsistent_steps": self.linkage.inconsistent_steps,
            },
            "attainment_records": len(self._attainment),
            "scores": self.scores,
        }

    def render(self) -> str:
        """One-screen ASCII summary (the ``repro top`` risk panel)."""
        score = self.last_score or self._estimate()

        def fmt(value, pattern="{:.3f}"):
            return pattern.format(value) if value is not None else "-"

        return "\n".join(
            [
                "privacy risk  "
                f"(population={score['population']} "
                f"publishing={score['publishing']} "
                f"buckets={score['buckets']} trackers={score['trackers']})",
                f"  reidentification risk   {fmt(score['reidentification'])}"
                "   (mean 1/bucket; 1.0 = unique)",
                f"  posterior entropy       {fmt(score['posterior_entropy_bits'])} bits",
                f"  k-attainment            {fmt(score['k_attainment'])}"
                f"   entropy {fmt(score['k_attainment_entropy_bits'])} bits",
                f"  linkage shrinkage       {fmt(score['linkage_shrinkage'])}"
                "   (1.0 = nothing learned)",
                f"  effective anonymity     {fmt(score['effective_anonymity'])}"
                "   equivalent cells",
            ]
        )
