"""Plan accuracy: predicted cost vs measured reality.

The planner emits a predicted per-query cost in every
``planner.decision`` event; :class:`AccuracyMonitor`, owned by
:class:`~repro.planner.planner.QueryPlanner`, checks it.  Every executed
query feeds it (decision, measured seconds); it keeps a rolling
measured/predicted ratio window per (kind, backend, route) group, emits
a ``planner.mispredict`` event the moment a group's median ratio leaves
the tolerance band, and — when the *overall* calibration drift
(geometric mean of group medians) exceeds its band — asks the
:class:`~repro.planner.stats.StatisticsCollector` to recalibrate.  That
is planner self-healing driven purely by observability: a stale
calibration manifests as drift, drift triggers recalibration, fresh
predictions bring the ratios home (proved end-to-end by
``tests/integration/test_feedback_loop.py``).  The same folded drift is
the evidence of the ``mispredict_ratio`` SLO (:mod:`repro.obs.slo`);
its report carries schema ``repro.obs.accuracy/1``.

Ratios are symmetric: a group predicting 4x too *low* is as wrong as
one predicting 4x too high, so bands compare ``max(r, 1/r)`` against
the threshold.  Sub-microsecond predictions are skipped — at that scale
the measurement is timer noise, not evidence.

Pinned routes (``Decision.pinned``: private NN / k-NN / Monte-Carlo NN,
which only the native store can execute) are handled differently.  A
mispredict there is *unfixable* by route choice — there is exactly one
candidate — and the statistics collector's recalibration does not model
their refinement machinery, so flagging them only produced alarm noise
and futile recalibrations.  Instead the monitor keeps a separate ratio
window per pinned group and folds the observed median into a
multiplicative ``pinned_bias`` that the planner applies to that group's
next cost estimates: the prediction self-corrects, the group never
counts toward ``mispredicts`` or drift.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Iterable

from repro.obs.events import PLANNER_CALIBRATED, PLANNER_MISPREDICT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.planner.planner import Decision

#: Report envelope schema tag.
ACCURACY_SCHEMA = "repro.obs.accuracy/1"

#: A group misprediced when median(max(r, 1/r)) exceeds this factor.
DEFAULT_THRESHOLD = 4.0

#: Overall drift (geometric-mean ratio) band triggering recalibration.
DEFAULT_DRIFT_BAND = 4.0

#: Rolling ratio window per (kind, backend, route) group.
DEFAULT_WINDOW = 32

#: Observations a group needs before its median is trusted.
DEFAULT_MIN_SAMPLES = 8

#: Predictions below this are timer noise, not evidence (seconds).
MIN_PREDICTED_SECONDS = 1e-9

#: A pinned group's median ratio outside this band updates its bias.
PINNED_ADJUST_BAND = 1.5


def _median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _fold(ratio: float) -> float:
    """Symmetric badness: 4x too slow and 4x too fast fold to 4."""
    if ratio <= 0.0:
        return math.inf
    return ratio if ratio >= 1.0 else 1.0 / ratio


class AccuracyMonitor:
    """Online measured-vs-predicted tracker with self-healing triggers.

    Args:
        threshold: per-group folded median ratio past which the group
            is a mispredict (emits ``planner.mispredict`` once per
            excursion — edge-triggered, re-armed when the group returns
            to band or after a recalibration).
        drift_band: folded overall drift past which a recalibration is
            requested (collected by the planner via
            :meth:`poll_recalibration`).
        window: rolling ratio window per group.
        min_samples: observations before a group's median is trusted.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        drift_band: float = DEFAULT_DRIFT_BAND,
        window: int = DEFAULT_WINDOW,
        min_samples: int = DEFAULT_MIN_SAMPLES,
    ) -> None:
        self.threshold = threshold
        self.drift_band = drift_band
        self.window = window
        self.min_samples = min_samples
        self._ratios: dict[tuple[str, str, str], deque[float]] = {}
        self._flagged: set[tuple[str, str, str]] = set()
        self._pinned_ratios: dict[tuple[str, str, str], deque[float]] = {}
        self._pinned_bias: dict[tuple[str, str, str], float] = {}
        self._observations = 0
        self._quiet_until = 0
        self._recal_reason: str | None = None
        #: Lifetime tallies (survive post-recalibration window resets).
        self.observed = 0
        self.mispredicts = 0
        self.recalibrations = 0
        self.pinned_recalibrations = 0

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def observe(
        self,
        decision: "Decision",
        seconds: float,
        n: int = 1,
        emit=None,
    ) -> float | None:
        """Feed one measurement; returns the ratio (or ``None`` if skipped).

        Args:
            decision: the plan that ran (its ``seconds`` is the
                per-query prediction).
            seconds: measured wall-clock seconds *per query*.
            n: how many queries the measurement averages over (batch).
            emit: optional ``Telemetry.emit`` for ``planner.mispredict``.
        """
        predicted = decision.seconds
        if predicted < MIN_PREDICTED_SECONDS or seconds < 0.0:
            return None
        ratio = max(seconds, 1e-12) / predicted
        key = (decision.kind, decision.backend, decision.route)
        if decision.pinned:
            return self._observe_pinned(key, ratio, emit)
        ring = self._ratios.get(key)
        if ring is None:
            ring = self._ratios[key] = deque(maxlen=self.window)
        ring.append(ratio)
        self.observed += 1
        self._observations += 1
        if len(ring) < self.min_samples:
            return ratio
        median = _median(ring)
        if _fold(median) > self.threshold:
            if key not in self._flagged:
                self._flagged.add(key)
                self.mispredicts += 1
                if emit is not None:
                    emit(
                        PLANNER_MISPREDICT,
                        query=key[0],
                        backend=key[1],
                        route=key[2],
                        median_ratio=median,
                        samples=len(ring),
                        threshold=self.threshold,
                        predicted_seconds=predicted,
                        measured_seconds=seconds,
                    )
            if (
                self._recal_reason is None
                and self._observations >= self._quiet_until
            ):
                drift = self.drift()
                if _fold(drift) > self.drift_band:
                    self._recal_reason = (
                        f"measured/predicted drift {drift:.3g}x across "
                        f"{len(self._flagged)} mispredicting group(s)"
                    )
        else:
            self._flagged.discard(key)
        return ratio

    def _observe_pinned(
        self, key: tuple[str, str, str], ratio: float, emit=None
    ) -> float:
        """Pinned-group path: learn a cost bias, never flag or drift.

        ``ratio`` is measured over the *already biased* prediction, so
        a multiplicative median update converges: once the bias is
        right, medians sit near 1.0 and nothing further happens.
        """
        ring = self._pinned_ratios.get(key)
        if ring is None:
            ring = self._pinned_ratios[key] = deque(maxlen=self.window)
        ring.append(ratio)
        self.observed += 1
        if len(ring) >= self.min_samples:
            median = _median(ring)
            if _fold(median) > PINNED_ADJUST_BAND:
                bias = self._pinned_bias.get(key, 1.0) * median
                self._pinned_bias[key] = bias
                self.pinned_recalibrations += 1
                ring.clear()
                if emit is not None:
                    emit(
                        PLANNER_CALIBRATED,
                        scope="pinned",
                        query=key[0],
                        backend=key[1],
                        route=key[2],
                        median_ratio=median,
                        bias=bias,
                    )
        return ratio

    def pinned_bias(self, kind: str, backend: str, route: str) -> float:
        """Learned cost multiplier for one pinned group (1.0 = none)."""
        return self._pinned_bias.get((kind, backend, route), 1.0)

    def poll_recalibration(self) -> str | None:
        """Collect (and clear) a pending recalibration request.

        Clearing also resets the ratio windows — the old ratios judged
        the *old* calibration — and opens a quiet period one window
        long, so the freshly calibrated predictions get a fair sample
        before the drift check re-arms.
        """
        reason = self._recal_reason
        if reason is not None:
            self._recal_reason = None
            self.recalibrations += 1
            self._quiet_until = self._observations + self.window
            self._ratios.clear()
            self._flagged.clear()
        return reason

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def drift(self) -> float:
        """Geometric mean of trusted group medians (1.0 = calibrated)."""
        logs = [
            math.log(_median(ring))
            for ring in self._ratios.values()
            if len(ring) >= self.min_samples and _median(ring) > 0.0
        ]
        if not logs:
            return 1.0
        return math.exp(sum(logs) / len(logs))

    def report(self) -> dict:
        """Per-group and overall accuracy (JSON-serialisable)."""
        groups = {}
        for (kind, backend, route), ring in sorted(self._ratios.items()):
            median = _median(ring)
            groups["/".join((kind, backend, route))] = {
                "kind": kind,
                "backend": backend,
                "route": route,
                "samples": len(ring),
                "median_ratio": median,
                "folded": _fold(median),
                "mispredict": (kind, backend, route) in self._flagged,
            }
        pinned_groups = {}
        for (kind, backend, route), ring in sorted(self._pinned_ratios.items()):
            median = _median(ring)
            pinned_groups["/".join((kind, backend, route))] = {
                "kind": kind,
                "backend": backend,
                "route": route,
                "samples": len(ring),
                "median_ratio": median,
                "bias": self._pinned_bias.get((kind, backend, route), 1.0),
            }
        drift = self.drift()
        return {
            "schema": ACCURACY_SCHEMA,
            "source": "online",
            "threshold": self.threshold,
            "drift_band": self.drift_band,
            "observed": self.observed,
            "mispredicts": self.mispredicts,
            "recalibrations": self.recalibrations,
            "pinned_recalibrations": self.pinned_recalibrations,
            "drift": drift,
            "drift_folded": _fold(drift),
            "groups": groups,
            "pinned_groups": pinned_groups,
        }

    def reset(self) -> None:
        self._ratios.clear()
        self._flagged.clear()
        self._pinned_ratios.clear()
        self._pinned_bias.clear()
        self._observations = 0
        self._quiet_until = 0
        self._recal_reason = None
        self.observed = 0
        self.mispredicts = 0
        self.recalibrations = 0
        self.pinned_recalibrations = 0
