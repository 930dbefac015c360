"""The planner's cost model: measured seconds in, ranked choices out.

Every estimate starts from :class:`~repro.planner.stats.PlannerStats`
calibration probes — real wall-clock seconds and counter deltas on a
sample of the live data — and scales them to the live store size and
the query's estimated selectivity.  The model is deliberately simple
(linear size scaling for range/count work, square-root for k-NN
descent, window-area fraction as the selectivity estimate) because its
job is *ranking* backends and routes measured under identical
conditions, not absolute latency prediction.  Amortisable one-off costs
are charged explicitly: a cold replica's build is spread over the batch
that would use it, as is the vectorized route's snapshot/grid
preparation when the cached snapshot is stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.planner.replicas import BACKEND_NAMES
from repro.planner.stats import PROBE_K, RANGE_BUCKETS, PlannerStats

#: Execution routes the planner chooses between.
ROUTES = ("scalar", "vectorized")


@dataclass(frozen=True)
class CostEstimate:
    """One candidate execution: a (backend, route) pair with its price.

    ``seconds`` is the estimated per-query cost including amortised
    preparation; ``detail`` carries the additive terms for EXPLAIN and
    the CLI decision table.
    """

    backend: str
    route: str
    seconds: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "route": self.route,
            "seconds": self.seconds,
            **self.detail,
        }


def _interp_bucket(values: tuple[float, ...], fraction: float) -> float:
    """Probe-bucket interpolation (clamped linear over area fractions)."""
    return float(
        np.interp(fraction, np.asarray(RANGE_BUCKETS), np.asarray(values))
    )


class CostModel:
    """Prices (backend, route) candidates against one stats snapshot."""

    def __init__(self, stats: PlannerStats) -> None:
        self.stats = stats

    # ------------------------------------------------------------------
    # Scale factors
    # ------------------------------------------------------------------

    def _scale(self, side: str) -> float:
        """Live-size / sample-size ratio (>= 1) for linear-cost work."""
        n = self.stats.n_public if side == "public" else self.stats.n_private
        sample = max(1, self.stats.calibration_sample)
        return max(1.0, n / sample)

    def selectivity(self, window_area: float) -> float:
        """Window area as a fraction of the universe (clamped to [0, 1])."""
        universe = self.stats.universe
        if universe is None or universe.area <= 0.0:
            return 1.0
        return float(min(1.0, max(0.0, window_area / universe.area)))

    # ------------------------------------------------------------------
    # Candidate pricing
    # ------------------------------------------------------------------

    def scalar_range(
        self, backend: str, fraction: float, side: str, fresh: bool, batch: int
    ) -> CostEstimate | None:
        cal = self.stats.backends.get(backend)
        if cal is None:
            return None
        scale = self._scale(side)
        query_s = _interp_bucket(cal.range_seconds, fraction) * scale
        build_s = 0.0
        if backend != "rtree" and not fresh:
            build_s = cal.build_seconds * scale / max(1, batch)
        return CostEstimate(
            backend,
            "scalar",
            query_s + build_s,
            {
                "query_seconds": query_s,
                "replica_build_seconds": build_s,
                "est_node_visits": _interp_bucket(
                    cal.range_node_visits, fraction
                )
                * scale,
                "est_leaf_scans": _interp_bucket(cal.range_leaf_scans, fraction)
                * scale,
                "selectivity": fraction,
            },
        )

    def scalar_knn(
        self, backend: str, k: int, fresh: bool, batch: int
    ) -> CostEstimate | None:
        cal = self.stats.backends.get(backend)
        if cal is None:
            return None
        scale = self._scale("public")
        query_s = (
            cal.knn_seconds * float(np.sqrt(scale)) * max(1.0, k / PROBE_K)
        )
        build_s = 0.0
        if backend != "rtree" and not fresh:
            build_s = cal.build_seconds * scale / max(1, batch)
        return CostEstimate(
            backend,
            "scalar",
            query_s + build_s,
            {
                "query_seconds": query_s,
                "replica_build_seconds": build_s,
                "est_distance_computations": cal.knn_distance_computations
                * float(np.sqrt(scale))
                * max(1.0, k / PROBE_K),
                "k": k,
            },
        )

    def vectorized(self, kind: str, side: str, batch: int) -> CostEstimate | None:
        """The kernel route: per-query kernel sweep plus amortised prep.

        ``kind`` is one of ``range`` / ``count`` / ``knn``; the sweep is
        O(n) per query, so the sample timing scales linearly.  Snapshot
        capture and the uniform-grid build are charged only while cold.
        """
        cal = self.stats.kernels
        if cal is None:
            return None
        scale = self._scale(side)
        per_query = {
            "range": cal.range_seconds,
            "count": cal.count_seconds,
            "knn": cal.knn_seconds,
        }[kind]
        query_s = per_query * scale
        prep_s = 0.0
        if not self.stats.snapshot_fresh or not self.stats.grid_ready:
            prep_s = cal.grid_build_seconds * scale / max(1, batch)
        return CostEstimate(
            "rtree",  # the snapshot freezes the native store
            "vectorized",
            query_s + prep_s,
            {"query_seconds": query_s, "prep_seconds": prep_s},
        )

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------

    @staticmethod
    def rank(candidates: list[CostEstimate]) -> list[CostEstimate]:
        """Cheapest first; deterministic tie-break (scalar, backend order)."""
        return sorted(
            candidates,
            key=lambda c: (
                c.seconds,
                ROUTES.index(c.route),
                BACKEND_NAMES.index(c.backend),
            ),
        )

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------

    def eligible_backends(
        self, side: str, point=None, require_degenerate: bool = False
    ) -> list[str]:
        """Backends that can *prove* result-identity for this query.

        - the native ``rtree`` store always qualifies;
        - an empty store makes replicas pointless (rtree only);
        - the grid needs a positive-area universe, and for k-NN probes
          the query point must lie inside it;
        - a grid replica of the private store exists only while every
          cloaked region is degenerate (``require_degenerate``).
        """
        n = self.stats.n_public if side == "public" else self.stats.n_private
        universe = self.stats.universe
        grid_fits = (
            n > 0
            and (self.stats.private_degenerate or not require_degenerate)
            and universe is not None
            and universe.area > 0.0
            and (point is None or universe.contains_point(point))
        )
        return ["rtree", "grid"] if grid_fits else ["rtree"]
