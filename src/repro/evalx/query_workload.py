"""Reproducible mixed query workloads against a full PrivacySystem.

Realistic LBS traffic is not one query type: it is a mix of "what's near
me" range probes, "nearest X" lookups, and operator-side analytics, with
popularity skew across users.  This module draws such a mix
deterministically as declarative :class:`~repro.queries.spec.QuerySpec`
lists (:func:`generate_specs`) and drives it through the end-to-end
system, producing the QoS summary the trade-off analyses and stress tests
consume.

Workloads are *data*: a spec list round-trips through JSON
(``dump_specs`` / ``load_specs`` in :mod:`repro.queries.spec`), and
execution goes through ``PrivacySystem.query`` so the planner — not the
workload driver — picks the route for every query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Sequence

import numpy as np

from repro.core.errors import QueryError
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sampling import zipf_weights
from repro.queries.public_range import exact_range_count
from repro.queries.spec import (
    CountSpec,
    NNSpec,
    QuerySpec,
    RangeSpec,
    is_user_bound,
    native_kind,
)

#: The native kinds of the mix, in the order of :attr:`QueryMix.weights`.
_MIX_KINDS = ("private_range", "private_nn", "public_count", "public_nn")


@dataclass(frozen=True)
class QueryMix:
    """Workload recipe: how much of each kind, and the skews.

    Attributes:
        n_queries: total queries to generate.
        weights: relative frequency per kind, in the order
            (private_range, private_nn, public_count, public_nn).
        user_skew: Zipf skew of which users issue private queries
            (0 = uniform popularity).
        radius: radius used by private range queries.
        window_fraction: side of count windows relative to the universe.
    """

    n_queries: int = 100
    weights: tuple[float, float, float, float] = (0.4, 0.3, 0.2, 0.1)
    user_skew: float = 0.7
    radius: float = 5.0
    window_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.n_queries < 0:
            raise QueryError("n_queries must be non-negative")
        if len(self.weights) != 4 or any(w < 0 for w in self.weights):
            raise QueryError("weights must be four non-negative numbers")
        if sum(self.weights) <= 0:
            raise QueryError("weights must sum to a positive value")


def generate_specs(
    mix: QueryMix,
    user_ids: Sequence[Hashable],
    bounds: Rect,
    rng: np.random.Generator,
    samples: int = 1024,
) -> list[QuerySpec]:
    """Materialise a mix recipe as a deterministic, JSON-ready spec list.

    Every spec's kind and subject are drawn first, then one Monte-Carlo
    seed per public-NN spec, so one ``rng`` state fixes the whole
    workload — including its probabilistic answers.
    """
    if not user_ids:
        raise QueryError("need at least one user to generate a workload")
    weights = np.asarray(mix.weights, dtype=float)
    weights = weights / weights.sum()
    popularity = np.asarray(zipf_weights(len(user_ids), mix.user_skew))
    side = mix.window_fraction * bounds.width
    specs: list[QuerySpec] = []
    for _ in range(mix.n_queries):
        kind = _MIX_KINDS[int(rng.choice(4, p=weights))]
        if kind == "private_range" or kind == "private_nn":
            user = user_ids[int(rng.choice(len(user_ids), p=popularity))]
            specs.append(
                RangeSpec(flavor="private", user=user, radius=mix.radius)
                if kind == "private_range"
                else NNSpec(flavor="private", user=user)
            )
        elif kind == "public_count":
            cx = float(rng.uniform(bounds.min_x + side / 2, bounds.max_x - side / 2))
            cy = float(rng.uniform(bounds.min_y + side / 2, bounds.max_y - side / 2))
            specs.append(CountSpec(window=Rect.from_center(Point(cx, cy), side, side)))
        else:
            cx = float(rng.uniform(bounds.min_x, bounds.max_x))
            cy = float(rng.uniform(bounds.min_y, bounds.max_y))
            specs.append(
                NNSpec(
                    flavor="public",
                    dataset="private",
                    point=Point(cx, cy),
                    samples=samples,
                )
            )
    return [
        replace(spec, seed=int(rng.integers(0, 2**31 - 1)))
        if native_kind(spec) == "public_nn"
        else spec
        for spec in specs
    ]


@dataclass
class WorkloadReport:
    """Aggregated outcome of one workload run, bucketed by native kind."""

    executed: dict[str, int] = field(default_factory=dict)
    private_correct: int = 0
    private_total: int = 0
    count_abs_error: list[float] = field(default_factory=list)
    nn_truth_contained: int = 0
    nn_total: int = 0

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {
            f"n_{kind}": float(n) for kind, n in self.executed.items()
        }
        if self.private_total:
            out["private_accuracy"] = self.private_correct / self.private_total
        if self.count_abs_error:
            out["count_mean_abs_error"] = float(np.mean(self.count_abs_error))
        if self.nn_total:
            out["public_nn_containment"] = self.nn_truth_contained / self.nn_total
        return out


def run_spec_workload(
    system: PrivacySystem, specs: Sequence[QuerySpec]
) -> WorkloadReport:
    """Execute a spec workload through ``PrivacySystem.query``, scored.

    Ground truth comes from the simulator's exact user locations — which
    the server never sees; the report checks the privacy pipeline kept its
    correctness guarantees under the whole mix.  Only the mix's kinds are
    scorable, and a private one must be user-bound, because scoring needs
    the asker's exact location.
    """
    report = WorkloadReport()
    # Ground truth over *visible* users only: passive users are invisible
    # to the server by design, so they are outside the answerable universe.
    visible = set(system.anonymizer.registered_users())
    exact = {
        uid: user.location
        for uid, user in system.users.items()
        if uid in visible
    }
    for spec in specs:
        kind = native_kind(spec)
        if kind not in _MIX_KINDS or is_user_bound(spec) != kind.startswith(
            "private"
        ):
            raise QueryError(
                f"workload driver cannot score spec: {spec!r}; supported "
                "kinds are private range/NN (user-bound), public count, "
                "and probabilistic public NN"
            )
        report.executed[kind] = report.executed.get(kind, 0) + 1
        if kind == "private_range" or kind == "private_nn":
            outcome, _ = system.query(spec)
            report.private_total += 1
            report.private_correct += outcome.correct
        elif kind == "public_count":
            answer = system.query(spec)
            truth = exact_range_count(exact, spec.window)
            report.count_abs_error.append(abs(answer.expected - truth))
        else:
            result = system.query(spec)
            truth_user = min(
                exact, key=lambda uid: exact[uid].distance_to(spec.point)
            )
            pseudonym = system.anonymizer.pseudonym_of(truth_user)
            report.nn_total += 1
            report.nn_truth_contained += pseudonym in result.candidates
    return report
