"""Reproducible mixed query workloads against a full PrivacySystem.

Realistic LBS traffic is not one query type: it is a mix of "what's near
me" range probes, "nearest X" lookups, and operator-side analytics, with
popularity skew across users.  This module generates such a mix
deterministically and drives it through the end-to-end system, producing
the QoS summary the trade-off analyses and stress tests consume.

Workloads are *data*: every event converts to a declarative
:class:`~repro.queries.spec.QuerySpec` (:func:`specs_from_events` /
:func:`generate_specs`), the spec list round-trips through JSON
(:func:`dump_specs` / :func:`load_specs`), and execution goes through
``PrivacySystem.query`` so the cost-based planner — not the workload
driver — picks the backend and route for every query.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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
    dump_specs,
    is_user_bound,
    load_specs,
    native_kind,
)


class QueryKind(enum.Enum):
    """The query species of the mix."""

    PRIVATE_RANGE = "private_range"
    PRIVATE_NN = "private_nn"
    PUBLIC_COUNT = "public_count"
    PUBLIC_NN = "public_nn"


@dataclass(frozen=True)
class QueryEvent:
    """One scheduled query.

    ``subject`` is a user id for private queries, a query point for
    public NN, or a window for public counts.
    """

    kind: QueryKind
    subject: object
    radius: float = 0.0


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


def generate_events(
    mix: QueryMix,
    user_ids: Sequence[Hashable],
    bounds: Rect,
    rng: np.random.Generator,
) -> list[QueryEvent]:
    """Materialise a deterministic event list from a mix recipe."""
    if not user_ids:
        raise QueryError("need at least one user to generate a workload")
    kinds = list(QueryKind)
    weights = np.asarray(mix.weights, dtype=float)
    weights = weights / weights.sum()
    popularity = np.asarray(zipf_weights(len(user_ids), mix.user_skew))
    side = mix.window_fraction * bounds.width
    events: list[QueryEvent] = []
    for _ in range(mix.n_queries):
        kind = kinds[int(rng.choice(4, p=weights))]
        if kind in (QueryKind.PRIVATE_RANGE, QueryKind.PRIVATE_NN):
            user = user_ids[int(rng.choice(len(user_ids), p=popularity))]
            events.append(QueryEvent(kind, user, radius=mix.radius))
        elif kind is QueryKind.PUBLIC_COUNT:
            cx = float(rng.uniform(bounds.min_x + side / 2, bounds.max_x - side / 2))
            cy = float(rng.uniform(bounds.min_y + side / 2, bounds.max_y - side / 2))
            events.append(
                QueryEvent(kind, Rect.from_center(Point(cx, cy), side, side))
            )
        else:
            cx = float(rng.uniform(bounds.min_x, bounds.max_x))
            cy = float(rng.uniform(bounds.min_y, bounds.max_y))
            events.append(QueryEvent(kind, Point(cx, cy)))
    return events


def specs_from_events(
    events: Sequence[QueryEvent],
    samples: int = 1024,
    rng: np.random.Generator | None = None,
) -> list[QuerySpec]:
    """Convert scheduled events into declarative, serialisable specs.

    ``rng`` seeds the Monte-Carlo public-NN specs (one fresh seed per
    event, drawn deterministically), so a spec list fully determines the
    workload's answers — including the probabilistic ones.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    specs: list[QuerySpec] = []
    for event in events:
        if event.kind is QueryKind.PRIVATE_RANGE:
            specs.append(
                RangeSpec(
                    flavor="private", user=event.subject, radius=event.radius
                )
            )
        elif event.kind is QueryKind.PRIVATE_NN:
            specs.append(NNSpec(flavor="private", user=event.subject))
        elif event.kind is QueryKind.PUBLIC_COUNT:
            specs.append(CountSpec(window=event.subject))
        else:
            specs.append(
                NNSpec(
                    flavor="public",
                    dataset="private",
                    point=event.subject,
                    samples=samples,
                    seed=int(rng.integers(0, 2**31 - 1)),
                )
            )
    return specs


def generate_specs(
    mix: QueryMix,
    user_ids: Sequence[Hashable],
    bounds: Rect,
    rng: np.random.Generator,
    samples: int = 1024,
) -> list[QuerySpec]:
    """Materialise a mix directly as a JSON-ready spec list.

    ``dump_specs`` on the result (and ``load_specs`` back) round-trips
    the whole workload through plain JSON — workloads are data.
    """
    events = generate_events(mix, user_ids, bounds, rng)
    return specs_from_events(events, samples=samples, rng=rng)


def _kind_of_spec(spec: QuerySpec) -> QueryKind:
    """The mix species a spec belongs to (for report bucketing).

    Species are named by native kind; private ones must be user-bound,
    because scoring needs the asker's exact location.
    """
    kind = native_kind(spec)
    scorable = {species.value for species in QueryKind}
    if kind in scorable and is_user_bound(spec) == kind.startswith("private"):
        return QueryKind(kind)
    raise QueryError(
        f"workload driver cannot score spec: {spec!r}; supported kinds "
        "are private range/NN (user-bound), public count, and "
        "probabilistic public NN"
    )


@dataclass
class WorkloadReport:
    """Aggregated outcome of one workload run."""

    executed: dict[QueryKind, int] = field(default_factory=dict)
    private_correct: int = 0
    private_total: int = 0
    count_abs_error: list[float] = field(default_factory=list)
    nn_truth_contained: int = 0
    nn_total: int = 0

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {
            f"n_{kind.value}": float(n) for kind, n in self.executed.items()
        }
        if self.private_total:
            out["private_accuracy"] = self.private_correct / self.private_total
        if self.count_abs_error:
            out["count_mean_abs_error"] = float(np.mean(self.count_abs_error))
        if self.nn_total:
            out["public_nn_containment"] = self.nn_truth_contained / self.nn_total
        return out


def run_workload(
    system: PrivacySystem,
    events: Sequence[QueryEvent],
    samples: int = 1024,
    rng: np.random.Generator | None = None,
) -> WorkloadReport:
    """Execute a workload end to end, scoring answers against ground truth.

    Events are converted to declarative specs (``rng`` seeds the
    probabilistic NN draws) and run through :func:`run_spec_workload`,
    so the cost-based planner chooses every execution.
    """
    specs = specs_from_events(events, samples=samples, rng=rng)
    return run_spec_workload(system, specs)


def run_spec_workload(
    system: PrivacySystem, specs: Sequence[QuerySpec]
) -> WorkloadReport:
    """Execute a spec workload through ``PrivacySystem.query``, scored.

    Ground truth comes from the simulator's exact user locations — which
    the server never sees; the report checks the privacy pipeline kept its
    correctness guarantees under the whole mix.
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
        kind = _kind_of_spec(spec)
        report.executed[kind] = report.executed.get(kind, 0) + 1
        if kind in (QueryKind.PRIVATE_RANGE, QueryKind.PRIVATE_NN):
            outcome, _ = system.query(spec)
            report.private_total += 1
            report.private_correct += outcome.correct
        elif kind is QueryKind.PUBLIC_COUNT:
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
