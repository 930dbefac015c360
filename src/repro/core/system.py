"""End-to-end privacy-aware LBS pipeline (Figure 1 of the paper).

``PrivacySystem`` wires the three entities of the architecture — mobile
users, the Location Anonymizer, and the location-based database server —
plus a mobility model, and keeps the quality-of-service ledger that the
privacy/QoS trade-off experiments (E9) read.

The central tension the paper describes is made measurable here: a query's
*answer quality* never degrades (candidate sets always contain the true
answer and the client refines locally), what degrades with stronger privacy
is the *cost* — candidate-set transmission sizes and probabilistic-answer
uncertainty.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import ClassVar, Hashable

import numpy as np

from repro.cloaking.base import Cloaker
from repro.cloaking.incremental import IncrementalCloaker
from repro.core.anonymizer import LocationAnonymizer, _collector_held
from repro.core.errors import QueryError, RegistrationError
from repro.core.server import LocationServer
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.core.profiles import profile_rows
from repro.mobility.users import MobileUser, UserMode
from repro.obs import Telemetry
from repro.obs.events import (
    CLOCK_ADVANCED,
    LOG_TRUNCATED,
    QUERY_COMPLETED,
    USER_ADDED,
    USER_MODE_CHANGED,
    USER_MOVED,
    WAL_ROTATED,
)
from repro.queries.private_knn import refine_knn_candidates
from repro.queries.private_nn import refine_nn_candidates
from repro.queries.private_range import exact_range_answer, refine_range_candidates
from repro.queries.spec import (
    QuerySpec,
    SPEC_TYPES,
    is_user_bound,
    native_kind,
)

#: Auto-rotate the WAL at checkpoint time once it exceeds this size.
DEFAULT_WAL_ROTATE_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class RangeQueryOutcome:
    """Ledger entry for one end-to-end private range query.

    Attributes:
        user_id: who asked.
        cloak_area: area of the cloaked region used.
        candidates: server-to-client transmission size.
        answer_size: size of the refined (true) answer.
        correct: did refinement produce exactly the ground-truth answer?
    """

    user_id: Hashable
    cloak_area: float
    candidates: int
    answer_size: int
    correct: bool
    ledger: ClassVar[str] = "range_outcomes"
    qos: ClassVar[tuple[str, str]] = ("qos.range_overhead", "overhead")

    @classmethod
    def judge(cls, spec, cloak_area, candidates, refined, truth, distance):
        return cls(
            spec.user,
            cloak_area,
            candidates,
            len(refined),
            sorted(refined, key=repr) == sorted(truth, key=repr),
        )

    @property
    def overhead(self) -> float:
        """Candidates shipped per true answer object (>= 1.0)."""
        return self.candidates / max(1, self.answer_size)


@dataclass(frozen=True)
class NNQueryOutcome:
    """Ledger entry for one end-to-end private NN query.

    ``correct`` is distance-exact, as for k-NN: two objects at one
    address, or mirror images about the user, are the same answer.
    """

    user_id: Hashable
    cloak_area: float
    candidates: int
    correct: bool
    ledger: ClassVar[str] = "nn_outcomes"
    qos: ClassVar[tuple[str, str]] = ("qos.nn_candidates", "candidates")
    #: One object answers an NN query, so every candidate is overhead.
    answer_size: ClassVar[int] = 1

    @classmethod
    def judge(cls, spec, cloak_area, candidates, refined, truth, distance):
        return cls(
            spec.user, cloak_area, candidates, distance(refined) == distance(truth)
        )

    @property
    def overhead(self) -> float:
        return float(self.candidates)


@dataclass(frozen=True)
class KNNQueryOutcome:
    """Ledger entry for one end-to-end private k-NN query.

    ``correct`` compares the refined list's distance sequence against
    the canonical k-NN answer's, so equidistant permutations count as
    correct (the paper's answer-quality guarantee is distance-exact,
    not id-exact, under ties).
    """

    user_id: Hashable
    cloak_area: float
    k: int
    candidates: int
    answer_size: int
    correct: bool
    ledger: ClassVar[str] = "knn_outcomes"
    qos: ClassVar[tuple[str, str]] = ("qos.knn_candidates", "candidates")

    @classmethod
    def judge(cls, spec, cloak_area, candidates, refined, truth, distance):
        return cls(
            spec.user,
            cloak_area,
            spec.k,
            candidates,
            len(refined),
            [distance(i) for i in refined] == [distance(i) for i in truth],
        )

    @property
    def overhead(self) -> float:
        """Candidates shipped per true answer object (>= 1.0)."""
        return self.candidates / max(1, self.answer_size)


@dataclass
class QoSLedger:
    """Accumulated quality-of-service statistics."""

    range_outcomes: list[RangeQueryOutcome] = field(default_factory=list)
    nn_outcomes: list[NNQueryOutcome] = field(default_factory=list)
    knn_outcomes: list[KNNQueryOutcome] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        """Aggregate trade-off metrics for reports."""
        out: dict[str, float] = {}
        if self.range_outcomes:
            out["range_queries"] = len(self.range_outcomes)
            out["range_mean_candidates"] = float(
                np.mean([o.candidates for o in self.range_outcomes])
            )
            out["range_mean_overhead"] = float(
                np.mean([o.overhead for o in self.range_outcomes])
            )
            out["range_accuracy"] = float(
                np.mean([o.correct for o in self.range_outcomes])
            )
            out["mean_cloak_area"] = float(
                np.mean([o.cloak_area for o in self.range_outcomes])
            )
        if self.nn_outcomes:
            out["nn_queries"] = len(self.nn_outcomes)
            out["nn_mean_candidates"] = float(
                np.mean([o.candidates for o in self.nn_outcomes])
            )
            out["nn_accuracy"] = float(np.mean([o.correct for o in self.nn_outcomes]))
        if self.knn_outcomes:
            out["knn_queries"] = len(self.knn_outcomes)
            out["knn_mean_candidates"] = float(
                np.mean([o.candidates for o in self.knn_outcomes])
            )
            out["knn_mean_overhead"] = float(
                np.mean([o.overhead for o in self.knn_outcomes])
            )
            out["knn_accuracy"] = float(
                np.mean([o.correct for o in self.knn_outcomes])
            )
        return out


#: What differs between the user-bound query kinds, by native kind:
#: ``(refine(store, result, location), truth(store, location, spec),
#: outcome type)``; :meth:`PrivacySystem._user_query` is the pipeline.
#: The processors are called through this module's names on every
#: query, so a tracer that patches ``repro.core.system.refine_*`` sees
#: each call.
_USER_PIPELINES: dict[str, tuple] = {
    "private_range": (
        lambda store, result, at: refine_range_candidates(store, result, at),
        lambda store, at, spec: exact_range_answer(store, at, spec.radius),
        RangeQueryOutcome,
    ),
    "private_nn": (
        lambda store, result, at: refine_nn_candidates(store, result, at),
        lambda store, at, spec: store.nearest(at, k=1)[0],
        NNQueryOutcome,
    ),
    "private_knn": (
        lambda store, result, at: refine_knn_candidates(store, result, at),
        lambda store, at, spec: store.nearest(at, k=min(spec.k, len(store))),
        KNNQueryOutcome,
    ),
}


class PrivacySystem:
    """Users + anonymizer + server, stepped together.

    Args:
        bounds: the universe rectangle.
        cloaker: the anonymizer's cloaking algorithm.
        rotate_pseudonyms: pseudonym policy forwarded to the anonymizer.
        telemetry: observability sink shared by the whole pipeline.  Each
            system gets its own :class:`~repro.obs.Telemetry` by default so
            two systems in one process never mix their metrics; pass one in
            to aggregate across systems or to start with tracing disabled.
    """

    def __init__(
        self,
        bounds: Rect,
        cloaker: Cloaker | IncrementalCloaker,
        rotate_pseudonyms: bool = False,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.bounds = bounds
        self.obs = telemetry if telemetry is not None else Telemetry()
        self.server = LocationServer(telemetry=self.obs)
        self.anonymizer = LocationAnonymizer(
            cloaker,
            self.server,
            rotate_pseudonyms=rotate_pseudonyms,
            telemetry=self.obs,
        )
        self.users: dict[Hashable, MobileUser] = {}
        self.ledger = QoSLedger()
        self.clock = 0.0
        #: Live monitoring (repro.obs.timeseries / repro.obs.risk); None
        #: until :meth:`enable_monitoring` — a disabled system pays one
        #: attribute check per entry point.
        self.timeseries = None
        self.risk = None
        self._wal_dir: str | None = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def add_poi(self, object_id: Hashable, point: Point) -> None:
        """Add a public point of interest (gas station, restaurant...)."""
        self.server.add_public_object(object_id, point)

    def add_user(self, user: MobileUser) -> None:
        """Add a mobile user; visible modes register with the anonymizer."""
        if user.user_id in self.users:
            raise RegistrationError(f"duplicate user: {user.user_id!r}")
        self._add_user(user)
        # System-level durable record (covers passive users, who never
        # reach the anonymizer and so never get a ``user.admitted``).
        self.obs.emit(
            USER_ADDED,
            user=str(user.user_id),
            x=user.location.x,
            y=user.location.y,
            mode=user.mode.value,
            speed=user.speed,
            profile=profile_rows(user.profile),
        )
        if user.is_visible:
            self.anonymizer.register(user.user_id, user.profile, user.location)

    def set_mode(self, user_id: Hashable, mode: UserMode) -> None:
        """Switch a user's participation mode, (un)registering as needed."""
        user = self._user(user_id)
        was_visible = user.is_visible
        self._change_mode(user_id, mode)
        self.obs.emit(USER_MODE_CHANGED, user=str(user_id), mode=mode.value)
        if user.is_visible and not was_visible:
            self.anonymizer.register(user.user_id, user.profile, user.location)
        elif was_visible and not user.is_visible:
            self.anonymizer._emit_retired(user_id, self._retire(user_id))

    # ------------------------------------------------------------------
    # Simulation stepping
    # ------------------------------------------------------------------

    def apply_movement(self, positions: dict[Hashable, Point], dt: float = 1.0) -> None:
        """Apply one mobility-model step's positions and publish regions.

        Every id is checked before anything changes: one unknown user
        refuses the whole step, with nothing moved and nothing logged.
        """
        for user_id in positions:
            self._user(user_id)
        self.clock += dt
        self.obs.emit(CLOCK_ADVANCED, t=self.clock, dt=dt)
        for user_id, point in positions.items():
            self._move_user(user_id, point)
            self.obs.emit(USER_MOVED, user=str(user_id), x=point.x, y=point.y)
        for user_id in positions:
            if self.users[user_id].is_visible:
                self.anonymizer.publish(user_id, self.clock)

    def publish_all(self, *, bulk: bool = False) -> None:
        """Push fresh cloaked regions for every visible user.

        ``bulk=True`` routes through the vectorized one-pass population
        cloaker (:meth:`LocationAnonymizer.publish_all_bulk`) — same
        regions, one numpy pass plus a single server batch push.
        """
        with self.obs.correlate("b"):
            if bulk:
                self.anonymizer.publish_all_bulk(self.clock)
            else:
                self.anonymizer.publish_all(self.clock)
        if self.timeseries is not None:
            self.timeseries.maybe_sample()

    # ------------------------------------------------------------------
    # The declarative query entry point
    # ------------------------------------------------------------------

    @property
    def planner(self):
        """The server's query planner."""
        return self.server.planner

    def query(self, spec: QuerySpec):
        """Answer one declarative :class:`~repro.queries.spec.QuerySpec`.

        The single front door for all four query types in both flavors.
        User-bound private specs run the full pipeline (cloak -> planned
        server execution -> client refinement) with QoS accounting and
        return ``(outcome, refined_answer)``; everything else is routed
        by the planner and returns the server-side answer
        (see :meth:`repro.planner.QueryPlanner.execute` for the result
        type per spec).
        """
        if not isinstance(spec, SPEC_TYPES):
            raise QueryError(
                f"query() takes a QuerySpec, got {type(spec).__name__}"
            )
        # One correlation id per front-door request: every span, event
        # and planner decision below joins on it (repro.obs.correlate).
        with self.obs.correlate("q"):
            if is_user_bound(spec):
                result = self._user_query(spec)
            else:
                result = self.planner.execute(spec)
        if self.timeseries is not None:
            self.timeseries.maybe_sample()
        return result

    def _user_query(self, spec):
        """Full pipeline: cloak -> planned candidates -> client refinement.

        One sequence for every user-bound kind; :data:`_USER_PIPELINES`
        supplies what differs.  Returns ``(outcome, refined_answer)``.
        """
        kind = native_kind(spec)
        refine, truth, outcome_type = _USER_PIPELINES[kind]
        at = self._visible_user(spec.user).location
        store = self.server.public
        with self.obs.span(f"query.{kind}", method=spec.method):
            cloak = self.anonymizer.cloak_user(spec.user, self.clock)
            result = self.planner.execute(
                replace(spec, user=None, region=cloak.region)
            )
            with self.obs.span("client.refine", query=kind):
                refined = refine(store, result, at)
        outcome = outcome_type.judge(
            spec,
            cloak.region.area,
            len(result.candidates),
            refined,
            truth(store, at, spec),
            lambda item: store.point_of(item).distance_to(at),
        )
        self._record(outcome)
        metric, field_name = outcome.qos
        self.obs.observe(metric, getattr(outcome, field_name))
        attrs = {"k": outcome.k} if kind == "private_knn" else {}
        self.obs.emit(
            QUERY_COMPLETED,
            query=kind,
            user=str(spec.user),
            candidates=outcome.candidates,
            answer_size=outcome.answer_size,
            overhead=outcome.overhead,
            correct=outcome.correct,
            cloak_area=outcome.cloak_area,
            **attrs,
        )
        return outcome, refined

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def execute_batch(self, specs: list[QuerySpec]) -> list:
        """Answer a heterogeneous spec batch, results aligned with input order.

        User-bound specs run the full QoS-accounted pipeline one by one;
        the rest are planned and executed together by
        :meth:`repro.planner.QueryPlanner.execute_batch`.
        """
        batch = list(specs)
        for spec in batch:
            if not isinstance(spec, SPEC_TYPES):
                raise QueryError(
                    f"execute_batch() takes QuerySpecs, got {type(spec).__name__}"
                )
        with self.obs.correlate("b"), self.obs.span(
            "system.execute_batch", size=len(batch)
        ):
            results = [None] * len(batch)
            planned: list[int] = []
            for position, spec in enumerate(batch):
                if is_user_bound(spec):
                    results[position] = self.query(spec)
                else:
                    planned.append(position)
            if planned:
                answers = self.planner.execute_batch(
                    [batch[p] for p in planned]
                )
                for position, answer in zip(planned, answers):
                    results[position] = answer
        if self.timeseries is not None:
            self.timeseries.maybe_sample()
        return results

    # ------------------------------------------------------------------
    # Live monitoring (time-series windows + online privacy risk)
    # ------------------------------------------------------------------

    def enable_monitoring(self, *, interval: float = 1.0) -> "PrivacySystem":
        """Turn on windowed telemetry sampling and online risk scoring.

        Installs a :class:`~repro.obs.timeseries.TimeSeriesStore` (one
        window per ``interval`` seconds, that class's default retention)
        and a :class:`~repro.obs.risk.PrivacyRiskMonitor` at its default
        resolution tapping the event stream; each cut window triggers one
        risk score, so the ``risk.*`` gauges and ``risk.scored`` events
        track the same cadence the windows do.  The risk monitor is
        primed from current anonymizer/server state so a mid-run enable
        does not start blind.  Idempotent; returns ``self`` for chaining.
        """
        from repro.obs.risk import PrivacyRiskMonitor
        from repro.obs.timeseries import TimeSeriesStore

        if self.timeseries is None:
            self.timeseries = TimeSeriesStore(self.obs, interval=interval)
        if self.risk is None:
            self.risk = PrivacyRiskMonitor(self.bounds, telemetry=self.obs)
            self.risk.install(self.obs.events)
            self.risk.seed_from(self)
            self.timeseries.on_sample.append(self._score_risk)
        return self

    def disable_monitoring(self) -> None:
        """Detach the risk monitor tap and drop the time-series store."""
        if self.risk is not None:
            self.risk.uninstall()
            self.risk = None
        self.timeseries = None

    def _score_risk(self, window) -> None:
        """on_sample hook: one risk score per cut window."""
        if self.risk is not None:
            self.risk.score()

    # ------------------------------------------------------------------
    # Durability (checkpoints + WAL; see docs/durability.md)
    # ------------------------------------------------------------------

    def attach_wal(self, directory) -> None:
        """Stream every future event to ``<directory>/wal.jsonl``.

        Also drops a ``wal-meta.json`` sidecar (bounds, pseudonym policy,
        cloaker configuration) so :meth:`recover` can cold-start from the
        log alone when no checkpoint was ever written.  Attach before the
        first mutation: the WAL can only replay what it has seen.
        """
        from repro.persist.checkpoint import write_wal_meta

        write_wal_meta(self, directory)
        self._wal_dir = str(directory)
        self.obs.events.attach_jsonl(os.path.join(self._wal_dir, "wal.jsonl"))

    def rotate_wal(self) -> str | None:
        """Seal the live WAL into a segment file and start a fresh one.

        The old ``wal.jsonl`` is renamed to ``wal-<last_seq>.jsonl`` and
        the fresh WAL opens with a ``log.truncated`` marker carrying
        ``rotated_to``, so :class:`~repro.persist.recovery.Recovery` can
        tell a deliberate rotation (fine, as long as a checkpoint covers
        the rotated-away prefix) from accidental truncation (refused).
        Returns the segment file name, or ``None`` when no WAL is
        attached or nothing has been streamed yet.
        """
        log = self.obs.events
        if self._wal_dir is None or log._sink is None:
            return None
        streamed = log._streamed_seq
        if streamed <= 0:
            return None
        from repro.persist.checkpoint import WAL_NAME

        wal_path = os.path.join(self._wal_dir, WAL_NAME)
        segment = f"wal-{streamed:012d}.jsonl"
        log.detach_jsonl()
        rotated_bytes = (
            os.path.getsize(wal_path) if os.path.exists(wal_path) else 0
        )
        os.replace(wal_path, os.path.join(self._wal_dir, segment))
        marker = {
            "kind": LOG_TRUNCATED,
            "seq": streamed,
            "first_seq": 1,
            "last_seq": streamed,
            "lost": streamed,
            "reason": "rotated",
            "rotated_to": segment,
        }
        with open(wal_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(marker, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        # Re-attach: ring seqs are all <= streamed, so no backfill occurs
        # and the fresh WAL stays marker-first.
        log.attach_jsonl(wal_path)
        self.obs.emit(
            WAL_ROTATED,
            segment=segment,
            last_seq=streamed,
            bytes=rotated_bytes,
        )
        return segment

    def checkpoint(
        self,
        directory,
        *,
        rotate_wal_over: int | None = DEFAULT_WAL_ROTATE_BYTES,
    ) -> str:
        """Write an atomic versioned checkpoint of the whole pipeline.

        Returns the checkpoint file path and emits ``persist.checkpoint``.
        Replay after recovery starts from the WAL sequence number the
        checkpoint records, so the WAL tail stays short.  When the live
        WAL has grown past ``rotate_wal_over`` bytes it is rotated
        *before* the checkpoint is written — the checkpoint's sequence
        number then covers the rotation point, keeping the replay tail
        contiguous.  Pass ``rotate_wal_over=None`` to never rotate.
        """
        from repro.persist.checkpoint import WAL_NAME, write_checkpoint

        if (
            rotate_wal_over is not None
            and self._wal_dir is not None
            and self.obs.events._sink is not None
        ):
            wal_path = os.path.join(self._wal_dir, WAL_NAME)
            if (
                os.path.exists(wal_path)
                and os.path.getsize(wal_path) > rotate_wal_over
            ):
                self.rotate_wal()
        # The document is a burst of short-lived containers with no cycles
        # among them: held, the collector neither scans it nor promotes it
        # into the oldest generation, where it would hasten a full pass.
        with _collector_held():
            return write_checkpoint(self, directory)

    @classmethod
    def recover(
        cls,
        directory,
        *,
        cloaker: Cloaker | IncrementalCloaker | None = None,
        telemetry: Telemetry | None = None,
        allow_gaps: bool = False,
        attach: bool = False,
    ) -> "PrivacySystem":
        """Reconstruct a system from ``directory``'s checkpoint + WAL tail.

        Restores the newest readable checkpoint (cold-starts from the WAL
        alone when none exists) and replays every logged event past it.
        Declared WAL gaps (``log.truncated`` markers, sequence holes)
        raise :class:`~repro.persist.recovery.RecoveryError` unless
        ``allow_gaps=True``.  ``cloaker`` overrides the recorded cloaker
        configuration (required when the configuration was not
        serialisable).  ``attach=True`` re-attaches the recovered system
        to the same WAL, so the resumed session keeps appending a
        seq-contiguous durable trail.
        """
        from repro.persist.recovery import Recovery

        return Recovery(
            directory,
            cloaker=cloaker,
            telemetry=telemetry,
            allow_gaps=allow_gaps,
            attach=attach,
        ).recover()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def telemetry(self) -> dict:
        """One pipeline-wide observability snapshot.

        Merges the telemetry sink's view (per-stage latency quantiles,
        counters, gauges, value histograms) with the structures the sink
        cannot see from the outside: per-index work counters, the server's
        operational stats, and the QoS ledger summary.  The result is
        JSON-serialisable as-is (``repro.obs.export.to_json``).
        """
        snapshot = self.obs.snapshot()
        indexes: dict[str, dict[str, int]] = {
            "server.public": self.server.public.index_counters.snapshot(),
            "server.private": self.server.private.index_counters.snapshot(),
        }
        cloak_index = self.anonymizer.cloaker.spatial_index()
        if cloak_index is not None:
            indexes["anonymizer.cloaker"] = cloak_index.counters.snapshot()
        snapshot["indexes"] = indexes
        snapshot["server"] = self.server.stats().as_dict()
        snapshot["qos"] = self.ledger.summary()
        return snapshot

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _user(self, user_id: Hashable) -> MobileUser:
        try:
            return self.users[user_id]
        except KeyError:
            raise RegistrationError(f"unknown user: {user_id!r}") from None

    def _visible_user(self, user_id: Hashable) -> MobileUser:
        user = self._user(user_id)
        if not user.is_visible:
            raise RegistrationError(
                f"user {user_id!r} is passive and cannot issue queries"
            )
        return user

    # ------------------------------------------------------------------
    # Appliers (docs/durability.md): the one state change per durable
    # fact, live and in recovery alike.  No telemetry in them.
    # ------------------------------------------------------------------

    def _add_user(self, user: MobileUser) -> None:
        """``user.added``: one row of the user table."""
        self.users[user.user_id] = user

    def _move_user(self, user_id: Hashable, point: Point) -> None:
        """``user.moved``: the user's row, and the cloaker while registered."""
        user = self.users.get(user_id)
        if user is not None:
            user.location = point
        if user_id in self.anonymizer._registrations:
            self.anonymizer.cloaker.move_user(user_id, point)

    def _change_mode(self, user_id: Hashable, mode: UserMode) -> None:
        """``user.mode``: the user's participation mode."""
        self.users[user_id].mode = mode

    def _retire(self, user_id: Hashable):
        """``user.retired``: the anonymizer lets the user go, under the
        profile in force (``update_profile`` changes only the
        registration), so a later re-activation re-admits under it, not
        under the one the user joined with.  Returns the registration."""
        registration = self.anonymizer._retire(user_id)
        user = self.users.get(user_id)
        if user is not None:
            user.profile = registration.profile
        return registration

    def _record(self, outcome) -> None:
        """``query.completed``: the QoS ledger entry, and the asker in
        query mode.  A refused query records nothing and flips nothing."""
        getattr(self.ledger, outcome.ledger).append(outcome)
        if outcome.user_id in self.users:
            self._change_mode(outcome.user_id, UserMode.QUERY)
