"""Crash recovery: newest checkpoint + WAL-tail replay.

``Recovery`` rebuilds a :class:`~repro.core.system.PrivacySystem`
equivalent to the one that crashed:

1. scan the durability directory for the newest *readable* checkpoint
   (unparsable or foreign-schema files are skipped — a crash mid-write
   leaves a ``.tmp`` orphan and, at worst, a corrupt newest file whose
   predecessor is still good);
2. restore the checkpoint state wholesale (object tables, profiles,
   store index states, counters, ledger — derived structures such as
   the cloaker's index and the engine snapshot rebuild from those); with
   no checkpoint at all, cold-start an empty system from the
   ``wal-meta.json`` sidecar;
3. replay every WAL event with a sequence number past the checkpoint's
   ``wal_seq``, mutating state directly with emission disabled (replay
   must not write new history).

The WAL is trusted-tier (anonymizer-side) state: it carries exact
locations and identities, exactly what the anonymizer itself holds.  It
is never pruned here — checkpoints bound replay *time*, not log size;
compaction is future work (docs/durability.md).

Gap discipline: a ``log.truncated`` marker or a hole in the monotonic
sequence numbers means events are gone for good.  Recovery refuses to
rebuild from such a trail unless ``allow_gaps=True``, because a silently
incomplete replay would *look* like a consistent system while missing
admissions or publications.

Rotation discipline: markers carrying ``rotated_to`` are *deliberate*
(``PrivacySystem.rotate_wal`` sealed the prefix into a segment file).
They are fine exactly when a checkpoint covers the rotated-away prefix
(``checkpoint_seq >= rotation point``) — replay never needed those
events.  A rotation *past* the newest checkpoint is a real gap and is
refused like any truncation.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields

from repro.core.anonymizer import _Registration
from repro.core.profiles import profile_from_rows
from repro.core.system import (
    KNNQueryOutcome,
    NNQueryOutcome,
    PrivacySystem,
    RangeQueryOutcome,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser, UserMode
from repro.obs import Telemetry
from repro.obs.events import (
    CLOCK_ADVANCED,
    LOG_TRUNCATED,
    MONITOR_DROPPED,
    MONITOR_REGISTERED,
    PERSIST_REPLAYED,
    POI_ADDED,
    POI_MOVED,
    POI_REMOVED,
    PROFILE_UPDATED,
    QUERY_COMPLETED,
    REGION_PUBLISHED,
    REGIONS_PUBLISHED_BULK,
    SERVER_QUERY,
    USER_ADDED,
    USER_ADMITTED,
    USER_MODE_CHANGED,
    USER_MOVED,
    USER_RETIRED,
    Event,
    read_jsonl,
)
from repro.persist.checkpoint import (
    META_NAME,
    WAL_NAME,
    cloaker_from_config,
    list_checkpoints,
    load_checkpoint,
)
from repro.persist.indexes import index_from_state


class RecoveryError(RuntimeError):
    """The durability directory cannot support a faithful recovery."""


class Recovery:
    """Restore-and-replay engine over one durability directory.

    Args:
        directory: the directory :meth:`PrivacySystem.attach_wal` and
            :meth:`PrivacySystem.checkpoint` wrote into.
        cloaker: override for the recorded cloaker configuration
            (mandatory when the configuration was not serialisable).
        telemetry: observability sink for the recovered system.
        allow_gaps: replay best-effort across declared truncations and
            sequence holes instead of raising :class:`RecoveryError`.
        attach: re-attach the recovered system's event log to the same
            WAL before the final ``persist.replayed`` emission, so a
            resumed session appends a seq-contiguous trail.

    After :meth:`recover`, :attr:`report` describes what happened
    (checkpoint used, events replayed/skipped, corrupt files passed
    over).
    """

    def __init__(
        self,
        directory,
        *,
        cloaker=None,
        telemetry: Telemetry | None = None,
        allow_gaps: bool = False,
        attach: bool = False,
    ) -> None:
        self.directory = os.fspath(directory)
        self._cloaker = cloaker
        self._telemetry = telemetry
        self.allow_gaps = allow_gaps
        self.attach = attach
        self.report: dict = {}
        self._rotation_seq = 0

    # ------------------------------------------------------------------
    # The entry point
    # ------------------------------------------------------------------

    def recover(self) -> "PrivacySystem":
        """Rebuild the system; see the module docstring for semantics."""
        events = self._read_wal()
        self._surface_gaps(events)
        state, skipped_files = self._load_latest_checkpoint()
        checkpoint_seq = state["wal_seq"] if state is not None else 0
        if self._rotation_seq > checkpoint_seq and not self.allow_gaps:
            raise RecoveryError(
                f"WAL was rotated at seq {self._rotation_seq} but the "
                f"newest checkpoint only covers up to {checkpoint_seq}; "
                f"events {checkpoint_seq + 1}..{self._rotation_seq} live "
                "only in rotated-away segments (pass allow_gaps=True for "
                "best-effort recovery)"
            )
        replay_events = [
            e for e in events if e.seq > checkpoint_seq and e.kind != LOG_TRUNCATED
        ]
        self._check_tail_coverage(checkpoint_seq, events, replay_events)

        system = self._build_system(state)
        log = system.obs.events
        log.disable()
        try:
            if state is not None:
                _restore_checkpoint(system, state)
            replayed = skipped = 0
            for event in replay_events:
                try:
                    applied = _replay_event(system, event)
                except Exception:
                    # Best-effort mode: an event referencing state that
                    # was lost with the gap (e.g. a publication for a
                    # rotated-away admission) cannot apply — skip it.
                    if not self.allow_gaps:
                        raise
                    applied = False
                if applied:
                    replayed += 1
                else:
                    skipped += 1
        finally:
            final_seq = max(
                checkpoint_seq, replay_events[-1].seq if replay_events else 0
            )
            log._seq = max(log._seq, final_seq)
            log.enable()
        system.obs.set_gauge(
            "anonymizer.registered_users",
            len(system.anonymizer._registrations),
        )
        if self.attach:
            system.attach_wal(self.directory)
        self.report = {
            "directory": self.directory,
            "checkpoint": None
            if state is None
            else f"checkpoint-{checkpoint_seq:012d}.json",
            "checkpoint_seq": checkpoint_seq,
            "wal_events": len(events),
            "replayed": replayed,
            "skipped": skipped,
            "final_seq": final_seq,
            "unreadable_checkpoints": skipped_files,
        }
        system.obs.emit(
            PERSIST_REPLAYED,
            checkpoint=self.report["checkpoint"],
            from_seq=checkpoint_seq,
            to_seq=final_seq,
            replayed=replayed,
            skipped=skipped,
        )
        return system

    def audit_report(self) -> dict:
        """Privacy-attainment report folded from the full WAL trail."""
        from repro.obs.audit import PrivacyAuditor

        wal = os.path.join(self.directory, WAL_NAME)
        if not os.path.exists(wal):
            return PrivacyAuditor().report()
        return PrivacyAuditor.from_jsonl(wal).report()

    # ------------------------------------------------------------------
    # Ingestion and validation
    # ------------------------------------------------------------------

    def _read_wal(self) -> list[Event]:
        wal = os.path.join(self.directory, WAL_NAME)
        if not os.path.exists(wal):
            return []
        # Non-strict: a torn final line is an interrupted append, the
        # exact crash recovery exists for.  Declared-gap markers come
        # back as events and are surfaced below.
        return read_jsonl(wal)

    def _surface_gaps(self, events: list[Event]) -> None:
        problems: list[str] = []
        previous: int | None = None
        for event in events:
            if event.kind == LOG_TRUNCATED:
                lost = event.attrs.get("lost")
                first = event.attrs.get("first_seq")
                last = event.attrs.get("last_seq")
                if event.attrs.get("rotated_to") is not None:
                    # Deliberate rotation: the prefix lives in a sealed
                    # segment.  Legal iff a checkpoint covers it — that
                    # is checked against the newest checkpoint seq in
                    # recover(), not here.
                    if last is not None:
                        self._rotation_seq = max(
                            self._rotation_seq, int(last)
                        )
                        previous = int(last)
                    continue
                problems.append(
                    f"declared truncation: {lost} events ({first}..{last}) "
                    "evicted before reaching the sink"
                )
                previous = int(last) if last is not None else previous
                continue
            if previous is not None and event.seq != previous + 1:
                problems.append(
                    f"sequence hole: {previous} -> {event.seq}"
                )
            previous = event.seq
        if problems and not self.allow_gaps:
            raise RecoveryError(
                "WAL is incomplete (pass allow_gaps=True for best-effort "
                "recovery): " + "; ".join(problems)
            )

    def _check_tail_coverage(
        self,
        checkpoint_seq: int,
        events: list[Event],
        replay_events: list[Event],
    ) -> None:
        """The WAL must reach back to the checkpoint's sequence number."""
        if self.allow_gaps:
            return
        if replay_events:
            first = replay_events[0].seq
            if first != checkpoint_seq + 1:
                raise RecoveryError(
                    f"WAL tail starts at seq {first} but the checkpoint "
                    f"covers up to {checkpoint_seq}; events "
                    f"{checkpoint_seq + 1}..{first - 1} are missing "
                    "(pass allow_gaps=True for best-effort recovery)"
                )
        elif checkpoint_seq == 0 and events:
            # Cold start: the trail must begin at the very first event.
            raise RecoveryError(  # pragma: no cover - caught as seq hole
                "cold-start WAL does not begin at seq 1"
            )

    def _load_latest_checkpoint(self) -> tuple[dict | None, list[str]]:
        skipped: list[str] = []
        for path in reversed(list_checkpoints(self.directory)):
            try:
                return load_checkpoint(path), skipped
            except (OSError, ValueError) as exc:
                # CheckpointError is a ValueError; json decode errors too.
                skipped.append(f"{path.name}: {exc}")
        return None, skipped

    def _build_system(self, state: dict | None) -> "PrivacySystem":
        source = state if state is not None else self._read_meta()
        if source is None:
            raise RecoveryError(
                f"nothing to recover from in {self.directory!r}: no "
                "checkpoint and no wal-meta.json sidecar"
            )
        cloaker = self._cloaker
        if cloaker is None:
            config = source.get("cloaker")
            if config is None:
                raise RecoveryError(
                    "the recorded cloaker configuration is not "
                    "serialisable; pass an explicit cloaker= to recover()"
                )
            cloaker = cloaker_from_config(config)
        return PrivacySystem(
            Rect(*source["bounds"]),
            cloaker,
            rotate_pseudonyms=bool(source.get("rotate_pseudonyms", False)),
            telemetry=self._telemetry,
        )

    def _read_meta(self) -> dict | None:
        path = os.path.join(self.directory, META_NAME)
        try:  # a missing sidecar is an OSError too
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None


# ----------------------------------------------------------------------
# Appliers: one per durable fact, shared by restore and replay
# ----------------------------------------------------------------------

#: Ledger outcome types by checkpoint ``ledger`` key; the event trail
#: names the same kinds ``private_<key>``.  A stored row is the type's
#: fields in declaration order.
_OUTCOME_TYPES = {
    "range": RangeQueryOutcome,
    "nn": NNQueryOutcome,
    "knn": KNNQueryOutcome,
}


def _add_user(system: "PrivacySystem", user_id, x, y, mode, speed, rows) -> None:
    """Enter one mobile user into the system's user table."""
    system.users[user_id] = MobileUser(
        user_id, Point(x, y), profile_from_rows(rows), UserMode(mode), speed
    )


def _admit(anonymizer, user_id, point: Point, rows, pseudonym, published=False) -> None:
    """Register one user with the cloaker and the registration table."""
    anonymizer.cloaker.add_user(user_id, point)
    anonymizer._registrations[user_id] = _Registration(
        profile=profile_from_rows(rows),
        pseudonym=pseudonym,
        published=bool(published),
    )


def _record_outcome(ledger, key: str, row) -> None:
    """Append one QoS ledger entry from its stored row."""
    outcome = _OUTCOME_TYPES[key](*row)
    getattr(ledger, outcome.ledger).append(outcome)


def _adopt_pseudonym(system: "PrivacySystem", user_id, pseudonym: str) -> None:
    """The pseudonym policy as recorded, ahead of one publication: a
    pseudonym differing from the registration's means the live run
    rotated, so retire the old region, adopt the recorded one and keep
    the counter ahead of it.  The registration ends up published.
    """
    registration = system.anonymizer._registrations[user_id]
    if pseudonym != registration.pseudonym:
        if registration.published:
            system.server.forget_region(registration.pseudonym)
        registration.pseudonym = pseudonym
        _bump_pseudonym_seq(system.anonymizer, pseudonym)
    registration.published = True


# ----------------------------------------------------------------------
# Checkpoint restoration
# ----------------------------------------------------------------------


def _restore_checkpoint(system: "PrivacySystem", state: dict) -> None:
    """Load a ``repro.persist/1`` document into a fresh system.

    Documents written before derived state stopped being stored carry it
    in two more sections (cloaker index, engine snapshot arrays): not read.
    """
    anonymizer = system.anonymizer
    server = system.server
    system.clock = state["clock"]
    for row in state["users"]:
        _add_user(system, *row)
    for user_id, pseudonym, published, rows in state["registrations"]:
        _admit(
            anonymizer, user_id, system.users[user_id].location, rows, pseudonym, published
        )
    anonymizer._pseudonym_seq = int(state["pseudonym_seq"])

    _restore_store(server.public, state["stores"]["public"], points=True)
    _restore_store(server.private, state["stores"]["private"], points=False)

    server_state = state["server"]
    server.region_updates_received = int(server_state["region_updates"])
    server.queries_served = int(server_state["queries_served"])
    server.queries_by_kind = {
        kind: int(n) for kind, n in server_state["queries_by_kind"].items()
    }
    for monitor_id, sides in server_state["monitors"]:
        server.register_count_monitor(monitor_id, Rect(*sides))

    for key, rows in state["ledger"].items():
        for row in rows:
            _record_outcome(system.ledger, key, row)


def _restore_store(store, store_state: dict, *, points: bool) -> None:
    """Rebuild one server store from its serialised index state.

    The mutation counter is restored verbatim so replayed tail updates
    advance it exactly as the uncrashed run did; the bounded changelog
    starts empty, so the first batch after a recovery captures its
    engine snapshot from the restored store, as after any bulk tick.
    """
    index = index_from_state(store_state["index"])
    entries = {
        item: Rect(min_x, min_y, max_x, max_y)
        for item, min_x, min_y, max_x, max_y in store_state["index"]["entries"]
    }
    store._rtree = index
    if points:
        store._points = {
            item: Point(rect.min_x, rect.min_y) for item, rect in entries.items()
        }
    else:
        store._regions = entries
    store._version = int(store_state["version"])
    store._snapshot = None
    store._changelog.clear()


# ----------------------------------------------------------------------
# WAL replay
# ----------------------------------------------------------------------


def _bump_pseudonym_seq(anonymizer, pseudonym: str) -> None:
    """Keep the pseudonym counter ahead of every pseudonym seen."""
    try:
        number = int(str(pseudonym).rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return
    anonymizer._pseudonym_seq = max(anonymizer._pseudonym_seq, number)


def _replay_event(system: "PrivacySystem", event: Event) -> bool:
    """Apply one WAL event to ``system``; returns False for no-op kinds.

    State is mutated directly (events disabled by the caller): replay
    reconstructs effects, it must not re-run algorithms — the cloaked
    regions, candidates and decisions in the trail are already the
    outcome of the original execution.
    """
    kind = event.kind
    attrs = event.attrs
    anonymizer = system.anonymizer
    server = system.server

    if kind == USER_ADDED:
        _add_user(
            system,
            attrs["user"],
            attrs["x"],
            attrs["y"],
            attrs["mode"],
            attrs["speed"],
            attrs["profile"],
        )
        return True
    if kind == USER_ADMITTED:
        _admit(
            anonymizer,
            attrs["user"],
            Point(attrs["x"], attrs["y"]),
            attrs["profile"],
            attrs["pseudonym"],
        )
        _bump_pseudonym_seq(anonymizer, attrs["pseudonym"])
        return True
    if kind == USER_RETIRED:
        registration = anonymizer._registrations.pop(attrs["user"])
        anonymizer.cloaker.remove_user(attrs["user"])
        # As ``PrivacySystem.set_mode``: she leaves under the profile in force.
        user = system.users.get(attrs["user"])
        if user is not None:
            user.profile = registration.profile
        if registration.published:
            server.forget_region(registration.pseudonym)
        return True
    if kind == USER_MOVED:
        user_id = attrs["user"]
        point = Point(attrs["x"], attrs["y"])
        user = system.users.get(user_id)
        if user is not None:
            user.location = point
        if user_id in anonymizer._registrations:
            anonymizer.cloaker.move_user(user_id, point)
        return True
    if kind == USER_MODE_CHANGED:
        system.users[attrs["user"]].mode = UserMode(attrs["mode"])
        return True
    if kind == PROFILE_UPDATED:
        anonymizer._registrations[attrs["user"]].profile = profile_from_rows(
            attrs["profile"]
        )
        return True
    if kind == POI_ADDED:
        server.add_public_object(attrs["object"], Point(attrs["x"], attrs["y"]))
        return True
    if kind == POI_MOVED:
        server.move_public_object(attrs["object"], Point(attrs["x"], attrs["y"]))
        return True
    if kind == POI_REMOVED:
        server.remove_public_object(attrs["object"])
        return True
    if kind == CLOCK_ADVANCED:
        system.clock = attrs["t"]
        return True
    if kind == MONITOR_REGISTERED:
        server.register_count_monitor(
            attrs["monitor"],
            Rect(attrs["min_x"], attrs["min_y"], attrs["max_x"], attrs["max_y"]),
        )
        return True
    if kind == MONITOR_DROPPED:
        server.drop_count_monitor(attrs["monitor"])
        return True
    if kind == REGION_PUBLISHED:
        _adopt_pseudonym(system, attrs["user"], attrs["pseudonym"])
        server.receive_region(
            attrs["pseudonym"],
            Rect(attrs["min_x"], attrs["min_y"], attrs["max_x"], attrs["max_y"]),
        )
        return True
    if kind == REGIONS_PUBLISHED_BULK:
        regions: dict = {}
        for user_id, pseudonym, min_x, min_y, max_x, max_y in attrs["regions"]:
            _adopt_pseudonym(system, user_id, pseudonym)
            regions[pseudonym] = Rect(min_x, min_y, max_x, max_y)
        server.receive_regions(regions)
        return True
    if kind == QUERY_COMPLETED:
        _replay_query_completed(system, attrs)
        return True
    if kind == SERVER_QUERY:
        n = int(attrs.get("n", 1))
        server.queries_served += n
        query = attrs["query"]
        server.queries_by_kind[query] = server.queries_by_kind.get(query, 0) + n
        return True
    return False


def _replay_query_completed(system: "PrivacySystem", attrs: dict) -> None:
    """Reconstruct the QoS ledger entry (and the asker's mode flip)."""
    user = system.users.get(attrs["user"])
    if user is not None and user.mode is not UserMode.QUERY:
        user.mode = UserMode.QUERY
    key = attrs["query"].removeprefix("private_")
    if key in _OUTCOME_TYPES:
        names = [f.name for f in fields(_OUTCOME_TYPES[key])[1:]]
        _record_outcome(
            system.ledger, key, [attrs["user"], *(attrs[name] for name in names)]
        )
