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
   ``wal_seq`` with emission disabled (replay must not write new
   history).

Both steps only parse: a checkpoint row or an event's attrs become typed
values handed to the applier the live method calls for that fact
(``PrivacySystem._record``, ``LocationAnonymizer._admit``, the stores'
``restore`` ...; docs/durability.md has the table), so a fact is applied
by the same code live, restored or replayed.

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
        self._check_tail_coverage(checkpoint_seq, replay_events)

        system = self._build_system(state)
        log = system.obs.events
        log.disable()
        try:
            if state is not None:
                _restore_checkpoint(system, state)
            replayed = skipped = 0
            for event in replay_events:
                try:
                    applied = _apply_event(system, event)
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
            log.resume_after(final_seq)
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
        self, checkpoint_seq: int, replay_events: list[Event]
    ) -> None:
        """The WAL must reach back to the checkpoint's sequence number (a
        cold start's trail that does not begin at 1 is a sequence hole)."""
        if self.allow_gaps or not replay_events:
            return
        first = replay_events[0].seq
        if first != checkpoint_seq + 1:
            raise RecoveryError(
                f"WAL tail starts at seq {first} but the checkpoint "
                f"covers up to {checkpoint_seq}; events "
                f"{checkpoint_seq + 1}..{first - 1} are missing "
                "(pass allow_gaps=True for best-effort recovery)"
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
# Restore and replay: parse stored values, call their owners' appliers
# ----------------------------------------------------------------------

#: Ledger outcome types by checkpoint ``ledger`` key; the event trail
#: names the same kinds ``private_<key>``.  A stored row is the type's
#: fields in declaration order; an event carries them by name.
_OUTCOME_TYPES = {
    "range": RangeQueryOutcome,
    "nn": NNQueryOutcome,
    "knn": KNNQueryOutcome,
}
_OUTCOME_FIELDS = {
    f"private_{key}": (outcome_type, [f.name for f in fields(outcome_type)[1:]])
    for key, outcome_type in _OUTCOME_TYPES.items()
}


def _user(user_id, x, y, mode, speed, rows) -> MobileUser:
    return MobileUser(
        user_id, Point(x, y), profile_from_rows(rows), UserMode(mode), speed
    )


def _rect(attrs: dict) -> Rect:
    return Rect(attrs["min_x"], attrs["min_y"], attrs["max_x"], attrs["max_y"])


def _restore_checkpoint(system: "PrivacySystem", state: dict) -> None:
    """Load a ``repro.persist/1`` document into a fresh system.

    Documents written before derived state stopped being stored carry it
    in two more sections (cloaker index, engine snapshot arrays): not read.
    """
    anonymizer = system.anonymizer
    server = system.server
    system.clock = state["clock"]
    # The ledger goes first: its applier puts each asker in query mode,
    # and the user rows restored after it carry the mode in force now.
    for key, rows in state["ledger"].items():
        for row in rows:
            system._record(_OUTCOME_TYPES[key](*row))
    for row in state["users"]:
        system._add_user(_user(*row))
    for user_id, pseudonym, published, rows in state["registrations"]:
        anonymizer._admit(
            user_id,
            system.users[user_id].location,
            profile_from_rows(rows),
            pseudonym,
            bool(published),
        )
    anonymizer._advance_pseudonyms(int(state["pseudonym_seq"]))
    for name, store in (("public", server.public), ("private", server.private)):
        stored = state["stores"][name]
        store.restore(index_from_state(stored["index"]), int(stored["version"]))

    counters = state["server"]
    server.region_updates_received = int(counters["region_updates"])
    server.queries_served = int(counters["queries_served"])
    server.queries_by_kind = {
        kind: int(n) for kind, n in counters["queries_by_kind"].items()
    }
    for monitor_id, sides in counters["monitors"]:
        server.register_count_monitor(monitor_id, Rect(*sides))


def _advance_clock(system: "PrivacySystem", attrs: dict) -> None:
    system.clock = attrs["t"]


def _apply_published(system: "PrivacySystem", attrs: dict) -> None:
    system.anonymizer._adopt(attrs["user"], attrs["pseudonym"])
    system.server.receive_region(attrs["pseudonym"], _rect(attrs))


def _apply_published_bulk(system: "PrivacySystem", attrs: dict) -> None:
    adopt = system.anonymizer._adopt
    regions: dict = {}
    for user_id, pseudonym, min_x, min_y, max_x, max_y in attrs["regions"]:
        adopt(user_id, pseudonym)
        regions[pseudonym] = Rect(min_x, min_y, max_x, max_y)
    system.server.receive_regions(regions)


def _apply_completed(system: "PrivacySystem", attrs: dict) -> None:
    outcome_type, names = _OUTCOME_FIELDS[attrs["query"]]
    system._record(outcome_type(attrs["user"], *(attrs[name] for name in names)))


#: How each durable event kind reaches its applier.  Replay reconstructs
#: effects, it must not re-run algorithms: the pseudonyms, cloaked
#: regions and outcomes in the trail already are the original execution's.
_REPLAY = {
    USER_ADDED: lambda s, a: s._add_user(
        _user(a["user"], a["x"], a["y"], a["mode"], a["speed"], a["profile"])
    ),
    USER_ADMITTED: lambda s, a: s.anonymizer._admit(
        a["user"],
        Point(a["x"], a["y"]),
        profile_from_rows(a["profile"]),
        a["pseudonym"],
    ),
    USER_RETIRED: lambda s, a: s._retire(a["user"]),
    USER_MOVED: lambda s, a: s._move_user(a["user"], Point(a["x"], a["y"])),
    USER_MODE_CHANGED: lambda s, a: s._change_mode(a["user"], UserMode(a["mode"])),
    PROFILE_UPDATED: lambda s, a: s.anonymizer._change_profile(
        a["user"], profile_from_rows(a["profile"])
    ),
    POI_ADDED: lambda s, a: s.server.public.add(a["object"], Point(a["x"], a["y"])),
    POI_MOVED: lambda s, a: s.server.public.move(a["object"], Point(a["x"], a["y"])),
    POI_REMOVED: lambda s, a: s.server.public.remove(a["object"]),
    CLOCK_ADVANCED: _advance_clock,
    MONITOR_REGISTERED: lambda s, a: s.server.register_count_monitor(
        a["monitor"], _rect(a)
    ),
    MONITOR_DROPPED: lambda s, a: s.server.drop_count_monitor(a["monitor"]),
    REGION_PUBLISHED: _apply_published,
    REGIONS_PUBLISHED_BULK: _apply_published_bulk,
    QUERY_COMPLETED: _apply_completed,
    SERVER_QUERY: lambda s, a: s.server._count_queries(a["query"], int(a.get("n", 1))),
}


def _apply_event(system: "PrivacySystem", event: Event) -> bool:
    """Apply one WAL event to ``system``; False for kinds that change no
    durable state (cloak audit records, planner decisions, ...)."""
    apply = _REPLAY.get(event.kind)
    if apply is None:
        return False
    apply(system, event.attrs)
    return True
