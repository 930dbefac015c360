"""Crash recovery: newest checkpoint + WAL-tail replay.

``Recovery`` rebuilds a :class:`~repro.core.system.PrivacySystem`
equivalent to the one that crashed:

0. read the form of the live WAL from the ``wal-meta.json`` sidecar:
   the forms in :data:`~repro.persist.checkpoint.READ_WAL_FORMS` are
   read, with one applier table; any other, or none recorded for a WAL
   that holds lines, is refused before anything is built
   (docs/durability.md, *WAL forms*);
1. scan the durability directory for the newest *readable* checkpoint
   (torn, unparsable or foreign-schema files are skipped — a crash
   mid-write leaves a ``.tmp`` orphan and, at worst, a corrupt newest
   file whose predecessor is still good);
2. restore the checkpoint's columns wholesale: the object tables
   (users, registrations and the profile table they index, the QoS
   ledger's sums, counters, monitors), then both server stores, whose
   R-trees are STR-loaded from their coordinate blocks — derived
   structures such as the cloaker's index and the engine snapshot
   rebuild from those; with no checkpoint at all, cold-start an empty
   system from the ``wal-meta.json`` sidecar;
3. replay every WAL event with a sequence number past the checkpoint's
   ``wal_seq`` with emission disabled (replay must not write new
   history).  The checkpoint records the byte offset where that tail
   starts; when the line there has seq ``wal_seq + 1`` only the tail is
   parsed, otherwise the whole WAL is (docs/durability.md, *The tail
   read*).

Both steps only parse: a checkpoint row or an event's attrs become typed
Python values handed to the applier the live method calls for that fact
(``PrivacySystem._record``, ``LocationAnonymizer._admit``, the stores'
``restore`` ...; docs/durability.md has the table), so a fact is applied
by the same code live, restored or replayed.  Each phase — checkpoint
load, table restore, index rebuild, tail replay — is a span of the
recovered system's telemetry carrying its row count.

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
from pathlib import Path

import numpy as np

from repro.core.profiles import profile_from_rows
from repro.core.system import PrivacySystem, QoSLedger
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
    PLANNER_DECISION,
    POI_ADDED,
    POI_MOVED,
    POI_REMOVED,
    PROFILE_UPDATED,
    QUERY_COMPLETED,
    REGION_PUBLISHED,
    REGIONS_PUBLISHED_BULK,
    USER_ADDED,
    USER_ADMITTED,
    USER_MODE_CHANGED,
    USER_RETIRED,
    USERS_MOVED,
    Event,
    event_rows,
    read_jsonl,
)
from repro.persist.checkpoint import (
    WAL_NAME,
    CheckpointError,
    cloaker_from_config,
    list_checkpoints,
    load_checkpoint,
    read_wal_meta,
    wal_form,
)


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
        """Rebuild the system; see the module docstring for semantics.

        Four phases run in spans of the recovered system's telemetry,
        each annotated with the rows it handled: ``recovery.load`` (the
        checkpoint's rows), ``recovery.tables`` (user and registration
        rows; the ledger is a fixed-size table of sums, not rows),
        ``recovery.indexes`` (store rows; the standing
        monitors are seeded from the restored private store here) and
        ``recovery.replay`` (the rows of the WAL events applied: a
        columnar event counts its rows).
        """
        meta = read_wal_meta(self.directory)
        try:
            wal_form(self.directory, meta)
        except CheckpointError as exc:
            raise RecoveryError(str(exc)) from exc
        telemetry = self._telemetry if self._telemetry is not None else Telemetry()
        with telemetry.span("recovery.load") as span:
            path, state, skipped_files = self._load_latest_checkpoint()
            span.annotate(
                rows=0 if state is None else _table_rows(state) + _store_rows(state)
            )
        checkpoint_seq = state["wal_seq"] if state is not None else 0
        offset = state.get("wal_offset") if state is not None else None
        events, wal_read = self._read_wal(offset, checkpoint_seq + 1)
        self._surface_gaps(events)
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

        system = self._build_system(state if state is not None else meta, telemetry)
        log = system.obs.events
        log.disable()
        try:
            if state is not None:
                with telemetry.span("recovery.tables", rows=_table_rows(state)):
                    _restore_tables(system, state)
                with telemetry.span("recovery.indexes", rows=_store_rows(state)):
                    _restore_server(system, state)
            replayed = skipped = rows = 0
            with telemetry.span("recovery.replay") as span:
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
                        rows += event_rows(event.kind, event.attrs)
                    else:
                        skipped += 1
                span.annotate(rows=rows)
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
            "checkpoint": None if path is None else path.name,
            "checkpoint_seq": checkpoint_seq,
            "wal_events": len(events),
            "wal_read": wal_read,
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

    def _read_wal(
        self, offset: int | None, first_seq: int
    ) -> tuple[list[Event], str | None]:
        """The WAL events recovery needs, and which read produced them:
        ``"tail"`` (from ``offset``, whose line has seq ``first_seq``),
        ``"full"``, or ``None`` without a WAL."""
        wal = os.path.join(self.directory, WAL_NAME)
        if not os.path.exists(wal):
            return [], None
        # Non-strict: a torn final line is an interrupted append, the
        # exact crash recovery exists for.  Declared-gap markers come
        # back as events and are surfaced below.
        if offset is not None:
            tail = _read_tail(wal, int(offset), first_seq)
            if tail is not None:
                return tail, "tail"
        return read_jsonl(wal), "full"

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

    def _load_latest_checkpoint(self) -> tuple[Path | None, dict | None, list[str]]:
        """The newest readable checkpoint's path and state, and the
        newer files passed over as unreadable."""
        skipped: list[str] = []
        for path in reversed(list_checkpoints(self.directory)):
            try:
                return path, load_checkpoint(path), skipped
            except (OSError, ValueError) as exc:
                # CheckpointError is a ValueError.
                skipped.append(f"{path.name}: {exc}")
        return None, None, skipped

    def _build_system(self, source: dict | None, telemetry: Telemetry) -> "PrivacySystem":
        """An empty system with the construction parameters ``source``
        records: a checkpoint's state, or the sidecar when there is none."""
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
            telemetry=telemetry,
        )


def _read_tail(wal: str, offset: int, first_seq: int) -> list[Event] | None:
    """The events from byte ``offset`` on, or ``None`` unless ``offset``
    starts a line (the file's first, or one after a newline) and that
    line parses with seq ``first_seq``."""
    with open(wal, "rb") as handle:
        if offset > 0:
            handle.seek(offset - 1)
            if handle.read(1) != b"\n":
                return None
        data = handle.read()
    if not data:
        return None
    head, _, _ = data.partition(b"\n")
    try:
        if json.loads(head)["seq"] != first_seq:
            return None
    except (ValueError, KeyError, TypeError):
        return None
    return read_jsonl(data.decode("utf-8").split("\n"))


# ----------------------------------------------------------------------
# Restore and replay: parse stored values, call their owners' appliers
# ----------------------------------------------------------------------

def _user(user_id, x, y, mode, speed, rows) -> MobileUser:
    return MobileUser(
        user_id, Point(x, y), profile_from_rows(rows), UserMode(mode), speed
    )


def _rect(attrs: dict) -> Rect:
    return Rect(attrs["min_x"], attrs["min_y"], attrs["max_x"], attrs["max_y"])


def _table_rows(state: dict) -> int:
    """A checkpoint's user and registration rows."""
    return len(state["users"]) + len(state["registrations"])


def _store_rows(state: dict) -> int:
    """A checkpoint's store rows."""
    return sum(len(store["ids"]) for store in state["stores"].values())


def _restore_tables(system: "PrivacySystem", state: dict) -> None:
    """Load a checkpoint's clock, ledger sums, users and registrations
    into a fresh system.

    Every column is turned into Python values (``tolist``) before it
    reaches an applier: a numpy scalar would be slower to use and would
    reach a later WAL line as a string.
    """
    anonymizer = system.anonymizer
    columns = state["columns"]
    system.clock = state["clock"]
    system.ledger = QoSLedger(state["ledger"])
    profiles = [profile_from_rows(table_rows) for table_rows in state["profiles"]]
    modes = [UserMode(name) for name in state["modes"]]
    add_user = system._add_user
    for user_id, x, y, mode, speed, profile in zip(
        state["users"],
        columns["xs"].tolist(),
        columns["ys"].tolist(),
        columns["modes"].tolist(),
        columns["speeds"].tolist(),
        columns["user_profiles"].tolist(),
    ):
        user = MobileUser(user_id, Point(x, y), profiles[profile], modes[mode], speed)
        add_user(user)
    users = system.users
    admit = anonymizer._admit
    for user_id, pseudonym, published, profile in zip(
        state["registrations"],
        state["pseudonyms"],
        columns["published"].tolist(),
        columns["registration_profiles"].tolist(),
    ):
        admit(user_id, users[user_id].location, profiles[profile], pseudonym, published)
    anonymizer._advance_pseudonyms(int(state["pseudonym_seq"]))


def _restore_server(system: "PrivacySystem", state: dict) -> None:
    """Load both server stores from their columns, each R-tree STR-loaded
    from the arrays, then the server's counters and standing monitors.

    The monitors come last: each is seeded from the private store, which
    must already hold the checkpoint's regions.
    """
    server = system.server
    for name, store in (("public", server.public), ("private", server.private)):
        stored = state["stores"][name]
        store.restore(stored["ids"], state["columns"][name], int(stored["version"]))
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
    """``users[i]`` under ``pseudonyms[i]`` holds region
    ``sides[region[i]]`` (arrays, or the lists of ``repro.wal/2``)."""
    users, pseudonyms = attrs["users"], attrs["pseudonyms"]
    table = np.asarray(attrs["sides"], dtype=float).reshape(-1, 4)
    bounds = table[np.asarray(attrs["region"], dtype=np.intp)]
    adopt = system.anonymizer._adopt
    for user_id, pseudonym in zip(users, pseudonyms):
        adopt(user_id, pseudonym)
    system.server.receive_regions(pseudonyms, bounds)


def _apply_moved(system: "PrivacySystem", attrs: dict) -> None:
    """Row ``i``: ``users[i]`` is at ``(xs[i], ys[i])``, each point built
    from Python floats (arrays, or the lists of ``repro.wal/2``)."""
    move = system._move_user
    for user_id, x, y in zip(attrs["users"], _values(attrs["xs"]), _values(attrs["ys"])):
        move(user_id, Point(x, y))


def _values(column) -> list:
    """A column's Python values: an array's ``tolist()``, a list as it is."""
    return column.tolist() if isinstance(column, np.ndarray) else column


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
    USERS_MOVED: _apply_moved,
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
    QUERY_COMPLETED: lambda s, a: s._record(
        a["query"], a["user"], a["candidates"], a["overhead"], a["correct"], a["cloak_area"]
    ),
    PLANNER_DECISION: lambda s, a: s.server._count_queries(a["query"], a["n"]),
}


def _apply_event(system: "PrivacySystem", event: Event) -> bool:
    """Apply one WAL event to ``system``; False for kinds that change no
    durable state (cloak audit records, measurements, ...)."""
    apply = _REPLAY.get(event.kind)
    if apply is None:
        return False
    apply(system, event.attrs)
    return True
