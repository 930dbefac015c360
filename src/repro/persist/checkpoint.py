"""Versioned atomic checkpoints of a whole ``PrivacySystem`` (schema
``repro.persist/2``; ``/1`` documents are still read).

A checkpoint is one JSON document holding, once each, the facts a
crashed process cannot rebuild from code: the anonymizer's object tables
(registrations, pseudonym counter, privacy profiles), the mobile-user
table, both server store index states, the server's durable counters and
standing monitors, and the QoS ledger.  What those determine — the
cloaker's spatial index, the batch engine's snapshot arrays — is rebuilt
on restore, not stored.  Each checkpoint records the WAL sequence number
it covers (``wal_seq``) and, since ``/2``, the byte offset in the live
``wal.jsonl`` where the tail past it starts (``wal_offset``); recovery
restores the newest readable checkpoint and parses and replays only the
event-log tail past that sequence (docs/durability.md, *The tail read*).

Write protocol: serialise to ``<name>.json.tmp`` in the same directory,
``fsync``, then ``os.replace`` onto the final ``checkpoint-<seq>.json``
name.  A crash mid-write leaves a ``.tmp`` orphan that recovery ignores;
a crash before the rename leaves the previous checkpoint intact.  The
model is the snapshot-plus-streamed-deltas design of PrivateStorageio's
token authorizer backup, with the typed JSONL event log as the delta
stream.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

import repro.cloaking as cloaking
from repro.core.profiles import profile_rows
from repro.geometry.rect import Rect
from repro.obs.events import PERSIST_CHECKPOINT
from repro.persist.indexes import index_state, rect_sides

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import PrivacySystem

#: Checkpoint document schema, pinned by the golden fixtures.
SCHEMA = "repro.persist/2"
#: Schemas :func:`load_checkpoint` reads: this release's and the one
#: before it (``/1``: no ``wal_offset``, so recovery reads the full WAL).
READABLE_SCHEMAS = ("repro.persist/1", SCHEMA)

#: File names inside a durability directory.
WAL_NAME = "wal.jsonl"
META_NAME = "wal-meta.json"
CHECKPOINT_PATTERN = "checkpoint-*.json"


class CheckpointError(ValueError):
    """A checkpoint document is unreadable or carries a foreign schema."""


# ----------------------------------------------------------------------
# Cloaker configuration (rebuild the algorithm, not its population)
# ----------------------------------------------------------------------


def cloaker_config(cloaker) -> dict | None:
    """Serialise a cloaker's construction parameters, or ``None``.

    Only the mechanism's own ``config()`` is captured — the population
    is restored from the registration table.  ``None`` means the type is
    not in :data:`repro.cloaking.ALL_CLOAKERS`, so
    :func:`~repro.core.system.PrivacySystem.recover` needs ``cloaker=``.
    """
    if type(cloaker) is cloaking.IncrementalCloaker:
        inner = cloaker_config(cloaker.inner)
        if inner is None:
            return None
        return {"class": "IncrementalCloaker", **cloaker.config(), "inner": inner}
    if type(cloaker) not in cloaking.ALL_CLOAKERS:
        return None
    return {
        "class": type(cloaker).__name__,
        "bounds": rect_sides(cloaker.bounds),
        **cloaker.config(),
    }


def cloaker_from_config(config: dict):
    """Rebuild an (empty) cloaker from :func:`cloaker_config` output."""
    kwargs = dict(config)
    name = kwargs.pop("class")
    if name == "IncrementalCloaker":
        inner = cloaker_from_config(kwargs.pop("inner"))
        return cloaking.IncrementalCloaker(inner, **kwargs)
    for cls in cloaking.ALL_CLOAKERS:
        if cls.__name__ == name:
            return cls(Rect(*kwargs.pop("bounds")), **kwargs)
    raise CheckpointError(f"unknown cloaker class in checkpoint: {name!r}")


# ----------------------------------------------------------------------
# Checkpoint document
# ----------------------------------------------------------------------


def checkpoint_state(system: "PrivacySystem") -> dict:
    """Serialise ``system`` to the ``repro.persist/2`` document.

    Dict order is deliberate (users and registrations keep insertion
    order, which data-dependent cloakers are sensitive to), so the
    document is written without key sorting.  The event log's open run
    of location reports is emitted first, so ``wal_seq`` covers it.
    """
    anonymizer = system.anonymizer
    server = system.server
    log = system.obs.events
    log.close_run()
    return {
        "schema": SCHEMA,
        "wal_seq": log._seq,
        "wal_offset": _wal_offset(system),
        "clock": system.clock,
        "bounds": rect_sides(system.bounds),
        "rotate_pseudonyms": anonymizer.rotate_pseudonyms,
        "pseudonym_seq": anonymizer._pseudonym_seq,
        "cloaker": cloaker_config(anonymizer.cloaker),
        "users": [
            [
                str(user_id),
                user.location.x,
                user.location.y,
                user.mode.value,
                user.speed,
                profile_rows(user.profile),
            ]
            for user_id, user in system.users.items()
        ],
        "registrations": [
            [
                str(user_id),
                registration.pseudonym,
                registration.published,
                profile_rows(registration.profile),
            ]
            for user_id, registration in anonymizer._registrations.items()
        ],
        "server": {
            "region_updates": server.region_updates_received,
            "queries_served": server.queries_served,
            "queries_by_kind": dict(server.queries_by_kind),
            "monitors": [
                [str(monitor_id), rect_sides(monitor.window)]
                for monitor_id, monitor in server._monitors.items()
            ],
        },
        "stores": {
            "public": {
                "version": server.public.version,
                "index": index_state(server.public._rtree),
            },
            "private": {
                "version": server.private.version,
                "index": index_state(server.private._rtree),
            },
        },
        "ledger": {
            "range": _rows(system.ledger.range_outcomes),
            "nn": _rows(system.ledger.nn_outcomes),
            "knn": _rows(system.ledger.knn_outcomes),
        },
    }


def _wal_offset(system: "PrivacySystem") -> int | None:
    """The live WAL's size: where the tail past a checkpoint taken now
    starts.  ``None`` without a WAL sink.  The sink is line-buffered, so
    every emitted event is already in the file."""
    if system._wal_dir is None or system.obs.events._sink is None:
        return None
    path = os.path.join(system._wal_dir, WAL_NAME)
    return os.path.getsize(path) if os.path.exists(path) else None


def _rows(outcomes: list) -> list:
    """One row per ledger entry: its type's fields in declaration order."""
    names = [f.name for f in fields(outcomes[0])] if outcomes else []
    return [[getattr(o, name) for name in names] for o in outcomes]


def _atomic_write(directory, name: str, payload: str) -> Path:
    """tmp-write, fsync, rename — a crash leaves old state or an orphan."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / name
    tmp = path.with_name(name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def write_checkpoint(system: "PrivacySystem", directory) -> str:
    """Write one versioned checkpoint; returns its path.

    The file name carries the covered WAL sequence number
    (``checkpoint-<seq 0-padded>.json``) so a lexical sort is a recency
    sort.  Emits ``persist.checkpoint`` on success.
    """
    started = time.perf_counter()
    state = checkpoint_state(system)
    payload = json.dumps(state, default=str)
    path = _atomic_write(
        directory, f"checkpoint-{state['wal_seq']:012d}.json", payload
    )
    system.obs.emit(
        PERSIST_CHECKPOINT,
        file=path.name,
        wal_seq=state["wal_seq"],
        bytes=len(payload),
        seconds=time.perf_counter() - started,
    )
    return str(path)


def write_wal_meta(system: "PrivacySystem", directory) -> str:
    """Write the ``wal-meta.json`` sidecar enabling cold starts.

    Records the system construction parameters (bounds, pseudonym
    policy, cloaker configuration) that no event carries, so recovery
    can rebuild a system from the WAL alone when no checkpoint exists.
    """
    meta = {
        "schema": SCHEMA,
        "bounds": rect_sides(system.bounds),
        "rotate_pseudonyms": system.anonymizer.rotate_pseudonyms,
        "cloaker": cloaker_config(system.anonymizer.cloaker),
    }
    return str(_atomic_write(directory, META_NAME, json.dumps(meta)))


def load_checkpoint(path) -> dict:
    """Parse and schema-validate one checkpoint document."""
    with open(path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    if not isinstance(state, dict) or state.get("schema") not in READABLE_SCHEMAS:
        raise CheckpointError(
            f"not a {' or '.join(READABLE_SCHEMAS)} checkpoint: "
            f"{os.fspath(path)!r}"
        )
    return state


def list_checkpoints(directory) -> list[Path]:
    """Checkpoint files oldest-first; ``.tmp`` orphans are ignored."""
    return sorted(Path(directory).glob(CHECKPOINT_PATTERN))
