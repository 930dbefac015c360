"""Versioned atomic checkpoints of a whole ``PrivacySystem`` (schema
``repro.persist/4``).

A checkpoint holds, once each, the facts a crashed process cannot
rebuild from code: the anonymizer's object tables (registrations,
pseudonym counter, privacy profiles), the mobile-user table, both server
stores, the server's durable counters and standing monitors, and the QoS
ledger's sums.  What those determine — the cloaker's spatial index, the
stores' R-trees, the batch engine's snapshot arrays — is rebuilt on
restore, not stored.  A store's R-tree is STR-loaded from its columns,
so its node layout can differ from the live tree's (grown by inserts)
while its entries cannot; recovery equivalence is judged on entries
(:func:`~repro.persist.digest.system_digest`), not on traversal order.

Each checkpoint records the WAL sequence number it covers (``wal_seq``)
and the byte offset in the live ``wal.jsonl`` where the tail past it
starts (``wal_offset``); recovery restores the newest readable
checkpoint and parses and replays only the event-log tail past that
sequence (docs/durability.md, *The tail read*).

A checkpoint is one uncompressed ``.npz`` archive.  Its ``manifest``
member is a small JSON object (UTF-8 bytes): the scalars, the cloaker
configuration, the server counters and monitors, the distinct privacy
profiles, the ledger's fixed-size table of per-kind sums, and every id,
pseudonym and mode name as a flat string list.  The facts that scale
with the population are binary columns beside it, one member each
(:data:`COLUMNS`): coordinates, mode codes, speeds, each user's and each
registration's row in the profile table, the ``published`` flags and
each store's coordinate block.  No member grows with the number of
queries answered.  Nothing in the archive is a pickled object, and it
is loaded with ``allow_pickle=False``.

``repro.persist/3``, which kept a ``ledger.<kind>.<field>`` row per
answered query, is read for one release: :func:`load_checkpoint` adds
those rows to a fresh ledger, so recovery sees only the ``/4`` form.

Write protocol: serialise to ``<name>.npz.tmp`` in the same directory,
``fsync``, then ``os.replace`` onto the final ``checkpoint-<seq>.npz``
name.  A crash mid-write leaves a ``.tmp`` orphan that recovery ignores;
a crash before the rename leaves the previous checkpoint intact.  The
model is the snapshot-plus-streamed-deltas design of PrivateStorageio's
token authorizer backup, with the typed JSONL event log as the delta
stream.
"""

from __future__ import annotations

import io
import json
import os
import time
import zipfile
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

import repro.cloaking as cloaking
from repro.core.system import QoSLedger
from repro.geometry.rect import Rect
from repro.mobility.users import UserMode
from repro.obs.events import PERSIST_CHECKPOINT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import PrivacySystem

#: Checkpoint schema, pinned by the golden fixture.
SCHEMA = "repro.persist/4"
#: The schemas :func:`load_checkpoint` reads: this build's, and ``/3``,
#: whose ledger rows it folds into sums (read for one release).
READ_SCHEMAS = (SCHEMA, "repro.persist/3")
#: The form of the lines this build writes to ``wal.jsonl``, recorded in
#: the ``wal-meta.json`` sidecar (docs/durability.md, *WAL forms*).
WAL_FORM = "repro.wal/2"
#: The forms recovery reads, with one applier table: this build's, and
#: ``repro.wal/1``, whose copies of each decision's count reach no applier.
READ_WAL_FORMS = (WAL_FORM, "repro.wal/1")

#: File names inside a durability directory.
WAL_NAME = "wal.jsonl"
META_NAME = "wal-meta.json"
CHECKPOINT_PATTERN = "checkpoint-*.npz"

#: The population-sized columns of a checkpoint.
COLUMNS = (
    "xs",
    "ys",
    "modes",
    "speeds",
    "user_profiles",
    "published",
    "registration_profiles",
    "public",
    "private",
)

#: Mode names in code order (a user's ``modes`` entry indexes this).
MODES = tuple(UserMode)
_MODE_CODE = {mode: code for code, mode in enumerate(MODES)}

#: A ``/3`` checkpoint's ledger columns ``ledger.<key>.<field>``: one
#: row per answered query of native kind ``private_<key>``.
_LEDGER_3 = {
    "range": ("cloak_area", "candidates", "answer_size", "correct"),
    "nn": ("cloak_area", "candidates", "correct"),
    "knn": ("cloak_area", "k", "candidates", "answer_size", "correct"),
}

#: One profile-table row, ``(start, k, A_min, A_max)``, read in C.
_PROFILE_ROW = attrgetter(
    "start", "requirement.k", "requirement.min_area", "requirement.max_area"
)


class CheckpointError(ValueError):
    """A checkpoint is unreadable or carries a foreign schema, or a WAL's
    lines are in a form this build does not read."""


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
        "bounds": list(cloaker.bounds.as_tuple()),
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
# The checkpoint: a manifest and columns
# ----------------------------------------------------------------------


def checkpoint_state(system: "PrivacySystem") -> dict:
    """Serialise ``system`` to the ``repro.persist/4`` state.

    The state is the manifest's keys plus ``"columns"``, a dict of numpy
    arrays — what :func:`load_checkpoint` returns for the written file.
    Users and registrations keep insertion order (data-dependent cloakers
    are sensitive to it), and so do the stores' rows.  The event log's
    open run of location reports is emitted first, so ``wal_seq`` covers
    it.
    """
    anonymizer = system.anonymizer
    server = system.server
    log = system.obs.events
    log.close_run()
    profiles: dict[tuple, int] = {}
    profile_index = _profile_indexer(profiles)
    users = list(system.users.values())
    locations = [user.location for user in users]
    registrations = anonymizer._registrations.values()
    columns = {
        "xs": np.array([point.x for point in locations], dtype=float),
        "ys": np.array([point.y for point in locations], dtype=float),
        "modes": np.array([_MODE_CODE[user.mode] for user in users], dtype=np.uint8),
        "speeds": np.array([user.speed for user in users], dtype=float),
        "user_profiles": np.array(
            [profile_index(user.profile) for user in users],
            dtype=np.int64,
        ),
        "published": np.array([r.published for r in registrations], dtype=bool),
        "registration_profiles": np.array(
            [profile_index(r.profile) for r in registrations],
            dtype=np.int64,
        ),
    }
    stores = {}
    for name, store in (("public", server.public), ("private", server.private)):
        ids, block = store.columns()
        stores[name] = {"version": store.version, "ids": list(map(str, ids))}
        columns[name] = block
    return {
        "schema": SCHEMA,
        "wal_seq": log._seq,
        "wal_offset": _wal_offset(system),
        "clock": system.clock,
        "bounds": list(system.bounds.as_tuple()),
        "rotate_pseudonyms": anonymizer.rotate_pseudonyms,
        "pseudonym_seq": anonymizer._pseudonym_seq,
        "cloaker": cloaker_config(anonymizer.cloaker),
        "profiles": [[list(row) for row in rows] for rows in profiles],
        "modes": [mode.value for mode in MODES],
        "users": list(map(str, system.users)),
        "registrations": list(map(str, anonymizer._registrations)),
        "pseudonyms": [r.pseudonym for r in registrations],
        "server": {
            "region_updates": server.region_updates_received,
            "queries_served": server.queries_served,
            "queries_by_kind": dict(server.queries_by_kind),
            "monitors": [
                [str(monitor_id), list(monitor.window.as_tuple())]
                for monitor_id, monitor in server._monitors.items()
            ],
        },
        "stores": stores,
        "ledger": {kind: dict(sums) for kind, sums in system.ledger.sums.items()},
        "columns": columns,
    }


def _profile_indexer(table: dict[tuple, int]):
    """A function giving a profile's row in the profile table.

    ``table`` maps each distinct profile's ``(start, k, A_min, A_max)``
    rows to its row number, in first-use order.  A profile object seen
    before (a user's, met again as the registration's) is found by
    identity.
    """
    by_object: dict[int, int] = {}

    def index_of(profile) -> int:
        row = by_object.get(id(profile))
        if row is None:
            rows = tuple(map(_PROFILE_ROW, profile.entries))
            row = by_object[id(profile)] = table.setdefault(rows, len(table))
        return row

    return index_of


def _wal_offset(system: "PrivacySystem") -> int | None:
    """The live WAL's size: where the tail past a checkpoint taken now
    starts.  ``None`` without a WAL sink.  The sink is line-buffered, so
    every emitted event is already in the file."""
    if system._wal_dir is None or system.obs.events._sink is None:
        return None
    path = os.path.join(system._wal_dir, WAL_NAME)
    return os.path.getsize(path) if os.path.exists(path) else None


def _atomic_write(directory, name: str, payload: bytes) -> Path:
    """tmp-write, fsync, rename — a crash leaves old state or an orphan."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / name
    tmp = path.with_name(name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def write_checkpoint(system: "PrivacySystem", directory) -> str:
    """Write one versioned checkpoint; returns its path.

    The file name carries the covered WAL sequence number
    (``checkpoint-<seq 0-padded>.npz``) so a lexical sort is a recency
    sort.  Emits ``persist.checkpoint`` on success.
    """
    started = time.perf_counter()
    state = checkpoint_state(system)
    columns = state.pop("columns")
    manifest = json.dumps(state).encode("utf-8")
    buffer = io.BytesIO()
    np.savez(buffer, manifest=np.frombuffer(manifest, dtype=np.uint8), **columns)
    payload = buffer.getvalue()
    path = _atomic_write(
        directory, f"checkpoint-{state['wal_seq']:012d}.npz", payload
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
    can rebuild a system from the WAL alone when no checkpoint exists,
    and under ``wal`` the form of the live ``wal.jsonl``'s lines
    (:func:`wal_form`, which refuses before anything is written).
    """
    meta = {
        "wal": wal_form(directory, read_wal_meta(directory)),
        "bounds": list(system.bounds.as_tuple()),
        "rotate_pseudonyms": system.anonymizer.rotate_pseudonyms,
        "cloaker": cloaker_config(system.anonymizer.cloaker),
    }
    return str(_atomic_write(directory, META_NAME, json.dumps(meta).encode()))


def wal_form(directory, meta: dict | None) -> str:
    """The form of the lines in ``directory``'s ``wal.jsonl``: the one the
    sidecar ``meta`` records when the file holds lines, this build's when
    it holds none.  A recorded form not in :data:`READ_WAL_FORMS`, or none
    for lines (a pre-marker directory), raises :class:`CheckpointError`."""
    form = (meta or {}).get("wal")
    wal = Path(directory) / WAL_NAME
    holds_lines = wal.exists() and wal.stat().st_size > 0
    if form not in READ_WAL_FORMS and (form is not None or holds_lines):
        raise CheckpointError(
            f"the WAL in {os.fspath(directory)!r} is in form {form!r}; this "
            f"build reads {' and '.join(map(repr, READ_WAL_FORMS))}"
        )
    return form if holds_lines else WAL_FORM


def read_wal_meta(directory) -> dict | None:
    """The ``wal-meta.json`` sidecar, or ``None`` when it is missing or
    is not a JSON object."""
    try:  # a missing sidecar is an OSError too
        with open(Path(directory) / META_NAME, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def load_checkpoint(path) -> dict:
    """Read and schema-validate one checkpoint, in the form
    :func:`checkpoint_state` returns.

    Any damage — a torn archive, a missing member, a foreign schema —
    raises :class:`CheckpointError`, so recovery can fall back to the
    previous checkpoint.  A ``/3`` checkpoint comes back in the ``/4``
    form: its ledger rows are added, in row order, to a fresh ledger.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        state = json.loads(members.pop("manifest").tobytes().decode("utf-8"))
    except (ValueError, EOFError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"unreadable checkpoint {os.fspath(path)!r}: {exc!r}"
        ) from exc
    if not isinstance(state, dict) or state.get("schema") not in READ_SCHEMAS:
        raise CheckpointError(
            f"not a {' or '.join(READ_SCHEMAS)} checkpoint: {os.fspath(path)!r}"
        )
    expected = set(COLUMNS)
    if state["schema"] != SCHEMA:
        expected |= {
            f"ledger.{key}.{field}" for key, names in _LEDGER_3.items() for field in names
        }
    if set(members) != expected:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} has columns {sorted(members)}, "
            f"expected {sorted(expected)}"
        )
    if state["schema"] != SCHEMA:
        state["ledger"] = _fold_ledger_3(members)
    state["columns"] = members
    return state


def _fold_ledger_3(members: dict) -> dict:
    """A ``/3`` checkpoint's ledger rows as the ``/4`` table of sums: each
    row, in row order, added as the live ledger adds an answered query.
    The ledger columns are taken out of ``members``."""
    ledger = QoSLedger()
    for key, names in _LEDGER_3.items():
        rows = {name: members.pop(f"ledger.{key}.{name}").tolist() for name in names}
        # One object answers an NN query: its overhead is its candidates.
        sizes = rows.get("answer_size", [1] * len(rows["candidates"]))
        for candidates, size, correct, area in zip(
            rows["candidates"], sizes, rows["correct"], rows["cloak_area"]
        ):
            ledger.add(
                f"private_{key}", candidates, candidates / max(1, size), correct, area
            )
    return ledger.sums


def list_checkpoints(directory) -> list[Path]:
    """Checkpoint files oldest-first; ``.tmp`` orphans are ignored."""
    return sorted(Path(directory).glob(CHECKPOINT_PATTERN))
