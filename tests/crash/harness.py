"""Crash-injection harness for the durability suite.

Drives a :class:`~repro.core.system.PrivacySystem` through a declarative
op list (JSON-able tuples, so hypothesis can generate them) with the WAL
attached, then simulates crashes two ways:

* **post-hoc truncation** — cut ``wal.jsonl`` back to the sequence
  number recorded at an arbitrary op boundary, exactly what a process
  kill between two ops leaves behind;
* **live sink crash** — :class:`CrashingSink` kills the pipeline in the
  middle of a WAL append, leaving a torn final line.

The equivalence yardstick is :func:`repro.persist.system_digest`: a
recovery from the cut trail must equal a fresh uncrashed run of the
same op prefix.
"""

from __future__ import annotations

import json
import os

from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.errors import QueryError, RegistrationError
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser, UserMode
from repro.obs import Telemetry
from repro.persist.checkpoint import WAL_NAME
from repro.queries.spec import KNNSpec, NNSpec, RangeSpec

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


class SimulatedCrash(Exception):
    """Raised by :class:`CrashingSink` at the injected kill point."""


class CrashingSink:
    """A WAL sink that dies mid-write on the N-th event record.

    Writes ``write_cut`` characters of the fatal record (0 = crash just
    before the append, mimicking a kill between two writes; a positive
    cut leaves a torn line, mimicking a kill mid-``write``), flushes what
    made it out, and raises :class:`SimulatedCrash`.
    """

    def __init__(self, path: str, crash_on_write: int, write_cut: int = 0) -> None:
        self._handle = open(path, "a", encoding="utf-8", buffering=1)
        self.crash_on_write = crash_on_write
        self.write_cut = write_cut
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == self.crash_on_write:
            self._handle.write(text[: self.write_cut])
            self._handle.flush()
            self._handle.close()
            raise SimulatedCrash(f"killed on WAL write #{self.writes}")
        return self._handle.write(text)

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()


def build_system(
    directory: str | None = None, *, rotate: bool = False
) -> PrivacySystem:
    """A fresh pyramid-cloaked system; WAL-attached when given a directory."""
    system = PrivacySystem(
        BOUNDS,
        PyramidCloaker(BOUNDS, height=5),
        rotate_pseudonyms=rotate,
        telemetry=Telemetry(),
    )
    if directory is not None:
        system.attach_wal(directory)
    return system


def apply_op(system: PrivacySystem, op: tuple, directory: str | None) -> None:
    """Apply one declarative op; benign op-level errors are no-ops.

    The error swallowing is deterministic — a generated op that targets
    a passive user fails identically in the durable run, the reference
    run, and replay, so equivalence is unaffected.
    """
    kind = op[0]
    try:
        if kind == "poi":
            system.add_poi(op[1], Point(op[2], op[3]))
        elif kind == "poi_move":
            system.server.move_public_object(op[1], Point(op[2], op[3]))
        elif kind == "poi_remove":
            system.server.remove_public_object(op[1])
        elif kind == "user":
            _, user_id, x, y, k, min_area = op
            system.add_user(
                MobileUser(
                    user_id,
                    Point(x, y),
                    PrivacyProfile.always(k=k, min_area=min_area),
                )
            )
        elif kind == "move":
            system.apply_movement(
                {user_id: Point(x, y) for user_id, x, y in op[1]}
            )
        elif kind == "publish":
            system.publish_all()
        elif kind == "publish_bulk":
            system.publish_all(bulk=True)
        elif kind == "range":
            system.query(RangeSpec(flavor="private", user=op[1], radius=op[2]))
        elif kind == "nn":
            system.query(NNSpec(flavor="private", user=op[1]))
        elif kind == "knn":
            system.query(KNNSpec(flavor="private", user=op[1], k=op[2]))
        elif kind == "monitor":
            system.server.register_count_monitor(
                op[1], Rect(op[2], op[3], op[4], op[5])
            )
        elif kind == "mode":
            system.set_mode(op[1], UserMode(op[2]))
        elif kind == "profile":
            system.anonymizer.update_profile(op[1], PrivacyProfile.always(k=op[2]))
        elif kind == "rejoin":
            # Leave and come back under a profile changed while registered:
            # it must be the one in force afterwards, live and recovered.
            system.anonymizer.update_profile(op[1], PrivacyProfile.always(k=op[2]))
            system.set_mode(op[1], UserMode.PASSIVE)
            system.set_mode(op[1], UserMode.ACTIVE)
        elif kind == "checkpoint":
            if directory is not None:
                system.checkpoint(directory)
        else:  # pragma: no cover - malformed generator
            raise ValueError(f"unknown op kind: {kind!r}")
    except (RegistrationError, QueryError, KeyError):
        pass


def run_ops(
    system: PrivacySystem, ops: list[tuple], directory: str | None
) -> list[int]:
    """Apply every op; returns the WAL seq reached after each one."""
    seqs: list[int] = []
    for op in ops:
        apply_op(system, op, directory)
        seqs.append(system.obs.events._seq)
    return seqs


def reference_digest(ops: list[tuple]) -> dict:
    """Digest of an uncrashed, WAL-less run of ``ops`` (checkpoints no-op)."""
    from repro.persist import system_digest

    system = build_system(None)
    run_ops(system, ops, None)
    return system_digest(system)


def wal_path(directory: str) -> str:
    return os.path.join(directory, WAL_NAME)


def truncate_wal_to_seq(directory: str, seq: int) -> None:
    """Cut the WAL back to records with ``seq`` at most the given bound —
    the on-disk state a kill at that op boundary leaves behind."""
    path = wal_path(directory)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    kept = [
        line
        for line in lines
        if line.strip() and json.loads(line)["seq"] <= seq
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(kept)


def tear_final_line(directory: str, keep_chars: int = 20) -> None:
    """Replace the WAL's final record with a partial (torn) write."""
    path = wal_path(directory)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    assert lines, "cannot tear an empty WAL"
    lines[-1] = lines[-1][:keep_chars]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def small_workload(checkpoint_after: int | None = 8) -> list[tuple]:
    """A deterministic mixed workload touching every replayed op kind."""
    ops: list[tuple] = [
        ("poi", "p0", 10.0, 10.0),
        ("poi", "p1", 50.0, 55.0),
        ("poi", "p2", 80.0, 20.0),
        ("poi", "p3", 30.0, 85.0),
        ("user", "u0", 20.0, 20.0, 3, 0.0),
        ("user", "u1", 25.0, 22.0, 2, 4.0),
        ("user", "u2", 70.0, 70.0, 3, 0.0),
        ("user", "u3", 72.0, 68.0, 2, 0.0),
        ("user", "u4", 40.0, 45.0, 4, 0.0),
        ("publish",),
        ("monitor", "m0", 10.0, 10.0, 60.0, 60.0),
        ("range", "u0", 30.0),
        ("move", [("u0", 22.0, 24.0), ("u2", 68.0, 71.0), ("u4", 42.0, 44.0)]),
        ("nn", "u2"),
        ("publish_bulk",),
        ("knn", "u1", 2),
        ("profile", "u3", 4),
        ("poi_move", "p1", 52.0, 53.0),
        ("profile", "u4", 3),  # in force when she leaves, and when she returns
        ("mode", "u4", "passive"),
        ("publish",),
        ("poi_remove", "p0"),
        ("range", "u3", 25.0),
        ("mode", "u4", "active"),
        ("publish_bulk",),
        ("rejoin", "u1", 3),
        ("publish_bulk",),
        ("nn", "u0"),
    ]
    if checkpoint_after is not None:
        ops.insert(checkpoint_after, ("checkpoint",))
    return ops
