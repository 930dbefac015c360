"""Durability benchmark: emits BENCH_recovery.json with a gate.

Run via ``make bench`` (all four gates) or
``pytest benchmarks/test_bench_recovery.py -q``.  One 10k-user durable
workload is built with the WAL attached, checkpointed late (so a
realistic short tail remains), then recovered two ways from the same
trail:

* ``checkpointed`` — newest checkpoint + replay of the WAL tail, the
  path a supervised restart takes;
* ``cold``         — full WAL replay from the ``wal-meta.json`` sidecar
  alone, the path of last resort when no checkpoint survived.

The gate is the checkpoint subsystem's reason to exist: checkpointed
recovery must beat cold replay on the same trail, and both must land on
the digest-identical system.  One recovery of each is a ~1.3× margin
that a noisy second can flip, so the gate compares medians of
:data:`REPEATS` of each, alternating which goes first.  The report
(checkpoint write seconds and throughput, checkpoint load seconds, both
recovery wall-times with the checkpointed one's four phases, speedup)
lands in ``BENCH_recovery.json`` at the repo root; CI uploads it.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from pathlib import Path

import pytest

from repro import MobileUser, PrivacyProfile, PrivacySystem, PyramidCloaker, RangeSpec
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.obs.events import PERSIST_CHECKPOINT
from repro.persist import (
    META_NAME,
    WAL_NAME,
    Recovery,
    list_checkpoints,
    load_checkpoint,
    system_digest,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_recovery.json"
SCHEMA = "repro.bench.recovery/1"

N_USERS = 10_000
N_POIS = 200
MOVE_USERS = 2_000
TAIL_QUERIES = 50
REPEATS = 5
WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)

_RESULTS: dict = {}


@pytest.fixture(scope="module")
def arena(tmp_path_factory):
    """A durable 10k-user run plus a checkpoint-less copy of its trail."""
    base = tmp_path_factory.mktemp("bench_recovery")
    full = base / "full"
    cold = base / "cold"
    full.mkdir()
    cold.mkdir()

    rng = random.Random(20_060_402)
    system = PrivacySystem(
        WORLD, PyramidCloaker(WORLD, height=7), telemetry=Telemetry()
    )
    system.attach_wal(str(full))
    for j in range(N_POIS):
        system.add_poi(f"poi-{j}", Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
    for i in range(N_USERS):
        system.add_user(
            MobileUser(
                f"u{i}",
                Point(rng.uniform(0, 1000), rng.uniform(0, 1000)),
                PrivacyProfile.always(k=8),
            )
        )
    system.publish_all(bulk=True)
    system.apply_movement(
        {
            f"u{i}": Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            for i in range(MOVE_USERS)
        }
    )
    system.publish_all(bulk=True)

    started = time.perf_counter()
    system.checkpoint(str(full))
    checkpoint_seconds = time.perf_counter() - started
    # Tail past the checkpoint: what checkpointed recovery must replay.
    for i in range(TAIL_QUERIES):
        system.query(
            RangeSpec(flavor="private", user=f"u{i * 13}", radius=25.0)
        )
    system.obs.events.detach_jsonl()

    # The cold trail: same WAL and sidecar, no checkpoint to lean on.
    for name in (WAL_NAME, META_NAME):
        shutil.copy(full / name, cold / name)

    event = next(iter(system.obs.events.events(PERSIST_CHECKPOINT)))
    wal_lines = sum(1 for _ in open(full / WAL_NAME, encoding="utf-8"))
    return {
        "system": system,
        "full": str(full),
        "cold": str(cold),
        "checkpoint_seconds": checkpoint_seconds,
        "checkpoint_bytes": event.attrs["bytes"],
        "wal_events": wal_lines,
    }


def test_checkpoint_write_throughput(arena):
    seconds = arena["checkpoint_seconds"]
    size = arena["checkpoint_bytes"]
    assert list_checkpoints(arena["full"])
    assert size > 100_000  # 10k users serialise to a non-toy checkpoint
    _RESULTS["checkpoint_write"] = {
        "users": N_USERS,
        "seconds": seconds,
        "bytes": size,
        "mb_per_second": size / 1e6 / seconds,
    }


def test_checkpoint_load_seconds(arena):
    """Reading the checkpoint back, the first phase of a recovery."""
    (path,) = list_checkpoints(arena["full"])
    runs = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        state = load_checkpoint(path)
        runs.append(time.perf_counter() - started)
    assert len(state["users"]) == N_USERS
    _RESULTS["checkpoint_load"] = {
        "users": N_USERS,
        "seconds": statistics.median(runs),
        "runs": runs,
    }


def test_checkpointed_recovery_beats_cold_replay(arena):
    live_digest = system_digest(arena["system"])

    runs: dict[str, list[float]] = {"full": [], "cold": []}
    last: dict[str, tuple] = {}
    for repeat in range(REPEATS):
        for name in ("full", "cold") if repeat % 2 == 0 else ("cold", "full"):
            telemetry = Telemetry()
            started = time.perf_counter()
            recovery = Recovery(arena[name], telemetry=telemetry)
            last[name] = (recovery, recovery.recover(), telemetry)
            runs[name].append(time.perf_counter() - started)
    (checkpointed, warm, telemetry), (cold_recovery, cold, _) = last["full"], last["cold"]
    warm_runs, cold_runs = runs["full"], runs["cold"]
    warm_seconds = statistics.median(warm_runs)
    cold_seconds = statistics.median(cold_runs)

    # Correctness gates: both paths land on the uncrashed system.
    assert system_digest(warm) == live_digest
    assert system_digest(cold) == live_digest
    assert checkpointed.report["checkpoint"] is not None
    assert cold_recovery.report["checkpoint"] is None
    assert checkpointed.report["replayed"] < cold_recovery.report["replayed"]

    _RESULTS["recovery"] = {
        "users": N_USERS,
        "wal_events": arena["wal_events"],
        "tail_replayed": checkpointed.report["replayed"],
        "cold_replayed": cold_recovery.report["replayed"],
        "repeats": REPEATS,
        "checkpointed": {
            "seconds": warm_seconds,
            "runs": warm_runs,
            # The last checkpointed recovery's phases: seconds and rows.
            "phases": {
                span.name: {"seconds": span.duration_ms / 1000.0, "rows": span.attrs["rows"]}
                for span in telemetry.tracer.spans()
                if span.name.startswith("recovery.")
            },
        },
        "cold": {"seconds": cold_seconds, "runs": cold_runs},
        "speedup": cold_seconds / warm_seconds,
    }
    # Performance gate: the checkpoint must pay for itself.
    assert warm_seconds < cold_seconds, (
        f"checkpointed recovery (median {warm_seconds:.3f}s of {warm_runs}) "
        f"must beat cold replay (median {cold_seconds:.3f}s of {cold_runs})"
    )


def test_write_report(write_report):
    assert set(_RESULTS) == {"checkpoint_write", "checkpoint_load", "recovery"}
    report = write_report(_RESULTS, SCHEMA, BENCH_PATH)
    assert report["schema"] == SCHEMA
    assert report["recovery"]["speedup"] > 1.0
