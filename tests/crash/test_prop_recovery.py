"""Property suite: ``recover(checkpoint, log) ≡ uncrashed system``.

Hypothesis generates whole workloads (users, POIs, movement, publishes,
private queries, profile changes) plus a checkpoint position and a crash
boundary, and asserts the recovered system matches the uncrashed
reference run — by canonical state digest, by oracle-validated probe
queries, and by the privacy auditor's attainment report folded from the
WAL versus the live ring.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine.oracle import BruteForceOracle
from repro.geometry.rect import Rect
from repro.obs import Telemetry
from repro.obs.audit import PrivacyAuditor
from repro.persist import Recovery, system_digest
from repro.queries.spec import CountSpec, RangeSpec

from harness import (
    build_system,
    reference_digest,
    run_ops,
    truncate_wal_to_seq,
    wal_path,
)

N_USERS = 6
N_POIS = 4

coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)
user_id = st.integers(min_value=0, max_value=N_USERS - 1).map(lambda i: f"u{i}")


def _setup_ops(draw_coords: list[float]) -> list[tuple]:
    """Deterministic world setup; coordinates come from hypothesis."""
    it = iter(draw_coords)
    ops: list[tuple] = []
    for j in range(N_POIS):
        ops.append(("poi", f"p{j}", next(it), next(it)))
    for i in range(N_USERS):
        k = 1 + (i % 3)
        ops.append(("user", f"u{i}", next(it), next(it), k, 0.0))
    ops.append(("publish",))
    return ops


tail_op = st.one_of(
    st.tuples(st.just("publish")),
    st.tuples(st.just("publish_bulk")),
    st.tuples(
        st.just("move"),
        st.lists(st.tuples(user_id, coord, coord), min_size=1, max_size=3),
    ),
    st.tuples(st.just("range"), user_id, st.floats(5.0, 40.0, allow_nan=False)),
    st.tuples(st.just("nn"), user_id),
    st.tuples(st.just("knn"), user_id, st.integers(1, 3)),
    st.tuples(st.just("profile"), user_id, st.integers(1, 4)),
    st.tuples(st.just("mode"), user_id, st.sampled_from(["passive", "active"])),
    st.tuples(st.just("rejoin"), user_id, st.integers(1, 4)),
    st.tuples(st.just("poi_move"), st.just("p0"), coord, coord),
    # Every POI can go, so NN / k-NN over an empty public store (refused)
    # is reachable too.
    st.tuples(st.just("poi_remove"), st.sampled_from([f"p{j}" for j in range(N_POIS)])),
)

workload = st.builds(
    lambda setup_coords, tail: (_setup_ops(setup_coords), list(tail)),
    st.lists(coord, min_size=2 * (N_POIS + N_USERS), max_size=2 * (N_POIS + N_USERS)),
    st.lists(tail_op, min_size=3, max_size=12),
)


def _durable_run(directory: str, ops: list[tuple]) -> list[int]:
    system = build_system(directory)
    seqs = run_ops(system, ops, directory)
    system.obs.events.detach_jsonl()
    return seqs, system


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=workload, checkpoint_slot=st.integers(0, 11), crash_slot=st.integers(0, 11))
# A refused NN once left its asker in query mode with no event to replay.
@example(
    data=(
        _setup_ops([float(5 * i) for i in range(2 * (N_POIS + N_USERS))]),
        [*(("poi_remove", f"p{j}") for j in range(N_POIS)), ("nn", "u0")],
    ),
    checkpoint_slot=0,
    crash_slot=11,
)
def test_recover_equals_uncrashed_system(data, checkpoint_slot, crash_slot):
    setup, tail = data
    checkpoint_at = len(setup) + checkpoint_slot % (len(tail) + 1)
    ops = list(setup) + list(tail)
    ops.insert(checkpoint_at, ("checkpoint",))
    # Crash at an op boundary at or past the checkpoint.
    boundary = checkpoint_at + crash_slot % (len(ops) - checkpoint_at)
    with tempfile.TemporaryDirectory() as tmp:
        seqs, live = _durable_run(tmp, ops)

        # 1. No crash: full recovery is digest-identical to the live run.
        recovery = Recovery(tmp, telemetry=Telemetry())
        recovered = recovery.recover()
        live_digest = system_digest(live)
        assert system_digest(recovered) == live_digest

        # 2. Oracle-validated probes on the recovered server.
        oracle = BruteForceOracle.from_server(recovered.server)
        window = Rect(20.0, 20.0, 80.0, 80.0)
        assert set(recovered.query(RangeSpec(window=window))) == set(
            oracle.public_range(window)
        )
        count = recovered.query(CountSpec(window=window))
        # approx: summation order over the rebuilt index differs.
        assert count.expected == pytest.approx(
            oracle.public_count(window).expected
        )

        # 3. The attainment report folded from the WAL equals the one
        # folded from the live system's in-memory ring.
        from_wal = recovery.audit_report()["totals"]
        live_ring = PrivacyAuditor.from_log(live.obs.events)
        # The live ring also saw the persist.checkpoint event; audited
        # kinds are identical, so the tallies must be too.
        assert from_wal == live_ring.report()["totals"]

        # 4. Crash at the drawn boundary: recovery equals the uncrashed
        # reference run of the surviving op prefix.
        truncate_wal_to_seq(tmp, seqs[boundary])
        crashed = Recovery(tmp, telemetry=Telemetry()).recover()
        assert system_digest(crashed) == reference_digest(ops[: boundary + 1])


@settings(max_examples=10, deadline=None)
@given(data=workload, cut=st.integers(1, 60))
def test_torn_tail_recovers_to_complete_prefix(data, cut):
    """Whatever character the final record is torn at, recovery lands on
    the state after the last *complete* record."""
    setup, tail = data
    ops = list(setup) + list(tail)
    ops.insert(len(setup), ("checkpoint",))
    with tempfile.TemporaryDirectory() as tmp:
        _durable_run(tmp, ops)
        path = wal_path(tmp)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        torn = lines[-1][:cut]
        try:
            json.loads(torn)
            complete = lines  # the cut happened to keep valid JSON
        except ValueError:
            complete = lines[:-1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1] + [torn])
        recovered = Recovery(tmp, telemetry=Telemetry()).recover()
        with tempfile.TemporaryDirectory() as clean:
            os.makedirs(os.path.join(clean, "x"))
            clean_dir = os.path.join(clean, "x")
            for name in os.listdir(tmp):
                if name.endswith(".json"):
                    with open(os.path.join(tmp, name)) as src, open(
                        os.path.join(clean_dir, name), "w"
                    ) as dst:
                        dst.write(src.read())
            with open(wal_path(clean_dir), "w", encoding="utf-8") as handle:
                handle.writelines(complete)
            expected = Recovery(clean_dir, telemetry=Telemetry()).recover()
            assert system_digest(recovered) == system_digest(expected)
