"""Bulk cloaking throughput benchmark: emits BENCH_cloak.json with a gate.

Run via ``make bench`` (all four gates) or
``pytest benchmarks/test_bench_cloak.py -q``.
Whole-population cloaking rounds are pushed through both anonymizer write
paths on identically-built systems:

* ``bulk``     — one vectorized numpy pass + a single server batch push
  (``publish_all_bulk``),
* ``per_user`` — the scalar round (``publish_all``): every user through
  the cloaker's own ``cloak``, shared within a cell, pushed one by one,

at 1k, 10k and 100k users.  Both modes of a scale share ONE seeded
population draw (positions and privacy requirements come from the same
generator output), so the comparison never benchmarks two different
workloads.  The final test folds the timings into ``BENCH_cloak.json`` at
the repo root (CI uploads it as an artifact) and gates: bulk throughput
must be at least 3x per-user at the 10k-user scale.  It measured 4.3x, 4.8x
and 4.6x in three runs in a row on a two-core x86-64 container (a bulk round
of 0.15-0.18 s against 0.66-0.84 s per user); the 100k speedup, 8.4-9.5x in
those runs, is reported too.

After its timed laps every (mode, scale) runs one more round with the
scalar ``cloak`` counted, proving each mode ran the path it names: a
``bulk`` round must come out of the grid kernel of
:mod:`repro.engine.cloak` with no user through the scalar ``cloak``, and
a ``per_user`` round must never reach the bulk cloaker.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cloaking.grid_cloak import GridCloaker
from repro.core.profiles import PrivacyProfile
from repro.core.system import PrivacySystem
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser
from repro.obs import Telemetry

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cloak.json"

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)
GRID = 64
SCALES = (1_000, 10_000, 100_000)
GATE_SCALE = 10_000
GATE_SPEEDUP = 3.0
K_MAX = 32
AREA_CHOICES = (0.0, 25.0, 100.0)

#: mode -> n_users -> seconds for one full publication round.
_RESULTS: dict[str, dict[int, float]] = {}

#: mode -> n_users -> the path probe's reading (see :func:`cloak_path`).
_PATHS: dict[str, dict[int, dict]] = {}

_POPULATIONS: dict[int, list[tuple[str, Point, PrivacyProfile]]] = {}


def population(n: int) -> list[tuple[str, Point, PrivacyProfile]]:
    """One seeded population draw per scale, shared by both modes.

    A single generator produces positions and requirements once; every
    system under test is built from this same list, so bulk and per-user
    timings always cover byte-identical workloads.
    """
    if n not in _POPULATIONS:
        rng = np.random.default_rng(0xC10A + n)
        xs = rng.uniform(0.0, 1000.0, n)
        ys = rng.uniform(0.0, 1000.0, n)
        ks = rng.integers(1, K_MAX + 1, n)
        areas = rng.choice(np.array(AREA_CHOICES), n)
        _POPULATIONS[n] = [
            (
                f"u{i}",
                Point(float(xs[i]), float(ys[i])),
                PrivacyProfile.always(k=int(ks[i]), min_area=float(areas[i])),
            )
            for i in range(n)
        ]
    return _POPULATIONS[n]


def build_system(n: int) -> PrivacySystem:
    system = PrivacySystem(
        bounds=WORLD,
        cloaker=GridCloaker(WORLD, cols=GRID, rows=GRID),
        telemetry=Telemetry(enabled=False),
    )
    for user_id, point, profile in population(n):
        system.add_user(MobileUser(user_id, point, profile))
    return system


def publish_round(system: PrivacySystem, mode: str) -> None:
    system.publish_all(bulk=mode == "bulk")


def cloak_path(system: PrivacySystem, mode: str) -> dict:
    """The path one more ``mode`` round takes on ``system``: the bulk
    outcome's path and algorithm (``None`` when the bulk cloaker never ran)
    and how many calls the scalar ``cloak`` served."""
    system.anonymizer.last_bulk_outcome = None
    cloaker = system.anonymizer.cloaker
    cloak = cloaker.cloak
    scalar_rows = 0

    def counted(*args, **kwargs):
        nonlocal scalar_rows
        scalar_rows += 1
        return cloak(*args, **kwargs)

    cloaker.cloak = counted
    try:
        publish_round(system, mode)
    finally:
        del cloaker.cloak  # drop the instance attribute: the method is back
    outcome = system.anonymizer.last_bulk_outcome
    return {
        "bulk_path": outcome and outcome.path,
        "algo": outcome and outcome.algo,
        "scalar_rows": scalar_rows,
    }


@pytest.mark.parametrize("n", SCALES)
@pytest.mark.parametrize("mode", ["bulk", "per_user"])
def test_bulk_vs_per_user(benchmark, mode, n):
    system = build_system(n)
    publish_round(system, mode)  # steady state: republish, not first insert
    laps: list[float] = []

    def run():
        start = time.perf_counter()
        publish_round(system, mode)
        laps.append(time.perf_counter() - start)

    # Self-timed so the report also works under ``--benchmark-disable``;
    # the per-user round at 100k users is measured once to bound runtime.
    rounds = 1 if (mode == "per_user" and n >= 100_000) else 3
    benchmark.pedantic(run, rounds=rounds, iterations=1)
    assert len(system.server.private) == n
    _RESULTS.setdefault(mode, {})[n] = min(laps)
    _PATHS.setdefault(mode, {})[n] = cloak_path(system, mode)


def test_cloak_report_and_gate(write_report):
    """Fold timings into BENCH_cloak.json and enforce the 3x gate."""
    for mode in ("bulk", "per_user"):
        assert set(_RESULTS.get(mode, {})) == set(SCALES), (
            "the gate reads the timing tests' laps: run the whole module"
        )
    # Each mode took the path it names, at every scale.
    for n in SCALES:
        assert _PATHS["bulk"][n] == {
            "bulk_path": "kernel",
            "algo": "grid",
            "scalar_rows": 0,
        }, _PATHS
        assert _PATHS["per_user"][n]["bulk_path"] is None, _PATHS
        assert _PATHS["per_user"][n]["scalar_rows"] > 0, _PATHS

    modes: dict[str, dict] = {}
    for mode, timings in _RESULTS.items():
        modes[mode] = {
            str(n): {
                "seconds": seconds,
                "users_per_second": n / seconds if seconds else None,
            }
            for n, seconds in sorted(timings.items())
        }

    bulk = _RESULTS["bulk"][GATE_SCALE]
    per_user = _RESULTS["per_user"][GATE_SCALE]
    speedup = per_user / bulk if bulk else None

    report = {
        "workload": {
            "scales": list(SCALES),
            "grid": GRID,
            "k_max": K_MAX,
            "area_choices": list(AREA_CHOICES),
            "algo": "grid",
        },
        "modes": modes,
        "speedup_at_gate_scale": speedup,
        "speedup_at_largest_scale": (
            _RESULTS["per_user"][SCALES[-1]] / _RESULTS["bulk"][SCALES[-1]]
        ),
        "paths": {
            mode: {str(n): path for n, path in sorted(by_n.items())}
            for mode, by_n in _PATHS.items()
        },
        "gate": {"scale": GATE_SCALE, "min_speedup": GATE_SPEEDUP},
    }
    write_report(report, "repro.cloak.bench/1", BENCH_PATH)
    parsed = json.loads(BENCH_PATH.read_text())
    assert parsed["schema"] == "repro.cloak.bench/1"
    assert parsed["git_sha"]

    assert speedup is not None and speedup >= GATE_SPEEDUP, (
        f"bulk cloaking is only {speedup:.2f}x per-user at "
        f"{GATE_SCALE} users (gate: >= {GATE_SPEEDUP}x); "
        f"see {BENCH_PATH.name}"
    )
