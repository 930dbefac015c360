#!/usr/bin/env python3
"""Where one bulk tick's time goes, part by part.

Builds a workload's system exactly as ``bench/run.py`` does (through
``bench.pipeline.Run``, WAL attached, monitoring on) in a temporary
directory, runs one warm-up bulk tick and one plain tick, then runs a
third tick with a timer around every part named below and prints each
part's *self* time (time inside it minus time in the parts it calls)::

    python3 tools/tick_split.py                       bulk_publish_40k, seed 5
    python3 tools/tick_split.py --workload pipeline_10k --seed 6 --json
    python3 tools/tick_split.py --smoke               1/20 size, a few seconds

Parts: the span machinery (``Telemetry.span`` and the span's enter and
exit), ``EventLog.emit`` itself (correlation stamp, ``Event`` build, ring
and per-kind counter), the event log's run of location reports
(``append_move``, one call per mover, and ``close_run``, which numbers
and buffers the run's one ``users.moved`` event), the JSON encode, the
sink write, every event tap by event kind, the risk monitor's three
columnar folds inside its taps (``StreamingPosteriorIndex.publish_many``,
``StreamingLinkageColumns.observe_many``, ``StreamingDensityModel.move_many``),
``LocationAnonymizer.update_location`` and the cloaker's
``move_user``, ``bulk_cloak`` with its grid kernel (``_grid_bulk``) and
its per-group fold (``group_stats``) as parts of their own,
``LocationServer.receive_regions``,
``PrivacySystem.publish_all`` and the collector pass (``gc`` callbacks).
``tick`` is what the harness's own loop spends outside all of them.

The wrapper timers cost time of their own, so the timed tick's total
reads higher than the plain tick; the report prints both.  Compare the
parts with each other, and a part across two trees, never the timed
total with an untimed run.  Standard library plus the repository.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from collections import Counter, defaultdict
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_FACTOR = 20


class SelfTimer:
    """Nested wrapper timers that charge each label its self time."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()

    def enter(self, label: str) -> None:
        self.stack.append([label, perf_counter(), 0.0])

    def exit(self) -> None:
        label, started, inner = self.stack.pop()
        took = perf_counter() - started
        self.self_s[label] += took - inner
        self.calls[label] += 1
        if self.stack:
            self.stack[-1][2] += took

    def wrap(self, label, fn):
        """``fn`` timed under ``label`` (a string, or a function of the
        first argument that names the label)."""
        name = label if isinstance(label, str) else None

        def timed(*args, **kwargs):
            self.enter(name or label(args[0]))
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return timed

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.enter(f"collector pass (gen {info['generation']})")
        elif self.stack and self.stack[-1][0].startswith("collector pass"):
            self.exit()


class TimedSink:
    """A file stand-in whose ``write`` is timed; the rest passes through."""

    def __init__(self, sink, timer: SelfTimer) -> None:
        self._sink = sink
        self.write = timer.wrap("sink write", sink.write)

    def __getattr__(self, name: str):
        return getattr(self._sink, name)


def instrument(system, timer: SelfTimer):
    """Wrap every part; returns the function that undoes it."""
    import repro.engine.cloak as cloak_module
    import repro.obs.events as events_module
    from repro.obs.trace import _LiveSpan

    obs, log = system.obs, system.obs.events
    anonymizer, server = system.anonymizer, system.server
    saved_encode, saved_cloak = events_module._encode, cloak_module.bulk_cloak
    saved_kernel, saved_stats = cloak_module._grid_bulk, cloak_module.group_stats
    saved_enter, saved_exit = _LiveSpan.__enter__, _LiveSpan.__exit__
    saved_sink, saved_taps = log._sink, list(log._taps)

    obs.span = timer.wrap("span", obs.tracer.span)
    _LiveSpan.__enter__ = timer.wrap("span", saved_enter)
    _LiveSpan.__exit__ = timer.wrap("span", saved_exit)
    obs.emit = log.emit = timer.wrap("emit (stamp, Event, ring, counter)", log.emit)
    log.append_move = timer.wrap("run append", log.append_move)
    log.close_run = timer.wrap("run close", log.close_run)
    events_module._encode = timer.wrap("json encode", saved_encode)
    if saved_sink is not None:
        log._sink = TimedSink(saved_sink, timer)
    log._taps[:] = [timer.wrap(lambda e: f"tap {e.kind}", tap) for tap in saved_taps]
    anonymizer.update_location = timer.wrap(
        "update_location", anonymizer.update_location
    )
    anonymizer.cloaker.move_user = timer.wrap(
        "cloaker.move_user", anonymizer.cloaker.move_user
    )
    cloak_module.bulk_cloak = timer.wrap("bulk_cloak", saved_cloak)
    cloak_module._grid_bulk = timer.wrap("grid kernel", saved_kernel)
    cloak_module.group_stats = timer.wrap("group_stats", saved_stats)
    server.receive_regions = timer.wrap("receive_regions", server.receive_regions)
    system.publish_all = timer.wrap("publish_all", system.publish_all)
    risk = system.risk
    folds = [] if risk is None else [
        (risk.posterior, "publish_many"),
        (risk.linkage, "observe_many"),
        (risk.density, "move_many"),
    ]
    for owner, name in folds:
        label = f"{type(owner).__name__}.{name}"
        setattr(owner, name, timer.wrap(label, getattr(owner, name)))
    gc.callbacks.append(timer.on_gc)

    def undo() -> None:
        gc.callbacks.remove(timer.on_gc)
        for owner, name in (
            (obs, "span"), (obs, "emit"), (log, "emit"),
            (log, "append_move"), (log, "close_run"),
            (anonymizer, "update_location"), (anonymizer.cloaker, "move_user"),
            (server, "receive_regions"), (system, "publish_all"), *folds,
        ):
            vars(owner).pop(name, None)
        obs.span, obs.emit = obs.tracer.span, log.emit
        _LiveSpan.__enter__, _LiveSpan.__exit__ = saved_enter, saved_exit
        events_module._encode, cloak_module.bulk_cloak = saved_encode, saved_cloak
        cloak_module._grid_bulk, cloak_module.group_stats = saved_kernel, saved_stats
        log._sink = saved_sink
        log._taps[:] = saved_taps

    return undo


def split(workload_name: str, seed: int, smoke: bool) -> dict:
    if sys.path[0] != ROOT:
        sys.path[0:0] = [ROOT, os.path.join(ROOT, "src")]
    from bench.pipeline import Run
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    if workload.write != "bulk":
        raise SystemExit(f"{workload_name} has no bulk tick")
    if smoke:
        workload = workload.scaled(SMOKE_FACTOR)
    with tempfile.TemporaryDirectory() as out_dir:
        run = Run(workload, seed, 0.0, False, out_dir, log=lambda *_: None)
        run.set_up()
        system = run.system
        run.bulk_tick(run.inputs.plan())  # warm-up
        started = perf_counter()
        run.bulk_tick(run.inputs.plan())
        plain_s = perf_counter() - started
        timer = SelfTimer()
        undo = instrument(system, timer)
        try:
            timer.enter("tick")
            movers = run.bulk_tick(run.inputs.plan())
            timer.exit()
        finally:
            undo()
        risk = system.risk.report()["linkage"] if system.risk is not None else {}
        system.obs.events.detach_jsonl()
    timed_s = sum(timer.self_s.values())
    parts = [
        {
            "part": label,
            "calls": timer.calls[label],
            "self_s": seconds,
            "us_per_call": seconds / timer.calls[label] * 1e6,
            "share": seconds / timed_s,
        }
        for label, seconds in sorted(timer.self_s.items(), key=lambda kv: -kv[1])
    ]
    return {
        "workload": workload.name,
        "users": workload.users,
        "seed": seed,
        "movers": movers,
        "plain_tick_s": plain_s,
        "timed_tick_s": timed_s,
        "linkage_trackers": risk.get("trackers"),
        "parts": parts,
    }


def render(result: dict) -> str:
    lines = [
        f"{result['workload']} ({result['users']} users, seed {result['seed']}): "
        f"{result['movers']} movers, plain tick {result['plain_tick_s']:.3f} s, "
        f"timed tick {result['timed_tick_s']:.3f} s "
        "(the wrapper timers inflate the timed total)",
        f"risk monitor linkage trackers after the tick: {result['linkage_trackers']}",
        f"{'part':42s} {'calls':>8s} {'self s':>9s} {'us/call':>9s} {'share':>7s}",
    ]
    for row in result["parts"]:
        lines.append(
            f"{row['part']:42s} {row['calls']:8d} {row['self_s']:9.4f} "
            f"{row['us_per_call']:9.2f} {row['share']:7.1%}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="bulk_publish_40k")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--smoke", action="store_true", help=f"1/{SMOKE_FACTOR} of the workload's size"
    )
    parser.add_argument("--json", action="store_true", help="print the JSON object")
    args = parser.parse_args(argv)
    result = split(args.workload, args.seed, args.smoke)
    print(json.dumps(result, indent=1) if args.json else render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
