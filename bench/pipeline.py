"""One pipeline, four traffic mixes: build, drive, check, measure.

Every workload runs the paper's whole pipeline -- mobile users report to
the Location Anonymizer, which admits, cloaks and publishes; the
privacy-aware server answers planned queries; clients refine -- through
``PrivacySystem``'s public calls only, from one thread (closed loop, one
client).  A *cycle* is::

    write section    (bulk tick | scalar movement + churn | nothing)
    public batch     (one execute_batch of shuffled QuerySpecs)
    private queries  (user-bound specs, each timed on its own)
    checkpoint       (on the cycles the schedule names)

The four workloads differ in the mix (``bench.workloads``), not in the
code that drives them, so every end-to-end metric is defined on every
workload.  Each section is timed separately: a read-path change cannot
move ``updates_per_s`` even on a workload that also reads.

Inputs are drawn before a cycle's clock starts, and cycle *i* draws the
same inputs whatever the machine's speed; the loop runs until
``--seconds`` of measured time have passed and never fewer than the
workload's floor of cycles.  The three metrics that are pure functions
of the inputs (``k_attainment``, ``mean_region_area``,
``candidates_per_answer``) are taken over the floor cycles only, so they
repeat exactly for a seed.  Every duration is machine-normalised (see
``bench.reference``).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

from bench import layers, reference, trace as tr
from bench.recover_child import digest_of
from bench.stats import cycle_percentile, rate_median
from bench.workloads import WORLD, CHECK_REGIONS, CyclePlan, Inputs, Workload

from repro.cloaking.grid_cloak import GridCloaker
from repro.cloaking.pyramid_cloak import PyramidCloaker
from repro.core.system import PrivacySystem
from repro.engine.oracle import BruteForceOracle
from repro.geometry.rect import Rect
from repro.mobility.users import MobileUser, UserMode
from repro.obs.audit import PrivacyAuditor
from repro.obs.events import CLOCK_ADVANCED, Event
from repro.queries.spec import CountSpec, KNNSpec, RangeSpec

DT = 1.0
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _counter_sum(registry, name: str, **match: str) -> int:
    wanted = set(match.items())
    return sum(
        counter.value
        for (metric, labels), counter in registry.counters()
        if metric == name and wanted <= set(labels)
    )


@dataclass
class Samples:
    """What the timed cycles produced; seconds are machine-normalised.

    One entry per cycle unless noted; ``cycle_raw_s`` and ``speed`` keep
    the wall time and the normalisation factor for the run artifact.
    """

    cycle_s: list[float] = field(default_factory=list)
    cycle_raw_s: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    checkpoint_cycle: list[bool] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    updates: list[int] = field(default_factory=list)
    wal_write_bytes: list[int] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    batch_n: list[int] = field(default_factory=list)
    private_s: list[float] = field(default_factory=list)
    private_n: list[int] = field(default_factory=list)
    range_ms: list[list[float]] = field(default_factory=list)  # latencies per cycle
    nn_ms: list[list[float]] = field(default_factory=list)
    knn_ms: list[list[float]] = field(default_factory=list)
    checkpoint_s: list[float] = field(default_factory=list)  # per checkpoint
    checkpoint_bytes: list[int] = field(default_factory=list)
    candidates: int = 0  # private range, floor cycles only
    answers: int = 0
    all_candidates: int = 0  # every private query
    all_queries: int = 0
    published: int = 0  # floor cycles only
    k_attained: int = 0
    regions: int = 0  # floor cycles only: regions the server held
    area_sum: float = 0.0


class Run:
    """One workload, one seed, one process."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        traced: bool,
        out_dir: str,
        log=print,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.out_dir = out_dir
        self.log = log
        self.tmp = os.path.join(out_dir, f"tmp-{workload.name}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.samples = Samples()
        self.tracer = tr.Tracer()
        self.trace_counts: dict = {}
        self.sampler: tr.StackSampler | None = None
        self.system: PrivacySystem | None = None
        self.inputs: Inputs | None = None
        self.setup_s: list[float] = []
        self.load_s: list[float] = []
        self.load_wal_bytes = 0
        self.timed_cycles = 0
        self.kernel_s = 0.0  # the newest reference sample
        self.lap_raw_s = self.lap_s = 0.0  # what ``timed`` has added up since a cycle began
        self.checked = {"range_count": 0, "knn": 0, "regions": 0, "outcomes": 0}
        self.bulk_paths: set[str] = set()
        self.recoveries: list[dict] = []

    # -- accounting ----------------------------------------------------

    def fail(self, what: str, detail: str, n: int = 1) -> None:
        """Count a wrong answer or a refused operation; never raise."""
        self.failed += n
        self.log(f"FAILED {what}: {detail}")

    def attempt(self, what: str, n: int, fn, *args):
        """Run one operation of ``n`` requests; an exception fails them all."""
        self.attempted += n
        try:
            return fn(*args)
        except Exception:
            self.fail(what, traceback.format_exc(limit=3), n)
            return None

    # -- machine-normalised timing -------------------------------------

    def reference_sample(self) -> float:
        with self.tracer.span("harness.reference"):
            self.kernel_s = reference.sample()
        return self.kernel_s

    def timed(self, fn, *args) -> tuple[object, float, float]:
        """``fn``'s result, wall seconds, and machine-normalised seconds.

        The interval is bracketed by the previous reference sample and a
        fresh one, so consecutive sections share their samples.
        """
        before = self.kernel_s
        started = perf_counter()
        result = fn(*args)
        raw = perf_counter() - started
        scaled = raw * reference.scale(before, self.reference_sample())
        self.lap_raw_s += raw
        self.lap_s += scaled
        return result, raw, scaled

    # -- set-up --------------------------------------------------------

    def build(self, wal_dir: str) -> PrivacySystem:
        """Construction through the first publish: what ``setup_s`` times."""
        w, inputs = self.workload, self.inputs
        os.makedirs(wal_dir)
        wal = os.path.join(wal_dir, "wal.jsonl")
        loaded: list[float] = []

        def construct() -> PrivacySystem:
            cloaker = (
                GridCloaker(WORLD, cols=64, rows=64)
                if w.cloaker == "grid"
                else PyramidCloaker(WORLD, height=7)
            )
            system = PrivacySystem(WORLD, cloaker)
            system.attach_wal(wal_dir)
            system.enable_monitoring(interval=1.0)
            for poi_id, point in inputs.pois:
                system.add_poi(poi_id, point)
            wal_before = os.path.getsize(wal)
            load_started = perf_counter()
            for user_id, point, profile in inputs.users:
                system.add_user(MobileUser(user_id, point, profile))
            system.publish_all(bulk=w.write != "scalar")
            loaded.append(perf_counter() - load_started)
            self.load_wal_bytes = os.path.getsize(wal) - wal_before
            return system

        self.reference_sample()
        system, raw, scaled = self.timed(construct)
        self.setup_s.append(scaled)
        self.load_s.append(loaded[0] * scaled / raw)
        return system

    def set_up(self) -> None:
        w = self.workload
        self.inputs = Inputs(w, self.seed)
        reps = 1 if self.traced else w.setup_reps
        for rep in range(reps):
            self.wal_dir = os.path.join(self.tmp, f"wal{rep}")
            self.attempted += 1
            self.system = self.build(self.wal_dir)
            if rep < reps - 1:  # a rehearsal: time it, then let it go
                self.system.obs.events.detach_jsonl()
                self.system = None
                gc.collect()
                shutil.rmtree(self.wal_dir)
        if w.write != "scalar":
            users = [user_id for user_id, _, _ in self.inputs.users[:CHECK_REGIONS]]
            self.account_bulk_publish(users, keep=w.write == "none")
        if w.write == "none":
            self.account_regions()

    # -- one cycle -----------------------------------------------------

    def wal_files(self) -> list[str]:
        """The live WAL and the segments rotation sealed, oldest first."""
        return [
            os.path.join(self.wal_dir, name)
            for name in sorted(os.listdir(self.wal_dir))
            if name.startswith("wal") and name.endswith(".jsonl")
        ]

    def wal_bytes(self) -> int:
        return sum(map(os.path.getsize, self.wal_files()))

    def bulk_tick(self, plan: CyclePlan) -> int:
        """Move everyone one step and republish in bulk.

        ``apply_movement`` has no bulk counterpart, so the harness does
        what it does -- advance the clock with the ``clock.advanced``
        event (the WAL stays replayable), hand every location to the
        anonymizer -- and then publishes once for the whole population.
        """
        system = self.system
        positions = self.inputs.model.step(DT)
        system.clock += DT
        system.obs.emit(CLOCK_ADVANCED, t=system.clock, dt=DT)
        users, update = system.users, system.anonymizer.update_location
        for user_id, point in positions.items():
            users[user_id].location = point
            update(user_id, point)
        system.publish_all(bulk=True)
        return len(positions)

    def scalar_tick(self, plan: CyclePlan) -> int:
        positions = self.inputs.model.step(DT)
        self.system.apply_movement({u: positions[u] for u in plan.movers}, DT)
        return len(plan.movers)

    def churn(self, plan: CyclePlan) -> None:
        system = self.system
        for user_id in plan.flips:
            visible = system.users[user_id].is_visible
            system.set_mode(user_id, UserMode.PASSIVE if visible else UserMode.ACTIVE)
        for user_id, profile in plan.profiles:
            system.anonymizer.update_profile(user_id, profile)

    def ask(self, plan: CyclePlan) -> list[tuple[object, float]]:
        """Every user-bound query through its own ``system.query``."""
        done = []
        for spec in plan.private:
            started = perf_counter()
            result = self.attempt(f"query {spec}", 1, self.system.query, spec)
            done.append((result, perf_counter() - started))
        return done

    def cycle(self, index: int, timed: bool, write: bool = True) -> None:
        """Run cycle ``index`` (0 is the warm-up) and check what it answered."""
        w, system, samples = self.workload, self.system, self.samples
        plan = self.inputs.plan()
        in_floor = timed and index <= w.floor and not self.traced
        updates = wal_written = 0
        write_s = 0.0
        took_checkpoint = False
        self.lap_raw_s = self.lap_s = 0.0
        with self.tracer.span("harness.cycle", new_trace=True):
            self.reference_sample()
            if write and w.write != "none":
                wal_before = self.wal_bytes()
                tick = self.bulk_tick if w.write == "bulk" else self.scalar_tick
                n = w.users if w.write == "bulk" else len(plan.movers)
                updates, _, write_s = self.timed(self.attempt, "tick", n, tick, plan)
                updates = updates or 0
                wal_written = self.wal_bytes() - wal_before
                if w.write == "scalar":
                    self.timed(self.attempt, "churn", 2 * w.churn, self.churn, plan)
            answers, _, batch_s = self.timed(
                self.attempt, "execute_batch", len(plan.batch), system.execute_batch, plan.batch
            )
            asked, raw, private_s = self.timed(self.ask, plan)
            speed = private_s / raw  # this section's normalisation factor
            # Never on the floor cycle: the recoveries replay from there,
            # and must find a WAL tail behind the newest checkpoint.
            if timed and index % w.checkpoint_every == 0 and index != w.floor:
                path, _, scaled = self.timed(
                    self.attempt, "checkpoint", 1, system.checkpoint, self.wal_dir
                )
                samples.checkpoint_s.append(scaled)
                samples.checkpoint_bytes.append(os.path.getsize(path) if path else 0)
                took_checkpoint = True
        if timed:
            samples.cycle_s.append(self.lap_s)
            samples.cycle_raw_s.append(self.lap_raw_s)
            samples.speed.append(self.lap_s / self.lap_raw_s)
            samples.checkpoint_cycle.append(took_checkpoint)
            if updates:
                samples.write_s.append(write_s)
                samples.updates.append(updates)
                samples.wal_write_bytes.append(wal_written)
            samples.batch_s.append(batch_s)
            samples.batch_n.append(len(plan.batch))
            samples.private_s.append(sum(s for _, s in asked) * speed)
            samples.private_n.append(len(asked))
            for pool in (samples.range_ms, samples.nn_ms, samples.knn_ms):
                pool.append([])
            for spec, (_, seconds) in zip(plan.private, asked):
                pool = (
                    samples.range_ms if isinstance(spec, RangeSpec)
                    else samples.knn_ms if isinstance(spec, KNNSpec)
                    else samples.nn_ms
                )
                pool[-1].append(seconds * speed * 1e3)
        self.check_cycle(plan, answers, [result for result, _ in asked], updates, in_floor)
        if timed and index == w.floor:
            self.freeze_for_recovery()

    # -- correctness, outside the timed intervals ----------------------

    def account_bulk_publish(self, sample_users: list[str], keep: bool) -> None:
        """Fold the last bulk round into ``k_attainment`` and recount k.

        The metric uses the program's own per-user results; the recount
        checks a sample of them against true locations with plain numpy,
        independently of ``PrivacyAuditor``.
        """
        outcome = self.system.anonymizer.last_bulk_outcome
        self.bulk_paths.add(outcome.path)
        if keep:
            for result in outcome.results.values():
                self.samples.published += 1
                self.samples.k_attained += result.user_count >= result.requirement.k
        users = self.system.users
        xs = np.fromiter((users[u].location.x for u in outcome.results), dtype=float)
        ys = np.fromiter((users[u].location.y for u in outcome.results), dtype=float)
        for user_id in sample_users:
            result = outcome.results[user_id]
            self.recount(user_id, result.region, result.user_count, xs, ys)

    def recount(self, user_id, region: Rect, claimed: int | None, xs, ys) -> int:
        inside = int(
            np.count_nonzero(
                (xs >= region.min_x) & (xs <= region.max_x)
                & (ys >= region.min_y) & (ys <= region.max_y)
            )
        )
        self.checked["regions"] += 1
        if claimed is not None and inside != claimed:
            self.fail(
                "k recount",
                f"user {user_id}: region {region} holds {inside} users, "
                f"program counted {claimed}",
            )
        return inside

    def account_scalar_publish(self, plan: CyclePlan, keep: bool) -> None:
        """Recount every region this tick published (all of them: 5 %)."""
        system = self.system
        anonymizer = system.anonymizer
        registered = anonymizer.registered_users()
        users = system.users
        xs = np.fromiter((users[u].location.x for u in registered), dtype=float)
        ys = np.fromiter((users[u].location.y for u in registered), dtype=float)
        for user_id in plan.movers:
            if not users[user_id].is_visible:
                continue  # flipped to passive after publishing
            region = system.server.private.region_of(anonymizer.pseudonym_of(user_id))
            k = anonymizer.requirement_for(user_id, system.clock).k
            inside = self.recount(user_id, region, None, xs, ys)
            if keep:
                self.samples.published += 1
                self.samples.k_attained += inside >= k

    def account_regions(self) -> None:
        """``mean_region_area`` is over every region the server holds."""
        for _, region in self.system.server.private.items():
            self.samples.regions += 1
            self.samples.area_sum += region.area

    def check_cycle(self, plan, answers, outcomes, updates, in_floor: bool) -> None:
        w, samples = self.workload, self.samples
        if updates and w.write == "bulk":
            self.account_bulk_publish(plan.check_users, keep=in_floor)
        elif updates:
            self.account_scalar_publish(plan, keep=in_floor)
        if updates and in_floor:
            self.account_regions()
        for spec, result in zip(plan.private, outcomes):
            if result is None:
                continue
            outcome = result[0]
            self.checked["outcomes"] += 1
            if not outcome.correct:
                self.fail("refinement", f"{spec} refined to a wrong answer")
            samples.all_candidates += outcome.candidates
            samples.all_queries += 1
            if in_floor and isinstance(spec, RangeSpec):
                samples.candidates += outcome.candidates
                samples.answers += outcome.answer_size
        if answers is None:
            return
        oracle = BruteForceOracle.from_server(self.system.server)
        for position in plan.check_positions:
            spec, answer = plan.batch[position], answers[position]
            if isinstance(spec, KNNSpec):
                self.checked["knn"] += 1
                ok = oracle.validate_knn(answer, spec.point, spec.k)
            else:
                self.checked["range_count"] += 1
                if isinstance(spec, CountSpec):
                    truth = oracle.public_count(spec.window).probabilities
                    got = answer.probabilities
                    ok = truth.keys() == got.keys() and all(
                        abs(truth[key] - got[key]) <= 1e-9 for key in truth
                    )
                elif spec.flavor == "public":
                    ok = sorted(answer) == sorted(oracle.public_range(spec.window))
                else:
                    ok = sorted(answer.candidates) == sorted(
                        oracle.private_range(spec.region, spec.radius, spec.method)
                    )
            if not ok:
                self.fail("oracle mismatch", f"{spec}")

    # -- the loop ------------------------------------------------------

    def loop(self, budget_s: float, floor: int) -> None:
        """Timed cycles: ``floor`` more of them and ``budget_s`` more wall seconds."""
        target_cycles = self.timed_cycles + floor
        target_measured = sum(self.samples.cycle_raw_s) + budget_s
        while (
            self.timed_cycles < target_cycles
            or sum(self.samples.cycle_raw_s) < target_measured
        ):
            self.timed_cycles += 1
            self.cycle(self.timed_cycles, timed=True)

    def run(self) -> dict:
        w = self.workload
        os.makedirs(self.tmp, exist_ok=True)
        marks = [("start", perf_counter())]

        def mark(phase: str) -> None:
            marks.append((phase, perf_counter()))

        try:
            if self.traced:
                self.tracer.install(layers.targets(self.trace_counts))
                self.sampler = tr.StackSampler(threading.get_ident())
                self.sampler.start()
            reference.sample()  # the first run of the kernel is cold; discard it
            self.set_up()
            mark("set_up")
            self.log(
                f"set-up {median(self.setup_s):.3f} s x{len(self.setup_s)}; "
                f"inputs {self.inputs.fingerprint}"
            )
            self.cycle(0, timed=False, write=w.warm_write)
            mark("warm_up")
            if not self.traced:
                self.loop(self.seconds, w.floor)
                facts = None
            else:
                # Half the run untraced gives the reference cycle time the
                # traced half is compared with (trace.overhead_share).
                half_floor = max(1, w.floor // 2)
                self.loop(self.seconds / 2, half_floor)
                reference_cycle = median(self.samples.cycle_s)
                before = self.program_counters()
                first_traced = len(self.samples.cycle_s)
                self.tracer.active = self.sampler.active = True
                self.loop(self.seconds / 2, half_floor)
                self.tracer.active = self.sampler.active = False
                facts = self.program_counters(before)
                facts["untraced_cycle_s"] = reference_cycle
                facts["traced_cycle_s"] = median(self.samples.cycle_s[first_traced:])
                facts["traced_cycles"] = len(self.samples.cycle_s) - first_traced
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            mark("cycles_and_checks")
            self.recover()
            mark("recover")
            self.audit()
            mark("audit")
            self.wall_s = {
                phase: at - marks[i][1] for i, (phase, at) in enumerate(marks[1:])
            }
            return self.report(facts)
        finally:
            if self.sampler is not None:
                self.sampler.stop()
            self.tracer.uninstall()
            if self.system is not None:
                self.system.obs.events.detach_jsonl()
            shutil.rmtree(self.tmp, ignore_errors=True)

    # -- durability ----------------------------------------------------

    def freeze_for_recovery(self) -> None:
        """Copy the durability directory as the floor cycle left it.

        The loop may run more cycles on a faster machine; recovering the
        floor state instead of the final one makes ``recover_s`` the same
        work in every run (same WAL length, same tail behind the newest
        checkpoint).  The WAL is line-buffered and nothing else writes,
        so the copy is a state a crash could have left.
        """
        self.frozen_dir = os.path.join(self.tmp, "frozen")
        shutil.copytree(self.wal_dir, self.frozen_dir)
        self.frozen_digest = digest_of(self.system)

    def recover(self) -> None:
        """Fresh-process recoveries of the frozen directory, digest-verified."""
        self.system.obs.events.detach_jsonl()
        self.final_wal_bytes = self.wal_bytes()
        child = os.path.join(HERE, "recover_child.py")
        for _ in range(1 if self.traced else self.workload.recoveries):
            self.attempted += 1
            done = subprocess.run(
                [sys.executable, child, ROOT, self.frozen_dir],
                capture_output=True, text=True, timeout=170,
            )
            if done.returncode != 0:
                self.fail("recovery", done.stderr.strip()[-400:])
                continue
            report = json.loads(done.stdout.strip().splitlines()[-1])
            self.recoveries.append(report)
            if report["digest"] != self.frozen_digest:
                self.fail(
                    "recovery digest",
                    f"recovered {report['digest'][:12]} != live {self.frozen_digest[:12]}",
                )

    def audit(self) -> None:
        """Attain-or-declare, folded from the WAL's audit events only."""
        events = []
        self.wal_events = 0
        for path in self.wal_files():
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    self.wal_events += 1
                    if '"kind": "cloak.' in line:
                        events.append(Event.from_dict(json.loads(line)))
        totals = PrivacyAuditor().consume(events).report()["totals"]
        self.audited_cloaks = totals["cloaks"]
        if totals["undeclared_violations"]:
            self.fail(
                "audit",
                f"{totals['undeclared_violations']} undeclared privacy violations",
                totals["undeclared_violations"],
            )

    # -- reading the program's own counters ----------------------------

    def program_counters(self, before: dict | None = None) -> dict:
        """Counters the program keeps itself; a delta when ``before`` is given."""
        system = self.system
        registry = system.obs.registry
        planner = system.planner
        now = {
            "snapshots.captured": _counter_sum(registry, "engine.snapshot", result="captured"),
            "snapshots.delta": _counter_sum(registry, "engine.snapshot", result="delta"),
            "snapshots.reused": _counter_sum(registry, "engine.snapshot", result="reused"),
            "engine.queries.vectorized": _counter_sum(registry, "engine.queries", path="vectorized"),
            "engine.queries.scalar": _counter_sum(registry, "engine.queries", path="scalar"),
            "events.cloak.escalated": _counter_sum(registry, "events.emitted", kind="cloak.escalated"),
            "events.cloak.degraded": _counter_sum(registry, "events.emitted", kind="cloak.degraded"),
            "planner.calibrations": planner.collector.calibrations,
            "planner.mispredicts": planner.accuracy.mispredicts,
            "obs.windows_cut": system.timeseries.windows_cut,
        }
        for side, store in (("public", system.server.public), ("private", system.server.private)):
            counters = store.index_counters.snapshot()
            now[f"index.{side}.queries"] = counters["range_queries"] + counters["nn_queries"]
            now[f"index.{side}.node_visits"] = counters["node_visits"]
        if before is None:
            return now
        return {key: value - before[key] for key, value in now.items()}

    def routes(self) -> dict[str, int]:
        """Recent route histogram from the planner's accuracy monitor.

        The monitor keeps a rolling window per (kind, backend, route);
        a traced run counts every decision instead (``layers``).
        """
        report = self.system.planner.accuracy.report()
        return {
            key: group["samples"]
            for section in ("groups", "pinned_groups")
            for key, group in report[section].items()
        }

    # -- results -------------------------------------------------------

    def steady_and_stalled(self) -> tuple[list[float], list[float]]:
        """Cycle times without and with a checkpoint inside."""
        s = self.samples
        steady = [c for c, ck in zip(s.cycle_s, s.checkpoint_cycle) if not ck]
        stalled = [c for c, ck in zip(s.cycle_s, s.checkpoint_cycle) if ck]
        return steady or s.cycle_s, stalled

    def end_to_end(self) -> dict[str, float | None]:
        w, s = self.workload, self.samples
        if w.write == "none":
            # A frozen population: the only updates are the initial load.
            updates_per_s = rate_median([w.users] * len(self.load_s), self.load_s)
            wal_per_update = self.load_wal_bytes / w.users
        else:
            updates_per_s = rate_median(s.updates, s.write_s)
            wal_per_update = sum(s.wal_write_bytes) / max(1, sum(s.updates))
        recover_s = [r["seconds"] for r in self.recoveries]
        return {
            "setup_s": median(self.setup_s),
            "updates_per_s": updates_per_s,
            "public_queries_per_s": rate_median(s.batch_n, s.batch_s),
            "private_queries_per_s": rate_median(s.private_n, s.private_s),
            "private_range_p50_ms": cycle_percentile(s.range_ms, 50),
            "private_range_p95_ms": cycle_percentile(s.range_ms, 95),
            "private_nn_p50_ms": cycle_percentile(s.nn_ms, 50),
            "pipeline_cycles_per_s": 1.0 / median(self.steady_and_stalled()[0]),
            "checkpoint_s": median(s.checkpoint_s) if s.checkpoint_s else None,
            "recover_s": median(recover_s) if recover_s else None,
            "wal_bytes_per_update": wal_per_update,
            "k_attainment": s.k_attained / s.published if s.published else None,
            "mean_region_area": s.area_sum / s.regions if s.regions else None,
            "candidates_per_answer": s.candidates / s.answers if s.answers else None,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def preconditions(self, layer: dict | None) -> list[str]:
        """Why this run does not measure what it names (empty when it does)."""
        w = self.workload
        registry = self.system.obs.registry
        problems = []
        if self.system.timeseries.windows_cut <= 0:
            problems.append("obs.windows_cut == 0: monitoring never cut a window")
        if self.final_wal_bytes <= 0:
            problems.append("persist.wal_bytes == 0: the WAL was not attached")
        if w.write != "scalar" and self.bulk_paths != {"kernel"}:
            problems.append(f"bulk cloaking took paths {sorted(self.bulk_paths)}, not the kernel")
        bulk_events = _counter_sum(registry, "events.emitted", kind="cloak.bulk")
        if w.write == "scalar" and bulk_events:
            problems.append(f"{bulk_events} cloak.bulk events on the scalar workload")
        if w.write == "bulk":
            refreshed = _counter_sum(registry, "engine.snapshot", result="captured") + _counter_sum(
                registry, "engine.snapshot", result="delta"
            )
            if refreshed < self.timed_cycles:
                problems.append(
                    f"engine snapshot refreshed {refreshed} times in {self.timed_cycles} cycles"
                )
        if layer is not None and w.write == "bulk" and layer["core.server.rtree_rebuilds"] <= 0:
            problems.append("core.server.rtree_rebuilds == 0 on a bulk workload")
        if not self.recoveries or any(r["replayed"] <= 0 for r in self.recoveries):
            problems.append("a recovery replayed no WAL tail")
        return problems

    def report(self, facts: dict | None) -> dict:
        s = self.samples
        layer = spans_path = None
        if facts is not None:
            recover = self.recoveries[0] if self.recoveries else {"seconds": 0.0, "replayed": 0}
            steady, stalled = self.steady_and_stalled()
            facts.update({
                "persist.wal_bytes": self.final_wal_bytes,
                "persist.wal_events": self.wal_events,
                "persist.checkpoint_bytes": median(s.checkpoint_bytes) if s.checkpoint_bytes else 0,
                "persist.checkpoint_mb_per_s": (
                    median(b / 1e6 / t for b, t in zip(s.checkpoint_bytes, s.checkpoint_s))
                    if s.checkpoint_s else 0.0
                ),
                "persist.checkpoint_stall_ms": (
                    (median(stalled) - median(steady)) * 1e3 if stalled else 0.0
                ),
                "persist.tail_events_replayed": recover["replayed"],
                "persist.replay_events_per_s": (
                    recover["replayed"] / recover["seconds"] if recover["seconds"] else 0.0
                ),
                "queries.candidates_per_query": s.all_candidates / max(1, s.all_queries),
            })
            layer = layers.layer_metrics(
                self.tracer.spans, self.trace_counts, self.sampler.shares(),
                facts["traced_cycles"], facts,
            )
            spans_path = os.path.join(self.out_dir, f"{self.workload.name}.spans.jsonl")
            tr.write_jsonl(self.tracer.spans, spans_path)
        routes = layers.route_histogram(self.trace_counts) if self.traced else self.routes()
        if self.workload.write == "none" and len({k.split("/", 1)[1] for k in routes}) <= 1:
            # Timing-fed and so not asserted: about one run in ten lands here.
            self.log(f"WARNING the planner took a single route this run: {routes}")
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "traced": self.traced,
            "inputs": self.inputs.fingerprint,
            "cycles": self.timed_cycles,
            "measured_s": sum(s.cycle_raw_s),
            "machine_speed": {
                "median": median(s.speed), "min": min(s.speed), "max": max(s.speed),
            },
            "wall_s": self.wall_s,
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "checked": self.checked,
            "samples": {
                "private_range": sum(map(len, s.range_ms)),
                "private_nn": sum(map(len, s.nn_ms)),
                "private_knn": sum(map(len, s.knn_ms)),
                "checkpoints": len(s.checkpoint_s),
                "recoveries": len(self.recoveries),
                "published_regions": s.published,
                "audited_cloaks": self.audited_cloaks,
            },
            "end_to_end": None if self.traced else self.end_to_end(),
            "per_layer": layer,
            "routes": routes,
            "sampled": self.sampler.counts if self.sampler else None,
            "spans": spans_path,
            "cycle_raw_s": s.cycle_raw_s,
            "cycle_s": s.cycle_s,
            "recoveries": self.recoveries,
            "preconditions_failed": self.preconditions(layer),
        }
