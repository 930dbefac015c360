"""Command-line interface: run demos and regenerate experiment tables.

Usage (after ``pip install -e .``)::

    python -m repro demo                      # end-to-end pipeline demo
    python -m repro experiments E5 E7         # print selected tables
    python -m repro experiments all           # the full suite
    python -m repro report -o tables.md       # all tables as markdown
    python -m repro obs                       # telemetry dashboard demo
    python -m repro obs --json                # same snapshot, as JSON
    python -m repro obs --jsonl               # structured event log, as JSONL
    python -m repro explain                   # EXPLAIN the Figure 6a count query
    python -m repro explain -q private_nn     # EXPLAIN any query path
    python -m repro plan                      # cost-based planner decision table
    python -m repro plan --json               # same decisions, as JSON
    python -m repro audit --json              # privacy-attainment audit report
    python -m repro health                    # SLO health verdict (exit 4 on fail)
    python -m repro health --watch            # live ASCII dashboard + health
    python -m repro serve-metrics             # HTTP /metrics /health /risk /timeseries
    python -m repro serve-metrics --smoke     # scrape-and-validate self test
    python -m repro top                       # live windowed telemetry + risk panel
    python -m repro profile                   # hot spans by self-time (flamegraph)
    python -m repro checkpoint --dir state    # durable workload + checkpoint
    python -m repro recover --dir state       # rebuild from checkpoint + WAL tail
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.evalx import experiments as exp
from repro.evalx.tables import Table

#: Experiment id -> callable returning one Table or a tuple of Tables.
EXPERIMENTS: dict[str, Callable[[], object]] = {
    "E1": exp.run_e1_profile,
    "E2": lambda: (exp.run_e2_data_dependent(), exp.run_e2_clique()),
    "E3": lambda: (exp.run_e3_space_dependent(), exp.run_e3_ablation_pyramid()),
    "E4": lambda: (exp.run_e4_scalability(), exp.run_e4_scale_sweep()),
    "E5": exp.run_e5_private_range,
    "E6": exp.run_e6_private_nn,
    "E7": exp.run_e7_public_count,
    "E8": lambda: (
        exp.run_e8_public_nn(),
        exp.figure_6b_example(),
        exp.run_e8_sample_convergence(),
    ),
    "E9": lambda: (exp.run_e9_tradeoff(), exp.run_e9_by_algorithm()),
    "E10": lambda: (exp.run_e10_attacks(), exp.run_e10_density(), exp.run_e10_linkage()),
    "E11": exp.run_e11_transmission,
    "E12": lambda: (exp.run_e12_continuous(), exp.run_e12_delta_transmission()),
    "E13": exp.run_e13_temporal,
    "E14": exp.run_e14_dummies,
}


def _as_tables(result: object) -> list[Table]:
    if isinstance(result, Table):
        return [result]
    return list(result)  # type: ignore[arg-type]


def _run_ids(ids: Sequence[str]) -> list[Table]:
    wanted = list(EXPERIMENTS) if list(ids) in (["all"], []) else list(ids)
    tables: list[Table] = []
    for experiment_id in wanted:
        runner = EXPERIMENTS.get(experiment_id.upper())
        if runner is None:
            raise SystemExit(
                f"unknown experiment {experiment_id!r}; "
                f"choose from {', '.join(EXPERIMENTS)} or 'all'"
            )
        tables.extend(_as_tables(runner()))
    return tables


def cmd_demo(_: argparse.Namespace) -> int:
    """A compact end-to-end pipeline demonstration."""
    import numpy as np

    from repro import (
        CountSpec,
        MobileUser,
        NNSpec,
        PrivacyProfile,
        PrivacySystem,
        PyramidCloaker,
        RangeSpec,
    )
    from repro.geometry import Point, Rect

    rng = np.random.default_rng(0)
    bounds = Rect(0, 0, 100, 100)
    system = PrivacySystem(bounds, PyramidCloaker(bounds, height=6))
    for j in range(40):
        x, y = rng.uniform(0, 100, 2)
        system.add_poi(f"poi-{j}", Point(float(x), float(y)))
    for i in range(400):
        x, y = rng.uniform(0, 100, 2)
        system.add_user(
            MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=10))
        )
    system.publish_all()
    outcome, _ = system.query(RangeSpec(flavor="private", user=0, radius=12.0))
    nn_outcome, nearest = system.query(NNSpec(flavor="private", user=0))
    answer = system.query(CountSpec(window=Rect(25, 25, 75, 75)))
    print("privacy-aware LBS demo (400 users, k = 10)")
    print(f"  range query: {outcome.candidates} candidates shipped for "
          f"{outcome.answer_size} true answers (correct: {outcome.correct})")
    print(f"  NN query   : {nn_outcome.candidates} candidates, answer "
          f"{nearest} (correct: {nn_outcome.correct})")
    print(f"  count query: E = {answer.expected:.1f}, interval {answer.interval}")
    return 0


def _observed_quickstart(
    users: int = 200,
    pois: int = 30,
    queries: int = 25,
    seed: int = 0,
    telemetry=None,
):
    """Run a small traced pipeline workload and return the PrivacySystem.

    ``telemetry`` lets callers pre-wire the sink (e.g. install a
    profiler or attach a JSONL trail) before the workload runs.
    """
    import numpy as np

    from repro import (
        CountSpec,
        MobileUser,
        NNSpec,
        PrivacyProfile,
        PrivacySystem,
        PyramidCloaker,
        RangeSpec,
    )
    from repro.geometry import Point, Rect

    rng = np.random.default_rng(seed)
    bounds = Rect(0, 0, 100, 100)
    system = PrivacySystem(
        bounds, PyramidCloaker(bounds, height=6), telemetry=telemetry
    )
    for j in range(pois):
        x, y = rng.uniform(0, 100, 2)
        system.add_poi(f"poi-{j}", Point(float(x), float(y)))
    for i in range(users):
        x, y = rng.uniform(0, 100, 2)
        system.add_user(
            MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=8))
        )
    system.publish_all()
    moves = {
        i: Point(
            float(min(100.0, system.users[i].location.x + rng.uniform(0, 2))),
            float(min(100.0, system.users[i].location.y + rng.uniform(0, 2))),
        )
        for i in range(min(users, 50))
    }
    system.apply_movement(moves)
    for i in range(queries):
        system.query(RangeSpec(flavor="private", user=i % users, radius=10.0))
        system.query(NNSpec(flavor="private", user=(i * 7) % users))
        system.query(CountSpec(window=Rect(20, 20, 80, 80)))
    return system


def cmd_obs(args: argparse.Namespace) -> int:
    """Run a traced workload and print its telemetry snapshot."""
    from repro.obs.export import render_dashboard, to_json, to_prometheus

    if args.users < 1:
        raise SystemExit("repro obs: error: --users must be at least 1")
    if args.queries < 0:
        raise SystemExit("repro obs: error: --queries must be non-negative")
    system = _observed_quickstart(
        users=args.users, queries=args.queries, seed=args.seed
    )
    if args.jsonl:
        text = system.obs.events.dump_jsonl()
        if not text:
            print("repro obs: error: no events recorded", file=sys.stderr)
            return 1
        sys.stdout.write(text)
        return 0
    snapshot = system.telemetry()
    if not (
        snapshot.get("stages") or snapshot.get("counters") or snapshot.get("events")
    ):
        print("repro obs: error: no telemetry recorded", file=sys.stderr)
        return 1
    if args.json:
        print(to_json(snapshot))
    elif args.prometheus:
        print(to_prometheus(snapshot))
    else:
        print(render_dashboard(snapshot))
    return 0


def _explain_queries() -> tuple[str, ...]:
    """EXPLAIN-able query paths: every native kind, plus the composite
    ``batch`` / ``bulk_cloak`` / ``planned`` plans and the paper's
    Figure 6a worked example (the default)."""
    from repro.queries.spec import NATIVE_KINDS

    return ("figure6a", *NATIVE_KINDS, "batch", "bulk_cloak", "planned")


def cmd_explain(args: argparse.Namespace) -> int:
    """EXPLAIN one query path: plan tree with measured index work."""
    from repro.obs import QueryExplainer, plan_to_json, render_plan
    from repro.obs.explain import explain_figure_6a

    if args.query == "figure6a":
        plan = explain_figure_6a()
    else:
        from repro.geometry import Point, Rect
        from repro.queries.spec import CountSpec, KNNSpec, NNSpec, RangeSpec

        system = _observed_quickstart(
            users=args.users, queries=0, seed=args.seed
        )
        explainer = QueryExplainer(system.server)
        region = system.anonymizer.cloak_user(0, t=system.clock).region
        specs = {
            "public_range": RangeSpec(window=Rect(20, 20, 60, 60)),
            "public_knn": KNNSpec(point=Point(50, 50), k=4),
            "public_count": CountSpec(window=Rect(20, 20, 80, 80)),
            "public_nn": NNSpec(point=Point(50, 50), dataset="private"),
            "private_range": RangeSpec(
                flavor="private", region=region, radius=10.0
            ),
            "private_nn": NNSpec(flavor="private", region=region),
            "private_knn": KNNSpec(flavor="private", region=region, k=4),
        }
        if args.query in specs:
            plan = explainer.explain(specs[args.query])
        elif args.query == "bulk_cloak":
            plan = explainer.explain_bulk_cloak(
                system.anonymizer, t=system.clock
            )
        elif args.query == "planned":
            plan = explainer.explain_spec(specs["public_knn"])
        else:  # batch
            plan = explainer.explain_batch(
                [
                    specs[kind]
                    for kind in (
                        "public_range",
                        "public_knn",
                        "public_count",
                        "private_nn",
                    )
                ]
            )
    print(plan_to_json(plan) if args.json else render_plan(plan))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Print the cost-based planner's decisions for a spec workload."""
    import json

    from repro.geometry import Point, Rect
    from repro.queries.spec import (
        CountSpec,
        KNNSpec,
        NNSpec,
        RangeSpec,
        spec_to_dict,
    )

    if args.users < 1:
        raise SystemExit("repro plan: error: --users must be at least 1")
    system = _observed_quickstart(users=args.users, queries=0, seed=args.seed)
    region = system.anonymizer.cloak_user(0, t=system.clock).region
    specs = [
        RangeSpec(window=Rect(20, 20, 60, 60)),
        KNNSpec(point=Point(50, 50), k=4),
        CountSpec(window=Rect(20, 20, 80, 80)),
        RangeSpec(flavor="private", region=region, radius=10.0),
        NNSpec(flavor="private", region=region),
        NNSpec(dataset="private", point=Point(50, 50), samples=512),
    ]
    planner = system.planner
    decisions = [
        planner.decide(spec, batch_size=args.batch) for spec in specs
    ]
    stats = planner.stats()
    if args.json:
        print(
            json.dumps(
                {
                    "stats": stats.to_dict(),
                    "decisions": [
                        {"spec": spec_to_dict(spec), **decision.to_dict()}
                        for spec, decision in zip(specs, decisions)
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"cost-based planner decisions "
        f"(pois={len(system.server.public)}, users={args.users}, "
        f"batch={args.batch})"
    )
    print(
        f"  statistics: n_public={stats.n_public} n_private={stats.n_private}"
        f" snapshot_fresh={stats.snapshot_fresh} grid_ready={stats.grid_ready}"
        f" calibration_sample={stats.calibration_sample}"
    )
    print(f"  {'query':<25} {'backend':<9} {'route':<11} {'est_s':>9}  reason")
    for decision in decisions:
        print(
            f"  {decision.kind:<25} {decision.backend:<9} "
            f"{decision.route:<11} {decision.seconds:>9.2e}  {decision.reason}"
        )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Run a workload (or read a JSONL trail) and print the audit report."""
    import json

    from repro.obs import PrivacyAuditor

    if args.from_jsonl:
        auditor = PrivacyAuditor.from_jsonl(args.from_jsonl)
    else:
        system = _observed_quickstart(
            users=args.users, queries=args.queries, seed=args.seed
        )
        auditor = PrivacyAuditor.from_log(system.obs.events)
    report = auditor.report()
    if report["totals"]["cloaks"] == 0:
        print("repro audit: error: no cloak events to audit", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        totals = report["totals"]
        print("privacy attainment audit")
        for key, value in totals.items():
            formatted = f"{value:.4g}" if isinstance(value, float) else str(value)
            print(f"  {key} = {formatted}")
        for profile, tally in report["profiles"].items():
            print(
                f"  profile {profile}: {tally['cloaks']} cloaks, "
                f"attainment {tally['attainment_rate']:.2%}, "
                f"undeclared violations {tally['undeclared_violations']}"
            )
        for kind, stats in report["queries"].items():
            extra = (
                f", mean overhead {stats['mean_overhead']:.2f}"
                if "mean_overhead" in stats
                else ""
            )
            print(
                f"  queries {kind}: {stats['count']}, "
                f"accuracy {stats['accuracy']:.2%}{extra}"
            )
    return 0 if not auditor.violations() else 2


def cmd_health(args: argparse.Namespace) -> int:
    """Evaluate SLO health over a traced workload; exit 4 on violation."""
    import json
    import time

    from repro.obs.export import render_dashboard
    from repro.obs.slo import DEFAULT_SLOS, SLOMonitor, load_slos

    if args.users < 1:
        raise SystemExit("repro health: error: --users must be at least 1")
    if args.queries < 1:
        raise SystemExit("repro health: error: --queries must be at least 1")
    if args.window < 1:
        raise SystemExit("repro health: error: --window must be at least 1")
    specs = load_slos(args.specs) if args.specs else DEFAULT_SLOS
    monitor = SLOMonitor(specs, window=args.window)
    system = _observed_quickstart(
        users=args.users, queries=args.queries, seed=args.seed
    )
    report = monitor.evaluate(system)
    if not args.watch:
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        return report.exit_code

    from repro import CountSpec, RangeSpec
    from repro.geometry import Rect

    ticks = 0
    while True:
        ticks += 1
        frame = (
            render_dashboard(system.telemetry()) + "\n\n" + report.render()
        )
        if sys.stdout.isatty():  # pragma: no cover - interactive only
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        else:
            print(frame)
            print(f"-- watch tick {ticks} --")
        sys.stdout.flush()
        if args.iterations and ticks >= args.iterations:
            break
        time.sleep(args.interval)
        # Keep the rolling window moving between frames.
        for i in range(5):
            user = (ticks * 5 + i) % args.users
            system.query(RangeSpec(flavor="private", user=user, radius=10.0))
            system.query(CountSpec(window=Rect(20, 20, 80, 80)))
        report = monitor.evaluate(system)
    return report.exit_code


def _drive_tick(system, tick: int, users: int) -> None:
    """A few queries + one movement step: keeps live dashboards moving."""
    from repro import CountSpec, RangeSpec
    from repro.geometry import Point, Rect

    for i in range(5):
        user = (tick * 5 + i) % users
        system.query(RangeSpec(flavor="private", user=user, radius=10.0))
        system.query(CountSpec(window=Rect(20, 20, 80, 80)))
    mover = tick % users
    location = system.users[mover].location
    system.apply_movement(
        {
            mover: Point(
                min(100.0, location.x + 1.0), min(100.0, location.y + 1.0)
            )
        }
    )


def cmd_serve_metrics(args: argparse.Namespace) -> int:
    """Expose live telemetry over HTTP (or run the scrape self-test)."""
    import json
    import time

    from repro.obs.serve import TelemetryEndpoint, smoke

    if args.users < 1:
        raise SystemExit("repro serve-metrics: error: --users must be at least 1")
    if args.interval <= 0:
        raise SystemExit("repro serve-metrics: error: --interval must be positive")
    system = _observed_quickstart(
        users=args.users, queries=args.queries, seed=args.seed
    )
    system.enable_monitoring(interval=args.interval)
    if args.smoke:
        result = smoke(system)
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0 if result["ok"] else 1
    endpoint = TelemetryEndpoint(system)
    host, port = endpoint.start(host=args.host, port=args.port)
    print(
        f"serving telemetry on http://{host}:{port}  "
        "(paths: /metrics /health /risk /timeseries)"
    )
    sys.stdout.flush()
    ticks = 0
    try:
        while True:
            ticks += 1
            _drive_tick(system, ticks, args.users)
            if args.iterations and ticks >= args.iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        endpoint.shutdown()
    print(f"served {endpoint.requests_served} requests over {ticks} ticks")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard: windowed rates, privacy risk, and SLO health."""
    import time

    from repro.obs.slo import SLOMonitor

    if args.users < 1:
        raise SystemExit("repro top: error: --users must be at least 1")
    if args.interval <= 0:
        raise SystemExit("repro top: error: --interval must be positive")
    system = _observed_quickstart(
        users=args.users, queries=args.queries, seed=args.seed
    )
    system.enable_monitoring(interval=args.interval)
    monitor = SLOMonitor()
    ticks = 0
    while True:
        ticks += 1
        _drive_tick(system, ticks, args.users)
        system.timeseries.sample()
        report = monitor.evaluate(system)
        frame = (
            system.timeseries.render()
            + "\n\n"
            + system.risk.render()
            + "\n\n"
            + report.render()
        )
        if sys.stdout.isatty():  # pragma: no cover - interactive only
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        else:
            print(frame)
            print(f"-- top tick {ticks} --")
        sys.stdout.flush()
        if args.iterations and ticks >= args.iterations:
            return report.exit_code
        time.sleep(args.interval)


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile hot spans over a traced workload (self-time flamegraph)."""
    import json

    from repro.obs import SpanProfiler, Telemetry

    if args.users < 1:
        raise SystemExit("repro profile: error: --users must be at least 1")
    if args.top < 1:
        raise SystemExit("repro profile: error: --top must be at least 1")
    if args.sample_every < 1:
        raise SystemExit(
            "repro profile: error: --sample-every must be at least 1"
        )
    telemetry = Telemetry()
    profiler = SpanProfiler(top=args.top, sample_every=args.sample_every)
    profiler.emit = telemetry.emit
    profiler.install(telemetry.tracer)
    try:
        _observed_quickstart(
            users=args.users,
            queries=args.queries,
            seed=args.seed,
            telemetry=telemetry,
        )
    finally:
        profiler.uninstall()
    if not profiler.spans_seen:
        print("repro profile: error: no spans recorded", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(profiler.report(args.top), indent=2, sort_keys=True))
    else:
        print(profiler.render(args.top))
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Run a durable workload: WAL-attached, checkpointed mid-stream.

    Leaves a recoverable durability directory behind (``wal.jsonl``,
    ``wal-meta.json``, one checkpoint) and prints a JSON summary, so
    ``python -m repro recover --dir <dir>`` can be demonstrated (and
    smoke-tested in CI) against real artifacts.
    """
    import json as _json
    import os

    from repro import (
        MobileUser,
        NNSpec,
        PrivacyProfile,
        PrivacySystem,
        PyramidCloaker,
        RangeSpec,
    )
    from repro.geometry import Point, Rect
    from repro.obs import Telemetry
    from repro.persist import list_checkpoints

    import numpy as np

    if args.users < 2:
        raise SystemExit("repro checkpoint: error: --users must be at least 2")
    rng = np.random.default_rng(args.seed)
    bounds = Rect(0, 0, 100, 100)
    system = PrivacySystem(
        bounds, PyramidCloaker(bounds, height=6), telemetry=Telemetry()
    )
    system.attach_wal(args.dir)
    for j in range(30):
        x, y = rng.uniform(0, 100, 2)
        system.add_poi(f"poi-{j}", Point(float(x), float(y)))
    for i in range(args.users):
        x, y = rng.uniform(0, 100, 2)
        system.add_user(
            MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=8))
        )
    system.publish_all()
    path = system.checkpoint(args.dir)
    # Tail operations past the checkpoint: recovery replays exactly these.
    moves = {
        i: Point(
            float(min(100.0, system.users[i].location.x + rng.uniform(0, 2))),
            float(min(100.0, system.users[i].location.y + rng.uniform(0, 2))),
        )
        for i in range(min(args.users, 50))
    }
    system.apply_movement(moves)
    for i in range(args.queries):
        system.query(RangeSpec(flavor="private", user=i % args.users, radius=10.0))
        system.query(NNSpec(flavor="private", user=(i * 7) % args.users))
    summary = {
        "dir": args.dir,
        "checkpoint": os.path.basename(path),
        "checkpoints": [p.name for p in list_checkpoints(args.dir)],
        "wal_seq": system.obs.events._seq,
        "users": len(system.users),
        "private_regions": len(system.server.private),
        "queries_served": system.server.queries_served,
    }
    system.obs.events.detach_jsonl()
    print(_json.dumps(summary, indent=2))
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Recover a PrivacySystem from a durability directory (exit 5 on failure)."""
    import json as _json

    from repro.persist import Recovery, RecoveryError, system_digest

    recovery = Recovery(args.dir, allow_gaps=args.allow_gaps)
    try:
        system = recovery.recover()
    except RecoveryError as exc:
        print(f"repro recover: error: {exc}", file=sys.stderr)
        return 5
    report = dict(recovery.report)
    report["users"] = len(system.users)
    report["registered"] = len(system.anonymizer._registrations)
    report["private_regions"] = len(system.server.private)
    report["queries_served"] = system.server.queries_served
    if args.verify:
        digest = system_digest(system)
        report["digest_keys"] = sorted(digest)
        report["store_versions"] = digest["store_versions"]
        report["audit"] = recovery.audit_report().get("totals", {})
    if args.json:
        print(_json.dumps(report, indent=2))
    else:
        checkpoint = report["checkpoint"] or "(cold start from WAL alone)"
        print(f"recovered from {args.dir}")
        print(f"  checkpoint     : {checkpoint}")
        print(
            f"  wal tail       : {report['replayed']} events replayed, "
            f"{report['skipped']} skipped, final seq {report['final_seq']}"
        )
        print(
            f"  state          : {report['users']} users, "
            f"{report['private_regions']} cloaked regions, "
            f"{report['queries_served']} queries served"
        )
        for name in report.get("unreadable_checkpoints", []):
            print(f"  skipped corrupt: {name}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    for table in _run_ids(args.ids):
        print(table.to_text())
        print()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    tables = _run_ids(["all"])
    markdown = "\n\n".join(t.to_markdown() for t in tables)
    if args.output == "-":
        print(markdown)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(markdown + "\n")
        print(f"wrote {len(tables)} tables to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-aware location-based database server (Mokbel, ICDE 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a compact end-to-end demo")
    demo.set_defaults(func=cmd_demo)

    experiments = sub.add_parser(
        "experiments", help="run experiments and print their tables"
    )
    experiments.add_argument(
        "ids", nargs="*", default=["all"], help="experiment ids (E1..E14) or 'all'"
    )
    experiments.set_defaults(func=cmd_experiments)

    report = sub.add_parser("report", help="write every table as markdown")
    report.add_argument("-o", "--output", default="-", help="file or '-' for stdout")
    report.set_defaults(func=cmd_report)

    obs = sub.add_parser(
        "obs", help="run a traced workload and print its telemetry snapshot"
    )
    fmt = obs.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", action="store_true", help="emit the snapshot as JSON"
    )
    fmt.add_argument(
        "--prometheus",
        action="store_true",
        help="emit the snapshot in Prometheus text exposition format",
    )
    fmt.add_argument(
        "--jsonl",
        action="store_true",
        help="emit the structured event log as JSONL (one event per line)",
    )
    obs.add_argument("--users", type=int, default=200, help="workload size")
    obs.add_argument("--queries", type=int, default=25, help="queries per kind")
    obs.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    obs.set_defaults(func=cmd_obs)

    explain = sub.add_parser(
        "explain",
        help="EXPLAIN a query path: executed plan tree with index work",
    )
    explain.add_argument(
        "-q",
        "--query",
        choices=_explain_queries(),
        default="figure6a",
        help="query path to explain (default: the paper's Figure 6a count)",
    )
    explain.add_argument(
        "--json", action="store_true", help="emit the plan as JSON"
    )
    explain.add_argument("--users", type=int, default=200, help="workload size")
    explain.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    explain.set_defaults(func=cmd_explain)

    plan = sub.add_parser(
        "plan",
        help="print the cost-based planner's backend/route decision table",
    )
    plan.add_argument(
        "--json", action="store_true", help="emit stats + decisions as JSON"
    )
    plan.add_argument(
        "--batch",
        type=int,
        default=1,
        help="plan for this batch size (amortises one-off costs)",
    )
    plan.add_argument("--users", type=int, default=200, help="workload size")
    plan.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    plan.set_defaults(func=cmd_plan)

    audit = sub.add_parser(
        "audit", help="privacy-attainment audit report over the event log"
    )
    audit.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    audit.add_argument(
        "--from-jsonl",
        default=None,
        metavar="PATH",
        help="audit an existing JSONL event trail instead of a fresh workload",
    )
    audit.add_argument("--users", type=int, default=200, help="workload size")
    audit.add_argument("--queries", type=int, default=25, help="queries per kind")
    audit.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    audit.set_defaults(func=cmd_audit)

    health = sub.add_parser(
        "health",
        help="evaluate SLO health over a traced workload (exit 4 on violation)",
    )
    health.add_argument(
        "--json", action="store_true", help="emit the health report as JSON"
    )
    health.add_argument(
        "--watch",
        action="store_true",
        help="dashboard + health frames in a loop instead of one report",
    )
    health.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch frames (default 2)",
    )
    health.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop --watch after N frames (0 = run until interrupted)",
    )
    health.add_argument(
        "--specs",
        default=None,
        metavar="PATH",
        help="JSON list of SLO specs to evaluate instead of the defaults",
    )
    health.add_argument(
        "--window",
        type=int,
        default=512,
        help="rolling event window for event-derived SLOs (default 512)",
    )
    health.add_argument("--users", type=int, default=200, help="workload size")
    health.add_argument("--queries", type=int, default=25, help="queries per kind")
    health.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    health.set_defaults(func=cmd_health)

    serve = sub.add_parser(
        "serve-metrics",
        help="serve /metrics /health /risk /timeseries over HTTP",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0 = OS-assigned ephemeral port)",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="start on an ephemeral port, scrape every path, validate, exit",
    )
    serve.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="time-series sampling window in seconds (default 1)",
    )
    serve.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop the workload loop after N ticks (0 = run until interrupted)",
    )
    serve.add_argument("--users", type=int, default=200, help="workload size")
    serve.add_argument("--queries", type=int, default=25, help="queries per kind")
    serve.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    serve.set_defaults(func=cmd_serve_metrics)

    top = sub.add_parser(
        "top",
        help="live dashboard: windowed telemetry, privacy risk, SLO health",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between frames (and per sampling window; default 1)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N frames (0 = run until interrupted)",
    )
    top.add_argument("--users", type=int, default=200, help="workload size")
    top.add_argument("--queries", type=int, default=25, help="queries per kind")
    top.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    top.set_defaults(func=cmd_top)

    profile = sub.add_parser(
        "profile",
        help="hot-span self-time profile of a traced workload",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="emit rows + flamegraph tree as JSON",
    )
    profile.add_argument(
        "--top", type=int, default=15, help="rows in the report (default 15)"
    )
    profile.add_argument(
        "--sample-every",
        type=int,
        default=1,
        help="aggregate every N-th span only (default 1 = all)",
    )
    profile.add_argument("--users", type=int, default=200, help="workload size")
    profile.add_argument("--queries", type=int, default=25, help="queries per kind")
    profile.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    profile.set_defaults(func=cmd_profile)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run a WAL-attached workload and write a recoverable checkpoint",
    )
    checkpoint.add_argument(
        "--dir", required=True, help="durability directory (WAL + checkpoints)"
    )
    checkpoint.add_argument("--users", type=int, default=200, help="workload size")
    checkpoint.add_argument(
        "--queries", type=int, default=25, help="post-checkpoint queries per kind"
    )
    checkpoint.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    checkpoint.set_defaults(func=cmd_checkpoint)

    recover = sub.add_parser(
        "recover",
        help="rebuild a system from checkpoint + WAL tail (exit 5 on failure)",
    )
    recover.add_argument(
        "--dir", required=True, help="durability directory (WAL + checkpoints)"
    )
    recover.add_argument(
        "--json", action="store_true", help="emit the recovery report as JSON"
    )
    recover.add_argument(
        "--verify",
        action="store_true",
        help="include the state digest summary and WAL audit totals",
    )
    recover.add_argument(
        "--allow-gaps",
        action="store_true",
        help="best-effort recovery across declared WAL truncations",
    )
    recover.set_defaults(func=cmd_recover)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
