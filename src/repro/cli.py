"""Command-line interface: one verb table over one set of workload arguments.

Every verb is one :class:`Verb` row in :data:`VERBS` (name, help text,
handler, flags); ``python -m repro --help`` lists them.  The workload
arguments ``--users``, ``--queries`` and ``--seed`` and the ``--json``
switch are declared once, and their range checks are argparse ``type=``
functions, so a bad value exits 2 with a message naming the flag.

Usage (after ``pip install -e .``)::

    python -m repro demo                      # end-to-end pipeline demo
    python -m repro experiments E5 E7         # print selected tables ('all')
    python -m repro report -o tables.md       # all tables as markdown
    python -m repro obs [--json|--prometheus|--jsonl]  # telemetry snapshot
    python -m repro explain [-q private_nn]   # EXPLAIN a query path (Figure 6a)
    python -m repro plan [--json]             # route-table planner decisions
    python -m repro audit --json              # privacy-attainment audit report
    python -m repro health                    # SLO health verdict (exit 4 on fail)
    python -m repro serve-metrics [--smoke]   # HTTP /metrics /health /risk /timeseries
    python -m repro top                       # live telemetry, risk and SLO health
    python -m repro checkpoint --dir state    # durable workload + checkpoint
    python -m repro recover --dir state       # rebuild from checkpoint + WAL tail
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import (
    CountSpec,
    KNNSpec,
    MobileUser,
    NNSpec,
    PrivacyProfile,
    PrivacySystem,
    PyramidCloaker,
    RangeSpec,
)
from repro.evalx import experiments as exp
from repro.evalx.tables import Table
from repro.geometry import Point, Rect
from repro.obs import (
    DEFAULT_SLOS,
    PrivacyAuditor,
    QueryExplainer,
    SLOMonitor,
    TelemetryEndpoint,
    load_slos,
    plan_to_json,
    render_plan,
)
from repro.obs.explain import explain_figure_6a
from repro.obs.export import render_dashboard, to_json, to_prometheus
from repro.obs.serve import smoke
from repro.persist import Recovery, RecoveryError, list_checkpoints, system_digest
from repro.queries.spec import NATIVE_KINDS, spec_to_dict

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


def _observed_quickstart(
    users: int = 200,
    pois: int = 30,
    queries: int = 25,
    seed: int = 0,
    wal_dir: str | None = None,
):
    """Run a small traced pipeline workload and return the PrivacySystem.

    With ``wal_dir`` the WAL is attached before the first mutation and a
    checkpoint is written right after the first publish, so the movement
    and the queries are the tail recovery replays.
    """
    rng = np.random.default_rng(seed)
    bounds = Rect(0, 0, 100, 100)
    system = PrivacySystem(bounds, PyramidCloaker(bounds, height=6))
    if wal_dir is not None:
        system.attach_wal(wal_dir)
    for j in range(pois):
        x, y = rng.uniform(0, 100, 2)
        system.add_poi(f"poi-{j}", Point(float(x), float(y)))
    for i in range(users):
        x, y = rng.uniform(0, 100, 2)
        system.add_user(
            MobileUser(i, Point(float(x), float(y)), PrivacyProfile.always(k=8))
        )
    system.publish_all()
    if wal_dir is not None:
        system.checkpoint(wal_dir)
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


def _workload(args: argparse.Namespace):
    """The quickstart world the shared workload flags describe."""
    return _observed_quickstart(
        users=args.users, queries=args.queries, seed=args.seed
    )


def cmd_demo(_: argparse.Namespace) -> int:
    """A compact end-to-end pipeline demonstration."""
    system = _observed_quickstart(users=400, pois=40, queries=0)
    outcome, _ = system.query(RangeSpec(flavor="private", user=0, radius=12.0))
    nn_outcome, nearest = system.query(NNSpec(flavor="private", user=0))
    answer = system.query(CountSpec(window=Rect(25, 25, 75, 75)))
    print("privacy-aware LBS demo (400 users, k = 8)")
    print(f"  range query: {outcome.candidates} candidates shipped for "
          f"{outcome.answer_size} true answers (correct: {outcome.correct})")
    print(f"  NN query   : {nn_outcome.candidates} candidates, answer "
          f"{nearest} (correct: {nn_outcome.correct})")
    print(f"  count query: E = {answer.expected:.1f}, interval {answer.interval}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Run a traced workload and print its telemetry snapshot."""
    system = _workload(args)
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


def _sample_specs(system) -> dict:
    """One spec per native kind over the quickstart world; the private
    kinds query from user 0's cloaked region."""
    region = system.anonymizer.cloak_user(0, t=system.clock).region
    return {
        "public_range": RangeSpec(window=Rect(20, 20, 60, 60)),
        "public_knn": KNNSpec(point=Point(50, 50), k=4),
        "public_count": CountSpec(window=Rect(20, 20, 80, 80)),
        "public_nn": NNSpec(point=Point(50, 50), dataset="private"),
        "private_range": RangeSpec(flavor="private", region=region, radius=10.0),
        "private_nn": NNSpec(flavor="private", region=region),
        "private_knn": KNNSpec(flavor="private", region=region, k=4),
    }


def cmd_explain(args: argparse.Namespace) -> int:
    """EXPLAIN one query path: plan tree with measured index work."""
    if args.query == "figure6a":
        plan = explain_figure_6a()
    else:
        system = _observed_quickstart(users=args.users, queries=0, seed=args.seed)
        explainer = QueryExplainer(system.server)
        specs = _sample_specs(system)
        if args.query in specs:
            plan = explainer.explain(specs[args.query])
        elif args.query == "bulk_cloak":
            plan = explainer.explain_bulk_cloak(
                system.anonymizer, t=system.clock
            )
        else:  # batch
            kinds = ("public_range", "public_knn", "public_count", "private_nn")
            plan = explainer.explain_batch([specs[kind] for kind in kinds])
    print(plan_to_json(plan) if args.json else render_plan(plan))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Print the planner's route-table decisions for a spec workload."""
    system = _observed_quickstart(users=args.users, queries=0, seed=args.seed)
    sample = _sample_specs(system)
    kinds = ("public_range", "public_knn", "public_count", "private_range", "private_nn")
    specs = [sample[kind] for kind in kinds]
    specs.append(NNSpec(dataset="private", point=Point(50, 50), samples=512))
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
        f"route-table planner decisions "
        f"(pois={len(system.server.public)}, users={args.users}, "
        f"batch={args.batch})"
    )
    print(
        f"  statistics: n_public={stats.n_public} n_private={stats.n_private}"
        f" snapshot_fresh={stats.snapshot_fresh}"
    )
    print(f"  {'query':<25} {'backend':<9} {'route':<11} reason")
    for decision in decisions:
        print(
            f"  {decision.kind:<25} {decision.backend:<9} "
            f"{decision.route:<11} {decision.reason}"
        )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Run a workload (or read a JSONL trail) and print the audit report."""
    if args.from_jsonl:
        try:
            auditor = PrivacyAuditor.from_jsonl(args.from_jsonl)
        except (OSError, ValueError) as exc:
            print(f"repro audit: error: {exc}", file=sys.stderr)
            return 2
    else:
        system = _workload(args)
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
    try:
        specs = load_slos(args.specs) if args.specs else DEFAULT_SLOS
    except ValueError as exc:
        print(f"repro health: error: {exc}", file=sys.stderr)
        return 2
    system = _workload(args)
    report = SLOMonitor(specs, window=args.window).evaluate(system)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def _ticks(system, args: argparse.Namespace) -> Iterator[int]:
    """Keep a live system moving: each tick runs a few queries and one
    movement step, then yields; ticks are ``--interval`` seconds apart and
    stop after ``--iterations`` (0 = until interrupted)."""
    tick = 0
    while True:
        tick += 1
        for i in range(5):
            user = (tick * 5 + i) % args.users
            system.query(RangeSpec(flavor="private", user=user, radius=10.0))
            system.query(CountSpec(window=Rect(20, 20, 80, 80)))
        mover = tick % args.users
        location = system.users[mover].location
        system.apply_movement(
            {mover: Point(min(100.0, location.x + 1.0), min(100.0, location.y + 1.0))}
        )
        yield tick
        if args.iterations and tick >= args.iterations:
            return
        time.sleep(args.interval)


def cmd_serve_metrics(args: argparse.Namespace) -> int:
    """Expose live telemetry over HTTP (or run the scrape self-test)."""
    system = _workload(args)
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
        for ticks in _ticks(system, args):
            pass
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        endpoint.shutdown()
    print(f"served {endpoint.requests_served} requests over {ticks} ticks")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard: windowed rates, privacy risk, and SLO health."""
    system = _workload(args)
    system.enable_monitoring(interval=args.interval)
    monitor = SLOMonitor()
    for tick in _ticks(system, args):
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
            print(f"-- top tick {tick} --")
        sys.stdout.flush()
    return report.exit_code


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Run a durable workload: WAL-attached, checkpointed mid-stream.

    Leaves a recoverable durability directory behind (``wal.jsonl``,
    ``wal-meta.json``, one checkpoint) and prints a JSON summary, so
    ``python -m repro recover --dir <dir>`` can be demonstrated (and
    smoke-tested in CI) against real artifacts.
    """
    system = _observed_quickstart(
        users=args.users, queries=args.queries, seed=args.seed, wal_dir=args.dir
    )
    checkpoints = [path.name for path in list_checkpoints(args.dir)]
    summary = {
        "dir": args.dir,
        "checkpoint": checkpoints[-1],
        "checkpoints": checkpoints,
        "wal_seq": system.obs.events._seq,
        "users": len(system.users),
        "private_regions": len(system.server.private),
        "queries_served": system.server.queries_served,
        "qos": system.ledger.summary(),
    }
    system.obs.events.detach_jsonl()
    print(json.dumps(summary, indent=2))
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Recover a PrivacySystem from a durability directory (exit 5 on failure)."""
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
        report["qos"] = digest["qos"]
        report["audit"] = recovery.audit_report().get("totals", {})
    if args.json:
        print(json.dumps(report, indent=2))
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


# ----------------------------------------------------------------------
# The verb table
# ----------------------------------------------------------------------

#: One ``add_argument`` call: its names and its keyword arguments.
Flag = tuple[tuple[str, ...], dict]


def _flag(*names: str, **spec) -> Flag:
    return names, spec


def _checked(cast: type, ok: Callable[[float], bool], rule: str):
    """An argparse ``type=`` that parses with ``cast`` and refuses values
    failing ``ok``; argparse then exits 2 with a message naming the flag."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid int value" names it
    return parse


def _at_least(low: int):
    return _checked(int, lambda value: value >= low, f"at least {low}")


def _users(minimum: int = 1) -> Flag:
    return _flag("--users", type=_at_least(minimum), default=200, help="workload size")


QUERIES = _flag("--queries", type=_at_least(0), default=25, help="queries per kind")
SEED = _flag("--seed", type=int, default=0, help="workload RNG seed")
WORKLOAD = (_users(), QUERIES, SEED)
JSON = _flag("--json", action="store_true", help="emit JSON instead of text")
INTERVAL = _flag(
    "--interval",
    type=_checked(float, lambda value: value > 0, "positive"),
    default=1.0,
    help="seconds between ticks, and the sampling window (default 1)",
)
ITERATIONS = _flag(
    "--iterations",
    type=_at_least(0),
    default=0,
    help="stop after N ticks (0 = run until interrupted)",
)
DIR = _flag("--dir", required=True, help="durability directory (WAL + checkpoints)")


@dataclass(frozen=True)
class Verb:
    """One row of the verb table: ``python -m repro <name> [flags]``."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    flags: tuple[Flag, ...] = ()
    #: Flags of which at most one may be given (``obs``'s output formats).
    one_of: tuple[Flag, ...] = ()


VERBS: tuple[Verb, ...] = (
    Verb("demo", "run a compact end-to-end demo", cmd_demo),
    Verb(
        "experiments",
        "run experiments and print their tables",
        cmd_experiments,
        (_flag("ids", nargs="*", default=["all"], help="experiment ids (E1..E14) or 'all'"),),
    ),
    Verb(
        "report",
        "write every table as markdown",
        cmd_report,
        (_flag("-o", "--output", default="-", help="file or '-' for stdout"),),
    ),
    Verb(
        "obs",
        "run a traced workload and print its telemetry snapshot",
        cmd_obs,
        WORKLOAD,
        one_of=(
            JSON,
            _flag(
                "--prometheus",
                action="store_true",
                help="emit the snapshot in Prometheus text exposition format",
            ),
            _flag(
                "--jsonl",
                action="store_true",
                help="emit the structured event log as JSONL (one event per line)",
            ),
        ),
    ),
    Verb(
        "explain",
        "EXPLAIN a query path: executed plan tree with index work",
        cmd_explain,
        (
            _flag(
                "-q",
                "--query",
                # Every native kind, the composite plans, and the paper's
                # Figure 6a worked example.
                choices=("figure6a", *NATIVE_KINDS, "batch", "bulk_cloak"),
                default="figure6a",
                help="query path to explain (default: the paper's Figure 6a count)",
            ),
            JSON,
            _users(),
            SEED,
        ),
    ),
    Verb(
        "plan",
        "print the planner's route-table decision per query kind",
        cmd_plan,
        (
            JSON,
            _flag(
                "--batch",
                type=_at_least(1),
                default=1,
                help="plan for this batch size (above 1: the table's batch rows)",
            ),
            _users(),
            SEED,
        ),
    ),
    Verb(
        "audit",
        "privacy-attainment audit report over the event log",
        cmd_audit,
        (
            JSON,
            _flag(
                "--from-jsonl",
                metavar="PATH",
                help="audit an existing JSONL event trail instead of a fresh workload",
            ),
            *WORKLOAD,
        ),
    ),
    Verb(
        "health",
        "evaluate SLO health over a traced workload (exit 4 on violation)",
        cmd_health,
        (
            JSON,
            _flag(
                "--specs",
                metavar="PATH",
                help="JSON list of SLO specs to evaluate instead of the defaults",
            ),
            _flag(
                "--window",
                type=_at_least(1),
                default=512,
                help="rolling event window for event-derived SLOs (default 512)",
            ),
            *WORKLOAD,
        ),
    ),
    Verb(
        "serve-metrics",
        "serve /metrics /health /risk /timeseries over HTTP",
        cmd_serve_metrics,
        (
            _flag("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"),
            _flag(
                "--port",
                type=int,
                default=0,
                help="bind port (default 0 = OS-assigned ephemeral port)",
            ),
            _flag(
                "--smoke",
                action="store_true",
                help="start on an ephemeral port, scrape every path, validate, exit",
            ),
            INTERVAL,
            ITERATIONS,
            *WORKLOAD,
        ),
    ),
    Verb(
        "top",
        "live dashboard: windowed telemetry, privacy risk, SLO health",
        cmd_top,
        (INTERVAL, ITERATIONS, *WORKLOAD),
    ),
    Verb(
        "checkpoint",
        "run a WAL-attached workload and write a recoverable checkpoint",
        cmd_checkpoint,
        (DIR, _users(2), QUERIES, SEED),
    ),
    Verb(
        "recover",
        "rebuild a system from checkpoint + WAL tail (exit 5 on failure)",
        cmd_recover,
        (
            DIR,
            JSON,
            _flag(
                "--verify",
                action="store_true",
                help="include the state digest summary and WAL audit totals",
            ),
            _flag(
                "--allow-gaps",
                action="store_true",
                help="best-effort recovery across declared WAL truncations",
            ),
        ),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-aware location-based database server (Mokbel, ICDE 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        verb_parser = sub.add_parser(verb.name, help=verb.help)
        for names, spec in verb.flags:
            verb_parser.add_argument(*names, **spec)
        if verb.one_of:
            group = verb_parser.add_mutually_exclusive_group()
            for names, spec in verb.one_of:
                group.add_argument(*names, **spec)
        verb_parser.set_defaults(func=verb.run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
