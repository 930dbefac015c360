"""The benchmark's one command.

    python3 bench/run.py --workload <name> --seed <int> [--seconds S] [--trace 0|1]
    python3 bench/run.py --all            every workload, untraced then traced
    python3 bench/run.py --check-repeat   every workload twice, same seed; must agree
    python3 bench/run.py --smoke          1/10 sizes, all workloads, about 20 s

A ``--workload`` run happens in this process (so ``peak_rss_mb`` and the
heap are that workload's own); ``--all`` / ``--check-repeat`` / ``--smoke``
start one such process per run.  Every metric is printed by name with its
unit; the last line of a ``--workload`` run is the JSON result object of
the ``BENCHMARK.json`` contract.  Names, units, directions and bounds are
read from ``BENCHMARK.json`` -- the manifest is the only place they live.

Exit codes: 0 measured; 2 the program under test is not there; 3 a
workload's precondition failed (it did not measure what it names);
4 ``--check-repeat`` found two runs of the same code disagreeing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DETERMINISTIC = ("k_attainment", "mean_region_area", "candidates_per_answer")
SMOKE_FACTOR = 10
SMOKE_SECONDS = 0.7


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def format_value(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_metrics(title: str, declared: list[dict], values: dict) -> None:
    print(f"-- {title}")
    for metric in declared:
        name = metric["name"]
        print(f"{name:44s} {format_value(values.get(name)):>14s} {metric['unit']}")


def run_workload(args, manifest: dict) -> int:
    """One workload in this process; prints metrics and the result line."""
    # The harness modules import the program, so the path comes first; this
    # script's own directory leaves sys.path (it holds a ``trace`` module
    # that must not shadow the standard library's).
    if sys.path[0] != ROOT:
        sys.path[0] = ROOT
        sys.path.insert(1, os.path.join(ROOT, "src"))
    from bench.pipeline import Run
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.scaled(SMOKE_FACTOR)
    os.makedirs(OUT, exist_ok=True)
    traced = bool(args.trace)
    run = Run(workload, args.seed, args.seconds, traced, OUT)
    result = run.run()

    print(
        f"== {workload.name} seed={args.seed} traced={traced} "
        f"cycles={result['cycles']} measured={result['measured_s']:.2f}s"
    )
    print(
        f"ops_attempted {result['ops_attempted']}  ops_failed {result['ops_failed']}  "
        f"checked {result['checked']}  samples {result['samples']}"
    )
    print(f"routes {result['routes']}")
    print(f"wall_s {{{', '.join(f'{k}: {v:.2f}' for k, v in result['wall_s'].items())}}}")
    speed = result["machine_speed"]
    print(
        f"machine speed factor per cycle: median {speed['median']:.3f} "
        f"(min {speed['min']:.3f}, max {speed['max']:.3f}); times below are normalised by it"
    )
    declared = manifest["per_layer"] if traced else manifest["end_to_end"]
    values = result["per_layer"] if traced else result["end_to_end"]
    print_metrics("per layer (traced)" if traced else "end to end (untraced)", declared, values)

    artifact = os.path.join(OUT, f"{workload.name}.{'traced' if traced else 'untraced'}.json")
    with open(artifact, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, default=str)

    problems = list(result["preconditions_failed"])
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing and not args.smoke:
        problems.append(f"too few samples to report {missing}")
    if problems:
        for problem in problems:
            print(f"PRECONDITION FAILED: {problem}")
        return 3
    print(json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
            if values.get(m["name"]) is not None
        },
    }))
    return 0


def child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict | None:
    """Run one workload in its own process; its result object, or None."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[: -1 if done.returncode == 0 else None]:
        print(line)
    if done.returncode != 0:
        print(f"!! {workload} trace={trace} exited {done.returncode}")
        return None
    return json.loads(lines[-1])


def run_all(args, manifest: dict) -> int:
    status = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace in (0, 1):
            if args.smoke:
                # All eight smoke runs share this process: importing the
                # program once is what keeps the whole pass under 20 s.
                one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
                status = run_workload(one, manifest) or status
                continue
            result = child(workload, args.seed, args.seconds, trace, args.smoke)
            if result is None:
                status = 3
            elif not result["correct"]:
                print(f"!! {workload}: {result['failed']} of {result['attempted']} operations failed")
    return status


def check_repeat(args, manifest: dict) -> int:
    """Two runs of every workload on the same code and seed must agree."""
    status = 0
    for workload in (w["name"] for w in manifest["workloads"]):
        first = child(workload, args.seed, args.seconds, 0, args.smoke)
        second = child(workload, args.seed, args.seconds, 0, args.smoke)
        if first is None or second is None:
            return 3
        print(f"-- {workload}: run 1 vs run 2")
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a is None or b is None:
                print(f"{name:28s} n/a")
                continue
            gap = abs(b - a) / abs(a) if a else 0.0
            exact = name in DETERMINISTIC
            bad = (a != b) if exact else gap > metric["bound"]
            print(
                f"{name:28s} {a:14.6g} {b:14.6g} {metric['unit']:10s} "
                f"gap {gap:7.2%} (bound {'exact' if exact else format(metric['bound'], '.1%')})"
                + ("  <-- DISAGREE" if bad else "")
            )
            if bad:
                status = 4
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: the program under test (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    manifest = load_manifest()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(manifest["run_seconds"])
    if args.check_repeat:
        return check_repeat(args, manifest)
    if args.workload is None:
        if not (args.all or args.smoke):
            parser.error("give --workload <name>, --all, --check-repeat or --smoke")
        return run_all(args, manifest)
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
