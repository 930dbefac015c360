#!/usr/bin/env python3
"""Paired parent/change runs of ``bench/run.py`` workloads.

The protocol every performance PR has to follow (choosing-metrics
section 8), in one command::

    python3 tools/bench_pair.py 7b4315d --workloads scalar_churn_10k,query_mix_10k --pairs 10

The parent revision is ``git archive``d into a temporary directory and the
working tree (tracked files plus untracked ones git would add) is copied
into another, so both sides run from clean directories with their own
``bench/``.  Each pair runs ``python3 bench/run.py --workload W --seed S``
on both sides with the same seed, alternating which side goes first;
workloads run one after another (all that ``BENCHMARK.json`` declares
unless ``--workloads`` names some).  Per end-to-end metric it prints
every run, both medians and quartiles, how many pairs the change won
(ties count for neither side), the regression bound ``BENCHMARK.json``
fixes, and the two verdicts the driver adds to it: the change's own
spread (distance between its quartiles) against ``bound x parent
median``, and whether every change run reads better than every parent
run.  It reads ``BENCHMARK.json`` and never writes it.  Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE
    ).stdout


def export_revision(rev: str, target: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(target, filter="data")


def export_working_tree(target: str) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        source = os.path.join(ROOT, name)
        if name and os.path.isfile(source):  # a deleted file is still listed
            os.makedirs(os.path.dirname(os.path.join(target, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(target, name))


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` process; its closing JSON line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"bench/run.py exited {done.returncode} in {tree}:\n{done.stdout[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def report(metric: dict, parent: list[float], change: list[float]) -> str:
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    moved = (c2 - p2) / abs(p2) if p2 else 0.0
    worse = -moved if higher else moved
    verdict = "WORSE THAN BOUND" if worse > metric["bound"] else ""
    if c2 != p2 and abs(c2 - p2) <= p3 - p1 and not verdict:
        verdict = "within parent's spread"
    allowed = metric["bound"] * abs(p2)
    too_wide = "  SPREAD OVER THE RULE" if c3 - c1 > allowed else ""
    clear = min(change) > max(parent) if higher else max(change) < min(parent)
    lines = [
        f"{metric['name']} [{metric['unit']}, {metric['better']} is better, "
        f"bound {metric['bound']:.1%}]",
        f"  parent  median {p2:.6g}  quartiles {p1:.6g} .. {p3:.6g}",
        f"  change  median {c2:.6g}  quartiles {c1:.6g} .. {c3:.6g}"
        f"  ({moved:+.1%})  won {wins}/{len(parent)}, lost {losses}  {verdict}",
        f"  change IQR {c3 - c1:.6g} against bound x parent median {allowed:.6g}{too_wide}",
        f"  every change run better than every parent run: {'yes' if clear else 'no'}",
        "  parent runs " + " ".join(f"{v:.6g}" for v in parent),
        "  change runs " + " ".join(f"{v:.6g}" for v in change),
    ]
    return "\n".join(lines)


def run_pairs(trees: dict[str, str], workload: str, pairs: int, seed: int) -> dict[str, list[dict]]:
    """``pairs`` alternating runs of one workload; each side's results in run order."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], workload, seed + pair)
            runs[side].append(result)
            print(
                f"{workload} pair {pair + 1}/{pairs} seed {seed + pair} {side}: "
                f"correct {result['correct']}, failed {result['failed']}/{result['attempted']}",
                flush=True,
            )
    return runs


def print_comparison(manifest: dict, runs: dict[str, list[dict]]) -> None:
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{side}: {failed} of {attempted} operations failed, "
              f"{sum(r['correct'] for r in results)}/{len(results)} runs correct")
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        both = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(runs["parent"], runs["change"])
            if name in p["metrics"] and name in c["metrics"]
        ]
        if both:
            print(report(metric, [p for p, _ in both], [c for _, c in both]))
        else:
            print(f"{name}: not reported by this workload")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare the working tree with")
    parser.add_argument("--workloads", help="comma-separated; default: every declared workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    declared = [w["name"] for w in manifest["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else declared
    for workload in workloads:
        if workload not in declared:
            parser.error(f"BENCHMARK.json declares no workload {workload!r}")

    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        for tree in trees.values():
            os.makedirs(tree)
        export_revision(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        for workload in workloads:
            runs = run_pairs(trees, workload, args.pairs, args.seed)
            print(f"\n== {workload}: {args.parent} (parent) against the working tree, "
                  f"{args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
            print_comparison(manifest, runs)
            print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
