"""Paired benchmark of two commits of this repository.

Usage:
    python3 tools/bench_pairs.py --parent REV [--change REV] --workdir DIR \\
        --workload NAME [--workload NAME ...] [--pairs N] [--seconds S] \\
        [--seed N] [--test NODEID ...] [--test-pairs N] \\
        [--claim WORKLOAD:METRIC] [--out BENCH_x.json]

Each side is extracted with ``git archive`` into its own directory under
DIR (``parent`` and ``change``), so both run from committed files only;
``--change`` defaults to HEAD, and ``$(git stash create)`` names the
working tree's tracked changes.  A pair is one
``python3 perfbench/run.py --workload NAME --seconds S --seed N --trace 0``
run in each tree, one at a time; the side that runs first alternates from
pair to pair, so that a drift in the machine's speed reaches both alike.
Each ``--test`` node is timed the same way, in pairs of
``python3 -m pytest --durations=0`` runs, reading the node's call time.

For every end-to-end metric of ``BENCHMARK.json`` the report gives each
side's median and quartiles, the runs themselves, and the number of pairs
in which the change was better.  The script does not import ``tdual``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """The files of ``rev`` under ``into``, which must not exist yet."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(into, filter="data")


def run_bench(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_test(tree: Path, node: str) -> float:
    """The call time pytest reports for ``node`` run alone in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--durations=0", "--durations-min=0", node]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed:\n{out.stdout}{out.stderr}")
    found = re.search(rf"^([\d.]+)s call\s+{re.escape(node)}$", out.stdout, re.M)
    if not found:
        raise SystemExit(f"no call duration for {node} in:\n{out.stdout}")
    return float(found.group(1))


def paired(pairs: int, measure) -> dict:
    """``measure(side)`` for both sides, ``pairs`` times, the parent first in
    even pairs and the change first in odd ones."""
    runs = {side: [] for side in SIDES}
    for k in range(pairs):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            runs[side].append(measure(side))
            print(f"  pair {k + 1}/{pairs} {side}: {summary(runs[side][-1])}", flush=True)
    return runs


def summary(run) -> str:
    if isinstance(run, float):
        return f"{run:.2f} s"
    return ", ".join(f"{k} {v:.5g}" for k, v in run["metrics"].items())


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1
                      else (xs[0],) * 3)
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def compare(parent: list[float], change: list[float], lower: bool) -> dict:
    better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    return {"parent": quartiles(parent), "change": quartiles(change),
            "change_better_pairs": f"{better}/{len(parent)}",
            "parent_runs": [round(x, 5) for x in parent],
            "change_runs": [round(x, 5) for x in change]}


def machine() -> dict:
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cpu": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "memory": f"{memory / 2 ** 30:.0f} GB",
            "python": platform.python_version(),
            "os": f"{platform.system()} {platform.machine()}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--test", action="append", default=[])
    ap.add_argument("--test-pairs", type=int, default=5)
    ap.add_argument("--claim", help="WORKLOAD:METRIC, the gain the change claims")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    revs = {side: git("rev-parse", rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    trees = {side: args.workdir.resolve() / side for side in SIDES}
    for side in SIDES:
        extract(revs[side], trees[side])
    bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    end_to_end = []
    for workload in args.workload:
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s", flush=True)
        runs = paired(args.pairs, lambda side: run_bench(trees[side], workload,
                                                         args.seconds, args.seed))
        end_to_end.append({
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs,
            "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "metrics": {name: compare(*([r["metrics"][name] for r in runs[side]]
                                        for side in SIDES), better_lower)
                        for name, better_lower in lower.items()}})
    tests = []
    for node in args.test:
        print(f"{node}, {args.test_pairs} pairs", flush=True)
        runs = paired(args.test_pairs, lambda side: run_test(trees[side], node))
        tests.append({"test": node, "pairs": args.test_pairs,
                      "call_s": compare(runs["parent"], runs["change"], True)})

    report = {"change": git("log", "-1", "--format=%s", revs["change"]),
              "parent_commit": revs["parent"], "change_commit": revs["change"],
              "machine": machine(),
              "method": "tools/bench_pairs.py: parent and change each extracted by git "
                        "archive into their own tree; every benchmark run is "
                        "`python3 perfbench/run.py --workload W --seconds "
                        f"{args.seconds:g} --seed {args.seed} --trace 0` in that tree, "
                        "one at a time, the side that runs first alternating by pair; "
                        "tests are timed by pytest --durations in the same alternation.",
              "end_to_end": end_to_end, "tests": tests}
    if args.claim:
        workload, metric = args.claim.split(":")
        entry = next(e for e in end_to_end if e["workload"] == workload)["metrics"][metric]
        p, c = entry["parent"]["median"], entry["change"]["median"]
        report["claim"] = {"workload": workload, "metric": metric, "seed": args.seed,
                           "parent_median": p, "change_median": c,
                           "change": f"{100 * (c - p) / p:+.1f} %",
                           "parent_iqr": round(entry["parent"]["q3"] - entry["parent"]["q1"], 5),
                           "change_better_pairs": entry["change_better_pairs"]}
    for e in end_to_end:
        for name, m in e["metrics"].items():
            print(f"{e['workload']:>15} {name:<12} {m['parent']['median']:>10.5g} -> "
                  f"{m['change']['median']:<10.5g} better {m['change_better_pairs']}")
    for t in tests:
        m = t["call_s"]
        print(f"{t['test']}: {m['parent']['median']:.2f} -> {m['change']['median']:.2f} s, "
              f"better {m['change_better_pairs']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
