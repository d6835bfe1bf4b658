"""tdual benchmark runner.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of fixtures, pipeline_large, courant, snf_dense, or ``all``
for every one of them.  Run from the root of a checkout; the program is
the ``src/tdual`` of that checkout.

Each repetition is a fresh process (``worker.py``) that imports tdual,
builds its inputs, runs every operation with cold caches and checks every
output.  Repetition K of a run draws its inputs from the seed and K, so
that a run covers several draws of the inputs; the same seed gives the
same sequence of inputs.  Every reported time is scaled to a reference
speed of the machine by the probes the repetition took (``speed.py``).
Repetitions run one at a time, each a single process with one thread,
and start until the next would end after S seconds per workload; at
least one runs.  With ``all`` the workloads take
turns, one repetition each per round, so that a change in the machine's
speed reaches all of them alike.  ``setup_s`` is a median over at least
MIN_SETUPS set-ups; when a run has fewer untraced repetitions, processes
that only set up make up the difference.  With ``--trace 1`` every
repetition takes the inputs of K = 0, untraced and traced repetitions
alternate, and the per-layer metrics are printed instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fixtures", "pipeline_large", "courant", "snf_dense")
# A run of one workload must end within 180 s.
DEADLINE_S = 170
MIN_SETUPS = 5
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}

sys.path.insert(0, str(HERE))
from speed import REF_S, scaled  # noqa: E402
from tracer import COUNTS, METRICS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(samples, p: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def scale(probes) -> float:
    """The factor that turns seconds measured while ``probes`` were taken
    into seconds at the reference speed."""
    return REF_S / statistics.fmean(probes)


def run_worker(workload: str, seed: int, trace: bool, timeout: float,
               small: bool = False, rep: int = 0, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep)]
    cmd += ["--trace"] * trace + ["--small"] * small + ["--setup-only"] * setup_only
    # A fixed hash seed keeps set iteration, and with it pivot order and
    # every count, identical between runs.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: a repetition ran past the deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload}: worker printed no result") from exc
    result["rep"] = rep
    return result


def measure(names, seed: int, seconds: float, trace: bool):
    """Repetitions of each named workload, in rounds of one repetition per
    workload, and the set-up times of each; untraced and traced
    repetitions alternate when tracing."""
    start = time.monotonic()
    budget, deadline = seconds * len(names), DEADLINE_S * len(names)
    reps = {name: [] for name in names}
    last = {}

    def traced_next(name) -> bool:
        return trace and len(reps[name]) % 2 == 1

    while True:
        for name in names:
            left = deadline - (time.monotonic() - start)
            if left <= 0:
                raise BenchError(f"{name}: no time left for a repetition")
            traced = traced_next(name)
            rep = 0 if trace else len(reps[name])
            began = time.monotonic()
            reps[name].append(run_worker(name, seed, traced, left, rep=rep))
            last[name, traced] = time.monotonic() - began
        upcoming = sum(last.get((name, traced_next(name)), 0.0) for name in names)
        if (len(last) == len(names) * (1 + trace)
                and time.monotonic() - start + upcoming > budget):
            break
    setups = {name: [r for r in reps[name] if not r["traced"]] for name in names}
    for name in names:
        while not trace and len(setups[name]) < MIN_SETUPS:
            left = deadline - (time.monotonic() - start)
            setups[name].append(run_worker(name, seed, False, left, rep=len(setups[name]),
                                           setup_only=True))
    setups = {name: [r["setup_s"] * scale(r["setup_probes"]) for r in got]
              for name, got in setups.items()}
    return reps, setups


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    untraced = [r for r in reps if not r["traced"]]

    def med(values):
        return statistics.median(list(values))

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    latencies = [scaled(r["spans"], r["probes"]) for r in untraced]
    return {"wall_s": med(sum(x) for x in latencies),
            "op_p50_ms": med(percentile(x, 50) for x in latencies) * 1e3,
            "op_p90_ms": med(percentile(x, 90) for x in latencies) * 1e3,
            "setup_s": med(setups),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
            "ok_frac": (attempted - failed) / attempted}


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r["traced"]]
    untraced_wall = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    out = {}
    for name in METRICS:
        if name == "trace.overhead":
            out[name] = statistics.median(r["wall_s"] for r in traced) / untraced_wall
        else:
            # median_low keeps a count a whole number; counts repeat exactly
            out[name] = statistics.median_low(r["layers"][name] for r in traced)
    return out


def consistency_problems(reps: list[dict]) -> list[str]:
    """Outputs must not depend on tracing or on the process, and counts
    must repeat exactly, for the same inputs."""
    problems = []
    if any(len({r["digest"] for r in reps if r["rep"] == k}) > 1
           for k in {r["rep"] for r in reps}):
        problems.append("outputs differ between repetitions of the same inputs")
    traced = [r for r in reps if r["traced"]]
    for name in COUNTS:
        if len({r["layers"][name] for r in traced}) > 1:
            problems.append(f"count {name} differs between repetitions")
    return problems


def report(workload: str, seed: int, reps: list[dict], setups: list[float], metrics: dict,
           problems) -> None:
    untraced = [r for r in reps if not r["traced"]]
    ops = untraced[0]["attempted"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"== {workload} (seed {seed}): {len(untraced)} untraced and "
          f"{len(reps) - len(untraced)} traced repetitions, {ops} operations each")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {UNITS[name]}")
    if "wall_s" in metrics:
        tail = int(ops * 0.1)
        print(f"  unscaled wall_s: median {statistics.median(r['wall_s'] for r in untraced):.4g} s"
              f" ({sum(len(r['probes']) for r in untraced)} speed probes)")
        print(f"  set-up samples: {len(setups)}")
        print(f"  latency samples per repetition: {ops}, {tail} beyond p90"
              + ("" if tail >= 10 else " (too few: p90 is not a tail estimate)"))
        print(f"  failed_frac                  {failed / attempted:14.6g} 1 "
              f"({failed} of {attempted} operations)")
    else:
        hook_s = statistics.median(r["hook_s"] for r in reps if r["traced"])
        print(f"  counters, left out of every self time: {hook_s:.4f} s")
    for p in problems:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tdual" / "__init__.py").is_file():
        print(f"no tdual sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        measured, setups = measure(names, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, reps in measured.items():
        got = per_layer(reps) if args.trace else end_to_end(reps, setups[name])
        problems = consistency_problems(reps)
        report(name, args.seed, reps, setups[name], got, problems)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": UNITS[k]} for k, v in got.items()})
        attempted += sum(r["attempted"] for r in reps)
        failed += sum(r["failed"] for r in reps)
        correct = correct and not problems
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
