"""One cold run of one workload, in a process of its own.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--rep K] [--trace]
                                   [--small] [--setup-only]

Times the import of tdual plus input building (set-up), then the
operations with every lru_cache empty except those holding set-up inputs,
then checks every output untimed.  Untraced, it samples the machine's
speed while the operations run (``speed.py``) and keeps the probes' time
out of the operations' times; it reports the raw times and the probes.
The inputs come from the seed and the repetition number K together.
Prints one JSON object.  ``run.py`` starts this once per repetition; it
needs ``src`` of the same checkout on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
import tracer as tr
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
# Probes of the machine's speed taken just before and just after set-up.
SETUP_PROBES = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload](f"{args.seed}.{args.rep}", args.small)
    clock = time.perf_counter

    speed.probe()  # warm-up
    setup_probes = [speed.probe() for _ in range(SETUP_PROBES)]
    start = clock()
    tdual = importlib.import_module("tdual")
    if SRC not in Path(tdual.__file__).resolve().parents:
        print(f"tdual was imported from {tdual.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    caches = tr.find_caches()  # before the tracer rebinds the public ones
    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops = workload.setup()
    setup_s = clock() - start
    setup_probes += [speed.probe() for _ in range(SETUP_PROBES)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probes": setup_probes}))
        return 0

    def clear_caches():
        for key, cache in caches.items():
            if key not in workload.input_caches:
                cache.cache_clear()

    # Building the inputs solves the orientation systems, which leaves
    # Smith factorizations in exactalg's caches; a fresh CLI process has
    # none of them.
    clear_caches()
    warm = {key: c.cache_info().currsize for key, c in caches.items()
            if key not in workload.input_caches and c.cache_info().currsize}
    if warm:
        print(f"caches not empty before the timed phase: {warm}", file=sys.stderr)
        return 3
    setup_catalog_s = 0.0
    if tracer:
        setup_catalog_s = sum(v for k, v in tracer.self_s.items() if k.startswith("catalog."))
        tracer.reset()

    outputs, spans, cache_intervals = [], [], []
    # The tracer's spans would count the probes as self time, so traced
    # repetitions are not sampled.
    sampler = speed.Sampler()
    sampler.take()
    with sampler if not tracer else contextlib.nullcontext():
        for params in ops:
            if workload.cold_ops:
                clear_caches()
            before = tr.cache_stats(caches)
            t, paused = clock(), sampler.paused_s
            try:
                out = workload.op(params)
            except Exception as exc:  # counted as a failed operation below
                traceback.print_exc()
                out = exc
            end = clock()
            spans.append((t, end, end - t - (sampler.paused_s - paused)))
            cache_intervals.append((before, tr.cache_stats(caches)))
            outputs.append(out)
    sampler.take()
    wall_s = sum(seconds for _, _, seconds in spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ratios = tr.cache_hit_ratios(cache_intervals)
    if tracer:
        tracer.uninstall()

    failed = 0
    digest = hashlib.sha256()
    for params, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failed += 1
            digest.update(repr(out).encode())
            continue
        try:
            bad = workload.failed(params, out)
        except Exception:  # an output the oracle cannot read is a failure
            traceback.print_exc()
            bad = True
        failed += bool(bad)
        digest.update(workload.canonical(out).encode())

    result = {"wall_s": wall_s, "setup_s": setup_s, "spans": spans,
              "probes": sampler.probes, "setup_probes": setup_probes,
              "peak_rss_mb": peak_rss_mb, "attempted": len(ops), "failed": failed,
              "digest": digest.hexdigest(), "traced": bool(tracer)}
    if tracer:
        result["layers"] = tracer.metrics(wall_s, ratios, setup_catalog_s)
        result["hook_s"] = tracer.hook_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
