"""The benchmark's own tests, on reduced sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_and_tracing_keeps_outputs(workload):
    plain = run.run_worker(workload, 3, False, 120, small=True)
    first = run.run_worker(workload, 3, True, 120, small=True)
    second = run.run_worker(workload, 3, True, 120, small=True)
    assert plain["failed"] == first["failed"] == 0
    assert plain["attempted"] == first["attempted"] > 0
    assert plain["digest"] == first["digest"] == second["digest"]
    for name in tracer.COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    assert set(first["layers"]) == set(tracer.METRICS) - {"trace.overhead"}
    assert first["layers"]["trace.coverage"] >= 0.9


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.METRICS)
    rep = {"traced": False, "wall_s": 1.0,
           "spans": [(0.0, 0.5, 0.5), (0.5, 1.0, 0.5)], "probes": [(0.5, speed.REF_S)],
           "peak_rss_mb": 1.0, "attempted": 2, "failed": 0}
    assert list(run.end_to_end([rep], [0.1])) == [m["name"] for m in spec["end_to_end"]]


def test_seed_and_repetition_change_inputs():
    a = run.run_worker("snf_dense", 1, False, 120, small=True)
    b = run.run_worker("snf_dense", 2, False, 120, small=True)
    c = run.run_worker("snf_dense", 1, False, 120, small=True, rep=1)
    assert len({a["digest"], b["digest"], c["digest"]}) == 3


def test_sampler_keeps_probes_out_of_the_program_time():
    with speed.Sampler() as sampler:
        begin = time.perf_counter()
        while time.perf_counter() - begin < 10 * speed.INTERVAL_S:
            pass
    assert len(sampler.probes) >= 5
    assert 0 < sampler.paused_s < time.perf_counter() - begin
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaled_uses_the_probes_near_each_operation():
    ref, n = speed.REF_S, speed.MIN_PROBES
    slow = [(10.0 + i, 2 * ref) for i in range(n + 2)]
    probes = [(float(i), ref) for i in range(n)] + slow
    spans = [(10.0, 10.0 + n + 1, 1.0),  # every slow probe falls inside
             (1.5, 1.6, 1.0)]            # none inside: the n nearest are fast
    assert speed.scaled(spans, probes) == [0.5, 1.0]


def test_uninstall_restores_every_binding():
    sys.path.insert(0, str(run.SRC))
    import tdual  # noqa: F401

    def snapshot():
        out = {}
        for name, mod in sys.modules.items():
            if name.startswith("tdual"):
                out[name] = dict(vars(mod))
                for attr, obj in vars(mod).items():
                    if isinstance(obj, type) and obj.__module__ == name:
                        out[f"{name}.{attr}"] = dict(vars(obj))
        return out

    before = snapshot()
    t = tracer.Tracer()
    t.install()
    from tdual import exactalg
    assert exactalg.IntMatrix.mul is not before["tdual.exactalg.IntMatrix"]["mul"]
    assert sys.modules["tdual.bundles"].homology_at is not before["tdual.exactalg"]["homology_at"]
    t.uninstall()
    assert snapshot() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "fixtures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "{" not in proc.stdout
