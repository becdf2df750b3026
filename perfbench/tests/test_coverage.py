"""Wrapper coverage on the real workloads, and the run contract of run.py.

These run the workloads themselves, so they take about a minute.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import passrun
import run
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# layer metric prefixes that must be nonzero on each workload (the
# layer-to-end-to-end table in perfbench/README.md)
NONZERO = {
    "tube-mc": ["bulk.core_distance.", "integrals.mc.", "integrals.tube_multiplicity.",
                "families.net_multiplicity.", "cli.io."],
    "planar-incidence": ["integrals.curve_integral.", "families.build.", "quadratics.",
                         "incidence.", "cli.io."],
    "probe-scan": ["bulk.core_distance.", "incidence.quad_broadness.", "tubes.line_broadness.",
                   "projection.", "cli.io."],
}
ZERO = {
    "tube-mc": ["quadratics.tau.calls", "incidence.quad_broadness.calls"],
    "planar-incidence": ["bulk.core_distance.calls"],
    "probe-scan": [],
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    out = {}
    for workload in WORKLOADS:
        pass_dir = tmp_path_factory.mktemp(workload)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passrun.py"), workload, "1", str(pass_dir), "1", "0"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=300, check=True)
        out[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_listed_layer_metric_is_nonzero_on_its_workload(traced_passes, workload):
    result = traced_passes[workload]
    layers = result["layers"]
    assert result["missing_layers"] == {}
    assert sorted(layers) == sorted(spans.layer_metric_names())
    for prefix in NONZERO[workload]:
        names = [n for n in layers if n.startswith(prefix)]
        assert names, prefix
        for name in names:
            assert layers[name] > 0, f"{name} is 0 on {workload}"
    for name in ZERO[workload]:
        assert layers[name] == 0, f"{name} is {layers[name]} on {workload}"
    for exp in result["experiments"]:
        assert exp["exit"] == 0 and exp["checks"] and all(ok for _, ok in exp["checks"])


def test_tube_batches_are_far_larger_than_probe_batches(traced_passes):
    tube = traced_passes["tube-mc"]["layers"]["bulk.core_distance.points_per_call"]
    probe = traced_passes["probe-scan"]["layers"]["bulk.core_distance.points_per_call"]
    assert tube >= 100 * probe


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe-scan", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_benchmark_json(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "failed_frac = 0/" in proc.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pass_times_are_gated_in_units_of_their_own_reference_time():
    def fake_pass(wall, ref, mc_calls=()):
        exp = {"wall_s": wall, "mc_calls": list(mc_calls)}
        return {"wall_s": wall, "ref_s": ref, "peak_rss_mb": 40.0, "experiments": [exp]}

    # the same work on the machine at full speed and at half speed
    passes = [fake_pass(2.0, 0.01), fake_pass(4.0, 0.02)]
    metrics = run.end_to_end(passes, [0.2, 0.3], missing=[])
    assert metrics["wall_ref"][0] == pytest.approx([200.0, 200.0])
    assert metrics["tts_1pct_ref"][0] == pytest.approx([200.0, 200.0])
    assert metrics["wall_ref"][1] == metrics["tts_1pct_ref"][1] == "ref"
    assert metrics["setup_s"] == ([0.2, 0.3], "s")
    # an estimator call of 1 s at 2% relative stderr needs 4 s for 1%
    mc = fake_pass(1.0, 0.01, [(1.0, 5.0, 0.1)])
    assert run.end_to_end([mc], [0.2], missing=[])["tts_1pct_ref"][0] == pytest.approx([400.0])


def test_speed_probe_samples_while_the_experiment_runs_and_then_stops():
    probe = passrun.SpeedProbe()
    probe.start()
    end = time.perf_counter() + 0.35
    while time.perf_counter() < end:
        pass
    probe.stop()
    assert len(probe.samples) >= 2
    assert 0 < probe.spent < 0.35
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_IGN
