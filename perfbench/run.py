"""heislab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload tube-mc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; heislab is imported from `src/`.
Each pass of the workload runs in a fresh interpreter (`passrun.py`), the
way users start every experiment as a fresh `heislab run`, so nothing one
pass leaves in memory can speed up the next.  Passes repeat until
`--seconds` is used up; figures are medians over the passes, and pass
times are gated in units of a reference kernel timed all through the pass.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The last line of output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, experiment_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 3
HARD_LIMIT_S = 150.0  # every pass must have ended by then, whatever --seconds says
PROBE = "import heislab.cli\nimport time\nprint(time.monotonic())"


class PassFailed(Exception):
    pass


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run a child to completion; returns (spawn time, its last output line)."""
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise PassFailed(f"timed out after {exc.timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, lines[-1]


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():  # not in an exported checkout: no enclosing repo's HEAD
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
        "src_lines": src_lines,
    }


def pass_tts(result: dict) -> float:
    """Time to 1% relative stderr for one pass.

    An experiment that made Monte Carlo estimator calls contributes, per call,
    elapsed * (stderr/value)^2 / 0.01^2; any other experiment's results are
    exact when it returns, so it contributes its wall time.
    """
    total = 0.0
    for exp in result["experiments"]:
        if not exp["mc_calls"]:
            total += exp["wall_s"]
        for elapsed, value, stderr in exp["mc_calls"]:
            total += elapsed * (stderr / value) ** 2 / 0.01 ** 2
    return total


class Gate:
    """Counts operations and failures: in-experiment checks, experiments that
    raise or exit nonzero without a failing check, Monte Carlo estimates that
    are not positive, and CSV bodies whose digest differs from the first pass
    with the same seed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str | None] = {}

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def check_pass(self, pass_id: int, result: dict) -> None:
        for exp in result["experiments"]:
            name = exp["name"]
            for check, ok in exp["checks"]:
                self.attempted += 1
                if not ok:
                    self.fail(f"pass {pass_id} {name}: check failed: {check}")
            self.attempted += 1
            if exp["exit"] != 0 and all(ok for _, ok in exp["checks"]):
                self.fail(f"pass {pass_id} {name}: exit {exp['exit']} {exp['error'] or ''}")
            digest = exp["csv_sha256"]
            if name not in self.digests:
                self.digests[name] = digest
            else:
                self.attempted += 1
                if digest is None or digest != self.digests[name]:
                    self.fail(f"pass {pass_id} {name}: CSV body differs from pass 0")
            for _, value, _ in exp["mc_calls"]:
                self.attempted += 1
                if not value > 0:
                    self.fail(f"pass {pass_id} {name}: Monte Carlo estimate {value} is not positive")

    def broken_pass(self, pass_id: int, workload: str, why: str) -> None:
        n = len(WORKLOADS[workload].experiments)
        self.attempted += n
        for name, _ in WORKLOADS[workload].experiments:
            self.fail(f"pass {pass_id} {name}: {why}")


def end_to_end(untraced: list[dict], setups: list[float], missing: list[str]) -> dict:
    """name -> (per-pass values, unit).

    Pass times are gated in units of the pass's own reference time, the mean
    of the reference kernel's samples taken while its experiments ran (see
    passrun.SpeedProbe): this shared machine's speed drifts by up to 2x over
    seconds to minutes, and the reference drifts with it.
    """
    metrics = {
        "setup_s": (setups, "s"),
        "wall_ref": ([r["wall_s"] / r["ref_s"] for r in untraced], "ref"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in untraced], "MB"),
    }
    if not missing:
        metrics["tts_1pct_ref"] = ([pass_tts(r) / r["ref_s"] for r in untraced], "ref")
    return metrics


def raw_times(untraced: list[dict], missing: list[str]) -> dict:
    """The pass times in seconds, printed for reading but not gated."""
    series = {
        "wall_s": ([r["wall_s"] for r in untraced], "s"),
        "ref_s": ([r["ref_s"] for r in untraced], "s"),
    }
    if not missing:
        series["tts_1pct_s"] = ([pass_tts(r) for r in untraced], "s")
    return series


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {}
    for name in spans.layer_metric_names():
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if len(values) == len(traced):
            metrics[name] = (values, spans.UNITS[name.rsplit(".", 1)[1]])
    for exp in dict.fromkeys(experiment_names()):
        walls = [e["wall_s"] for r in traced for e in r["experiments"] if e["name"] == exp]
        metrics[f"cli.{exp}.wall_s"] = (walls or [0.0], "s")
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    overhead = [r["wall_s"] / untraced_wall - 1.0 for r in traced]
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.unattributed_s"] = ([r["unattributed_s"] for r in traced], "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "heislab" / "cli.py").is_file():
        print(f"perfbench: no heislab source under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    begin = time.monotonic()
    deadline = begin + HARD_LIMIT_S
    setups = []
    try:
        for _ in range(SETUP_PROBES):
            start, line = spawn([sys.executable, "-c", PROBE], env, deadline)
            setups.append(float(line) - start)
    except PassFailed as exc:
        print(f"perfbench: cannot import heislab.cli: {exc}", file=sys.stderr)
        return 1

    gate = Gate()
    untraced, traced, durations = [], [], []
    min_passes = 4 if args.trace else 3
    loop_start = time.monotonic()
    pass_id = 0
    while True:
        is_traced = bool(args.trace) and pass_id % 2 == 1
        pass_dir = out / f"pass{pass_id}"
        pass_dir.mkdir()
        argv = [sys.executable, str(HERE / "passrun.py"), args.workload, str(args.seed),
                str(pass_dir), str(int(is_traced)), str(pass_id)]
        try:
            start, line = spawn(argv, env, deadline)
        except PassFailed as exc:
            gate.broken_pass(pass_id, args.workload, str(exc))
            print(f"pass {pass_id}: {exc}", file=sys.stderr)
            break
        result = json.loads(line)
        durations.append(time.monotonic() - start)
        setups.append(result["setup_done"] - start)
        gate.check_pass(pass_id, result)
        (traced if is_traced else untraced).append(result)
        pass_id += 1
        next_end = time.monotonic() + statistics.median(durations)
        if pass_id >= min_passes and next_end - loop_start > args.seconds:
            break
        if next_end > deadline:
            break

    if not untraced or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
        for why in gate.failures:
            print(f"FAILED {why}", file=sys.stderr)
        return 1

    missing, ungated = [], {}
    if args.trace:
        metrics = per_layer(traced, untraced)
        for key, what in traced[0]["missing_layers"].items():
            missing.append(f"{key}.* ({what} not found)")
    else:
        missing_mc = untraced[0]["missing_mc"]
        metrics = end_to_end(untraced, setups, missing_mc)
        ungated = raw_times(untraced, missing_mc)
        if missing_mc:
            missing.append(f"tts_1pct_ref ({', '.join(missing_mc)} not found)")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes "
          f"in {time.monotonic() - begin:.1f}s")
    print("env " + json.dumps(environment()))
    report = {}
    for name, (values, unit) in metrics.items():
        value = statistics.median(values)
        report[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit} (median, {quartiles(values)})")
    for name, (values, unit) in ungated.items():
        print(f"{name} = {statistics.median(values):.6g} {unit} "
              f"(median, not gated, {quartiles(values)})")
    for item in missing:
        print(f"MISSING metric {item}")
    failed = len(gate.failures)
    print(f"failed_frac = {failed}/{gate.attempted} = {failed / gate.attempted:.6g} ratio")
    for why in gate.failures:
        print(f"FAILED {why}")
    print(json.dumps({"correct": failed == 0, "attempted": gate.attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
