"""One pass of a workload in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED OUTDIR TRACE PASS_ID

`heislab.cli` is imported first, so the clock read right after it ends the
set-up interval that `run.py` started before spawning this process.  The pass
runs the workload's experiments through `heislab.cli.main`, each timed by the
clock, and prints one JSON object as its last line of output.  In an
untraced pass a fixed reference kernel is timed every 0.1 s while the
experiments run, so that `run.py` can give pass times in units of the
machine's current speed.  With TRACE=1 the layer wrappers of `spans.py` are
installed first and the spans are appended to OUTDIR/spans.jsonl.
"""

import time

import heislab.cli as cli

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the cli bindings of the Monte Carlo estimators, timed for tts_1pct_s
MC_ESTIMATORS = ("bilinear_tube_integral", "bilinear_integral_from_multiplicity")

SAMPLE_PERIOD_S = 0.1

# the reference kernel's data: 20k floats listed in shuffled address order, so
# reading them misses the core's first caches the way the program's object
# graphs do
REFERENCE_VALUES = [float(i) for i in range(20_000)]
random.Random(0).shuffle(REFERENCE_VALUES)


def reference_kernel() -> None:
    """A fixed mix of pure-Python work that uses nothing of heislab: float
    arithmetic, tuple and dict churn, and reads in shuffled address order;
    about 3 ms."""
    x = 0.0
    for i in range(4_000):
        x += math.sqrt(i * 0.5 + x % 3.0)
    groups: dict = {}
    for i in range(1_200):
        key = (i % 577, i % 13)
        groups[key] = groups.get(key, ()) + (i,)
    for value in REFERENCE_VALUES:
        x += value


class SpeedProbe:
    """Times the reference kernel every SAMPLE_PERIOD_S of wall time from a
    SIGALRM handler, so that the samples cover the experiments as they run.

    The shared machine runs everything up to 2x slower for seconds to minutes
    at a time, code that waits on memory more than arithmetic; the kernel
    slows with it, so a pass time divided by the mean sample moves only with
    the program.  `spent` is the handler's own time, which callers subtract
    from the intervals they time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, signum=None, frame=None) -> None:
        entered = time.perf_counter()
        gc_was_on = gc.isenabled()
        gc.disable()  # the experiments' heap must not add collection time
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)
        if gc_was_on:
            gc.enable()
        self.spent += time.perf_counter() - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        """After this returns no sample runs any more, so a clock read after
        it sees every sample's time in `spent`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def time_estimators(calls: list, probe: SpeedProbe | None) -> list[str]:
    """Wrap the cli's estimator bindings with one clock read around each call,
    appending (elapsed less the probe's time, value, stderr) to `calls`;
    returns the missing names."""
    missing = []
    for name in MC_ESTIMATORS:
        fn = getattr(cli, name, None)
        if fn is None:
            missing.append(f"heislab.cli.{name}")
            continue

        def timed(*args, _fn=fn, **kwargs):
            spent = probe.spent if probe else 0.0
            start = time.perf_counter()
            est = _fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if probe:
                elapsed -= probe.spent - spent
            calls.append((elapsed, est.value, est.stderr))
            return est

        setattr(cli, name, timed)
    return missing


def read_checks(manifest: Path) -> list[tuple[str, bool]]:
    checks = []
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if line.startswith("check [PASS] "):
            checks.append((line[len("check [PASS] "):], True))
        elif line.startswith("check [FAIL] "):
            checks.append((line[len("check [FAIL] "):], False))
    return checks


def run_pass(workload: str, seed: int, outdir: Path, traced: bool, pass_id: int) -> dict:
    tracer = probe = None
    if traced:
        tracer = spans.Tracer(pass_id)
        tracer.install()
    else:
        probe = SpeedProbe()
        probe.sample()  # a pass has at least one sample, however short
    mc_calls: list = []
    missing_mc = time_estimators(mc_calls, probe)

    experiments = []
    pass_start = time.perf_counter()
    for name, flags in WORKLOADS[workload].experiments:
        csv = outdir / f"{name}.csv"
        argv = ["run", name, *flags, "--seed", str(seed), "--workers", "1", "--out", str(csv)]
        # in a traced pass the experiment is the parent span of its layer calls
        main = tracer.wrap(f"cli.{name}", cli.main) if traced else cli.main
        stdout = io.StringIO()
        error = None
        first_mc = len(mc_calls)
        if probe:
            probe.start()
            spent = probe.spent
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # a raised experiment is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        if probe:
            probe.stop()
        wall = time.perf_counter() - start
        if probe:
            wall -= probe.spent - spent
        manifest = Path(f"{csv}.manifest")
        experiments.append({
            "name": name,
            "wall_s": wall,
            "exit": code,
            "error": error,
            "checks": read_checks(manifest) if manifest.exists() else [],
            "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None,
            "mc_calls": mc_calls[first_mc:],
        })
    pass_wall = time.perf_counter() - pass_start

    result = {
        "setup_done": SETUP_DONE,
        "wall_s": sum(e["wall_s"] for e in experiments),
        "experiments": experiments,
        "missing_mc": missing_mc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if probe:
        result["ref_s"] = statistics.fmean(probe.samples)
    if traced:
        result["layers"] = tracer.layer_metrics()
        result["missing_layers"] = tracer.missing
        result["unattributed_s"] = pass_wall - tracer.total_self_s()
        tracer.write_spans(str(outdir / "spans.jsonl"))
    return result


if __name__ == "__main__":
    wl, seed_text, out, trace_text, pass_text = sys.argv[1:6]
    print(json.dumps(run_pass(wl, int(seed_text), Path(out), trace_text == "1", int(pass_text))))
