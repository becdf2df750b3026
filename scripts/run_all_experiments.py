#!/usr/bin/env python3
"""Run every registered experiment (`heislab.cli.EXPERIMENTS`, in registry
order) at its default desk-scale parameters.

Results land in results/<name>.csv plus a .manifest per run; the summary at
the end lists each experiment's exit status, wall time and peak resident set
size (the child's `ru_maxrss` from `os.wait4`, KiB on Linux, printed in MB).
The script exits with the largest exit status of an experiment, and with 1
when an experiment died from a signal, so a crash fails the batch.
Pass --quick for reduced ladders and sample counts (about a minute total).
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

from heislab.cli import EXPERIMENTS

# reduced ladders and sample counts for --quick; unlisted experiments run at
# their defaults
QUICK_ARGS = {
    "bush-refutes-naive": ["--delta-exps", "4..6", "--samples", "100000"],
    "bipartite-ball-sharpness": ["--delta-exps", "5..6"],
    "parabolic-net-p23": ["--delta-exps", "4..5", "--samples", "50000"],
    "broadness-scan": ["--delta-exps", "5..7", "--n", "128"],
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="reduced ladders")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    statuses = []
    for name in EXPERIMENTS:
        extra = QUICK_ARGS.get(name, []) if args.quick else []
        cmd = [
            sys.executable,
            "-m",
            "heislab.cli",
            "run",
            name,
            "--seed",
            str(args.seed),
            "--out",
            str(outdir / f"{name}.csv"),
            *extra,
        ]
        t0 = time.time()
        with subprocess.Popen(cmd) as proc:
            # wait4 gives the child's own resource usage: ru_maxrss is its peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        statuses.append((name, proc.returncode, time.time() - t0, usage.ru_maxrss / 1024.0))

    print("\nsummary:")
    worst = 0
    for name, code, wall, peak_mb in statuses:
        mark = "ok" if code == 0 else f"exit {code}"
        print(f"  {name:28s} {mark:8s} {wall:6.1f}s {peak_mb:7.1f} MB peak RSS")
        if code != 0:
            worst = max(worst, code, 1)  # an experiment killed by a signal has code -signum
    return worst


if __name__ == "__main__":
    sys.exit(main())
