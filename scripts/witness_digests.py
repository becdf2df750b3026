#!/usr/bin/env python3
"""Run the 60-run witness set and check each CSV's sha256 digest.

The witness set is
  * the default batch (`scripts/run_all_experiments.py`'s experiments with
    no flags) at seed 0,
  * the quick batch (`scripts/run_all_experiments.py --quick`'s experiments
    and flags) at seeds 0 and 1, and
  * every perfbench workload's experiments with their flags
    (`perfbench/workloads.py`) at seeds 0, 1 and 2.

Each run is `python -m heislab.cli run <experiment> --seed S --workers W`
with the source tree of this checkout, at `--workers` 1 and 3.
The script prints one line per run, `<sha256>  <label> workers=<W>`, and
compares every digest with the committed list `scripts/witness_digests.txt`
(`<sha256>  <label>` lines).  It exits 1 if any digest differs from the list,
or differs between worker counts, and 0 otherwise.

    python scripts/witness_digests.py [--jobs 2]

Digests depend on float reductions, which may differ between CPUs, so the
list is a check for one machine, not a portable one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "scripts" / "witness_digests.txt"
WORKERS = (1, 3)


def _load(path: Path):
    # registered first: a dataclass module must be importable while it runs
    spec = importlib.util.spec_from_file_location(f"_witness_{path.stem}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def witness_set() -> list[tuple[str, str, int, list[str]]]:
    """(label, experiment, seed, extra flags) of every witness run."""
    sys.path.insert(0, str(ROOT / "src"))
    batch = _load(ROOT / "scripts" / "run_all_experiments.py")
    workloads = _load(ROOT / "perfbench" / "workloads.py").WORKLOADS
    runs = [(f"default seed=0 {name}", name, 0, []) for name in batch.EXPERIMENTS]
    for seed in (0, 1):
        for name in batch.EXPERIMENTS:
            runs.append((f"quick seed={seed} {name}", name, seed,
                         list(batch.QUICK_ARGS.get(name, []))))
    for wname, work in workloads.items():
        for seed in (0, 1, 2):
            for name, flags in work.experiments:
                runs.append((f"{wname} seed={seed} {name}", name, seed, list(flags)))
    return runs


def run_digest(name: str, seed: int, flags: list[str], workers: int, out: Path) -> str:
    """sha256 of the CSV that one `heislab run` writes to `out`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "heislab.cli", "run", name, "--seed", str(seed),
           "--workers", str(workers), "--out", str(out), *flags]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    # exit 1 is a failed in-experiment check; the CSV is still written
    if proc.returncode not in (0, 1) or not out.exists():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def read_list(path: Path) -> dict[str, str]:
    listed = {}
    for line in path.read_text().splitlines():
        if line.strip():
            digest, label = line.split(maxsplit=1)
            listed[label] = digest
    return listed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1, help="runs at once")
    args = parser.parse_args()

    runs = witness_set()
    jobs = [(label, name, seed, flags, w) for label, name, seed, flags in runs
            for w in WORKERS]
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(args.jobs) as pool:
        digests = list(pool.map(
            lambda k: run_digest(*jobs[k][1:], Path(tmp) / f"run{k}.csv"), range(len(jobs))))

    listed = read_list(DIGESTS)
    found: dict[str, set[str]] = {}
    bad = 0
    for (label, _, _, _, w), digest in zip(jobs, digests):
        found.setdefault(label, set()).add(digest)
        mark = ""
        if listed.get(label) != digest:
            mark, bad = "  MISMATCH", bad + 1
        print(f"{digest}  {label} workers={w}{mark}")
    split = [label for label, ds in found.items() if len(ds) > 1]
    for label in split:
        print(f"digests differ across worker counts: {label}")
    print(f"{len(found)} runs x {len(WORKERS)} worker counts: "
          f"{bad} mismatches, {len(split)} worker splits")
    return 1 if bad or split else 0


if __name__ == "__main__":
    sys.exit(main())
