"""The benchmark's workloads: which `heislab run` experiments one pass runs.

Every pass is a closed loop with one client: the experiments run one after
another in a single fresh interpreter, each with `--seed <workload seed>` and
`--workers 1`.  The ladders are cut down from the experiments' defaults so
that one pass takes a few seconds and a run holds several passes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    # (experiment name, extra flags); seed, workers and out are added per pass
    experiments: tuple[tuple[str, tuple[str, ...]], ...]


WORKLOADS = {
    "tube-mc": Workload(
        why="Monte Carlo tube integrals: large core-distance batches, no quadratics or incidence calls",
        experiments=(
            ("bush-refutes-naive", ("--delta-exps", "4..6", "--samples", "50000")),
            ("parabolic-net-p23", ("--delta-exps", "5", "--samples", "10000")),
        ),
    ),
    "planar-incidence": Workload(
        why="Python-loop-bound planar quadratic incidence (tau, broadness, curve grids) with no core-distance calls",
        experiments=(
            ("clamshell-alpha", ("--n", "16")),
            ("wolff-bound-check", ("--n", "16")),
            ("bipartite-ball-sharpness", ("--delta-exps", "5")),
            ("opposed-pair-scaling", ("--delta-exps", "4..8")),
            ("lemma-rect-structure", ("--samples", "1000")),
        ),
    ),
    "probe-scan": Workload(
        why="Many tiny core-distance batches (line broadness, fibers) that expose per-call cost",
        experiments=(
            # at delta = 2^-6 the clamshell needs mu ~ t/delta = 4
            ("broadness-scan", ("--delta-exps", "5..6", "--mu", "4", "--n", "16")),
            ("fiber-length", ("--samples", "300")),
            ("projection-containment", ()),
        ),
    ),
}


def experiment_names() -> list[str]:
    """Every experiment some workload runs, in table order."""
    return [name for w in WORKLOADS.values() for name, _ in w.experiments]
