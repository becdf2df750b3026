"""Tracer for the traced benchmark pass.

The tracer replaces the public functions of each heislab layer with timing
wrappers.  Modules import by name, so one function has several bindings
(`quadratics.tau`, `families.tau`, `cli.tau`, ...); every binding that refers
to the original object is replaced, and `uninstall` puts the originals back.
The source is not touched.

Self time is computed online from a stack of open calls: a call's self time
is its duration minus the durations of the wrapped calls made directly inside
it.  A call made while the same layer is already open (recursion, such as
`net_multiplicity(family=2)` calling itself with family 1) adds time but no
call and no work count.  Hot scalar functions (`hot=True`) only update
counters; every other call also appends a span record
(id, layer, start, end, parent id, pass id) that `write_spans` saves.

The tracer assumes one thread, which holds because every experiment runs with
`--workers 1`.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _rows(args, result) -> int:
    return len(result)


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


@dataclass(frozen=True)
class Target:
    """One layer: the functions it wraps and the metrics it reports."""

    key: str
    module: str  # heislab submodule that defines the functions
    names: tuple[str, ...]
    fields: tuple[str, ...]
    hot: bool = False
    count: Callable | None = None  # (args, result) -> work units ("points"/"bytes")


TARGETS = (
    Target("bulk.core_distance", "_bulk", ("core_distance_elementwise",),
           ("calls", "points", "self_s", "ns_per_point", "points_per_call"),
           hot=True, count=_rows),
    Target("integrals.mc", "integrals", ("bilinear_integral_from_multiplicity",),
           ("calls", "samples", "self_s", "rel_stderr_max", "nonzero_frac")),
    Target("integrals.tube_multiplicity", "integrals", ("tube_multiplicity",),
           ("calls", "points", "self_s"), count=_rows),
    Target("integrals.curve_integral", "integrals", ("bilinear_curve_integral",),
           ("calls", "self_s")),
    Target("families.build", "families",
           ("build_bush", "build_opposed_pair", "build_bipartite_balls", "build_clamshell",
            "build_parabolic_net", "parabolic_net_spec", "fan_cores"),
           ("self_s",)),
    Target("families.net_multiplicity", "families", ("net_multiplicity",),
           ("calls", "points", "self_s"), count=_rows),
    Target("quadratics.tau", "quadratics", ("tau",), ("calls", "self_s"), hot=True),
    Target("quadratics.delta_gauge", "quadratics", ("delta_gauge",), ("calls",), hot=True),
    Target("quadratics.near_intersection", "quadratics", ("near_intersection_intervals",),
           ("calls",), hot=True),
    Target("quadratics.comparable", "quadratics", ("comparable",), ("calls",), hot=True),
    Target("quadratics.validate_bipartite", "quadratics", ("validate_bipartite",), ("self_s",)),
    Target("incidence.quad_broadness", "incidence", ("quad_broadness",), ("calls", "self_s")),
    Target("incidence.max_incomparable_rich", "incidence", ("max_incomparable_rich",),
           ("self_s",)),
    Target("incidence.wolff_bound_check", "incidence", ("wolff_bound_check",), ("self_s",)),
    Target("incidence.richness_of", "incidence", ("richness_of",), ("calls",), hot=True),
    Target("tubes.line_broadness", "tubes", ("line_broadness",), ("calls", "self_s")),
    Target("projection.fiber_length", "projection", ("fiber_length",), ("calls", "self_s"),
           hot=True),
    Target("projection.containment", "projection", ("projection_containment_ratio",),
           ("calls", "self_s")),
    Target("cli.io", "cli", ("_write_csv", "_write_manifest"), ("bytes", "self_s"),
           count=_file_bytes),
)

UNITS = {
    "calls": "count",
    "points": "count",
    "samples": "count",
    "bytes": "B",
    "self_s": "s",
    "ns_per_point": "ns",
    "points_per_call": "count",
    "rel_stderr_max": "ratio",
    "nonzero_frac": "ratio",
}


def layer_metric_names() -> list[str]:
    return [f"{t.key}.{f}" for t in TARGETS for f in t.fields]


class LayerStat:
    __slots__ = ("calls", "points", "self_s")

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self, pass_id: int = 0, clock: Callable[[], float] = time.perf_counter):
        self.pass_id = pass_id
        self.clock = clock
        self.stats: dict[str, LayerStat] = {}
        self.spans: list[tuple] = []
        self.missing: dict[str, str] = {}  # layer key -> what could not be found
        # Monte Carlo estimator counters: samples drawn, points where both
        # multiplicities were evaluated, of those the ones where both are positive
        self.mc = {"samples": 0, "evaluated": 0, "nonzero": 0, "rel_stderr_max": 0.0}
        self._stack: list[list] = []  # open calls: [child seconds, span id]
        self._depth: dict[str, int] = {}
        self._next_id = 0
        self._patched: list[tuple] = []  # (module, attribute, original)

    def stat(self, key: str) -> LayerStat:
        if key not in self.stats:
            self.stats[key] = LayerStat()
            self._depth[key] = 0
        return self.stats[key]

    def wrap(self, key: str, fn: Callable, hot: bool = False, count: Callable | None = None):
        """Wrapper of `fn` that books its calls and time under layer `key`."""
        stat = self.stat(key)
        stack, depth, spans, clock = self._stack, self._depth, self.spans, self.clock

        def wrapper(*args, **kwargs):
            nested = depth[key]
            depth[key] = nested + 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[key] = nested
                elapsed = end - start
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not nested:
                    stat.calls += 1
                if not hot:
                    spans.append((span_id, key, start, end, parent, self.pass_id))
            if count is not None and not nested:
                stat.points += count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _mc_estimator(self, fn: Callable) -> Callable:
        """Estimator wrapper that also counts samples, the share of points
        where both multiplicities are positive, and the worst relative stderr."""
        mc = self.mc

        def estimator(m1_fn, m2_fn, *args, **kwargs):
            last = [None, None]  # the points m1 saw and its multiplicities

            def m1(pts):
                m = m1_fn(pts)
                last[0], last[1] = pts, m
                return m

            def m2(pts):
                m = m2_fn(pts)
                if last[0] is pts:
                    mc["evaluated"] += len(m)
                    mc["nonzero"] += int(((last[1] > 0) & (m > 0)).sum())
                return m

            est = fn(m1, m2, *args, **kwargs)
            mc["samples"] += est.samples
            if est.value > 0:
                mc["rel_stderr_max"] = max(mc["rel_stderr_max"], est.stderr / est.value)
            return est

        return estimator

    def install(self, targets=TARGETS) -> None:
        """Wrap every heislab binding of each target function.

        A function that cannot be found marks its layer as missing; its
        metrics are then left out of `layer_metrics`, never reported as 0.
        """
        for target in targets:
            try:
                module = importlib.import_module(f"heislab.{target.module}")
            except ImportError as exc:
                self.missing[target.key] = f"heislab.{target.module}: {exc}"
                continue
            absent = [n for n in target.names if not hasattr(module, n)]
            if absent:
                self.missing[target.key] = ", ".join(
                    f"heislab.{target.module}.{n}" for n in absent)
                continue
            for name in target.names:
                original = getattr(module, name)
                fn = self._mc_estimator(original) if target.key == "integrals.mc" else original
                self._rebind(original, self.wrap(target.key, fn, target.hot, target.count))

    def _rebind(self, original, wrapper) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "heislab" or n.startswith("heislab."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values of this pass, without the missing layers."""
        out = {}
        for target in TARGETS:
            if target.key in self.missing:
                continue
            s = self.stat(target.key)
            values = {
                "calls": s.calls,
                "points": s.points,
                "bytes": s.points,
                "self_s": s.self_s,
                "ns_per_point": 1e9 * s.self_s / s.points if s.points else 0.0,
                "points_per_call": s.points / s.calls if s.calls else 0.0,
                "samples": self.mc["samples"],
                "rel_stderr_max": self.mc["rel_stderr_max"],
                "nonzero_frac": (self.mc["nonzero"] / self.mc["evaluated"]
                                 if self.mc["evaluated"] else 0.0),
            }
            for field in target.fields:
                out[f"{target.key}.{field}"] = values[field]
        return out

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def write_spans(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, key, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": key, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")
