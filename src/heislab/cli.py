"""Experiment harness: named experiments binding the family generators to the
integral estimators, with CSV output and a reproducibility manifest.

Every experiment writes `<out>` (CSV, header row always emitted) and
`<out>.manifest` (plain text: versions, wall time, the options read, and one
PASS/FAIL line per in-experiment check).  Identical invocations produce
byte-identical CSV bodies; the timestamp lives only in the manifest.

Experiments and generators declare the options they read as keyword-only
parameters; `run` and `dump` reject any other option (exit 2), except
RUN_OPTIONS and DUMP_SHARED.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, _bulk
from .families import (
    build_bipartite_balls,
    build_bush,
    build_clamshell,
    build_opposed_pair,
    fan_cores,
    net_family_size,
    net_multiplicity,
    net_tubes,
    parabolic_net_spec,
    tube_cores,
)
from .heis import HDirection, HPoint
from .incidence import quad_broadness, richness_of, wolff_bound_check
from .integrals import (
    SampleSpec,
    bilinear_curve_integral,
    bilinear_integral_from_multiplicity,
    bilinear_tube_integral,
    fit_exponent,
)
from .projection import (
    PlanePoint,
    fiber_length,
    project_W_batch,
    projection_containment_ratio,
    tube_points_sample,
)
from .quadratics import (
    PLANAR_DOMAIN,
    Quadratic,
    coeff_array,
    delta_gauge,
    near_intersection_intervals,
    tau,
)
from .tubes import HTube, line_broadness

EXPERIMENTS = {}


def experiment(name):
    def wrap(fn):
        EXPERIMENTS[name] = fn
        return fn

    return wrap


@dataclass
class ExperimentResult:
    columns: list
    rows: list
    checks: list  # (name, passed: bool, detail: str)
    extras: dict  # free-form manifest entries (slopes, counts, ...)


# ---------------------------------------------------------------------------
# options and config handling


def parse_delta_exps(text: str) -> list[int]:
    """'A..B' -> [A, A+1, ..., B] (dyadic exponents, delta = 2^-k), 1 <= A <= B."""
    parts = text.split("..")
    bad = f"bad delta-exps {text!r}, want A..B"
    if len(parts) > 2:
        raise ValueError(bad)
    try:
        a, b = int(parts[0]), int(parts[-1])
    except ValueError:
        raise ValueError(bad) from None
    if b < a:
        raise ValueError(f"bad delta-exps {text!r}: descending range")
    if a < 1:
        raise ValueError(f"bad delta-exps {text!r}: exponents must be >= 1 (delta <= 1/2)")
    return list(range(a, b + 1))


def _ladder_text(exps) -> str:
    return f"{exps[0]}..{exps[-1]}" if len(exps) > 1 else str(exps[0])


def _one_rung(exps) -> int:
    """The exponent of a one-rung ladder, for consumers of a single delta."""
    if len(exps) != 1:
        raise ValueError(f"delta-exps {_ladder_text(exps)} has {len(exps)} rungs, "
                         "but a single delta is used; give one exponent")
    return exps[0]


# name -> (type, default, help).  The defaults here are shared; a default in
# an experiment's or generator's signature takes precedence.  `run` takes
# every option as a flag, `dump` the options its generators read plus
# DUMP_SHARED, and a config file may set any of them.
OPTIONS = {
    "delta-exps": (parse_delta_exps, None, "dyadic ladder A..B meaning 2^-A .. 2^-B"),
    "rho": (float, None, "curvature scale of the planar families"),
    "alpha": (float, None, "extra broadness exponent (clamshell-alpha)"),
    "mu": (int, 16, "clamshell richness in F"),
    "nu": (int, 4, "clamshell richness in G"),
    "n": (int, 256, "clamshell family size #F"),
    "t": (float, 2.0 ** -4, "clamshell tangency scale"),
    "seed": (int, 0, "random seed"),
    "samples": (int, None, "Monte Carlo samples or randomized cases"),
    "grid-res": (float, None, "grid spacing of the planar integrals"),
    "out": (str, None, "output CSV path"),
    "workers": (int, 1, "Monte Carlo worker threads"),
}
# every experiment accepts these, whether it reads them or not
RUN_OPTIONS = ("seed", "workers", "out")
# every generator accepts these; dump reads them itself
DUMP_SHARED = ("delta-exps", "out")


class OptionError(ValueError):
    """A set option that the experiment or generator does not read."""


def reads(fn) -> list[str]:
    """The options an experiment or generator reads: its keyword-only
    parameters, with dashes for underscores."""
    params = inspect.signature(fn).parameters.values()
    return [p.name.replace("_", "-") for p in params if p.kind is p.KEYWORD_ONLY]


def _flags(keys) -> str:
    return ", ".join(f"--{k}" for k in keys)


def bind_options(name: str, fn, cfg: dict, accepted=()) -> dict:
    """Keyword arguments for `fn` from the options set in `cfg`.

    Each option `fn` reads takes its value from `cfg`, else from the default
    in the signature of `fn`, else from the shared default in OPTIONS.  A set
    option that `fn` does not read and `accepted` does not list raises
    OptionError."""
    names = reads(fn)
    unread = sorted(k for k, v in cfg.items()
                    if v is not None and k not in names and k not in accepted)
    if unread:
        takes = names + [k for k in accepted if k not in names]
        raise OptionError(f"{name} does not read {_flags(unread)}; it takes {_flags(takes)}")
    params = inspect.signature(fn).parameters
    kwargs = {}
    for key in names:
        p = params[key.replace("-", "_")]
        if cfg.get(key) is not None:
            kwargs[p.name] = cfg[key]
        else:
            kwargs[p.name] = OPTIONS[key][1] if p.default is p.empty else p.default
    return kwargs


def read_config(path: str) -> dict:
    """Plain key = value lines; '#' starts a comment."""
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("_", "-")
        if key not in OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def coerce(cfg: dict) -> dict:
    """Convert option values to their table types; a ladder given as text goes
    through parse_delta_exps.  Numeric options must be finite and positive,
    except the seed, which may also be 0."""
    out = dict(cfg)
    for k, v in cfg.items():
        kind = OPTIONS[k][0]
        if v is None or kind is str:
            continue
        if kind is parse_delta_exps:
            out[k] = parse_delta_exps(v) if isinstance(v, str) else v
            continue
        try:
            v = out[k] = kind(v)
        except ValueError:
            want = "an integer" if kind is int else "a number"
            raise ValueError(f"{k} must be {want}, got {v!r}") from None
        in_range = v >= 0 if k == "seed" else v > 0
        if not (math.isfinite(v) and in_range):
            bound = "nonnegative" if k == "seed" else "positive"
            raise ValueError(f"{k} must be a finite {bound} number, got {v}")
    return out


def _slope_check(name, points, predicate, extras, key):
    """Slope assertion that degrades to a skip on ladders too short to fit; a
    fitted slope is also recorded as extras[key]."""
    if len(points) < 3:
        return (name, True, "skipped: ladder shorter than 3 points")
    slope = extras[key] = fit_exponent(points).slope
    return (name, predicate(slope), f"slope {slope:.4f}")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


# ---------------------------------------------------------------------------
# shared generators for randomized experiments


def _random_direction(rng, min_axis_sum=0.5) -> HDirection:
    while True:
        e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
        if abs(e.a + e.b) >= min_axis_sum:
            return e


def _random_tube(rng, delta, min_axis_sum=0.5) -> HTube:
    e = _random_direction(rng, min_axis_sum)
    g = rng.normal(scale=0.15, size=3)
    return HTube(HPoint(g[0], g[1], 0.25 * g[2]), e, delta)


def _near_contact_pair(rng, delta):
    """Random quadratic pair forced to approach within delta/2 somewhere in I/8."""
    f = Quadratic(*rng.normal(scale=1.0, size=3))
    theta0 = rng.uniform(-0.625, 0.625)
    v = rng.uniform(-0.5, 0.5) * delta
    u = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.3)
    w = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.5)
    g = Quadratic.from_jet(theta0, f(theta0) + v, f.deriv(theta0) + u, f.a + w)
    return f, g, theta0


# ---------------------------------------------------------------------------
# experiments


@experiment("bush-refutes-naive")
def _exp_bush(*, delta_exps=range(4, 9), samples=400_000, seed, workers) -> ExperimentResult:
    rows = []
    ratios_bush, ratios_naive = [], []
    for k in delta_exps:
        d = 2.0 ** -k
        t1, t2 = build_bush(d)
        est = bilinear_tube_integral(
            t1, t2, 0.75, SampleSpec(samples=samples, seed=seed), workers
        )
        n1, n2 = len(t1), len(t2)
        rb = est.value / (d ** 4 * n1 ** 0.75 * n2)
        rn = est.value / (d ** 4 * n1 ** 0.75 * n2 ** 0.75)
        ratios_bush.append((d, rb))
        ratios_naive.append((d, rn))
        rows.append([d, n1, n2, est.value, est.stderr, rb, rn])
    checks = [
        (
            "bush ratio within [1/16, 16]",
            all(1 / 16 <= r <= 16 for _, r in ratios_bush),
            f"ratios {[round(r, 3) for _, r in ratios_bush]}",
        ),
        ("positive integrals", all(v > 0 for _, v in ratios_bush), ""),
    ]
    extras = {}
    if len(ratios_naive) >= 3:
        extras["naive_ratio_slope"] = fit_exponent(ratios_naive).slope
    return ExperimentResult(
        ["delta", "n_t1", "n_t2", "lhs", "stderr", "ratio_bush", "ratio_naive"],
        rows, checks, extras,
    )


@experiment("opposed-pair-scaling")
def _exp_opposed(*, delta_exps=range(4, 11), rho=1.0, grid_res=None) -> ExperimentResult:
    def lhs(d, r):
        pair = build_opposed_pair(d, r)
        spec = SampleSpec(mode="grid", resolution=grid_res)
        return bilinear_curve_integral(list(pair.F), list(pair.G), d, 0.75, spec).value

    rows, dpts, rpts = [], [], []
    for k in delta_exps:
        d = 2.0 ** -k
        v = lhs(d, rho)
        dpts.append((d, v))
        rows.append(["delta", d, rho, v])
    for j in (1, 2, 3, 4):
        r, d = 2.0 ** -j, 2.0 ** -8
        v = lhs(d, r)
        rpts.append((r, v))
        rows.append(["rho", d, r, v])
    extras = {}
    checks = [
        _slope_check("delta slope = 1.5 +- 0.1", dpts, lambda s: abs(s - 1.5) <= 0.1,
                     extras, "delta_slope"),
        _slope_check("rho slope = -0.5 +- 0.1", rpts, lambda s: abs(s + 0.5) <= 0.1,
                     extras, "rho_slope"),
    ]
    return ExperimentResult(["sweep", "delta", "rho", "lhs"], rows, checks, extras)


@experiment("bipartite-ball-sharpness")
def _exp_balls(*, delta_exps=range(5, 8), rho=0.25, seed) -> ExperimentResult:
    rows, norm_pts = [], []
    m_ok = True
    for k in delta_exps:
        d = 2.0 ** -k
        pair = build_bipartite_balls(d, rho)
        est = bilinear_curve_integral(
            list(pair.F), list(pair.G), d, 0.75, SampleSpec(mode="grid")
        )
        rng = np.random.default_rng([seed, k])
        s = rng.uniform(0.1, 0.9, 1000)
        y = rho * s * s + rng.uniform(-rho / 8, rho / 8, 1000)
        fc = coeff_array(pair.F)
        vals = (0.5 * fc[:, 0:1] * s + fc[:, 1:2]) * s + fc[:, 2:3]
        m = (np.abs(vals - y) <= d).sum(axis=0)
        scale = (rho / d) ** 2
        norm = est.value * d ** 3
        norm_pts.append((d, norm))
        m_ok = m_ok and (m.min() >= scale / 8) and (m.max() <= scale * 8)
        rows.append([d, len(pair.F), len(pair.G), est.value, norm,
                     int(m.min()), float(np.median(m)), int(m.max())])
    extras = {}
    checks = [
        ("pointwise multiplicity within 8x of (rho/delta)^2", m_ok, ""),
        _slope_check("normalized LHS flat (|slope| <= 0.2)", norm_pts,
                     lambda s: abs(s) <= 0.2, extras, "normalized_slope"),
    ]
    return ExperimentResult(
        ["delta", "n_f", "n_g", "lhs", "lhs_norm", "m_min", "m_med", "m_max"], rows, checks, extras
    )


@experiment("clamshell-alpha")
def _exp_clamshell(*, delta_exps=range(8, 9), t, mu, nu, n, alpha=None) -> ExperimentResult:
    d = 2.0 ** -_one_rung(delta_exps)
    F, G, R = build_clamshell(d, t, mu, nu, n)
    rich = [richness_of(r, F, G) for r in R]
    counts_ok = (
        len(F) == n
        and len(R) == round(t ** -0.5 * n / mu)
        and len(G) == nu * len(R)
    )
    rich_ok = all(x.mu == mu and x.nu == nu for x in rich)
    alphas = [0.2, 0.5]
    if alpha is not None and alpha not in alphas:
        alphas.append(alpha)
    rows = []
    worst = {}
    for a in alphas:
        rep = quad_broadness(F, d, a)
        worst[a] = rep.worst_ratio
        rows.append([a, rep.worst_ratio, rep.witness])
    checks = [
        ("exact counts #F, #G, #R", counts_ok, f"{len(F)}, {len(G)}, {len(R)}"),
        ("exact richness (mu, nu) at every subdivision", rich_ok, ""),
        (
            "broadness ratio grows with alpha",
            worst[0.5] > worst[0.2],
            f"{worst[0.2]:.3f} -> {worst[0.5]:.3f}",
        ),
    ]
    return ExperimentResult(
        ["alpha", "worst_ratio", "witness"],
        rows, checks, {"n_f": len(F), "n_g": len(G), "n_r": len(R)},
    )


@experiment("parabolic-net-p23")
def _exp_net(*, delta_exps=range(4, 7), samples=100_000, seed, workers) -> ExperimentResult:
    region = np.array([[-1.1, 1.1], [-1.1, 1.1], [-0.3, 0.3]])
    rows, pts_l = [], []
    m_lo, m_hi = math.inf, 0
    for k in delta_exps:
        d = 2.0 ** -k
        spec = parabolic_net_spec(d)
        est = bilinear_integral_from_multiplicity(
            lambda q: net_multiplicity(spec, q, 1),
            lambda q: net_multiplicity(spec, q, 2),
            region,
            2.0 / 3.0,
            SampleSpec(samples=samples, seed=seed),
            workers,
        )
        probes = _bulk.sample_gauge_ball(np.random.default_rng([seed, k, 3]), 1.0, 1000)
        m1 = net_multiplicity(spec, probes, 1)
        m2 = net_multiplicity(spec, probes, 2)
        m_lo = min(m_lo, int(m1.min()), int(m2.min()))
        m_hi = max(m_hi, int(m1.max()), int(m2.max()))
        pts_l.append((d, est.value))
        rows.append([d, net_family_size(spec), est.value, est.stderr,
                     int(min(m1.min(), m2.min())), int(max(m1.max(), m2.max()))])
    extras = {}
    checks = [
        ("multiplicity within [1, 8] on the unit ball", m_lo >= 1 and m_hi <= 8,
         f"range [{m_lo}, {m_hi}]"),
        _slope_check("LHS(p=2/3) flat (|slope| <= 0.2)", pts_l,
                     lambda s: abs(s) <= 0.2, extras, "lhs_slope"),
    ]
    return ExperimentResult(
        ["delta", "n_tubes", "lhs", "stderr", "m_min", "m_max"], rows, checks, extras
    )


@experiment("projection-containment")
def _exp_projection(*, delta_exps=range(4, 9), samples=100_000, seed) -> ExperimentResult:
    rows, maxima = [], []
    for k in delta_exps:
        d = 2.0 ** -k
        rng = np.random.default_rng([seed, k])
        n_tubes = 20
        worst = 0.0
        for i in range(n_tubes):
            tube = _random_tube(rng, d)
            worst = max(
                worst,
                projection_containment_ratio(tube, samples // n_tubes, seed=seed + i),
            )
        maxima.append((d, worst))
        rows.append([d, worst])
    worst_all = max(r for _, r in maxima)
    extras = {}
    checks = [
        ("max vertical distance / delta^2 <= 8", worst_all <= 8.0, f"max {worst_all:.3f}"),
        _slope_check("no growth trend (|slope| <= 0.15)", maxima,
                     lambda s: abs(s) <= 0.15, extras, "ratio_slope"),
    ]
    return ExperimentResult(["delta", "max_ratio"], rows, checks, extras)


@experiment("fiber-length")
def _exp_fiber(*, delta_exps=range(6, 7), samples=1000, seed) -> ExperimentResult:
    rows = []
    worst_all = 0.0
    for k in delta_exps:
        d = 2.0 ** -k
        rng = np.random.default_rng([seed, k])
        worst, total = 0.0, 0.0
        for i in range(samples):
            tube = _random_tube(rng, d, min_axis_sum=1 / math.sqrt(2))
            q = tube_points_sample(tube, 1, seed=seed * 1000 + i)[0]
            w = project_W_batch(q.reshape(1, 3))[0]
            length = fiber_length(tube, PlanePoint(w[0], w[1]), d / 100)
            worst = max(worst, length / d)
            total += length / d
        worst_all = max(worst_all, worst)
        rows.append([d, samples, worst, total / samples])
    checks = [("max fiber length / delta <= 8", worst_all <= 8.0, f"max {worst_all:.3f}")]
    return ExperimentResult(
        ["delta", "n_pairs", "max_ratio", "mean_ratio"], rows, checks, {}
    )


@experiment("lemma-rect-structure")
def _exp_rect(*, delta_exps=range(6, 7), samples=10_000, seed) -> ExperimentResult:
    window = PLANAR_DOMAIN.shrink(4.0)
    rows = []
    for k in delta_exps:
        d = 2.0 ** -k
        rng = np.random.default_rng([seed, k])
        max_pieces = 0
        max_factor, min_factor = 0.0, math.inf
        for _ in range(samples):
            f, g, theta0 = _near_contact_pair(rng, d)
            pieces = near_intersection_intervals(f, g, d, window)
            max_pieces = max(max_pieces, len(pieces))
            x = d / math.sqrt((tau(f, g) + d) * (delta_gauge(f, g) + d))
            for piece in pieces:
                max_factor = max(max_factor, piece.length / x)
            home = [p for p in pieces if p.contains(theta0, slack=1e-12)]
            if home:
                min_factor = min(min_factor, home[0].length / x)
        rows.append([d, samples, max_pieces, max_factor, min_factor])
    checks = [
        ("never more than 2 intervals", all(r[2] <= 2 for r in rows), ""),
        (
            "interval lengths within factor 32 of delta/sqrt((tau+delta)(Delta+delta))",
            all(r[3] <= 32.0 and r[4] >= 1.0 / 32.0 for r in rows),
            f"factors [{rows[0][4]:.4f}, {rows[0][3]:.4f}]",
        ),
    ]
    return ExperimentResult(
        ["delta", "n_cases", "max_pieces", "max_len_factor", "min_len_factor"], rows, checks, {}
    )


@experiment("wolff-bound-check")
def _exp_wolff(*, rho=0.25, t, mu, nu, n, seed) -> ExperimentResult:
    d = 2.0 ** -5
    pair = build_bipartite_balls(d, rho)
    F, G = list(pair.F), list(pair.G)
    rng = np.random.default_rng([seed, 41])
    rows = []
    all_ok = True
    for i in range(20):
        fi = sorted(rng.choice(len(F), size=min(64, len(F)), replace=False).tolist())
        gi = sorted(rng.choice(len(G), size=min(64, len(G)), replace=False).tolist())
        Fs, Gs = [F[j] for j in fi], [G[j] for j in gi]
        chk = wolff_bound_check(Fs, Gs, d, pair.rho, 1, 1)
        all_ok = all_ok and chk.ok
        rows.append([f"random-{i}", len(Fs), len(Gs), 1, 1, chk.count, chk.bound,
                     chk.ok, chk.bipartite_ok])
    dc = 2.0 ** -8
    Fc, Gc, _ = build_clamshell(dc, t, mu, nu, n)
    chk = wolff_bound_check(Fc, Gc, dc, 1.0, mu, nu)
    all_ok = all_ok and chk.ok
    rows.append(["clamshell", len(Fc), len(Gc), mu, nu, chk.count, chk.bound,
                 chk.ok, chk.bipartite_ok])
    checks = [("count <= 64 * bound on every instance", all_ok, "")]
    return ExperimentResult(
        ["instance", "n_f", "n_g", "mu", "nu", "count", "bound", "ok", "bipartite_ok"],
        rows, checks, {},
    )


@experiment("broadness-scan")
def _exp_broadness(*, delta_exps=range(5, 9), t, mu, nu, n) -> ExperimentResult:
    rows = []
    bush_worst = fan_worst = 0.0
    for k in delta_exps:
        d = 2.0 ** -k
        t1, _ = build_bush(d)
        rep = line_broadness(tube_cores(t1), d, 1.0)
        rows.append(["bush-lines", d, 1.0, rep.worst_ratio])
        bush_worst = max(bush_worst, rep.worst_ratio)
    for k in delta_exps[: max(1, len(delta_exps) - 1)]:
        d = 2.0 ** -k
        rep = line_broadness(fan_cores(d), d, 1.0)
        rows.append(["fan-lines", d, 1.0, rep.worst_ratio])
        fan_worst = max(fan_worst, rep.worst_ratio)
    dc = 2.0 ** -delta_exps[-1]
    F, _, _ = build_clamshell(dc, t, mu, nu, n)
    for alpha in (0.2, 0.5, 1.0):
        rep = quad_broadness(F, dc, alpha)
        rows.append(["clamshell-F", dc, alpha, rep.worst_ratio])
    t1_top, _ = build_bush(2.0 ** -delta_exps[-1])
    checks = [
        (
            "bush concentration is a large share of the family",
            bush_worst >= 0.4 * len(t1_top),
            f"max {bush_worst:.2f} of {len(t1_top)} lines",
        ),
        ("fan stays bounded (<= 4)", fan_worst <= 4.0, f"max {fan_worst:.3f}"),
    ]
    return ExperimentResult(["family", "delta", "alpha", "worst_ratio"], rows, checks, {})


# ---------------------------------------------------------------------------
# family dumps

TUBE_COLUMNS = ["x", "y", "t", "a", "b", "delta"]
QUAD_COLUMNS = ["a", "b", "c"]
RECT_COLUMNS = ["a", "b", "c", "lo", "hi", "delta"]


def _tube_rows(tubes):
    return [
        [t.center.x, t.center.y, t.center.t, t.dir.a, t.dir.b, t.delta] for t in tubes
    ]


def _quad_rows(quads):
    return [[q.a, q.b, q.c] for q in quads]


def _rect_rows(rects):
    return [
        [r.center.a, r.center.b, r.center.c, r.base.lo, r.base.hi, r.thickness]
        for r in rects
    ]


def _tube_file(t1, t2):
    return [("", TUBE_COLUMNS, _tube_rows(t1) + _tube_rows(t2))]


def _quad_file(pair):
    return [("", QUAD_COLUMNS, _quad_rows(pair.F) + _quad_rows(pair.G))]


def _clamshell_files(d, *, t, mu, nu, n):
    F, G, R = build_clamshell(d, t, mu, nu, n)
    return [("", QUAD_COLUMNS, _quad_rows(F) + _quad_rows(G)),
            (".rects", RECT_COLUMNS, _rect_rows(R))]


# generator name -> (delta, *, <options it reads>) -> [(file suffix, columns, rows)]
GENERATORS = {
    "bush": lambda d: _tube_file(*build_bush(d)),
    "opposed-pair": lambda d, *, rho=1.0: _quad_file(build_opposed_pair(d, rho)),
    "bipartite-balls": lambda d, *, rho=0.25: _quad_file(build_bipartite_balls(d, rho)),
    "clamshell": _clamshell_files,
    "parabolic-net": lambda d: _tube_file(*net_tubes(parabolic_net_spec(d))),
}


def dump_family(generator: str, cfg: dict, out: str) -> list[str]:
    """Write the family as CSV; returns the list of files written.

    `cfg` holds the options set, as for `coerce`; its ladder must have one
    rung (default 8).  Tube and quadratic parts share one file; the
    clamshell's rectangles go to `<stem>.rects.csv` since their schema
    differs.  An unknown generator raises KeyError, an option it does not
    read OptionError, and a longer ladder ValueError.
    """
    make = GENERATORS[generator]
    cfg = coerce(cfg)
    kwargs = bind_options(generator, make, cfg, DUMP_SHARED)
    k = _one_rung(cfg.get("delta-exps") or [8])
    outp = Path(out)
    written = []
    for suffix, columns, rows in make(2.0 ** -k, **kwargs):
        path = outp.with_name(outp.stem + suffix + ".csv") if suffix else outp
        _write_csv(path, columns, rows)
        written.append(str(path))
    return written


def load_family(path: str):
    """Round-trip loader for the dump format; the header names the object type."""
    from .quadratics import CurviRect, Interval

    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        if header == TUBE_COLUMNS:
            out.append(
                HTube(HPoint(vals[0], vals[1], vals[2]), HDirection(vals[3], vals[4]), vals[5])
            )
        elif header == QUAD_COLUMNS:
            out.append(Quadratic(*vals))
        elif header == RECT_COLUMNS:
            out.append(
                CurviRect(Quadratic(vals[0], vals[1], vals[2]), Interval(vals[3], vals[4]), vals[5])
            )
        else:
            raise ValueError(f"{path}: unknown schema {header}")
    return out


def _write_csv(path: Path, columns, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _check_line(name, passed, detail) -> str:
    return f"[{'PASS' if passed else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")


def _write_manifest(path: Path, experiment_name, params, result, walltime):
    lines = [
        f"experiment = {experiment_name}",
        f"heislab_version = {__version__}",
        f"python = {sys.version.split()[0]}",
        f"numpy = {np.__version__}",
        f"timestamp = {datetime.now(timezone.utc).isoformat()}",
        f"walltime_seconds = {walltime:.3f}",
    ]
    # the options read, as config lines; a None default has no spelling
    for arg in sorted(params):
        value = params[arg]
        if value is not None:
            text = _ladder_text(value) if arg == "delta_exps" else _fmt(value)
            lines.append(f"param {arg.replace('_', '-')} = {text}")
    for key in sorted(result.extras):
        lines.append(f"result {key} = {_fmt(result.extras[key])}")
    lines += [f"check {_check_line(*check)}" for check in result.checks]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_experiment(name: str, cfg: dict) -> int:
    """Execute one named experiment with the options set in `cfg` (coerced);
    returns a process exit code.  A set option that the experiment does not
    read, other than RUN_OPTIONS, is a usage error: exit 2, no file written."""
    if name not in EXPERIMENTS:
        print(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    try:
        params = bind_options(name, EXPERIMENTS[name], cfg, RUN_OPTIONS)
    except OptionError as exc:
        print(f"option error: {exc}", file=sys.stderr)
        return 2
    out = cfg.get("out") or f"{name}.csv"
    t0 = time.perf_counter()
    result = EXPERIMENTS[name](**params)
    walltime = time.perf_counter() - t0
    _write_csv(Path(out), result.columns, result.rows)
    _write_manifest(Path(out + ".manifest"), name, params, result, walltime)
    for check in result.checks:
        print(_check_line(*check))
    print(f"wrote {out} and {out}.manifest in {walltime:.1f}s")
    return 0 if all(passed for _, passed, _ in result.checks) else 1


def _add_options(parser, names, required=()):
    for name in names:
        parser.add_argument(f"--{name}", help=OPTIONS[name][2], required=name in required)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heislab",
        description="experiment harness for Heisenberg tube and quadratic tangency geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment")
    run.add_argument("experiment")
    _add_options(run, OPTIONS)
    run.add_argument("--config", help="file of 'key = value' option lines")

    dump = sub.add_parser("dump", help="dump a generated family as CSV")
    dump.add_argument("generator")
    dump_keys = {k for make in GENERATORS.values() for k in reads(make)} | set(DUMP_SHARED)
    _add_options(dump, [k for k in OPTIONS if k in dump_keys], required=("out",))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = {}  # the options set, by config file or flag
    try:
        if getattr(args, "config", None):
            cfg.update(read_config(args.config))
        for key in OPTIONS:
            value = getattr(args, key.replace("-", "_"), None)
            if value is not None:
                cfg[key] = value
        cfg = coerce(cfg)
    except (OSError, ValueError) as exc:
        print(f"option error: {exc}", file=sys.stderr)
        return 2
    if args.command == "dump" and args.generator not in GENERATORS:
        print(
            f"unknown generator {args.generator!r}; available: {', '.join(GENERATORS)}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.command == "run":
            return run_experiment(args.experiment, cfg)
        for f in dump_family(args.generator, cfg, cfg["out"]):
            print(f"wrote {f}")
        return 0
    except OptionError as exc:
        print(f"option error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
