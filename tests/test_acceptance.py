"""Acceptance suite: one test per criterion, each at its stated tolerance,
with one pass/fail line per criterion in the terminal summary.

Criterion 8 checks the bush's naive-ratio slope against the slope that its
family sizes imply, within three standard errors propagated from the Monte
Carlo estimates, and requires that window to lie below 0.  Criterion 10
brackets the clamshell's broadness ratios between the value its construction
forces at the (1/4, 1/4) scale and the universal cap delta^-alpha.  Every
criterion is expected to pass.
"""

import math
import time

import numpy as np

from conftest import record_criterion

from heislab import _bulk
from heislab.cli import main as cli_main
from heislab.families import (
    build_bipartite_balls,
    build_bush,
    build_clamshell,
    build_opposed_pair,
    net_multiplicity,
    parabolic_net_spec,
)
from heislab.heis import E1, E2, HDirection, HPoint
from heislab.incidence import quad_broadness, richness_of, wolff_bound_check
from heislab.integrals import (
    bilinear_curve_integral,
    bilinear_integral_from_multiplicity,
    bilinear_tube_integral,
    fit_exponent,
    strip_multiplicity,
)
from heislab.projection import (
    PlanePoint,
    fiber_length,
    project_W_batch,
    projection_containment_ratio,
    tube_draws,
    tube_points_sample,
)
from heislab.quadratics import (
    PLANAR_DOMAIN,
    Quadratic,
    coeff_array,
    delta_gauge,
    dt_rectangle,
    is_tangent_containment,
    is_tangent_jet,
    near_intersection_intervals,
    tau,
)
from heislab.tubes import HTube, tube_intersection_volume

SEED = 0


def ladder(lo, hi):
    return [2.0 ** -k for k in range(lo, hi + 1)]


# ---------------------------------------------------------------------------


def test_criterion_01_group_metric_suite(rng):
    t0 = time.monotonic()
    n = 10_000
    p = rng.normal(scale=2.0, size=(n, 3))
    q = rng.normal(scale=2.0, size=(n, 3))
    r = rng.normal(scale=2.0, size=(n, 3))

    assoc = np.abs(
        _bulk.mul(_bulk.mul(p, q), r) - _bulk.mul(p, _bulk.mul(q, r))
    ).max()
    ident = np.abs(_bulk.mul(p, np.zeros(3)) - p).max()
    inver = np.abs(_bulk.mul(p, _bulk.inv(p))).max()
    dab = _bulk.norm(_bulk.mul(_bulk.inv(q), p))
    dba = _bulk.norm(_bulk.mul(_bulk.inv(p), q))
    symm = np.abs(dab - dba).max()
    dbc = _bulk.norm(_bulk.mul(_bulk.inv(r), q))
    dac = _bulk.norm(_bulk.mul(_bulk.inv(r), p))
    triangle_ok = bool(np.all(dac <= dab + dbc + 1e-10))
    g = np.array([0.7, -0.4, 0.3])
    left = _bulk.norm(_bulk.mul(_bulk.inv(_bulk.mul(g, q)), _bulk.mul(g, p)))
    left_rel = (np.abs(left - dab) / np.maximum(dab, 1e-300)).max()
    lam = 1.37
    scaled = p.copy()
    scaled[:, :2] *= lam
    scaled[:, 2] *= lam * lam
    dil_rel = (
        np.abs(_bulk.norm(scaled) - lam * _bulk.norm(p))
        / np.maximum(lam * _bulk.norm(p), 1e-300)
    ).max()
    runtime = time.monotonic() - t0

    ok = (
        assoc < 1e-10
        and ident < 1e-12
        and inver < 1e-12
        and symm < 1e-12
        and triangle_ok
        and left_rel < 1e-10
        and dil_rel < 1e-12
        and runtime < 5.0
    )
    record_criterion(
        1,
        "group and metric axioms on 10^4 instances",
        ok,
        f"assoc {assoc:.1e}, triangle {'ok' if triangle_ok else 'VIOLATED'}, "
        f"left-invariance {left_rel:.1e}, {runtime:.1f}s",
    )
    assert assoc < 1e-10
    assert ident < 1e-12 and inver < 1e-12 and symm < 1e-12
    assert triangle_ok
    assert left_rel < 1e-10 and dil_rel < 1e-12
    assert runtime < 5.0


def test_criterion_02_transversal_intersection_scaling():
    t0 = time.monotonic()
    pts = []
    for d in ladder(4, 8):
        t1 = HTube(HPoint(0, 0, 0), E1, d)
        t2 = HTube(HPoint(0, 0, 0), E2, d)
        est = tube_intersection_volume(t1, t2, samples=1_000_000, seed=SEED)
        pts.append((d, est.value))
    fit = fit_exponent(pts)
    runtime = time.monotonic() - t0
    ok = abs(fit.slope - 4.0) <= 0.2 and fit.r_squared >= 0.99 and runtime < 60.0
    record_criterion(
        2,
        "transversal tube intersection volume scales like delta^4",
        ok,
        f"slope {fit.slope:.3f}, r2 {fit.r_squared:.5f}, {runtime:.1f}s",
    )
    assert abs(fit.slope - 4.0) <= 0.2
    assert fit.r_squared >= 0.99
    assert runtime < 60.0


def _random_curve_friendly_tube(rng, d):
    while True:
        e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
        if abs(e.a + e.b) >= 0.5:
            g = rng.normal(scale=0.15, size=3)
            return HTube(HPoint(g[0], g[1], 0.25 * g[2]), e, d)


def test_criterion_03_projection_containment():
    t0 = time.monotonic()
    maxima = []
    for k in range(4, 9):
        d = 2.0 ** -k
        rng = np.random.default_rng([SEED, k])
        worst = 0.0
        for i in range(20):
            tube = _random_curve_friendly_tube(rng, d)
            worst = max(worst, projection_containment_ratio(tube, *tube_draws(d, 5000, SEED + i)))
        maxima.append((d, worst))
    fit = fit_exponent(maxima)
    worst_all = max(v for _, v in maxima)
    runtime = time.monotonic() - t0
    ok = worst_all <= 8.0 and abs(fit.slope) <= 0.15 and runtime < 60.0
    record_criterion(
        3,
        "projection stays within c*delta^2 of the projected parabola",
        ok,
        f"max ratio {worst_all:.2f} (<= 8), slope {fit.slope:.3f}, {runtime:.1f}s",
    )
    assert worst_all <= 8.0
    assert abs(fit.slope) <= 0.15
    assert runtime < 60.0


def test_criterion_04_fiber_length():
    t0 = time.monotonic()
    d = 2.0 ** -6
    rng = np.random.default_rng([SEED, 6])
    worst = 0.0
    for i in range(1000):
        while True:
            e = HDirection.from_angle(rng.uniform(-math.pi, math.pi))
            if abs(e.a + e.b) >= 1 / math.sqrt(2):
                break
        g = rng.normal(scale=0.2, size=3)
        tube = HTube(HPoint(g[0], g[1], 0.25 * g[2]), e, d)
        q = tube_points_sample(tube, 1, seed=i)[0]
        w = project_W_batch(q.reshape(1, 3))[0]
        worst = max(worst, fiber_length(tube, PlanePoint(w[0], w[1]), d / 100) / d)
    runtime = time.monotonic() - t0
    ok = worst <= 8.0 and runtime < 30.0
    record_criterion(
        4,
        "fiber length through a tube is O(delta)",
        ok,
        f"max length/delta {worst:.2f} (<= 8), {runtime:.1f}s",
    )
    assert worst <= 8.0
    assert runtime < 30.0


def test_criterion_05_near_intersection_structure():
    t0 = time.monotonic()
    d = 2.0 ** -6
    rng = np.random.default_rng([SEED, 5])
    window = PLANAR_DOMAIN.shrink(4.0)
    fs, gs, thetas = [], [], []
    for _ in range(10_000):
        f = Quadratic(*rng.normal(size=3))
        theta0 = rng.uniform(-0.625, 0.625)
        v = rng.uniform(-0.5, 0.5) * d
        u = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.3)
        w = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.5)
        fs.append(f)
        gs.append(Quadratic.from_jet(theta0, f(theta0) + v, f.deriv(theta0) + u, f.a + w))
        thetas.append(theta0)
    F, G, theta = coeff_array(fs), coeff_array(gs), np.array(thetas)[:, None]
    # each row's at most two pieces [lo, hi], NaN where it has fewer
    pieces = near_intersection_intervals(F, G, d, window)
    lo, hi = pieces[..., 0], pieces[..., 1]
    max_pieces = int((lo <= hi).sum(axis=1).max())
    x = d / np.sqrt((tau(F, G) + d) * (delta_gauge(F, G) + d))
    factors = (hi - lo) / x[:, None]
    max_factor = float(np.nanmax(factors))
    home = (lo - 1e-12 <= theta) & (theta <= hi + 1e-12)
    assert home.any(axis=1).all(), "forced near-contact point must lie in a piece"
    # the first piece that holds theta0, as the scalar loop took it
    min_factor = float(factors[np.arange(len(F)), home.argmax(axis=1)].min())
    runtime = time.monotonic() - t0
    ok = (
        max_pieces <= 2
        and max_factor <= 32.0
        and min_factor >= 1.0 / 32.0
        and runtime < 10.0
    )
    record_criterion(
        5,
        "near-intersection sets: <= 2 intervals, lengths within 32x of the gauge law",
        ok,
        f"pieces <= {max_pieces}, length factors [{min_factor:.3f}, {max_factor:.2f}], "
        f"{runtime:.1f}s",
    )
    assert max_pieces <= 2
    assert max_factor <= 32.0 and min_factor >= 1.0 / 32.0
    assert runtime < 10.0


def test_criterion_06_tangency_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng([SEED, 66])
    violations = 0
    for _ in range(10_000):
        d = 2.0 ** rng.uniform(-9, -3)
        t = 2.0 ** rng.uniform(math.log2(d), 0)
        center = Quadratic(*rng.normal(size=3))
        rect = dt_rectangle(center, rng.uniform(-1, 1), d, t)
        # operational envelope: jets within 8x of the (delta, sqrt(delta*t), t) box
        f = Quadratic.from_jet(
            rect.base.mid,
            center(rect.base.mid) + 8 * d * rng.uniform(-1, 1),
            center.deriv(rect.base.mid) + 8 * math.sqrt(d * t) * rng.uniform(-1, 1),
            center.a + 8 * t * rng.uniform(-1, 1),
        )
        if is_tangent_jet(f, rect, 1.0) and not is_tangent_containment(f, rect, 4.0):
            violations += 1
        if is_tangent_containment(f, rect, 4.0) and not is_tangent_jet(f, rect, 16.0):
            violations += 1
    runtime = time.monotonic() - t0
    ok = violations == 0 and runtime < 10.0
    record_criterion(
        6,
        "jet(1) implies containment(4) implies jet(16) on 10^4 cases",
        ok,
        f"violations {violations}, {runtime:.1f}s",
    )
    assert violations == 0
    assert runtime < 10.0


def test_criterion_07_opposed_pair_scaling():
    t0 = time.monotonic()
    pts = []
    for k in range(4, 11):
        d = 2.0 ** -k
        pair = build_opposed_pair(d, 1.0)
        est = bilinear_curve_integral(pair.F, pair.G, d, 0.75)
        pts.append((d, est.value))
    slope_d = fit_exponent(pts).slope
    pts = []
    for j in range(1, 5):
        r = 2.0 ** -j
        pair = build_opposed_pair(2.0 ** -8, r)
        est = bilinear_curve_integral(pair.F, pair.G, 2.0 ** -8, 0.75)
        pts.append((r, est.value))
    slope_r = fit_exponent(pts).slope
    runtime = time.monotonic() - t0
    ok = abs(slope_d - 1.5) <= 0.1 and abs(slope_r + 0.5) <= 0.1 and runtime < 60.0
    record_criterion(
        7,
        "opposed-pair integral scales like delta^1.5 and rho^-0.5",
        ok,
        f"delta slope {slope_d:.3f}, rho slope {slope_r:.3f}, {runtime:.1f}s",
    )
    assert abs(slope_d - 1.5) <= 0.1
    assert abs(slope_r + 0.5) <= 0.1
    assert runtime < 60.0


def test_criterion_08_bush_refutes_naive_bound():
    t0 = time.monotonic()
    band, naive, n_t2, rel_err = [], [], [], []
    for d in ladder(4, 8):
        t1, t2 = build_bush(d)
        est = bilinear_tube_integral(t1, t2, 0.75, 400_000, SEED)
        n1, n2 = len(t1), len(t2)
        band.append((d, est.value / (d ** 4 * n1 ** 0.75 * n2)))
        naive.append((d, est.value / (d ** 4 * n1 ** 0.75 * n2 ** 0.75)))
        n_t2.append((d, n2))
        rel_err.append(est.stderr / est.value)
    slope = fit_exponent(naive).slope
    # The naive ratio is the band ratio times #T2^(1/4).  With the band ratio
    # flat, its slope is the slope of #T2^(1/4), which the family sizes fix
    # (-1/16 in the limit #T2 ~ delta^(-1/4); integer sizes flatten it).
    implied = fit_exponent((d, n2 ** 0.25) for d, n2 in n_t2).slope
    # Standard error of the OLS slope: each rung's log value has stderr
    # est.stderr/est.value, propagated through the weights (x_i - xbar)/Sxx.
    x = np.log([d for d, _ in naive])
    dx = x - x.mean()
    slope_se = math.sqrt(float((dx ** 2 * np.square(rel_err)).sum())) / float(
        (dx ** 2).sum()
    )
    lo, hi = implied - 3.0 * slope_se, implied + 3.0 * slope_se
    runtime = time.monotonic() - t0
    band_ok = all(1 / 16 <= r <= 16 for _, r in band)
    slope_ok = lo <= slope <= hi
    beats_ok = hi < 0.0
    record_criterion(
        8,
        "bush family beats the naive bilinear count",
        band_ok and slope_ok and beats_ok and runtime < 300.0,
        f"band {'PASS' if band_ok else 'FAIL'} "
        f"(ratios {[round(r, 2) for _, r in band]}), "
        f"naive-ratio slope {'PASS' if slope_ok else 'FAIL'} "
        f"(measured {slope:.4f} vs implied by #T2 {[n2 for _, n2 in n_t2]}: "
        f"{implied:.4f} +- 3*{slope_se:.4f} = [{lo:.4f}, {hi:.4f}]), "
        f"window below 0 {'PASS' if beats_ok else 'FAIL'}, {runtime:.0f}s",
    )
    assert band_ok
    assert runtime < 300.0
    assert slope_ok, (
        f"naive-ratio slope {slope:.4f} outside the window [{lo:.4f}, {hi:.4f}] "
        f"implied by the family sizes (slope {implied:.4f}, stderr {slope_se:.4f})"
    )
    assert beats_ok, (
        f"window [{lo:.4f}, {hi:.4f}] reaches 0: the bush does not measurably "
        "beat the naive count"
    )


def test_criterion_09_bipartite_ball_sharpness():
    t0 = time.monotonic()
    rho = 0.25
    norm_pts = []
    m_ok = True
    for k in (5, 6, 7):
        d = 2.0 ** -k
        pair = build_bipartite_balls(d, rho)
        est = bilinear_curve_integral(pair.F, pair.G, d, 0.75)
        norm_pts.append((d, est.value * d ** 3))
        rng = np.random.default_rng([SEED, k])
        s = rng.uniform(0.1, 0.9, 1000)
        y = rho * s * s + rng.uniform(-rho / 8, rho / 8, 1000)
        m = strip_multiplicity(pair.F, s, y, d)
        scale = (rho / d) ** 2
        m_ok = m_ok and m.min() >= scale / 8 and m.max() <= scale * 8
    slope = fit_exponent(norm_pts).slope
    runtime = time.monotonic() - t0
    ok = m_ok and abs(slope) <= 0.2 and runtime < 300.0
    record_criterion(
        9,
        "ball families: multiplicity ~ (rho/delta)^2 and integral ~ delta^-3",
        ok,
        f"multiplicity band {'ok' if m_ok else 'FAIL'}, normalized slope "
        f"{slope:.3f}, {runtime:.0f}s",
    )
    assert m_ok
    assert abs(slope) <= 0.2
    assert runtime < 300.0


def test_criterion_10_clamshell():
    t0 = time.monotonic()
    d, t, mu, nu, n = 2.0 ** -8, 2.0 ** -4, 16, 4, 256
    F, G, R = build_clamshell(d, t, mu, nu, n)
    counts_ok = (
        len(F) == n
        and len(R) == round(t ** -0.5 * n / mu)
        and len(G) == nu * len(R)
    )
    rich_ok = all((x.mu, x.nu) == (mu, nu) for x in (richness_of(r, F, G) for r in R))
    rep02 = quad_broadness(F, d, 0.2)
    rep05 = quad_broadness(F, d, 0.5)  # N = 256 = 1/delta: the stated variant
    ordering_ok = rep05.worst_ratio > rep02.worst_ratio
    # Bracket fixed by the definition and the construction.  Upper end: every
    # probe has t >= delta, so #tangent/(1 + t^alpha #Q) < t^-alpha <=
    # delta^-alpha for any family.  Lower end: the n/mu = 16 rows sit 24*delta
    # apart, and row j's long curves are theta^2/2 + 24*j*delta up to curvature
    # offsets |beta| <= t/8.  At the probe scale (sigma, t) = (1/4, 1/4) the jet
    # windows (c_jet = 4) are 1 wide in value, slope and curvature, so a
    # middle-row anchor (or its jet-key representative, within sigma/2 of it)
    # reaches every row (at most 8*24*delta = 0.75 away) and all n curves are
    # tangent.  At sigma <= 1/8 the whole value window is only 1.0 wide and
    # cannot span the rows' spread of 15*24*delta ~ 1.41, so (1/4, 1/4) is the
    # finest scale at which the whole family is tangent.
    whole_scale = 0.25
    bracket = {
        alpha: (n / (1.0 + whole_scale ** alpha * n), rep.worst_ratio, d ** -alpha)
        for alpha, rep in ((0.2, rep02), (0.5, rep05))
    }
    bracket_ok = all(lo <= r < hi for lo, r, hi in bracket.values())
    runtime = time.monotonic() - t0
    record_criterion(
        10,
        "clamshell: exact counts and richness; broadness ratios",
        counts_ok and rich_ok and ordering_ok and bracket_ok and runtime < 60.0,
        f"counts {'PASS' if counts_ok else 'FAIL'}, richness "
        f"{'PASS' if rich_ok else 'FAIL'}, alpha-ordering "
        f"{'PASS' if ordering_ok else 'FAIL'} ({rep02.worst_ratio:.2f} -> "
        f"{rep05.worst_ratio:.2f}), bracket n/(1 + 4^-alpha n) <= ratio < "
        f"delta^-alpha {'PASS' if bracket_ok else 'FAIL'} ("
        + ", ".join(
            f"alpha {alpha}: {lo:.3f} <= {r:.3f} < {hi:.3f}"
            for alpha, (lo, r, hi) in bracket.items()
        )
        + f"), {runtime:.0f}s",
    )
    assert counts_ok
    assert rich_ok
    assert ordering_ok
    assert runtime < 60.0
    assert bracket_ok, (
        f"broadness ratios outside [n/(1 + 4^-alpha n), delta^-alpha): {bracket}; "
        f"witnesses: {rep02.witness!r}, {rep05.witness!r}"
    )


def test_criterion_11_parabolic_net():
    t0 = time.monotonic()
    region = np.array([[-1.1, 1.1], [-1.1, 1.1], [-0.3, 0.3]])
    pts_l = []
    m_max = 0
    for k in (4, 5, 6):
        d = 2.0 ** -k
        spec = parabolic_net_spec(d)
        est = bilinear_integral_from_multiplicity(
            lambda q: net_multiplicity(spec, q, 1),
            lambda q: net_multiplicity(spec, q, 2),
            region,
            2.0 / 3.0,
            100_000,
            SEED,
        )
        pts_l.append((d, est.value))
        rng = np.random.default_rng([SEED, k, 11])
        probes = np.empty((0, 3))
        while len(probes) < 1000:
            z = rng.random((3000, 3)) * 2.0 - 1.0
            z[:, 2] *= 0.25
            probes = np.vstack([probes, z[_bulk.norm4(z) <= 1.0]])
        probes = probes[:1000]
        m_max = max(
            m_max,
            int(net_multiplicity(spec, probes, 1).max()),
            int(net_multiplicity(spec, probes, 2).max()),
        )
    slope = fit_exponent(pts_l).slope
    runtime = time.monotonic() - t0
    ok = abs(slope) <= 0.2 and m_max <= 8 and runtime < 300.0
    record_criterion(
        11,
        "parabolic net: flat p=2/3 integral, bounded multiplicity",
        ok,
        f"slope {slope:.3f}, max multiplicity {m_max} (<= 8), {runtime:.0f}s",
    )
    assert abs(slope) <= 0.2
    assert m_max <= 8
    assert runtime < 300.0


def test_criterion_12_incidence_bound_oracle():
    t0 = time.monotonic()
    d, rho = 2.0 ** -5, 0.25
    pair = build_bipartite_balls(d, rho)
    F, G = pair.F, pair.G
    rng = np.random.default_rng([SEED, 12])
    violations = 0
    for _ in range(20):
        fi = np.sort(rng.choice(len(F), size=64, replace=False))
        gi = np.sort(rng.choice(len(G), size=64, replace=False))
        chk = wolff_bound_check(F[fi], G[gi], d, pair.rho, 1, 1, k_eps=64.0)
        violations += not chk.ok
    Fc, Gc, _ = build_clamshell(2.0 ** -8, 2.0 ** -4, 16, 4, 256)
    chk = wolff_bound_check(Fc, Gc, 2.0 ** -8, 1.0, 16, 4, k_eps=64.0)
    violations += not chk.ok
    runtime = time.monotonic() - t0
    ok = violations == 0 and runtime < 120.0
    record_criterion(
        12,
        "incidence bound holds on 20 random instances plus the clamshell",
        ok,
        f"violations {violations}, clamshell count {chk.count} vs bound "
        f"{chk.bound:.0f}, {runtime:.0f}s",
    )
    assert violations == 0
    assert runtime < 120.0


DET_CONFIGS = {
    "bush-refutes-naive": ["--delta-exps", "4..5", "--samples", "20000"],
    "opposed-pair-scaling": ["--delta-exps", "4..6"],
    "bipartite-ball-sharpness": ["--delta-exps", "5..5"],
    "clamshell-alpha": ["--delta-exps", "6", "--t", "0.25", "--n", "32"],
    "parabolic-net-p23": ["--delta-exps", "4..4", "--samples", "20000"],
    "projection-containment": ["--delta-exps", "4..5", "--samples", "10000"],
    "fiber-length": ["--samples", "100"],
    "lemma-rect-structure": ["--samples", "1000"],
    "wolff-bound-check": [],
    "broadness-scan": ["--delta-exps", "5..6", "--t", "0.25", "--n", "32"],
}


def test_criterion_13_determinism(tmp_path):
    t0 = time.monotonic()
    failures = []
    for name, extra in DET_CONFIGS.items():
        args = ["run", name, "--seed", "7", *extra]
        a = tmp_path / f"{name}-a.csv"
        b = tmp_path / f"{name}-b.csv"
        code_a = cli_main(args + ["--out", str(a)])
        code_b = cli_main(args + ["--out", str(b)])
        if code_a == 2 or code_b == 2:
            failures.append(f"{name}: usage error")
            continue
        if not (a.exists() and b.exists()):
            failures.append(f"{name}: run did not produce a CSV")
            continue
        if a.read_bytes() != b.read_bytes():
            failures.append(f"{name}: rerun differs")
    for name in ("bush-refutes-naive", "parabolic-net-p23"):
        args = ["run", name, "--seed", "7", *DET_CONFIGS[name]]
        a = tmp_path / f"{name}-w1.csv"
        b = tmp_path / f"{name}-w4.csv"
        cli_main(args + ["--workers", "1", "--out", str(a)])
        cli_main(args + ["--workers", "4", "--out", str(b)])
        if a.read_bytes() != b.read_bytes():
            failures.append(f"{name}: worker count changes bytes")
    runtime = time.monotonic() - t0
    ok = not failures
    record_criterion(
        13,
        "byte-identical CSV bodies across reruns and worker counts",
        ok,
        f"{len(DET_CONFIGS)} experiments x 2 runs + 2 worker variations, "
        f"{runtime:.0f}s" + (f"; failures: {failures}" if failures else ""),
    )
    assert not failures, failures
