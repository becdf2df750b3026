"""Scalar reference loops for the batched planar jet kernel.

These are the pair-by-pair definitions that `quadratics.jet_gauges`, the row
form of `quadratics.near_intersection_intervals` and their callers replaced;
the oracle tests compare the batched code against them bit for bit.
"""

import math

import numpy as np

from heislab.quadratics import (
    PLANAR_DOMAIN,
    BipartiteReport,
    Interval,
    Quadratic,
    _pair_differences,
    coeff_array,
    jet_gauges,
    rect_t_scale,
)


def quadratic_roots(da: float, db: float, dc: float) -> list[float]:
    """Real roots of (da/2) s^2 + db s + dc, cancellation-safe for tiny da."""
    if da == 0.0:
        return [] if db == 0.0 else [-dc / db]
    disc = db * db - 2.0 * da * dc
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (db + math.copysign(sq, db))
    if q == 0.0:  # db == 0 and disc == db^2 means dc == 0: double root at 0
        return [0.0]
    return [2.0 * q / da, dc / q]


def jet_candidates(h: Quadratic) -> list[float]:
    """Endpoints, roots of h and h', and the points where h' = +-h''."""
    lo, hi = PLANAR_DOMAIN.lo, PLANAR_DOMAIN.hi
    cands = [lo, hi]
    da, db, dc = h.a, h.b, h.c

    def add(s):
        if lo <= s <= hi:
            cands.append(s)

    for r in quadratic_roots(da, db, dc):
        add(r)
    if da != 0.0:
        add(-db / da)
        add((da - db) / da)
        add((-da - db) / da)
    return cands


def tau(f: Quadratic, g: Quadratic) -> float:
    h = f.sub(g)
    best = 0.0
    for s in jet_candidates(h):
        v = abs(h(s)) + abs(h.deriv(s))
        if v > best:
            best = v
    return best + abs(h.a)


def delta_gauge(f: Quadratic, g: Quadratic) -> float:
    h = f.sub(g)
    best = math.inf
    for s in jet_candidates(h):
        v = abs(h(s)) + abs(h.deriv(s))
        if v < best:
            best = v
    return best


def _scalar_pairs(n1: int, n2: int, max_pairs: int, seed: int, within: bool):
    """The pairs validate_bipartite checks, as a Python list."""
    if within and n1 * (n1 - 1) // 2 <= max_pairs:
        return [(i, j) for i in range(n1) for j in range(i + 1, n1)]
    if not within and n1 * n2 <= max_pairs:
        return [(i, j) for i in range(n1) for j in range(n2)]
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, n1, size=max_pairs).tolist()
    jj = rng.integers(0, n2, size=max_pairs).tolist()
    return [(i, j) for i, j in zip(ii, jj) if not within or i < j]


def _report(rho, within_max, sep_min, cross_min, cross_max, checked, separation):
    slack = 1.0 + 1e-9
    ok = (
        within_max <= rho * slack
        and rho <= cross_min * slack
        and cross_max <= 100.0 * rho * slack
    )
    note = ""
    if not ok:
        note = (
            f"within_max={within_max:.6g} (need <= {rho:.6g}), "
            f"cross=[{cross_min:.6g}, {cross_max:.6g}] (need within [{rho:.6g}, {100 * rho:.6g}])"
        )
    if separation is not None and sep_min < separation:
        ok = False
        note += f" in-family separation {sep_min:.6g} < {separation:.6g}"
    return BipartiteReport(ok, within_max, cross_min, cross_max, sep_min, checked, note)


def validate_bipartite(pair, separation=None) -> BipartiteReport:
    F, G, rho = pair.F, pair.G, pair.rho
    within_max, sep_min, checked = 0.0, math.inf, 0
    for fam in (F, G):
        for i, j in _scalar_pairs(len(fam), len(fam), 100_000, 0, True):
            tv = tau(fam[i], fam[j])
            within_max = max(within_max, tv)
            sep_min = min(sep_min, tv)
            checked += 1
    cross_min, cross_max = math.inf, 0.0
    for i, j in _scalar_pairs(len(F), len(G), 200_000, 1, False):
        tv = tau(F[i], G[j])
        cross_min = min(cross_min, tv)
        cross_max = max(cross_max, tv)
        checked += 1
    return _report(rho, within_max, sep_min, cross_min, cross_max, checked, separation)


def within_blocks_by_broadcast(P: np.ndarray, chunk: int):
    """The exhaustive within-family blocks of `_pair_differences` as they
    were formed before: each block the full broadcast P[i] - P[j] over its
    rows and columns, then compressed to the pairs i < j."""
    P = np.ascontiguousarray(P.T)
    n = P.shape[1]
    step = max(1, chunk // max(n, 1))
    for i in range(0, n - 1, step):
        for j in range(i + 1, n, chunk):
            h = P[:, i : i + step, None] - P[:, None, j : j + chunk]
            later = np.arange(j, j + h.shape[2]) > np.arange(i, i + h.shape[1])[:, None]
            yield np.compress(later.ravel(), h.reshape(3, -1), axis=1).T


def tau_range(blocks) -> tuple[float, float, int]:
    """(min, max) of tau over the rows of difference blocks, or (inf, 0) if
    there are none, and the number of rows: `jet_gauges` on every row, the
    exhaustive pass that the bounded `quadratics._tau_ranges` replaced."""
    lo, hi, rows = math.inf, 0.0, 0
    for h in blocks:
        tv = jet_gauges(h)[0]
        lo, hi, rows = min(lo, float(tv.min())), max(hi, float(tv.max())), rows + len(h)
    return lo, hi, rows


def validate_bipartite_exhaustive(pair, separation=None) -> BipartiteReport:
    """`quadratics.validate_bipartite` with `tau_range` in place of its
    bounded pass: the same pair blocks, every row gauged."""
    F, G = coeff_array(pair.F), coeff_array(pair.G)
    within_max, sep_min, checked = 0.0, math.inf, 0
    for fam in (F, G):
        lo, hi, pairs = tau_range(_pair_differences(fam, fam, 100_000, 0, within=True))
        within_max, sep_min, checked = max(within_max, hi), min(sep_min, lo), checked + pairs
    cross_min, cross_max, pairs = tau_range(_pair_differences(F, G, 200_000, 1, within=False))
    return _report(pair.rho, within_max, sep_min, cross_min, cross_max, checked + pairs,
                   separation)


def tau_ball_lattice(center: Quadratic, radius: float, sep: float) -> list[Quadratic]:
    ha, hb, hc = (s * sep for s in (1.0 / 6.0, 1.0 / 3.0, 1.0))
    na = int(math.floor(radius / 6.0 / ha)) + 1
    nb = int(math.floor(radius / 6.0 / hb)) + 1
    nc = int(math.floor(radius / hc)) + 1
    out = []
    for i in range(-na, na + 1):
        for j in range(-nb, nb + 1):
            for k in range(-nc, nc + 1):
                q = Quadratic(center.a + i * ha, center.b + j * hb, center.c + k * hc)
                if tau(q, center) <= radius:
                    out.append(q)
    return out


def classify_broad_narrow(S, G, K) -> tuple[bool, int, int]:
    sigma = S.thickness
    t = rect_t_scale(S)
    theta = S.base.mid
    tangent = []
    for g in G:
        h = g.sub(S.center)
        if (
            abs(h(theta)) <= 4.0 * sigma
            and abs(h.deriv(theta)) <= 4.0 * math.sqrt(sigma * t)
            and abs(h.a) <= 4.0 * t
        ):
            tangent.append(g)
    n = len(tangent)
    total = n * n
    if n <= 1:
        return (False, 0, total)
    lo, hi = sigma * t / K, sigma * t
    transverse = 0
    for i in range(n):
        for j in range(n):
            if i != j and lo <= delta_gauge(tangent[i], tangent[j]) <= hi:
                transverse += 1
    return (transverse >= total / 2.0, transverse, total)


def solve_le(a: float, b: float, c: float, bound: float):
    """Solution set of (a/2)s^2 + b s + c <= bound as intervals over R.

    Returns a list of (lo, hi) with +-inf endpoints allowed.
    """
    c = c - bound
    if a != 0.0:
        roots = sorted(quadratic_roots(a, b, c))
        if a > 0.0:
            return [(roots[0], roots[-1])] if roots else []
        if len(roots) < 2:
            return [(-math.inf, math.inf)]
        return [(-math.inf, roots[0]), (roots[1], math.inf)]
    if b > 0.0:
        return [(-math.inf, -c / b)]
    if b < 0.0:
        return [(-c / b, math.inf)]
    return [(-math.inf, math.inf)] if c <= 0.0 else []


def near_intersection_intervals(
    f: Quadratic, g: Quadratic, delta: float, window: Interval
) -> list[Interval]:
    """The set {s in window : |f(s) - g(s)| <= delta} as exact closed
    intervals, from the two sublevel sets of h = f - g, intersected pairwise,
    clipped, sorted and merged when they touch within 1e-15."""
    if not (0.0 < delta < math.inf):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    h = f.sub(g)
    if not all(map(math.isfinite, (h.a, h.b, h.c))):
        raise ValueError(f"near-intersection needs finite coefficients, got f - g = {h}")
    upper = solve_le(h.a, h.b, h.c, delta)       # h <= delta
    lower = solve_le(-h.a, -h.b, -h.c, delta)    # h >= -delta

    pieces = [(max(lo1, lo2, window.lo), min(hi1, hi2, window.hi))
              for lo1, hi1 in upper for lo2, hi2 in lower]
    merged: list[list[float]] = []
    for lo, hi in sorted(p for p in pieces if p[0] <= p[1]):
        if merged and lo <= merged[-1][1] + 1e-15:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    if len(merged) > 2:
        raise RuntimeError(f"near-intersection set split into {len(merged)} intervals")
    return [Interval(lo, hi) for lo, hi in merged]
