"""Rectangle richness, incomparable rich families, the incidence-count oracle
bound, quantitative broadness for quadratic families, and the broad/narrow
pair classification.

Everything counts tangencies with the jet test (the O(1) workhorse); the
containment test cross-validates it in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadratics import (
    PLANAR_DOMAIN,
    CurviRect,
    Quadratic,
    BipartitePair,
    coeff_array,
    comparable,
    dt_rectangle,
    in_jet_window,
    jet_gauges,
    rect_t_scale,
    validate_bipartite,
)
from .tubes import BroadnessReport, ProbeSpec, _check_alpha, _dyadic_down

__all__ = [
    "Richness",
    "TangencyScale",
    "WolffCheck",
    "richness_of",
    "max_incomparable_rich",
    "wolff_bound_check",
    "quad_broadness",
    "classify_broad_narrow",
]


@dataclass(frozen=True)
class Richness:
    mu: int
    nu: int

    def __post_init__(self):
        if self.mu < 0 or self.nu < 0:
            raise ValueError("richness counts must be nonnegative")


@dataclass(frozen=True)
class TangencyScale:
    """The (K, sigma, t) window in which a pair counts as K-transverse."""

    K: float
    sigma: float
    t: float

    def __post_init__(self):
        if self.K < 1.0:
            raise ValueError(f"transversality constant must be >= 1, got {self.K}")
        if not (0.0 < self.sigma <= self.t <= 1.0):
            raise ValueError(f"need 0 < sigma <= t <= 1, got ({self.sigma}, {self.t})")


# jet-window constant of every tangency count here, as in is_tangent_jet
_C_JET = 4.0


def _jet_tangent_mask(
    coeffs: np.ndarray, center: Quadratic, theta: float, delta: float, t: float
) -> np.ndarray:
    """Vectorized jet tangency of many curves against one rectangle."""
    da = coeffs[:, 0] - center.a
    db = coeffs[:, 1] - center.b
    dc = coeffs[:, 2] - center.c
    hv = (0.5 * da * theta + db) * theta + dc
    hd = da * theta + db
    return in_jet_window(hv, hd, da, _C_JET, delta, t)


def richness_of(rect: CurviRect, F: list[Quadratic], G: list[Quadratic]) -> Richness:
    """Counts of jet-tangent curves from each family."""
    delta = rect.thickness
    t = rect_t_scale(rect)
    theta = rect.base.mid
    mu = int(_jet_tangent_mask(coeff_array(F), rect.center, theta, delta, t).sum())
    nu = int(_jet_tangent_mask(coeff_array(G), rect.center, theta, delta, t).sum())
    return Richness(mu, nu)


def _anchor_grid(length: float) -> np.ndarray:
    """Base midpoints spaced at half the base length, rectangles kept inside
    the planar domain."""
    lo = PLANAR_DOMAIN.lo + 0.5 * length
    hi = PLANAR_DOMAIN.hi - 0.5 * length
    if hi < lo:
        return np.array([PLANAR_DOMAIN.mid])
    n = int(math.floor((hi - lo) / (0.5 * length))) + 1
    return lo + 0.5 * length * np.arange(n)


def max_incomparable_rich(
    F: list[Quadratic],
    G: list[Quadratic],
    delta: float,
    t: float,
    mu: int,
    nu: int,
) -> list[CurviRect]:
    """Greedy family of pairwise incomparable (mu, nu)-rich (delta, t)-rectangles.

    Candidates are anchored on the curves of F with base midpoints on a grid
    spaced at half the base length; any rectangle rich for the family is
    within comparability of such an anchor.  Selection is first-fit in the
    deterministic scan order (curve index, then midpoint), so identical
    inputs give identical output.
    """
    if not (delta <= t <= 1.0):
        raise ValueError(f"need delta <= t <= 1, got delta={delta}, t={t}")
    if not F:
        return []
    length = math.sqrt(delta / t)
    mids = _anchor_grid(length)
    fc = coeff_array(F)
    gc = coeff_array(G)

    # jets of every curve at every midpoint: values[i, m], slopes[i, m]
    fvals = (0.5 * fc[:, 0:1] * mids + fc[:, 1:2]) * mids + fc[:, 2:3]
    fders = fc[:, 0:1] * mids + fc[:, 1:2]
    gvals = (0.5 * gc[:, 0:1] * mids + gc[:, 1:2]) * mids + gc[:, 2:3]
    gders = gc[:, 0:1] * mids + gc[:, 1:2]

    chosen: list[CurviRect] = []
    for i in range(len(F)):
        mu_counts = in_jet_window(
            fvals - fvals[i], fders - fders[i], fc[:, 0:1] - fc[i, 0], _C_JET, delta, t
        ).sum(axis=0)
        nu_counts = in_jet_window(
            gvals - fvals[i], gders - fders[i], gc[:, 0:1] - fc[i, 0], _C_JET, delta, t
        ).sum(axis=0)
        good = np.nonzero((mu_counts >= mu) & (nu_counts >= nu))[0]
        for m in good:
            cand = dt_rectangle(F[i], float(mids[m]), delta, t)
            if all(not comparable(cand, r) for r in chosen):
                chosen.append(cand)
    return chosen


@dataclass(frozen=True)
class WolffCheck:
    count: int
    bound: float
    ok: bool
    bipartite_ok: bool
    note: str = ""


def wolff_bound_check(
    F: list[Quadratic],
    G: list[Quadratic],
    delta: float,
    t: float,
    mu: int,
    nu: int,
    k_eps: float = 64.0,
) -> WolffCheck:
    """Check the incidence bound for pairwise incomparable rich rectangles.

    count comes from the greedy construction; the bound is
    (#F #G)^eps * [ (#F #G / (mu nu))^(3/4) + #F/mu + #G/nu ] with eps = 0.1,
    scaled by the calibration constant k_eps.  The t-bipartite hypothesis is
    validated and a failure is reported in the result (the count and bound
    are still computed; the bound is only guaranteed under the hypothesis).
    """
    if not F or not G:
        raise ValueError("both families must be nonempty")
    if mu < 1 or nu < 1:
        raise ValueError("richness thresholds must be positive integers")
    report = validate_bipartite(BipartitePair(tuple(F), tuple(G), t))
    count = len(max_incomparable_rich(F, G, delta, t, mu, nu))
    nf, ng = len(F), len(G)
    bound = (nf * ng) ** 0.1 * ((nf * ng / (mu * nu)) ** 0.75 + nf / mu + ng / nu)
    return WolffCheck(
        count=count,
        bound=bound,
        ok=count <= k_eps * bound,
        bipartite_ok=report.ok,
        note=report.note,
    )


# anchor x curve cells one block of the concentration profile counts at once;
# bounds its temporaries to a few MB whatever the family size
_PROFILE_BLOCK_CELLS = 1 << 16


def _concentration_profile(
    qc: np.ndarray, delta: float, probes: ProbeSpec
) -> list[tuple[float, float, int, float, int]]:
    """(sigma, t, max count, midpoint, anchor curve) for every (sigma, t) level.

    Levels run over dyadic sigma in [delta, 1] and, for each, dyadic t in
    [sigma, 1].  The probe of a level is the first one reaching its maximum
    tangent count, in (midpoint, quantized anchor jet) order.
    """
    n = len(qc)
    profile = []
    for sigma in _dyadic_down(1.0, delta):
        for t in _dyadic_down(1.0, sigma):
            length = math.sqrt(sigma / t)
            mids = _anchor_grid(length)
            if len(mids) > probes.max_anchor_midpoints:
                step = len(mids) / probes.max_anchor_midpoints
                mids = mids[(np.arange(probes.max_anchor_midpoints) * step).astype(int)]
            root_st = math.sqrt(sigma * t)
            # jets of every curve at every midpoint: vals[m, i], ders[m, i]
            vals = (0.5 * qc[:, 0] * mids[:, None] + qc[:, 1]) * mids[:, None] + qc[:, 2]
            ders = qc[:, 0] * mids[:, None] + qc[:, 1]
            # anchors: the first curve of each distinct quantized jet, in
            # lexicographic (midpoint, key) order; the sort must be stable, and
            # keys compare by value (not bits), so -0.0 and 0.0 are one key
            keys = (
                np.repeat(np.arange(len(mids)), n),
                np.round(vals / (0.5 * sigma)).ravel(),
                np.round(ders / (0.5 * root_st)).ravel(),
                np.tile(np.round(qc[:, 0] / (0.5 * t)), len(mids)),
            )
            order = np.lexsort(keys[::-1])
            same = np.ones(len(order) - 1, dtype=bool)
            for k in keys:
                ks = k[order]
                same &= ks[1:] == ks[:-1]
            am, ai = np.divmod(order[np.concatenate(([True], ~same))], n)

            counts = np.empty(len(am), dtype=np.int64)
            block = max(1, _PROFILE_BLOCK_CELLS // n)
            for s in range(0, len(am), block):
                bm, bi = am[s : s + block], ai[s : s + block]
                counts[s : s + block] = in_jet_window(
                    vals[bm] - vals[bm, bi, None],
                    ders[bm] - ders[bm, bi, None],
                    qc[:, 0] - qc[bi, 0, None],
                    _C_JET,
                    sigma,
                    t,
                ).sum(axis=1)
            k = int(np.argmax(counts))  # the first maximum in anchor order
            profile.append((sigma, t, int(counts[k]), float(mids[am[k]]), int(ai[k])))
    return profile


def quad_broadness(
    Q: list[Quadratic],
    delta: float,
    alpha: float,
    probes: ProbeSpec | None = None,
) -> BroadnessReport:
    """Worst rectangle-concentration ratio of a quadratic family.

    Probes every (sigma, t)-rectangle with dyadic sigma in [delta, 1] and
    dyadic t in [sigma, 1], anchored on the curves of Q (midpoint grid at
    half the base length, anchors deduplicated by their quantized jets), and
    reports max of  #tangent / (1 + t^alpha * #Q).

    The tangent counts do not depend on alpha, and the denominator is
    constant within a (sigma, t) level, so the family is reduced to one
    concentration profile: per level, the maximum count and the first probe
    reaching it, in (midpoint, quantized anchor jet) order.  The levels are
    folded in order (sigma descending, then t descending), and a later level
    replaces the witness only if its ratio is strictly greater.

    Raises ValueError for an empty family, a non-finite coefficient, an alpha
    that is negative or not finite, or a delta that is not finite and > 0.
    """
    if not Q:
        raise ValueError("family must be nonempty")
    _check_alpha(alpha)
    probes = probes or ProbeSpec()
    qc = coeff_array(Q)
    if not np.isfinite(qc).all():
        raise ValueError("quadratic coefficients must be finite")
    n = len(Q)

    worst = 0.0
    witness = "no probe exceeded zero"
    for sigma, t, count, mid, i in _concentration_profile(qc, delta, probes):
        ratio = count / (1.0 + (t ** alpha) * n)
        if ratio > worst:
            worst = ratio
            witness = (
                f"sigma={sigma:.6g} t={t:.6g} midpoint={mid:.6g} "
                f"anchor_curve={i} tangent={count}/{n}"
            )
    return BroadnessReport(alpha, worst, witness)


def classify_broad_narrow(S: CurviRect, G: list[Quadratic], K: float) -> tuple[bool, int, int]:
    """Classify a (sigma, t)-rectangle by the transversality of its tangent pairs.

    Counts ordered pairs (g1, g2) of tangent curves with
    sigma*t/K <= Delta(g1, g2) <= sigma*t; broad means at least half of all
    ordered pairs (diagonal included in the total) are transverse.
    """
    if K < 1.0:
        raise ValueError(f"transversality constant must be >= 1, got {K}")
    sigma = S.thickness
    t = rect_t_scale(S)
    gc = coeff_array(G)
    tangent = gc[_jet_tangent_mask(gc, S.center, S.base.mid, sigma, t)]
    n = len(tangent)
    total = n * n
    if n <= 1:
        return (False, 0, total)
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    dv = jet_gauges(tangent[ii] - tangent[jj])[1]
    transverse = int(((sigma * t / K <= dv) & (dv <= sigma * t)).sum())
    return (transverse >= total / 2.0, transverse, total)
