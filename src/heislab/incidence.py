"""Rectangle richness, incomparable rich families, the incidence-count oracle
bound, quantitative broadness for quadratic families, and the broad/narrow
pair classification.

Everything counts tangencies with the jet test (the O(1) workhorse); the
containment test cross-validates it in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadratics import (
    PLANAR_DOMAIN,
    CurviRect,
    Quadratic,
    BipartitePair,
    _PAIR_CHUNK,
    _comparable_mask,
    _jet_window_bounds,
    coeff_array,
    comparable,
    dt_rectangle,
    in_jet_window,
    jet_gauges,
    rect_t_scale,
    validate_bipartite,
)
from .tubes import BroadnessReport, ProbeSpec, _dyadic_down, _fold, _subsample

__all__ = [
    "Richness",
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


# jet-window constant of every tangency count here, as in is_tangent_jet
_C_JET = 4.0


def _jet_tangent_mask(coeffs, center: Quadratic, theta: float, delta: float, t: float):
    """Vectorized jet tangency of many curves against one rectangle."""
    h = coeffs - np.array([center.a, center.b, center.c])
    return in_jet_window(*(x[0] for x in _jets_at(h, np.array([theta]))), _C_JET, delta, t)


def richness_of(rect: CurviRect, F: np.ndarray, G: np.ndarray) -> Richness:
    """Counts of jet-tangent curves from each family."""
    probe = rect.center, rect.base.mid, rect.thickness, rect_t_scale(rect)
    return Richness(*(int(_jet_tangent_mask(coeff_array(Q), *probe).sum()) for Q in (F, G)))


def _anchor_grid(length: float) -> np.ndarray:
    """Base midpoints spaced at half the base length, rectangles kept inside
    the planar domain."""
    lo = PLANAR_DOMAIN.lo + 0.5 * length
    hi = PLANAR_DOMAIN.hi - 0.5 * length
    if hi < lo:
        return np.array([PLANAR_DOMAIN.mid])
    n = int(math.floor((hi - lo) / (0.5 * length))) + 1
    return lo + 0.5 * length * np.arange(n)


def _jets_at(qc: np.ndarray, mids: np.ndarray) -> tuple[np.ndarray, ...]:
    """Value, slope and curvature of every curve at every midpoint, (midpoints, curves)."""
    m = mids[:, None]
    vals = (0.5 * qc[:, 0] * m + qc[:, 1]) * m + qc[:, 2]
    return vals, qc[:, 0] * m + qc[:, 1], np.broadcast_to(qc[:, 0], vals.shape)


# (anchor, curve) cells one block of the jet-window counter holds at once;
# bounds its temporaries to under a MB whatever the family size
_PROFILE_BLOCK_CELLS = 1 << 16


def _jet_window_counts(targets, sources, am, ai, delta: float, t: float) -> np.ndarray:
    """Per anchor k, the number of curves of `targets` in the jet window of
    curve ai[k] of `sources` at midpoint am[k] (jets as `_jets_at` gives them),
    by the differences and comparisons of in_jet_window, so each count equals
    the dense mask's sum; in place, on blocks of _PROFILE_BLOCK_CELLS cells.
    A curvature jet is the curve's a at every midpoint, so a block gathers
    each anchor's row of a (source curve, target) curvature mask.  When the
    mask of every source curve fits a block, it is formed once per column
    block; otherwise the anchors go in source-curve order and each block
    forms the rows of its own curves."""
    n, curv = targets[0].shape[1], sources[2][0]
    grouped = len(curv) * min(n, _PROFILE_BLOCK_CELLS) > _PROFILE_BLOCK_CELLS
    if grouped:
        order = np.argsort(ai, kind="stable")
        am, ai = am[order], ai[order]
    jets = [(x, y[am, ai, None]) for x, y in zip(targets[:2], sources[:2])]
    if grouped:
        new = np.concatenate(([True], ai[1:] != ai[:-1]))[: len(ai)]  # first on its curve
        ai, curv = np.cumsum(new) - 1, curv[ai[new]]  # each anchor's row of its block
    bounds = _jet_window_bounds(_C_JET, delta, t)
    counts = np.zeros(len(am), dtype=np.int64)
    for j in range(0, n, _PROFILE_BLOCK_CELLS):
        width = min(n - j, _PROFILE_BLOCK_CELLS)
        # a row's count is the sum of a uint8 view, in a type that holds width
        rows, count_type = _PROFILE_BLOCK_CELLS // width, np.min_scalar_type(width)
        diff, (ok, inside) = np.empty((rows, width)), np.empty((2, rows, width), dtype=bool)
        target_curv = targets[2][0, j : j + width]
        for s in range(0, len(am), rows):
            block, a = am[s : s + rows], ai[s : s + rows]
            d, good = diff[: len(block)], ok[: len(block)]
            if grouped or s == 0:  # the curvature rows of the block's curves, or of all
                first, last = (a[0], a[-1] + 1) if grouped else (0, len(curv))
                mask = np.subtract(target_curv, curv[first:last, None], out=diff[: last - first])
                mask = np.less_equal(np.abs(mask, out=mask), bounds[2],
                                     out=inside[: len(mask)] if grouped else None)
            np.take(mask, a - first, axis=0, out=good, mode="clip")
            for (target, anchor), bound in zip(jets, bounds):
                # mode="clip" writes straight into d; the rows are in range
                np.take(target[:, j : j + width], block, axis=0, out=d, mode="clip")
                d -= anchor[s : s + rows]
                good &= np.less_equal(np.abs(d, out=d), bound, out=inside[: len(block)])
            counts[s : s + rows] += np.add.reduce(good.view(np.uint8), axis=1, dtype=count_type)
    if grouped:
        counts[order] = counts.copy()
    return counts


def _value_window_hits(targets: np.ndarray, sources: np.ndarray, bound: float) -> np.ndarray:
    """Whether some target value t of the same row has |t - s| <= bound, for
    every source value s of rows of values (one row per midpoint), as a bool
    array shaped like `sources`, with the float differences of the jet-window
    counter.  t - s never decreases as t grows, so some target passes exactly
    when the nearest target at or below s or the nearest one at or above s
    does.  One unstable sort per row of targets and sources together finds
    both: the targets placed before s in the sorted row are its nearest
    targets below, a padded row of the sorted targets ([-inf, ..., +inf],
    whose pads never pass) gives them by count.  A tie between a target and
    s passes on either side, and a NaN difference (inf - inf) fails, as in
    the counter."""
    rows, nt = targets.shape
    both = np.concatenate([targets, sources], axis=1)
    width = both.shape[1]
    order = np.argsort(both, axis=1)
    # per sorted cell, its padded row's index of the last target at or before it
    below = np.cumsum(order < nt, axis=1)
    below += np.arange(0, rows * (nt + 2), nt + 2)[:, None]
    padded = np.empty((rows, nt + 2))
    padded[:, 0], padded[:, -1] = -np.inf, np.inf
    padded[:, 1:-1] = np.sort(targets, axis=1)
    order += np.arange(0, rows * width, width)[:, None]  # flat indices into both
    value, padded = both.ravel()[order], padded.ravel()
    with np.errstate(invalid="ignore"):  # inf - inf, which fails
        hit = padded[below] - value >= -bound
        hit |= padded[below + 1] - value <= bound
    out = np.empty(rows * width, dtype=bool)
    out[order] = hit
    return out.reshape(rows, width)[:, nt:]


def max_incomparable_rich(
    F: np.ndarray,
    G: np.ndarray,
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
    inputs give identical output.  Raises ValueError unless 0 < delta <= t <= 1
    and every coefficient is finite.
    """
    if not (0.0 < delta <= t <= 1.0):
        raise ValueError(f"need 0 < delta <= t <= 1, got delta={delta}, t={t}")
    fc, gc = coeff_array(F), coeff_array(G)
    mids = _anchor_grid(math.sqrt(delta / t))
    fj, gj = _jets_at(fc, mids), _jets_at(gc, mids)
    # an anchor with no G value in its value window counts no G curve, so
    # nu >= 1 drops it before any count
    reach = np.ones(fj[0].shape, dtype=bool)
    if nu >= 1:
        reach = _value_window_hits(gj[0], fj[0], _jet_window_bounds(_C_JET, delta, t)[0])
    ci, cm = np.nonzero(reach.T)  # scan order: curve, then midpoint
    # every F anchor counts its own curve at zero difference, so its mu count
    # is at least 1: the nu test goes first, and mu <= 1 needs no count
    for jets, least in [(gj, nu)] + [(fj, mu)] * (mu > 1):
        rich = _jet_window_counts(jets, fj, cm, ci, delta, t) >= least
        ci, cm = ci[rich], cm[rich]
    # each midpoint's base and own t as dt_rectangle and rect_t_scale make them
    lo, hi = mids - 0.5 * math.sqrt(delta / t), mids + 0.5 * math.sqrt(delta / t)
    base_mid, base_t = 0.5 * (lo + hi), np.array([delta / x ** 2 for x in (hi - lo).tolist()])
    chosen: list[CurviRect] = []
    rest = np.arange(len(ci))
    while len(rest):
        k, rest = rest[0], rest[1:]
        cand = dt_rectangle(Quadratic(*fc[ci[k]].tolist()), float(mids[cm[k]]), delta, t)
        if any(comparable(cand, r) for r in chosen):
            raise RuntimeError("bulk first-fit kept a rectangle comparable to a chosen one")
        chosen.append(cand)
        m, h = cm[rest], (fc[ci[rest]] - fc[ci[k]]).T
        rest = rest[~_comparable_mask(base_mid[m], base_mid[cm[k]], h, delta, base_t[m])]
    return chosen


@dataclass(frozen=True)
class WolffCheck:
    count: int
    bound: float
    ok: bool
    bipartite_ok: bool
    note: str = ""


def wolff_bound_check(
    F: np.ndarray,
    G: np.ndarray,
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
    pair = BipartitePair(F, G, t)
    nf, ng = len(pair.F), len(pair.G)
    if not nf or not ng:
        raise ValueError("both families must be nonempty")
    if mu < 1 or nu < 1:
        raise ValueError("richness thresholds must be positive integers")
    report = validate_bipartite(pair)
    count = len(max_incomparable_rich(pair.F, pair.G, delta, t, mu, nu))
    bound = (nf * ng) ** 0.1 * ((nf * ng / (mu * nu)) ** 0.75 + nf / mu + ng / nu)
    return WolffCheck(
        count=count,
        bound=bound,
        ok=count <= k_eps * bound,
        bipartite_ok=report.ok,
        note=report.note,
    )


@functools.lru_cache(maxsize=1)
def _concentration_profile(
    shape: tuple[int, int], coeffs: bytes, delta: float, probes: ProbeSpec
) -> tuple[tuple[int, float, int, float, float, int], ...]:
    """(max count, t, #Q, sigma, midpoint, anchor curve) for every (sigma, t) level.

    Levels run over dyadic sigma in [delta, 1] and, for each, dyadic t in
    [sigma, 1].  The probe of a level is the first one reaching its maximum
    tangent count, in (midpoint, quantized anchor jet) order.  The profile
    does not depend on alpha, so the last one is kept for the next call: an
    alpha sweep computes it once.  The family is keyed by its shape and the
    bytes of its (n, 3) coefficient rows plus 0.0, so equal families are one
    key (-0.0 and 0.0 coefficients are equal) and give one profile.
    """
    qc = np.frombuffer(coeffs).reshape(shape)
    n = len(qc)
    profile = []
    for sigma in _dyadic_down(1.0, delta):
        for t in _dyadic_down(1.0, sigma):
            length = math.sqrt(sigma / t)
            mids = _subsample(_anchor_grid(length), probes.max_anchor_midpoints)
            root_st = math.sqrt(sigma * t)
            vals, ders, curv = jets = _jets_at(qc, mids)
            # anchors: the first curve of each distinct quantized jet, in
            # lexicographic (midpoint, key) order; the sort must be stable, and
            # keys compare by value (not bits), so -0.0 and 0.0 are one key
            keys = (
                np.repeat(np.arange(len(mids)), n),
                np.round(vals / (0.5 * sigma)).ravel(),
                np.round(ders / (0.5 * root_st)).ravel(),
                np.round(curv / (0.5 * t)).ravel(),
            )
            order = np.lexsort(keys[::-1])
            same = np.ones(len(order) - 1, dtype=bool)
            for k in keys:
                ks = k[order]
                same &= ks[1:] == ks[:-1]
            am, ai = np.divmod(order[np.concatenate(([True], ~same))], n)

            counts = _jet_window_counts(jets, jets, am, ai, sigma, t)
            k = int(np.argmax(counts))  # the first maximum in anchor order
            profile.append((int(counts[k]), t, n, sigma, float(mids[am[k]]), int(ai[k])))
    return tuple(profile)


def _quad_witness(count, t, n, sigma, mid, i) -> str:
    return (
        f"sigma={sigma:.6g} t={t:.6g} midpoint={mid:.6g} "
        f"anchor_curve={i} tangent={count}/{n}"
    )


def quad_broadness(
    Q: np.ndarray,
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
    reaching it, in (midpoint, quantized anchor jet) order.  `_fold` folds
    the levels in order (sigma descending, then t descending), and a later
    level replaces the witness only if its ratio is strictly greater.

    Raises ValueError for an empty family, a non-finite coefficient, an alpha
    that is negative or not finite, or a delta that is not finite and > 0.
    """
    qc = coeff_array(Q)
    if not len(qc):
        raise ValueError("family must be nonempty")
    probes = probes or ProbeSpec()
    key = qc.shape, (qc + 0.0).tobytes()
    return _fold(alpha, lambda: _concentration_profile(*key, delta, probes), _quad_witness)


def classify_broad_narrow(S: CurviRect, G: np.ndarray, K: float) -> tuple[bool, int, int]:
    """Classify a (sigma, t)-rectangle by the transversality of its tangent pairs.

    Counts ordered pairs (g1, g2) of tangent curves with
    sigma*t/K <= Delta(g1, g2) <= sigma*t; broad means at least half of all
    ordered pairs (diagonal included in the total) are transverse.  The
    ordered pairs are gauged _PAIR_CHUNK at a time, so memory stays bounded
    for any number of tangent curves.
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
    transverse = 0
    pairs = n * (n - 1)
    for k in range(0, pairs, _PAIR_CHUNK):
        # pair k is (i, j) with j != i, in row-major order
        ii, r = np.divmod(np.arange(k, min(k + _PAIR_CHUNK, pairs)), n - 1)
        dv = jet_gauges(tangent[ii] - tangent[r + (r >= ii)])[1]
        transverse += int(((sigma * t / K <= dv) & (dv <= sigma * t)).sum())
    return (transverse >= total / 2.0, transverse, total)
