"""Planar quadratic engine: jet gauges, near-intersection structure, tangency.

A quadratic (a, b, c) is the function s -> (a/2) s^2 + b s + c, so the
coefficient triple is exactly the 2-jet at 0 up to the usual factor: f'' = a,
f'(s) = a s + b.  Two gauges drive everything downstream:

  * tau(f, g)   = sup over the domain of |h| + |h'| + |h''|,  h = f - g
  * Delta(f, g) = inf over the domain of |h| + |h'|

tau is a norm-induced metric on coefficient triples, Delta a pseudo-metric
that measures how deeply the two graphs are tangent.  Both are exact: the
batch kernel `jet_gauges` takes an (n, 3) array of coefficient differences h
and evaluates |h| + |h'| at the at most 7 closed-form candidates of each row
(2 endpoints, 2 roots of h, the root of h', 2 points where h' = +-h''), laid
out column-major as a (7, n) array.  `tau` and `delta_gauge` call it on one
pair of `Quadratic`s or on two (n, 3) coefficient arrays.  `in_jet_window`
is the one (C*delta, C*sqrt(delta*t), C*t) jet window of tangency and
comparability.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quadratic",
    "Interval",
    "CurviRect",
    "BipartitePair",
    "BipartiteReport",
    "PLANAR_DOMAIN",
    "tau",
    "delta_gauge",
    "jet_gauges",
    "tau_bounds",
    "near_intersection_intervals",
    "in_jet_window",
    "is_tangent_jet",
    "is_tangent_containment",
    "comparable",
    "dt_rectangle",
    "rect_t_scale",
    "coeff_array",
    "validate_bipartite",
]


@dataclass(frozen=True)
class Quadratic:
    """The quadratic s -> (a/2) s^2 + b s + c, identified with (a, b, c)."""

    a: float
    b: float
    c: float

    def __call__(self, s: float):
        return (0.5 * self.a * s + self.b) * s + self.c

    def deriv(self, s: float):
        return self.a * s + self.b

    def sub(self, other: "Quadratic") -> "Quadratic":
        return Quadratic(self.a - other.a, self.b - other.b, self.c - other.c)

    @staticmethod
    def from_jet(theta: float, value: float, slope: float, curvature: float) -> "Quadratic":
        """The unique quadratic with the given 2-jet at theta."""
        b = slope - curvature * theta
        c = value - slope * theta + 0.5 * curvature * theta * theta
        return Quadratic(curvature, b, c)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, s: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= s <= self.hi + slack

    def shrink(self, factor: float) -> "Interval":
        """Concentric interval with length scaled by 1/factor."""
        half = 0.5 * self.length / factor
        return Interval(self.mid - half, self.mid + half)


PLANAR_DOMAIN = Interval(-5.0, 5.0)


@dataclass(frozen=True)
class CurviRect:
    """Vertical delta-neighbourhood of the `center` graph over `base`.

    When base.length == sqrt(thickness / t) the rectangle is a
    (thickness, t)-rectangle; `rect_t_scale` recovers t.
    """

    center: Quadratic
    base: Interval
    thickness: float

    def __post_init__(self):
        if not (self.thickness > 0.0):
            raise ValueError(f"rectangle thickness must be positive, got {self.thickness}")
        if self.base.length <= 0.0:
            raise ValueError("rectangle base must have positive length")


def rect_t_scale(rect: CurviRect) -> float:
    """The t for which rect is a (delta, t)-rectangle: t = delta / |base|^2."""
    return rect.thickness / (rect.base.length ** 2)


def dt_rectangle(center: Quadratic, midpoint: float, delta: float, t: float) -> CurviRect:
    """(delta, t)-rectangle on `center` with the given base midpoint."""
    if not (0.0 < delta <= t <= 1.0):
        raise ValueError(f"need 0 < delta <= t <= 1, got delta={delta}, t={t}")
    half = 0.5 * math.sqrt(delta / t)
    return CurviRect(center, Interval(midpoint - half, midpoint + half), delta)


def _roots(da, db, dc):
    """The roots 2q/da and dc/q of (da/2) s^2 + db s + dc by rows, with
    q = -(db + sign(db) sqrt(disc))/2, safe for tiny da: NaN where there is
    none (both for disc < 0, dc/q for q == 0, whose double root is 0); for
    da == 0, q = -db makes dc/q the root of the linear h.  Overflow is +-inf."""
    quad = da != 0.0
    disc = db * db - 2.0 * da * dc
    np.copyto(disc, np.nan, where=disc < 0.0)
    q = -0.5 * (db + np.copysign(np.sqrt(disc), db))
    np.negative(db, out=q, where=~quad)
    with np.errstate(over="ignore"):
        return 2.0 * q / np.where(quad, da, np.nan), dc / np.where(q != 0.0, q, np.nan)


def jet_gauges(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tau, Delta) of each row of h: the max of |h| + |h'| over the row's
    candidates plus |h''|, and the min.  The candidates are the rows of a
    (7, n) array over the columns da, db, dc of h; the roots of h are
    `_roots`.  A candidate that does not exist is NaN, which the domain test
    drops, so no division is by zero.  Raises ValueError if an entry of h is
    not finite.

    With every |entry| <= 2^510 no product or sum can overflow (the largest,
    db^2 - 2 da dc and 18.5|da| + 6|db| + |dc|, stay below 2^1022).  Past
    that, a row whose operations overflow is gauged again scaled by a power
    of two into [1/2, 1) and scaled back, so it gets +-inf only where its
    gauge passes the largest float, and no warning; every other row keeps
    the unscaled operations and their bits."""
    hc = np.ascontiguousarray(np.transpose(h), dtype=np.float64)
    top = np.abs(hc).max(initial=0.0)
    if not top < math.inf:
        raise ValueError("jet gauges need finite coefficient differences")
    if top <= _UNSCALED:
        return _jet_rows(*hc)
    with np.errstate(over="ignore", invalid="ignore"):
        t, d = _jet_rows(*hc)
        da, db, dc = hc
        # an overflow shows in `_roots`' disc (while it is finite, so is
        # q = -(db + sign(db) sqrt(disc))/2) or in tau
        over = ~np.isfinite(db * db - 2.0 * da * dc) | ~np.isfinite(t)
        e = np.frexp(np.abs(hc[:, over]).max(axis=0))[1]
        ts, ds = _jet_rows(*np.ldexp(hc[:, over], -e))
        t[over], d[over] = np.ldexp(ts, e), np.ldexp(ds, e)
    return t, d


# jet_gauges' bound on the entries of rows that need no overflow test
_UNSCALED = 2.0 ** 510


def _jet_rows(da, db, dc):
    lo, hi = PLANAR_DOMAIN.lo, PLANAR_DOMAIN.hi
    a1 = np.where(da != 0.0, da, np.nan)
    s = np.empty((7, len(da)))
    s[0], s[1] = lo, hi
    # a root or candidate past the largest float is +-inf, which the domain
    # test drops like a NaN
    s[2], s[3] = _roots(da, db, dc)
    with np.errstate(over="ignore"):
        # h' = 0, h' = h'' and h' = -h''
        np.divide(-db, a1, out=s[4])
        np.divide(da - db, a1, out=s[5])
        np.divide(-da - db, a1, out=s[6])
    np.copyto(s, lo, where=~((s >= lo) & (s <= hi)))
    v = 0.5 * da * s
    v += db
    v *= s
    v += dc
    np.abs(v, out=v)
    s *= da
    s += db
    v += np.abs(s, out=s)
    return v.max(axis=0) + np.abs(da), v.min(axis=0)


def tau_bounds(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of each row of h such that lower <= tau <= upper for
    the tau that `jet_gauges` returns, at a fraction of its cost.

    lower is jet_gauges' own two endpoint candidates s = lo, hi by its
    operations in its order, their max plus |da|: those floats are among its
    candidates, so lower never exceeds its tau.  upper is
    max |h| + max |h'| + |da| over the domain plus a rounding margin
    64 eps M + 64 * 2^-1074, with M = 18.5|da| + 6|db| + |dc|: max |h| is
    |h| at lo, at hi or at the vertex -db/da when it lies inside, and
    max |h'| = |db| + 5|da|.  On the domain (|s| <= 5) every term of tau
    and of upper has size at most M, and each is a chain of a few rounded
    operations, so a computed value is within a few eps M of its exact value
    and the exact value at a candidate of jet_gauges is at most the exact
    max: the margin covers the error of both computations many times over.
    The absolute term covers products that round to subnormals, where the
    error is absolute, not relative.  Raises ValueError if an entry of h is
    not finite; a finite row too large for floats gets infinite bounds."""
    if not np.isfinite(h).all():
        raise ValueError("tau bounds need finite coefficient differences")
    da, db, dc = hc = np.ascontiguousarray(np.transpose(h), dtype=np.float64)
    s = np.array([[PLANAR_DOMAIN.lo], [PLANAR_DOMAIN.hi]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = 0.5 * da * s
        v += db
        v *= s
        v += dc
        np.abs(v, out=v)
        d = da * s
        d += db
        np.abs(d, out=d)
        ah = np.abs(hc)
        lower = np.maximum(*(v + d))
        lower += ah[0]
        # h(-db/da) = dc - db^2 / (2 da); the vertex is inside iff |db| < 5|da|
        vertex = db / da
        vertex *= db
        vertex *= 0.5
        np.subtract(dc, vertex, out=vertex)
        np.abs(vertex, out=vertex)
        upper = np.maximum(*v)
        np.maximum(upper, vertex, out=upper, where=ah[1] < 5.0 * ah[0])
        # + max |h'| + |da| + the margin
        ah *= _TAU_TAIL
        upper += ah.sum(axis=0, initial=_TINY)
    return lower, upper


# tau_bounds' weights of |da|, |db|, |dc| in |db| + 6|da| + 64 eps M, and
# its absolute margin
_TAU_TAIL = np.array([[6.0], [1.0], [0.0]]) + 64.0 * np.finfo(np.float64).eps * np.array(
    [[18.5], [6.0], [1.0]])
_TINY = 64.0 * np.finfo(np.float64).smallest_subnormal


def _difference(f, g) -> np.ndarray:
    """f - g as an (n, 3) array, one row for two `Quadratic`s."""
    if isinstance(f, Quadratic) and isinstance(g, Quadratic):
        return np.array([[f.a - g.a, f.b - g.b, f.c - g.c]], dtype=np.float64)
    f, g = np.asarray(f, dtype=np.float64), np.asarray(g, dtype=np.float64)
    if f.shape != g.shape or f.ndim != 2 or f.shape[1] != 3:
        raise ValueError(f"need two Quadratics or two (n, 3) arrays, got {f.shape} and {g.shape}")
    return f - g


def _gauges(f, g):
    """jet_gauges of f - g: floats for two `Quadratic`s, arrays for (n, 3) arrays."""
    t, d = jet_gauges(_difference(f, g))
    return (float(t[0]), float(d[0])) if isinstance(f, Quadratic) else (t, d)


def tau(f, g):
    """sup over the planar domain of |h| + |h'| + |h''| for h = f - g; for
    two (n, 3) coefficient arrays, the array of row-pair values."""
    return _gauges(f, g)[0]


def delta_gauge(f, g):
    """inf over the planar domain of |h| + |h'| for h = f - g; 0 iff graphs
    share a point with a common tangent line (inside the domain).  Two
    (n, 3) coefficient arrays give the array of row-pair values."""
    return _gauges(f, g)[1]


def _sublevel_pieces(a, b, c):
    """{s : (a/2) s^2 + b s + c <= 0} of each row as two pieces, (n, 2) arrays
    lo and hi, a missing piece with a NaN end: the roots' interval (a > 0),
    the outer rays or the line (a < 0), a ray, the line or nothing (a == 0)."""
    r1, r2 = _roots(a, b, c)
    rlo, rhi = np.fmin(r1, r2), np.fmax(r1, r2)
    flat, rays = a == 0.0, (a < 0.0) & (r2 == r2)  # rays: a < 0 with two roots
    lo = np.where(a > 0.0, rlo, np.where(flat & (b < 0.0), r2, -np.inf))
    hi = np.where(a > 0.0, rhi, np.where(rays, rlo, np.where(flat & (b > 0.0), r2, np.inf)))
    lo[flat & (b == 0.0) & (c > 0.0)] = np.nan
    return (np.stack([lo, np.where(rays, rhi, np.nan)], axis=1),
            np.stack([hi, np.where(rays, np.inf, np.nan)], axis=1))


def near_intersection_intervals(f, g, delta, window: Interval):
    """The set {s in window : |f(s) - g(s)| <= delta} as exact closed intervals.

    The set is the intersection of two quadratic sublevel sets, hence always
    a union of at most two intervals; a RuntimeError flags any violation of
    that structure (it would be an implementation bug, not an input issue).
    Callers studying the fine structure pass window = I/4.  Two `Quadratic`s
    give a list of `Interval`s, two (n, 3) coefficient arrays an (n, 2, 2)
    array of each row's pieces [lo, hi] in increasing order, NaN where it has
    fewer; with arrays, delta may also be one per row.  A non-finite delta
    or coefficient difference raises ValueError.
    """
    d = np.asarray(delta)
    if not np.all((0.0 < d) & (d < math.inf)):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    h = _difference(f, g)
    if not np.isfinite(h).all():
        raise ValueError("near-intersection needs finite coefficient differences")
    n = len(h)
    # rows n.. of the sublevel sets solve -h <= delta, that is h >= -delta
    a, b, c = np.concatenate([h, -h]).T.copy()
    lo, hi = _sublevel_pieces(a, b, c - np.broadcast_to(delta, (2, n)).ravel())
    # the four intersections of an upper and a lower piece, clipped to the
    # window; an empty one (or one with a NaN end) sorts last
    lo = np.maximum(np.maximum(lo[:n, :, None], lo[n:, None, :]), window.lo).reshape(n, 4)
    hi = np.minimum(np.minimum(hi[:n, :, None], hi[n:, None, :]), window.hi).reshape(n, 4)
    lo = np.where(lo <= hi, lo, np.inf)
    order = np.argsort(lo, axis=1, kind="stable")
    lo, hi = np.take_along_axis(lo, order, 1), np.take_along_axis(hi, order, 1)
    # a piece joins the one before unless it starts more than 1e-15 past the
    # largest hi so far, which is the merged hi before it
    start = lo < np.inf
    start[:, 1:] &= lo[:, 1:] > np.maximum.accumulate(hi, axis=1)[:, :-1] + 1e-15
    group = np.where(lo < np.inf, np.cumsum(start, axis=1) - 1, -1)
    if group.max(initial=0) > 1:
        raise RuntimeError(f"near-intersection set split into {group.max() + 1} intervals")
    mine = group[:, None, :] == np.arange(2)[:, None]  # (row, piece, sorted piece)
    pieces = np.stack([np.where(mine, lo[:, None], np.inf).min(axis=2),
                       np.where(mine, hi[:, None], -np.inf).max(axis=2)], axis=2)
    pieces[pieces[..., 0] > pieces[..., 1]] = np.nan  # (inf, -inf): no such piece
    if isinstance(f, Quadratic):
        return [Interval(lo, hi) for lo, hi in pieces[0].tolist() if lo <= hi]
    return pieces


def _jet_window_bounds(c: float, delta: float, t):
    """The bounds (c*delta, c*sqrt(delta*t), c*t) of the jet window."""
    return c * delta, c * np.sqrt(delta * t), c * t


def in_jet_window(dv, ds, da, c: float, delta: float, t):
    """Whether value, slope and curvature differences lie within
    `_jet_window_bounds`; a numpy bool for scalars, a mask for arrays."""
    bv, bs, bc = _jet_window_bounds(c, delta, t)
    return (abs(dv) <= bv) & (abs(ds) <= bs) & (abs(da) <= bc)


def is_tangent_jet(f: Quadratic, rect: CurviRect, c_jet: float = 4.0) -> bool:
    """Jet tangency test at the base midpoint.

    With t recovered from |base| = sqrt(delta/t), requires
    |h| <= C*delta, |h'| <= C*sqrt(delta*t), |h''| <= C*t at the midpoint.
    """
    delta = rect.thickness
    t = rect_t_scale(rect)
    if not (delta * (1.0 - 1e-9) <= t <= 1.0 + 1e-9):
        raise ValueError(
            f"base length {rect.base.length} implies t={t}, outside [delta, 1]"
        )
    theta = rect.base.mid
    h = f.sub(rect.center)
    return bool(in_jet_window(h(theta), h.deriv(theta), h.a, c_jet, delta, t))


def is_tangent_containment(f: Quadratic, rect: CurviRect, c_tan: float = 4.0) -> bool:
    """True iff rect is contained in the C*delta-neighbourhood of f over its base.

    Both sets are bundles of vertical intervals over the base, so containment
    is exactly sup over the base of |f - center| <= (C - 1)*delta; the sup of
    the quadratic difference is evaluated at the base endpoints and at the
    vertex of the difference.
    """
    h = f.sub(rect.center)
    sup = max(abs(h(rect.base.lo)), abs(h(rect.base.hi)))
    if h.a != 0.0:
        vertex = -h.b / h.a
        if rect.base.contains(vertex):
            sup = max(sup, abs(h(vertex)))
    return sup <= (c_tan - 1.0) * rect.thickness


def comparable(r1: CurviRect, r2: CurviRect, c_cmp: float = 10.0) -> bool:
    """Whether two (delta, t)-rectangles fit inside a common (C*delta, t)-one.

    Transcribed to jets: base midpoints within C*sqrt(delta/t) and the 2-jets
    of the two center curves at the joint midpoint within
    (C*delta, C*sqrt(delta*t), C*t).
    """
    d1, d2 = r1.thickness, r2.thickness
    t1, t2 = rect_t_scale(r1), rect_t_scale(r2)
    if abs(d1 - d2) > 1e-9 * max(d1, d2) or abs(t1 - t2) > 1e-9 * max(t1, t2):
        raise ValueError(
            f"comparability needs matching (delta, t); got ({d1}, {t1}) vs ({d2}, {t2})"
        )
    h = r1.center.sub(r2.center)
    return bool(_comparable_mask(r1.base.mid, r2.base.mid, (h.a, h.b, h.c), d1, t1, c_cmp))


def _comparable_mask(m1, m2, h, delta: float, t, c_cmp: float = 10.0):
    """`comparable` on arrays: base midpoints m1 and m2, the coefficients
    h = (a, b, c) of r1.center - r2.center, the common delta and r1's t."""
    ha, hb, hc = h
    joint = 0.5 * (m1 + m2)
    value, slope = (0.5 * ha * joint + hb) * joint + hc, ha * joint + hb
    near = np.abs(m1 - m2) <= c_cmp * np.sqrt(delta / t)
    return near & in_jet_window(value, slope, ha, c_cmp, delta, t)


@dataclass(frozen=True)
class BipartitePair:
    """Two families with cross tau in [rho, 100*rho] and in-family tau <= rho."""

    F: tuple[Quadratic, ...]
    G: tuple[Quadratic, ...]
    rho: float

    def __post_init__(self):
        if not (0.0 < self.rho < math.inf):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        object.__setattr__(self, "F", tuple(self.F))
        object.__setattr__(self, "G", tuple(self.G))


@dataclass
class BipartiteReport:
    ok: bool
    within_max: float
    cross_min: float
    cross_max: float
    separation_min: float = math.inf
    pairs_checked: int = 0
    note: str = ""


# rows per jet_gauges call in validate_bipartite and the ball lattice; bounds
# their working memory
_PAIR_CHUNK = 4096


def _pair_differences(P: np.ndarray, Q: np.ndarray, max_pairs: int, seed: int, within: bool):
    """Blocks of the rows P[i] - Q[j] over the pairs validate_bipartite
    checks, at most _PAIR_CHUNK rows each: every pair in row-major order
    (only i < j `within` a family) while they are at most max_pairs, else
    max_pairs seeded draws (keeping those with i < j within a family).  The
    differences are formed on the coefficient rows a, b, c, so a block is an
    (m, 3) view of a (3, m) array that jet_gauges reads without a copy.  An
    exhaustive block covers some rows i and columns j: across families one
    broadcast subtraction, within one only its pairs i < j, each row i
    repeated against a gather of its columns."""
    P, Q = np.ascontiguousarray(P.T), np.ascontiguousarray(Q.T)
    n1, n2 = P.shape[1], Q.shape[1]
    if (n1 * (n1 - 1) // 2 if within else n1 * n2) <= max_pairs:
        step = max(1, _PAIR_CHUNK // max(n2, 1))
        # within a family, the columns of rows i.. start at i + 1
        for i in range(0, n1 - within, step):
            for j in range(i + 1 if within else 0, n2, _PAIR_CHUNK):
                if within:  # row r takes the columns max(j, r + 1) .. of the block
                    first = np.maximum(j, np.arange(i + 1, min(i + step, n1) + 1))
                    k = np.maximum(min(j + _PAIR_CHUNK, n2) - first, 0)
                    cols = np.arange(k.sum()) + np.repeat(first + k - np.cumsum(k), k)
                    h = P[:, i : i + step].repeat(k, axis=1) - Q.take(cols, axis=1)
                else:
                    h = P[:, i : i + step, None] - Q[:, None, j : j + _PAIR_CHUNK]
                yield h.reshape(3, -1).T
        return
    rng = np.random.default_rng(seed)
    ii, jj = rng.integers(0, n1, size=max_pairs), rng.integers(0, n2, size=max_pairs)
    if within:
        keep = ii < jj
        ii, jj = ii[keep], jj[keep]
    for k in range(0, len(ii), _PAIR_CHUNK):
        yield (P.take(ii[k : k + _PAIR_CHUNK], axis=1) - Q.take(jj[k : k + _PAIR_CHUNK], axis=1)).T


def _tau_ranges(segments) -> list[tuple[float, float, int]]:
    """For each segment, an iterable of difference blocks: the (min, max) of
    tau over its rows, or (inf, 0) if there are none, and the number of rows.

    `tau_bounds` settles most rows.  A row stays if its upper bound reaches
    the segment's best lower bound so far (it may hold the max) or its lower
    bound is at most the best upper bound so far (it may hold the min); the
    survivors are pruned again against the segment's final bests.  Those of
    all segments then go to `jet_gauges` together, at most _PAIR_CHUNK rows
    per call.  A row's tau does not depend on its block, so the extremes are
    those of `jet_gauges` on every row, bit for bit."""
    kept, rows = [], []
    for blocks in segments:
        best_lower, best_upper, n = 0.0, math.inf, 0
        parts = [np.zeros((5, 0))]  # rows da, db, dc, lower, upper
        for h in blocks:
            lower, upper = tau_bounds(h)
            best_lower = float(lower.max(initial=best_lower))
            best_upper = float(upper.min(initial=best_upper))
            keep = np.flatnonzero((upper >= best_lower) | (lower <= best_upper))
            parts.append(np.vstack([h.T.take(keep, axis=1), lower.take(keep), upper.take(keep)]))
            n += len(h)
        part = np.concatenate(parts, axis=1)
        kept.append(part[:3, (part[4] >= best_lower) | (part[3] <= best_upper)])
        rows.append(n)
    h = np.concatenate(kept, axis=1)
    tv = np.empty(h.shape[1])
    for k in range(0, len(tv), _PAIR_CHUNK):
        tv[k : k + _PAIR_CHUNK] = jet_gauges(h[:, k : k + _PAIR_CHUNK].T)[0]
    ends = np.cumsum([0] + [k.shape[1] for k in kept]).tolist()
    return [(float(tv[a:b].min(initial=math.inf)), float(tv[a:b].max(initial=0.0)), n)
            for a, b, n in zip(ends, ends[1:], rows)]


def validate_bipartite(pair: BipartitePair, separation: float | None = None) -> BipartiteReport:
    """Check the bipartite window, exhaustively when small, sampled when large.

    Cross pairs are all checked when #F * #G <= 200,000, and the n(n-1)/2
    pairs i < j of a family of n curves when they are at most 100,000;
    beyond that the check runs on 200,000 (cross) or 100,000 (per family)
    seeded draws, keeping the draws with i < j within a family.

    The extremes of tau over those pairs come from `_tau_ranges`: cheap
    `tau_bounds` settle most rows, and `jet_gauges` gauges only the rows
    that may hold an extreme, so every figure equals that of `jet_gauges` on
    every pair, bit for bit, and `pairs_checked` counts every pair.  The
    within-family pairs of F and G are one segment, since `within_max` and
    the separation span both families.

    If `separation` is given, also checks that each family is that separated
    in tau (on the same pair sample); a non-finite coefficient raises ValueError.
    """
    F, G, rho = coeff_array(pair.F), coeff_array(pair.G), pair.rho
    within = itertools.chain.from_iterable(
        _pair_differences(fam, fam, 100_000, 0, within=True) for fam in (F, G))
    cross = _pair_differences(F, G, 200_000, 1, within=False)
    (sep_min, within_max, within_pairs), (cross_min, cross_max, cross_pairs) = _tau_ranges(
        [within, cross])
    checked = within_pairs + cross_pairs
    slack = 1.0 + 1e-9  # float headroom: window edges are attained exactly
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


def coeff_array(curves) -> np.ndarray:
    """Stack coefficient triples into an (n, 3) float64 array; raises
    ValueError if a coefficient is not finite."""
    qc = np.array([(q.a, q.b, q.c) for q in curves], dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(qc).all():
        raise ValueError("quadratic coefficients must be finite")
    return qc
