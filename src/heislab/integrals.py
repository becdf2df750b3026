"""Bilinear integral estimators and scaling-exponent extraction.

The left sides of the bilinear estimates are integrals of
(multiplicity_1)^p * (multiplicity_2)^p, and each estimator has one method.
The Heisenberg tube integrals are Monte Carlo with deterministic,
shard-indexed sample substreams: a fixed seed gives bit-identical results for
any worker count.  `bilinear_tube_integral` draws columns (x, y) and
integrates each column's t exactly, from the tubes' closed-form t-sections
(conditional Monte Carlo); `bilinear_integral_from_multiplicity` draws points
in a box for any two multiplicity callables.  The planar strip integral
`bilinear_curve_integral` is an exact grid sum that builds no dense grid: it
counts the cells of each (m1, m2) pair exactly, on the window of each column
where both families' strips can meet, and adds count * m1^p * m2^p over the
pairs, rounded once.  Powers come from one table arange(K)^p, in the sampling
engine too.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _bulk
from .quadratics import coeff_array
from .tubes import HTube, MCEstimate, tube_bounding_box, tube_multiplicity, tube_params

__all__ = [
    "ExponentFit",
    "fit_exponent",
    "rhs_bilinear",
    "tube_multiplicity",
    "bilinear_tube_integral",
    "bilinear_curve_integral",
    "bilinear_integral_from_multiplicity",
    "section_mismatch",
    "strip_multiplicity",
]

_SHARD = 65536
# cells per axis of the finest curve grid: the default spacing delta/4 has no
# floor, and delta = 1e-9 asked numpy for 29.8 GiB; the experiments' finest
# grid is 4,096 (opposed-pair-scaling at delta = 2^-10)
_GRID_AXIS_MAX = 2 ** 16
# (column, section end) entries per block of the column sweep: each of its
# temporaries is 64 KiB and stays in cache; this measured about 20 % faster
# per column than blocks of _SHARD entries on a 2-vCPU machine
_SWEEP_BLOCK = 8192


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log(value) against log(delta) over a ladder."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def fit_exponent(points) -> ExponentFit:
    """OLS of log value on log delta; the slope is the empirical exponent."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 ladder points, got {len(pts)}")
    for d, v in pts:
        if not (math.isfinite(d) and d > 0.0 and math.isfinite(v)):
            raise ValueError(f"need a finite delta > 0 and a finite value, got {v} at delta={d}")
        if not (v > 0.0):
            raise ValueError(f"nonpositive value {v} at delta={d}")
    x = np.log([d for d, _ in pts])
    y = np.log([v for _, v in pts])
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    sst = float(((y - ym) ** 2).sum())
    ssr = float((resid ** 2).sum())
    r2 = 1.0 if sst <= 1e-30 else max(0.0, 1.0 - ssr / sst)
    return ExponentFit(slope, intercept, r2, tuple(zip(x.tolist(), y.tolist())))


def rhs_bilinear(
    n1: int, n2: int, delta: float, p: float, form: str, rho: float | None = None
) -> float:
    """Right sides of the bilinear estimates (epsilon loss dropped).

    tube:  delta^4 * (n1^p n2^p + n1 + n2)
    curve: rho^(-1/2) delta^(3/2) * (n1^p n2^p + n1 + n2)
    naive: delta^4 * n1^(3/4) n2^(3/4)
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("family counts must be at least 1")
    if form == "tube":
        return delta ** 4 * (n1 ** p * n2 ** p + n1 + n2)
    if form == "curve":
        if rho is None:
            raise ValueError("curve form needs rho")
        return rho ** -0.5 * delta ** 1.5 * (n1 ** p * n2 ** p + n1 + n2)
    if form == "naive":
        return delta ** 4 * n1 ** 0.75 * n2 ** 0.75
    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# tube integrals


def _default_tube_region(params: np.ndarray, k: int) -> np.ndarray | None:
    """Intersection of the bounding boxes of two families, the first k and
    the other columns of a `tube_params` table: the support of the
    multiplicity product, wherever the families sit (None if empty)."""
    boxes = tube_bounding_box(params)
    lo = np.maximum(boxes[:k, :, 0].min(axis=0), boxes[k:, :, 0].min(axis=0))
    hi = np.minimum(boxes[:k, :, 1].max(axis=0), boxes[k:, :, 1].max(axis=0))
    return None if np.any(lo >= hi) else np.stack([lo, hi], axis=1)


def _as_counts(m) -> np.ndarray:
    """A multiplicity array as nonnegative integers (bool as 0 and 1)."""
    m = np.asarray(m)
    if m.dtype == np.bool_:
        return m.astype(np.int64)
    if m.dtype.kind not in "iu":
        raise ValueError(f"multiplicities must be integers, got dtype {m.dtype}")
    if m.size and m.min() < 0:
        raise ValueError(f"multiplicities must be nonnegative, got {m.min()}")
    return m


def _power_product(m1, m2, p: float) -> np.ndarray:
    """m1^p * m2^p elementwise, both powers looked up in t = arange(K) ** p:
    the same float pow as m.astype(float64) ** p, taken once per value."""
    m1, m2 = _as_counts(m1), _as_counts(m2)
    t = np.arange(max(m1.max(initial=0), m2.max(initial=0)) + 1) ** p
    return t[m1] * t[m2]


def _check_exponent(p: float) -> None:
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"exponent p must be finite and positive, got {p}")


def _check_samples(samples) -> None:
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"sample count must be an integer >= 1, got {samples!r}")


def _sharded_mean(values, n: int, seed: int, workers: int = 1) -> tuple[float, float]:
    """Mean of n draws and its standard error.  values(rng, m) gives m draws
    from a generator; the draws come in shards of `_SHARD`, shard idx from its
    own stream default_rng([seed, idx]), and the shard sums are added in shard
    order by `math.fsum`, so the result is the same for every worker count."""
    n_shards = (n + _SHARD - 1) // _SHARD

    def run_shard(idx: int) -> tuple[float, float]:
        v = values(np.random.default_rng([seed, idx]), min(_SHARD, n - idx * _SHARD))
        return float(v.sum()), float((v * v).sum())

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_shard, range(n_shards)))
    else:
        results = [run_shard(i) for i in range(n_shards)]
    mean = math.fsum(r[0] for r in results) / n
    var = max(math.fsum(r[1] for r in results) / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def bilinear_integral_from_multiplicity(
    m1_fn,
    m2_fn,
    region: np.ndarray,
    p: float,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo integral of m1(x)^p * m2(x)^p over a box from two
    multiplicity callables: `samples` uniform points from the shard-indexed
    streams of `_sharded_mean`; each batch of points goes to m1_fn and then
    to m2_fn."""
    _check_exponent(p)
    _check_samples(samples)
    lo, hi = np.asarray(region, dtype=np.float64).T

    def values(rng, n):
        pts = lo + rng.random((n, len(lo))) * (hi - lo)
        return _power_product(m1_fn(pts), m2_fn(pts), p)

    mean, stderr = _sharded_mean(values, samples, seed, workers)
    vol = float(np.prod(hi - lo))
    return MCEstimate(vol * mean, vol * stderr, samples)


def _column_integrator(params: np.ndarray, k1: int, p: float):
    """The function (x, y) -> per column, the integral over t of
    m1(x, y, t)^p * m2(x, y, t)^p, m1 counting the first k1 tubes of a
    `tube_params` table and m2 the others.

    Each tube's t-section above a column is one interval, `_bulk.tube_sections`.
    Per block of columns the section ends are sorted; the sweep key
    m1 + (k1 + 1) * m2 steps at each end (lo ends first among equal values,
    so neither count drops below 0), and each gap between neighbouring ends
    adds its length times the key's weight, from `_power_product`'s table.
    """
    k2 = params.shape[1] - k1
    step = np.concatenate([np.ones(k1, dtype=np.int64), np.full(k2, k1 + 1)])
    step = np.concatenate([step, -step])
    key = np.arange((k1 + 1) * (k2 + 1))
    weight = _power_product(key % (k1 + 1), key // (k1 + 1), p)
    block = max(1, _SWEEP_BLOCK // len(step))

    def integrate(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.empty(len(x))
        for start in range(0, len(x), block):
            cols = slice(start, start + block)
            lo, hi = _bulk.tube_sections(x[cols, None], y[cols, None], params[:3], *params[3:])
            ends = np.concatenate([lo, hi], axis=1)
            order = np.argsort(ends, axis=1, kind="stable")
            gaps = np.diff(np.take_along_axis(ends, order, axis=1), axis=1)
            keys = np.cumsum(step[order[:, :-1]], axis=1)
            out[cols] = (gaps * weight[keys]).sum(axis=1)
        return out

    return integrate


def bilinear_tube_integral(
    t1: list[HTube],
    t2: list[HTube],
    p: float,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> MCEstimate:
    """Integral of (sum of t1 indicators)^p * (sum of t2 indicators)^p.

    The integrand vanishes outside the intersection of the two families'
    bounding boxes.  max(1, samples // (len(t1) + len(t2))) uniform columns
    (x, y) are drawn in that box's horizontal rectangle, with the
    shard-indexed streams of `_sharded_mean`, and above each the integral
    over t is exact (`_column_integrator`): conditional Monte Carlo.  So
    `samples` counts (column, tube) sections, and `MCEstimate.samples` is the
    number of columns.
    """
    _check_exponent(p)
    _check_samples(samples)
    if not t1 or not t2:
        raise ValueError("tube families must be nonempty")
    params = tube_params(t1 + t2)
    region = _default_tube_region(params, len(t1))
    if region is None:
        return MCEstimate(0.0, 0.0, 0)
    integrate = _column_integrator(params, len(t1), p)
    lo, hi = region[:2, 0], region[:2, 1]

    def values(rng, n):
        u = rng.random((2, n))
        return integrate(lo[0] + u[0] * (hi[0] - lo[0]), lo[1] + u[1] * (hi[1] - lo[1]))

    columns = max(1, samples // (len(t1) + len(t2)))
    mean, stderr = _sharded_mean(values, columns, seed, workers)
    area = float(np.prod(hi - lo))
    return MCEstimate(area * mean, area * stderr, columns)


def section_mismatch(t1: list[HTube], t2: list[HTube], rng, probes: int) -> str:
    """Oracle check of the t-sections behind `bilinear_tube_integral`.

    Draws `probes` columns uniformly in the integration rectangle, and above
    each a t uniform over the hull of that column's nonempty sections.  At
    each probe the number of each family's sections that hold t must equal
    `tube_multiplicity`, the exact kernel's count.  Returns '' when every
    probe agrees, else the first probe that does not: its point and both
    pairs of counts.
    """
    params = tube_params(t1 + t2)
    region = _default_tube_region(params, len(t1))
    if region is None:
        return ""
    u = rng.random((3, probes))
    x, y = (region[i, 0] + u[i] * (region[i, 1] - region[i, 0]) for i in (0, 1))
    lo, hi = _bulk.tube_sections(x[:, None], y[:, None], params[:3], *params[3:])
    # a column with no nonempty section is probed on the hull of its empty ones
    full = lo < hi
    hull = full | ~full.any(axis=1, keepdims=True)
    bottom = np.where(hull, lo, np.inf).min(axis=1)
    t = bottom + u[2] * (np.where(hull, hi, -np.inf).max(axis=1) - bottom)
    inside = (lo <= t[:, None]) & (t[:, None] <= hi)
    sections = np.stack([inside[:, : len(t1)].sum(axis=1), inside[:, len(t1) :].sum(axis=1)])
    pts = np.stack([x, y, t], axis=1)
    kernel = np.stack([tube_multiplicity(t1, pts), tube_multiplicity(t2, pts)])
    bad = np.flatnonzero((sections != kernel).any(axis=0))
    if not bad.size:
        return ""
    i = bad[0]
    xi, yi, ti = (float(v[i]) for v in (x, y, t))
    return (f"column ({xi!r}, {yi!r}) t={ti!r}: sections hold "
            f"{sections[0, i]}, {sections[1, i]}, the kernel counts {kernel[0, i]}, {kernel[1, i]}")


def _strip_rows(coeffs: np.ndarray, s_axis: np.ndarray, res: float, delta: float):
    """Yield, per block of curves, the (curves, columns) arrays lo and end of
    the grid rows lo <= r < end whose cell centers satisfy |f(s) - y| <= delta,
    clipped to [0, ny) with ny = len(s_axis); lo >= end means no row.  A block
    holds at most `_SHARD` (curve, column) entries."""
    ny = len(s_axis)
    block = max(1, _SHARD // ny)
    for start in range(0, len(coeffs), block):
        a, b, c = coeffs[start : start + block, :, None].transpose(1, 0, 2)
        f = (0.5 * a * s_axis + b) * s_axis + c
        lo = np.ceil((f - delta) / res - 0.5).astype(np.int64)
        hi = np.floor((f + delta) / res - 0.5).astype(np.int64)
        np.clip(lo, 0, ny, out=lo)
        np.clip(hi, -1, ny - 1, out=hi)
        yield lo, hi + 1


def strip_multiplicity(coeffs, s, y, delta: float) -> np.ndarray:
    """Per point (s[i], y[i]), the number of curves whose strip |f(s) - y| <= delta
    holds it, as int64.  A block holds at most `_SHARD` (curve, point) entries,
    or one curve when there are more points than that."""
    m = np.zeros(len(s), dtype=np.int64)
    block = max(1, _SHARD // max(1, len(s)))
    for start in range(0, len(coeffs), block):
        a, b, c = coeffs[start : start + block, :, None].transpose(1, 0, 2)
        # (0.5 * a * s + b) * s + c - y in place: the same float operations
        f = 0.5 * a * s
        f += b
        f *= s
        f += c
        f -= y
        m += (np.abs(f, out=f) <= delta).sum(axis=0)
    return m


def _column_span(coeffs, s_axis, res, delta) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the least lo and the greatest end over the family's
    nonempty strips (ny and 0 where there is none)."""
    ny = len(s_axis)
    lo_min = np.full(ny, ny, dtype=np.int64)
    end_max = np.zeros(ny, dtype=np.int64)
    for lo, end in _strip_rows(coeffs, s_axis, res, delta):
        valid = lo < end
        np.minimum(lo_min, np.where(valid, lo, ny).min(axis=0), out=lo_min)
        np.maximum(end_max, np.where(valid, end, 0).max(axis=0), out=end_max)
    return lo_min, end_max


def _window_multiplicities(coeffs, s_axis, res, delta, w_lo, w_end, starts) -> np.ndarray:
    """Strip multiplicities on the window cells: column j's rows
    w_lo[j] <= r < w_end[j] from starts[j] on, then one spare slot.  Every
    strip adds +1 at its first row and -1 past its last one inside the
    column, so the spare slot closes the column and one global cumsum
    restarts from 0 in the next."""
    size = int(starts[-1])
    diff = np.zeros(size, dtype=np.int64)
    base = starts[:-1] - w_lo
    for lo, end in _strip_rows(coeffs, s_axis, res, delta):
        np.maximum(lo, w_lo, out=lo)
        np.minimum(end, w_end, out=end)
        keep = lo < end
        cols = np.broadcast_to(base, lo.shape)[keep]
        diff += np.bincount(cols + lo[keep], minlength=size)
        diff -= np.bincount(cols + end[keep], minlength=size)
    return np.cumsum(diff)


def _curve_pair_counts(
    fc: np.ndarray, gc: np.ndarray, n: int, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact histogram of the (m1, m2) pairs with m1, m2 >= 1 over the cells
    of the n x n grid of the unit square: (m1 values, m2 values, cell counts),
    sorted by (m1, m2).  Only the window where both families' strips can meet
    is visited: in each column, from the higher of the two families' lowest
    strip rows to the lower of their highest.  No array is larger than that
    window or a block of `_SHARD` (curve, column) entries."""
    res = 1.0 / n
    s_axis = (np.arange(n) + 0.5) * res
    lo1, end1 = _column_span(fc, s_axis, res, delta)
    lo2, end2 = _column_span(gc, s_axis, res, delta)
    w_lo = np.maximum(lo1, lo2)
    w_end = np.maximum(np.minimum(end1, end2), w_lo)
    starts = np.concatenate([[0], np.cumsum(w_end - w_lo + 1)])
    m1 = _window_multiplicities(fc, s_axis, res, delta, w_lo, w_end, starts)
    m2 = _window_multiplicities(gc, s_axis, res, delta, w_lo, w_end, starts)
    both = (m1 > 0) & (m2 > 0)
    m1, m2 = m1[both], m2[both]
    # sorting the keys, not a table of all (m1, m2), keeps the memory within
    # the window when the multiplicities run into the thousands
    k2 = int(m2.max(initial=0)) + 1
    key, counts = np.unique(m1 * k2 + m2, return_counts=True)
    return key // k2, key % k2, counts


def _exact_weighted_sum(counts: np.ndarray, v: np.ndarray) -> float:
    """sum(counts * v), rounded once.  Veltkamp's split cuts each v into two
    halves of 26 significant bits and each count (below 2^53) into a multiple
    of 2^26 and a rest, so the four partial products are exact floats and
    `math.fsum` adds them exactly."""
    scaled = v * 134217729.0  # 2^27 + 1
    v_hi = scaled - (scaled - v)
    v_lo = v - v_hi
    c_lo = counts & 0x3FFFFFF
    c_hi = (counts - c_lo).astype(np.float64)
    c_lo = c_lo.astype(np.float64)
    return math.fsum(np.concatenate([c_hi * v_hi, c_hi * v_lo, c_lo * v_hi, c_lo * v_lo]))


def bilinear_curve_integral(
    F: np.ndarray,
    G: np.ndarray,
    delta: float,
    p: float,
    resolution: float | None = None,
) -> MCEstimate:
    """Integral over the unit square of (F-strip multiplicity)^p times
    (G-strip multiplicity)^p, membership being |f(s) - y| <= delta, summed
    exactly over the cell centers of an n x n grid (`_curve_pair_counts`).
    The spacing is 1/n with n = round(1 / resolution), resolution delta/4 by
    default; a given resolution must lie in (0, 1/2], so that n >= 2, and
    delta must be finite and > 0.  A spacing that asks for more than
    `_GRID_AXIS_MAX` cells per axis raises ValueError before any grid."""
    _check_exponent(p)
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"strip width delta must be finite and > 0, got {delta!r}")
    if resolution is not None and not 0.0 < resolution <= 0.5:
        raise ValueError(f"grid resolution must be finite and in (0, 1/2], got {resolution!r}")
    res = resolution if resolution is not None else delta / 4.0
    if not res * _GRID_AXIS_MAX >= 1.0:
        raise ValueError(f"curve grid with delta {delta!r} and resolution {res!r} "
                         f"needs more than {_GRID_AXIS_MAX} cells per axis")
    fc, gc = coeff_array(F), coeff_array(G)
    n = max(2, int(round(1.0 / res)))
    res = 1.0 / n
    m1, m2, counts = _curve_pair_counts(fc, gc, n, delta)
    total = _exact_weighted_sum(counts, _power_product(m1, m2, p))
    return MCEstimate(total * res * res, 0.0, n * n)
