"""Dense references for the curve-strip counts of `integrals`.

The grid of `bilinear_curve_integral`: the per-curve loop over the full
n x n grid and the power sum over every cell that the windowed pair count
replaced; the oracle tests compare the two on counts and on values.

The pointwise count `strip_multiplicity`: the dense (curves, points) check of
`bipartite-ball-sharpness` and the per-curve loop that it replaced.

An independent Monte Carlo value of the curve integral, on the per-curve
counts through the sampling engine, to cross-check the grid.
"""

import numpy as np

from heislab.integrals import bilinear_integral_from_multiplicity
from heislab.quadratics import coeff_array


def curve_grid_multiplicities(
    coeffs: np.ndarray, s_axis: np.ndarray, res: float, ny: int, delta: float
) -> np.ndarray:
    """Multiplicity table (len(s_axis), ny) of |f(s) - y| <= delta counts,
    built per curve by interval differencing along each s-column."""
    ns = len(s_axis)
    diff = np.zeros(ns * (ny + 1), dtype=np.int64)
    cols = np.arange(ns)
    for a, b, c in coeffs:
        f = (0.5 * a * s_axis + b) * s_axis + c
        lo = np.ceil((f - delta) / res - 0.5).astype(np.int64)
        hi = np.floor((f + delta) / res - 0.5).astype(np.int64)
        np.clip(lo, 0, ny, out=lo)
        np.clip(hi, -1, ny - 1, out=hi)
        valid = lo <= hi
        if not valid.any():
            continue
        base = cols[valid] * (ny + 1)
        np.add.at(diff, base + lo[valid], 1)
        np.add.at(diff, base + hi[valid] + 1, -1)
    return np.cumsum(diff.reshape(ns, ny + 1), axis=1)[:, :ny]


def grid_multiplicities(fc: np.ndarray, gc: np.ndarray, n: int, delta: float):
    """Both families' dense multiplicity tables on the n x n unit-square grid."""
    res = 1.0 / n
    s_axis = (np.arange(n) + 0.5) * res
    return (
        curve_grid_multiplicities(fc, s_axis, res, n, delta),
        curve_grid_multiplicities(gc, s_axis, res, n, delta),
    )


def pair_counts(fc: np.ndarray, gc: np.ndarray, n: int, delta: float):
    """(m1 values, m2 values, cell counts) of the pairs with m1, m2 >= 1,
    sorted by (m1, m2), read off the dense tables."""
    m1, m2 = grid_multiplicities(fc, gc, n, delta)
    both = (m1 > 0) & (m2 > 0)
    pairs, counts = np.unique(np.stack([m1[both], m2[both]], axis=1), axis=0, return_counts=True)
    return pairs[:, 0], pairs[:, 1], counts


def grid_integral(fc: np.ndarray, gc: np.ndarray, n: int, delta: float, p: float) -> float:
    """The dense power sum times the cell area, as the curve grid once computed it."""
    res = 1.0 / n
    m1, m2 = grid_multiplicities(fc, gc, n, delta)
    v = m1.astype(np.float64) ** p * m2.astype(np.float64) ** p
    return float(v.sum()) * res * res


def dense_strip_multiplicity(coeffs: np.ndarray, s: np.ndarray, y: np.ndarray, delta: float):
    """Strip counts per point from one (curves, points) float64 array of curve
    values, as the ball check computed them."""
    vals = (0.5 * coeffs[:, 0:1] * s + coeffs[:, 1:2]) * s + coeffs[:, 2:3]
    return (np.abs(vals - y) <= delta).sum(axis=0)


def per_curve_strip_multiplicity(coeffs: np.ndarray, s: np.ndarray, y: np.ndarray, delta: float):
    """Strip counts per point from one pass over the points per curve, as the
    Monte Carlo path of the curve integral once computed them."""
    m = np.zeros(len(s), dtype=np.int64)
    for a, b, c in coeffs:
        f = (0.5 * a * s + b) * s + c
        m += np.abs(f - y) <= delta
    return m


def monte_carlo_integral(F, G, delta: float, p: float, samples: int, seed: int = 0):
    """Monte Carlo value of `bilinear_curve_integral` over the unit square:
    `samples` uniform points classified by the per-curve counts, with one
    worker."""
    def mult(coeffs):
        return lambda pts: per_curve_strip_multiplicity(coeffs, pts[:, 0], pts[:, 1], delta)

    region = np.array([[0.0, 1.0], [0.0, 1.0]])
    return bilinear_integral_from_multiplicity(
        mult(coeff_array(F)), mult(coeff_array(G)), region, p, samples, seed
    )
