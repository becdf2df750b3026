"""Vectorized kernels shared by the tube, projection and integral modules.

Points are float64 (n, 3) arrays, or three rows x, y, t where a docstring
says so.  These mirror the scalar closed forms in `heis` exactly; tests
cross-check the two paths.

Everything about a tube starts from a point's frame against it:
`tube_frame` left-translates the point by the tube's center inverse and
turns it to the tube's direction, giving (beta, gamma, w), and no other
code forms it.  The exact core-distance kernel `core_distance_elementwise`
is a function of the frame alone.  Batched tube membership is
cull-then-classify: a cull keeps the (tube, point) cells whose frame meets
closed-form necessary bounds (`core_candidates` for a table of tubes, in
blocks of at most `CULL_CHUNK` cells) and hands their frame rows to
`count_members`, the one caller of the kernel for counts.  `tube_sections`
gives the t-section of a tube above a column from the same frame.
"""

from __future__ import annotations

import math

import numpy as np

# relative slack of the cull's bounds, far above the few ulps by which the
# kernel's rounding can let a point just outside a bound test as a member
CULL_SLACK = 1.0 + 1e-6
# (tube, point) cells per block of the cull: each temporary is 64 KiB,
# which the allocator reuses instead of mapping fresh pages for every block
CULL_CHUNK = 8192
# rows per exact-kernel call in the batched membership paths: large enough
# to amortize the call, small enough to bound the kernel's temporaries
KERNEL_BLOCK = 32768
# the empty (indices, beta, gamma, w) that every cull's concatenation starts from
NO_CANDIDATES = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), np.empty(0))


def finite_points(pts) -> np.ndarray:
    """Coerce to a float64 (n, 3) array, rejecting NaN and inf coordinates."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise ValueError("points must have finite coordinates")
    return pts


def mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=np.float64)
    out[..., 0] = p[..., 0] + q[..., 0]
    out[..., 1] = p[..., 1] + q[..., 1]
    out[..., 2] = (
        p[..., 2] + q[..., 2] + 0.5 * (p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1])
    )
    return out


def inv(p: np.ndarray) -> np.ndarray:
    return -p


def norm4(p: np.ndarray) -> np.ndarray:
    """Fourth power of the gauge; cheaper than the gauge in inner loops."""
    r2 = p[..., 0] ** 2 + p[..., 1] ** 2
    return r2 * r2 + 16.0 * p[..., 2] ** 2


def norm(p: np.ndarray) -> np.ndarray:
    return norm4(p) ** 0.25


def sample_gauge_ball(rng: np.random.Generator, delta: float, n: int) -> np.ndarray:
    """Uniform points of the gauge ball B(0, delta) as three rows x, y, t, by
    rejection from its box in rounds of rng.random((max(2 * wanted, 64), 3))."""
    if not (isinstance(n, (int, np.integer)) and n >= 0 and math.isfinite(delta) and delta > 0):
        raise ValueError(f"want finite delta > 0 and integer n >= 0, got delta={delta}, n={n}")
    z = np.empty((3, 0))
    while z.shape[1] < n:
        m = max(2 * (n - z.shape[1]), 64)
        r = np.multiply(rng.random((m, 3)).T, 2.0, out=np.empty((3, m)))
        r -= 1.0
        r[:2] *= delta
        r[2] *= 0.25 * delta * delta
        z = np.concatenate([z, r.compress(norm4(r.T) <= delta ** 4, axis=1)], axis=1)
    return z[:, :n]


# the largest k for which dilating sample_gauge_ball(rng, 1.0, n) by 2^-k
# gives sample_gauge_ball(rng, 2^-k, n) bit for bit: every nonzero r^2 of the
# sampler is at least 2^-104 * delta^2, so its delta^4 test multiplies normal
# floats only while 2^-208 * delta^4 >= 2^-1022
EXACT_DILATION_EXP = 203

# the largest k for which a vertical distance between points of unit size
# still measures geometry at delta = 2^-k: delta^2 = 2^-2k, and one ulp of a
# unit coordinate, 2^-52, is 2^-12 of delta^2 at k = 20; from k = 21 on,
# `projection-containment`'s ratios to delta^2 are short dyadic fractions of
# rounding, and from k = 29 false failures (8.0, 32.0, 128.0 at k = 29..31)
PRECISE_DELTA_EXP = 20


def dilate(lam: float, rows: np.ndarray) -> np.ndarray:
    """`heis.dilate` of three rows x, y, t: (lam*x, lam*y, lam^2*t).  A power
    of two only shifts exponents, see EXACT_DILATION_EXP."""
    return rows * np.array([[lam], [lam], [lam * lam]])


def tube_frame(x, y, t, center, dir_a, dir_b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frame (beta, gamma, w) of the points (x, y, t) against the unit core
    through `center` with direction e = (dir_a, dir_b).

    x, y and t are arrays that broadcast together, `center` a point or three
    rows, each direction component a scalar or one per point.  With
    u = center^{-1} * p by `mul`'s operations in its order, beta = a*u0 + b*u1
    runs along e, gamma = b*u0 - a*u1 across it, and w = u2 + gamma*beta/2.
    Every frame is formed here, so the cull, the t-sections and the kernel
    see the same bits.
    """
    c0, c1, c2 = center
    u0 = -c0 + x
    u1 = -c1 + y
    beta = dir_a * u0 + dir_b * u1
    gamma = dir_b * u0 - dir_a * u1
    w = (-c2 + t) + 0.5 * (-c0 * y - x * -c1) + 0.5 * gamma * beta
    return beta, gamma, w


def core_distance_elementwise(beta, gamma, w) -> np.ndarray:
    """Exact gauge distance to the unit core {center * (s*e) : s in [-1/2, 1/2]}
    of a tube, from each point's frame rows (beta, gamma, w) (`tube_frame`).

    With u = center^{-1} * p and x = s - beta, a unit direction gives
    beta^2 + gamma^2 = u0^2 + u1^2, so the fourth power of the distance to
    the core point at s is the quartic

        q(x) = (x^2 + gamma^2)^2 + (4*w + 2*gamma*x)^2,
        q'(x) = 4*(x^3 + 3*gamma^2*x + 4*gamma*w).

    The cubic has p = 3*gamma^2 >= 0, hence exactly one real root x*: q falls
    and then rises, and its minimum over the segment is at
    s* = clip(beta + x*, -1/2, 1/2).  Cardano's formula in the form that
    avoids cancellation gives x* = T - gamma^2/T with
    T = cbrt(-2*gamma*w - copysign(sqrt(4*gamma^2*w^2 + gamma^6), gamma*w));
    T = 0 only when gamma = 0, and then x* = 0.  In floats T is also 0 where
    gamma*w rounds to 0 and gamma^6 underflows with gamma != 0 (so
    |gamma| < 2^-179); x* = -gamma^2 there gives the bits of x* = 0, as what
    it adds to h and v is far below their rounding.  The quartic is evaluated
    in these centred coordinates, where no expanded coefficient cancels.
    Every step is elementwise, so a point's distance does not depend on its
    batch.  A non-finite frame row raises ValueError, before any arithmetic.
    """
    if not (np.isfinite(beta).all() and np.isfinite(gamma).all() and np.isfinite(w).all()):
        raise ValueError("frame rows must be finite")
    g2 = gamma * gamma
    gw = gamma * w
    t = np.cbrt(-2.0 * gw - np.copysign(np.sqrt(4.0 * gw * gw + g2 * g2 * g2), gw))
    # t == 0 takes the divisor 1 (see the docstring)
    root = t - g2 / (t + (t == 0.0))
    x = np.minimum(np.maximum(beta + root, -0.5), 0.5) - beta
    h = x * x + g2
    v = 4.0 * w + 2.0 * gamma * x
    return (h * h + v * v) ** 0.25


def core_cull_bounds(delta):
    """Bounds (on |beta|, |gamma|, |w|) that the frame (`tube_frame`) of every
    point within gauge distance delta of a unit core satisfies (see
    `core_distance_elementwise`), each with the slack `CULL_SLACK`; delta is
    a scalar or an array of them.

    d <= delta means q(x) <= delta^4 at some x = s - beta with |s| <= 1/2.
    Then r^2 = x^2 + gamma^2 <= delta^2, so |gamma| <= delta, |x| <= delta
    and |beta| <= 1/2 + delta; and as 2*|gamma*x| <= r^2,
    4*|w| <= sqrt(delta^4 - r^4) + r^2 <= sqrt(2)*delta^2 (the maximum over
    r^2 in [0, delta^2] is at r^2 = delta^2/sqrt(2)), so
    |w| <= (sqrt(2)/4)*delta^2.  All three bounds are attained.
    """
    return (
        (0.5 + delta) * CULL_SLACK,
        delta * CULL_SLACK,
        0.25 * math.sqrt(2.0) * delta * delta * CULL_SLACK,
    )


def core_candidates(cols: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (tube, point) cells where the point may lie within its tube: a
    necessary test only, the exact judge being `core_distance_elementwise`.

    `cols` holds the points as three contiguous rows x, y, t, and `params`
    the K tubes as the six rows of `tubes.tube_params` (center x, y, t,
    direction a, b, radius delta).  A cell is kept when its `tube_frame`
    meets all three bounds of `core_cull_bounds` for its tube's delta; the
    cull may keep cells the kernel rejects, but never drops one the kernel
    accepts.  Returns the kept cells' tube and point indices and their frame
    rows beta, gamma, w, ready for `count_members`.  Each block frames all K
    tubes against max(1, CULL_CHUNK // K) points in one broadcast, so the
    temporaries stay small and are reused.
    """
    center, dir_a, dir_b = params[:3, :, None], params[3, :, None], params[4, :, None]
    beta_max, gamma_max, w_max = (b[:, None] for b in core_cull_bounds(params[5]))
    step = max(1, CULL_CHUNK // max(params.shape[1], 1))
    found = [(NO_CANDIDATES[0], *NO_CANDIDATES)]
    for lo in range(0, cols.shape[1], step):
        x, y, t = cols[:, lo : lo + step]
        frame = tube_frame(x, y, t, center, dir_a, dir_b)
        beta, gamma, w = frame
        ok = np.abs(w) <= w_max
        ok &= np.abs(gamma) <= gamma_max
        ok &= np.abs(beta) <= beta_max
        cell = np.flatnonzero(ok)
        tube, point = np.divmod(cell, ok.shape[1])
        found.append((tube, point + lo, *(r.take(cell) for r in frame)))
    return tuple(map(np.concatenate, zip(*found)))


def tube_sections(x, y, center, dir_a, dir_b, delta) -> tuple[np.ndarray, np.ndarray]:
    """Ends lo, hi of the t-section {t : (x, y, t) within gauge distance delta
    of the unit core through `center` with direction (dir_a, dir_b)}.

    x and y are rows of columns, and the tube parameters scalars or arrays
    that broadcast against them (`center` is a point or three rows), so
    x[:, None] against rows of K tubes gives every (column, tube) pair.
    w = t + shift, the shift being the `tube_frame` w at t = -0.0 (the
    additive identity, which keeps the bits of -c2).  In the frame (see
    `core_distance_elementwise`) the point is a member iff, for some
    z = beta - s with |s| <= 1/2, that is z in [beta - 1/2, beta + 1/2],

        |4*w - 2*gamma*z| <= R(z) = sqrt(delta^4 - (z^2 + gamma^2)^2).

    R is concave on its domain z^2 + gamma^2 <= delta^2, so over the
    z-interval these w-intervals join into one: its upper end is the maximum
    of (R(z) + 2*gamma*z)/4, and its lower end the minimum of
    (2*gamma*z - R(z))/4.  Their stationary points have
    z^2 + gamma^2 = (|gamma|*delta^2)^(2/3), with z of the sign of gamma for
    the upper end and of -gamma for the lower, and each end is taken at its
    stationary point clipped to the z-interval, with R = 0 off the domain.
    When the z-interval misses the domain, both stationary points clip to
    the same z (or are 0, when |gamma| >= delta), so an empty section comes
    back as lo == hi, with no further test; so does a one-point section.
    """
    beta, gamma, shift = tube_frame(x, y, -0.0, center, dir_a, dir_b)
    d2 = delta * delta
    g2 = gamma * gamma
    z = np.cbrt(g2)
    z *= np.cbrt(d2 * d2)
    np.minimum(z, d2, out=z)  # so the stationary z is 0 once |gamma| >= delta
    z -= g2
    np.sqrt(np.maximum(z, 0.0, out=z), out=z)
    np.copysign(z, gamma, out=z)
    z_lo, z_hi = beta - 0.5, beta + 0.5
    half_gamma = 0.5 * gamma
    ends = []
    for z_star, sign in ((z, 0.25), (-z, -0.25)):
        zc = np.maximum(z_star, z_lo)
        np.minimum(zc, z_hi, out=zc)
        r = zc * zc
        r += g2
        end = np.subtract(d2, r)
        r += d2
        end *= r
        np.sqrt(np.maximum(end, 0.0, out=end), out=end)
        end *= sign
        zc *= half_gamma
        end += zc
        end -= shift
        ends.append(end)
    hi, lo = ends
    return lo, hi


def count_members(n: int, rows: np.ndarray, beta, gamma, w, delta) -> np.ndarray:
    """For each of n points, how many of its candidate rows hold it: row j
    holds the point rows[j] when the core distance of its frame row
    (beta[j], gamma[j], w[j]) is at most delta (a scalar or one value per
    row).  The exact kernel judges the rows in blocks of `KERNEL_BLOCK`."""
    delta = np.broadcast_to(delta, rows.shape)
    hits = [rows[:0]]
    for lo in range(0, len(rows), KERNEL_BLOCK):
        blk = slice(lo, lo + KERNEL_BLOCK)
        d = core_distance_elementwise(beta[blk], gamma[blk], w[blk])
        hits.append(rows[blk][d <= delta[blk]])
    return np.bincount(np.concatenate(hits), minlength=n)


def tube_points(center, dir_a, dir_b, s: np.ndarray, z=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Rows x, y, t of center * (s*e) * z, e = (dir_a, dir_b), by `mul`'s
    operations in its order.  z is three rows or a 3-tuple, `center` a point
    or three rows, each direction component a scalar or one per point."""
    (c0, c1, c2), (z0, z1, z2) = center, z
    sa, sb = s * dir_a, s * dir_b
    p0, p1 = c0 + sa, c1 + sb
    p2 = (c2 + 0.0) + 0.5 * (c0 * sb - sa * c1)
    return np.stack([p0 + z0, p1 + z1, p2 + z2 + 0.5 * (p0 * z1 - z0 * p1)])
