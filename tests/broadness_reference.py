"""Reference loops for the two broadness gauges.

These are the probe-by-probe definitions that the alpha-free profiles and
their one fold replaced.  `quad_broadness`: for every (sigma, t) level,
every base midpoint and every deduplicated anchor it counts the jet-tangent
curves.  `line_broadness`: for every scale, ball center and arc half-length
it counts the lines of the ball in the fullest arc.  Both keep the first
probe of strictly greatest ratio.  The oracle tests compare whole reports,
witness included.  `fan_pairs` is the fan of `families.fan_cores` as the
(HPoint, HDirection) pairs that generator built before it returned a table.
"""

import math

import numpy as np

from heislab import _bulk
from heislab.heis import HDirection, HPoint
from heislab.incidence import _C_JET, _anchor_grid
from heislab.quadratics import Quadratic, coeff_array, in_jet_window
from heislab.tubes import BroadnessReport, ProbeSpec, _dyadic_down
from jet_reference import quads


def quad_broadness(
    Q: list[Quadratic],
    delta: float,
    alpha: float,
    probes: ProbeSpec | None = None,
) -> BroadnessReport:
    Q = quads(Q)
    if not Q:
        raise ValueError("family must be nonempty")
    probes = probes or ProbeSpec()
    qc = coeff_array(Q)
    n = len(Q)

    worst = 0.0
    witness = "no probe exceeded zero"
    for sigma in _dyadic_down(1.0, delta):
        for t in _dyadic_down(1.0, sigma):
            length = math.sqrt(sigma / t)
            mids = _anchor_grid(length)
            if len(mids) > probes.max_anchor_midpoints:
                step = len(mids) / probes.max_anchor_midpoints
                mids = mids[(np.arange(probes.max_anchor_midpoints) * step).astype(int)]
            root_st = math.sqrt(sigma * t)
            vals = (0.5 * qc[:, 0:1] * mids + qc[:, 1:2]) * mids + qc[:, 2:3]
            ders = qc[:, 0:1] * mids + qc[:, 1:2]
            for mi in range(len(mids)):
                v, d = vals[:, mi], ders[:, mi]
                # deduplicate anchors whose jets quantize identically
                keys = np.stack(
                    [
                        np.round(v / (0.5 * sigma)),
                        np.round(d / (0.5 * root_st)),
                        np.round(qc[:, 0] / (0.5 * t)),
                    ],
                    axis=1,
                )
                _, anchor_rows = np.unique(keys, axis=0, return_index=True)
                for i in anchor_rows:
                    count = int(
                        in_jet_window(
                            v - v[i], d - d[i], qc[:, 0] - qc[i, 0], _C_JET, sigma, t
                        ).sum()
                    )
                    ratio = count / (1.0 + (t ** alpha) * n)
                    if ratio > worst:
                        worst = ratio
                        witness = (
                            f"sigma={sigma:.6g} t={t:.6g} midpoint={mids[mi]:.6g} "
                            f"anchor_curve={i} tangent={count}/{n}"
                        )
    return BroadnessReport(alpha, worst, witness)


def fan_pairs(delta: float) -> list[tuple[HPoint, HDirection]]:
    step = delta * delta
    n = int(math.floor((math.pi / 4) / step)) + 1
    origin = HPoint(0.0, 0.0, 0.0)
    return [
        (origin, HDirection.from_angle(math.pi / 8 + i * step))
        for i in range(n)
        if math.pi / 8 + i * step <= 3 * math.pi / 8 + 1e-12
    ]


def line_broadness(
    cores: list[tuple[HPoint, HDirection]],
    delta: float,
    alpha: float,
    probes: ProbeSpec | None = None,
) -> BroadnessReport:
    if not cores:
        raise ValueError("line family must be nonempty")
    sigmas = _dyadic_down(1.0, delta)
    probes = probes or ProbeSpec()

    mids = np.array([p.as_tuple() for p, _ in cores], dtype=np.float64)
    # distinct centers, evenly subsampled to the cap
    centers = np.unique(np.round(mids, 12), axis=0)
    if len(centers) > probes.max_centers:
        step = len(centers) / probes.max_centers
        centers = centers[(np.arange(probes.max_centers) * step).astype(int)]

    angles = np.array([e.angle for _, e in cores])
    # distance matrix: lines x centers, min gauge distance from center to core
    dist = np.empty((len(cores), len(centers)))
    for j, (p, e) in enumerate(cores):
        frame = _bulk.tube_frame(*centers.T, p.as_tuple(), e.a, e.b)
        dist[j] = _bulk.core_distance_elementwise(*frame)

    halves = _dyadic_down(math.pi, min(delta * delta, math.pi))
    c_ball = 4.0  # C in B(z, C*sigma)

    worst = 0.0
    witness = "no probe exceeded zero"

    for sigma in sigmas:
        hit_mask = dist <= (c_ball + 1.0) * sigma  # lines x centers
        for ci in range(len(centers)):
            hit = hit_mask[:, ci]
            n_ball = int(hit.sum())
            if n_ball == 0:
                continue
            ang = np.sort(angles[hit])
            # unwrap across the circle both ways, so windows wrap past +-pi
            ext = np.concatenate([ang - 2.0 * math.pi, ang, ang + 2.0 * math.pi])
            for h in halves:
                width = 2.0 * h
                # windows centered on present directions
                lo = np.searchsorted(ext, ang - h - 1e-15, side="left")
                hi = np.searchsorted(ext, ang + h + 1e-15, side="right")
                counts = hi - lo
                k = int(np.argmax(counts))
                n_hit = min(int(counts[k]), n_ball)
                ratio = n_hit / (1.0 + (width ** alpha) * n_ball)
                if ratio > worst:
                    worst = ratio
                    z = centers[ci]
                    witness = (
                        f"z=({z[0]:.6g},{z[1]:.6g},{z[2]:.6g}) sigma={sigma:.6g} "
                        f"arc_center_angle={ang[k]:.6g} arc_length={width:.6g} "
                        f"hits={n_hit}/{n_ball}"
                    )
    return BroadnessReport(alpha, worst, witness)
