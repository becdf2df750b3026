"""Reference loop for the batched `incidence.quad_broadness`.

This is the probe-by-probe definition the per-level profile replaced: for
every (sigma, t) level, every base midpoint and every deduplicated anchor it
counts the jet-tangent curves and keeps the first probe of strictly greatest
ratio.  The oracle tests compare whole reports, witness included.
"""

import math

import numpy as np

from heislab.incidence import _C_JET, _anchor_grid
from heislab.quadratics import Quadratic, coeff_array, in_jet_window
from heislab.tubes import BroadnessReport, ProbeSpec, _dyadic_down


def quad_broadness(
    Q: list[Quadratic],
    delta: float,
    alpha: float,
    probes: ProbeSpec | None = None,
) -> BroadnessReport:
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
