"""Reference loop for the bulk `incidence.max_incomparable_rich`.

This is the anchor-by-anchor definition the one jet-window counter and the
bulk first-fit replaced: for every curve of F it counts the jet-tangent
curves of F and of G at every midpoint with dense masks, then tests each rich
candidate, in (curve, midpoint) order, against every chosen rectangle with
the scalar `comparable`.  The oracle tests compare whole rectangle lists.
"""

import math

import numpy as np

from heislab.incidence import _C_JET, _anchor_grid
from heislab.quadratics import (
    CurviRect,
    Quadratic,
    coeff_array,
    comparable,
    dt_rectangle,
    in_jet_window,
)
from jet_reference import quads


def max_incomparable_rich(
    F: list[Quadratic],
    G: list[Quadratic],
    delta: float,
    t: float,
    mu: int,
    nu: int,
) -> list[CurviRect]:
    if not (delta <= t <= 1.0):
        raise ValueError(f"need delta <= t <= 1, got delta={delta}, t={t}")
    F, G = quads(F), quads(G)
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
