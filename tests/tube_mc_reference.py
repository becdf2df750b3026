"""The point estimator that `integrals.bilinear_tube_integral` replaced.

It draws `samples` uniform points in the intersection of the two families'
bounding boxes (a box whose t-extent is far wider than the delta^2-thin
tubes) and classifies each by `tube_multiplicity`, through the sampling
engine `bilinear_integral_from_multiplicity`.  The column estimator
integrates t exactly instead; the tests check that both agree within their
standard errors.
"""

from __future__ import annotations

from heislab.integrals import (
    _default_tube_region,
    bilinear_integral_from_multiplicity,
    tube_multiplicity,
)
from heislab.tubes import MCEstimate, tube_params


def bilinear_tube_integral(t1, t2, p: float, samples: int, seed: int) -> MCEstimate:
    region = _default_tube_region(tube_params(t1 + t2), len(t1))
    if region is None:
        return MCEstimate(0.0, 0.0, 0)
    return bilinear_integral_from_multiplicity(
        lambda pts: tube_multiplicity(t1, pts),
        lambda pts: tube_multiplicity(t2, pts),
        region,
        p,
        samples,
        seed,
    )
