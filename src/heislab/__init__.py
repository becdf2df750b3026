"""heislab: numerical laboratory for Heisenberg tube geometry and planar
quadratic tangency counting."""

from .heis import (
    E1,
    E2,
    ORIGIN,
    HDirection,
    HPoint,
    dilate,
    group_inv,
    group_mul,
    koranyi_dist,
    koranyi_norm,
)
from .quadratics import (
    PLANAR_DOMAIN,
    BipartitePair,
    CurviRect,
    Interval,
    Quadratic,
    comparable,
    delta_gauge,
    dt_rectangle,
    is_tangent_containment,
    is_tangent_jet,
    near_intersection_intervals,
    rect_t_scale,
    tau,
    validate_bipartite,
)
from .tubes import (
    BroadnessReport,
    HTube,
    MCEstimate,
    ProbeSpec,
    is_transversal_pair,
    line_broadness,
    tube_contains,
    tube_intersection_volume,
)
from .projection import (
    PlanePoint,
    ProjectedCurve,
    fiber_length,
    project_W,
    projection_containment_ratio,
    tube_to_curve,
)
from .incidence import (
    Richness,
    WolffCheck,
    classify_broad_narrow,
    max_incomparable_rich,
    quad_broadness,
    richness_of,
    wolff_bound_check,
)
from .families import (
    build_bipartite_balls,
    build_bush,
    build_clamshell,
    build_opposed_pair,
    build_parabolic_net,
)
from .integrals import (
    ExponentFit,
    bilinear_curve_integral,
    bilinear_tube_integral,
    fit_exponent,
    rhs_bilinear,
)

__version__ = "0.1.0"
