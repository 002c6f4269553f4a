"""Exact-arithmetic toolkit for stability thresholds of weighted Fano
hypersurfaces: weighted projective space invariants, standard weighted
blowups, strict transforms, barycenter bounds, flag moment integrals, and a
rule-based certificate engine."""

from .lattice import (
    WeightVector,
    NormalizationReport,
    CoordinateStratum,
    BaseLocus,
    base_locus,
    fano_index,
    normalize,
    stratum,
    top_intersection,
)
from .blowup import (
    BiDegree,
    BlowupFrame,
    build,
    exceptional_class,
    finite_cover_pull,
    intersection_bi,
    restrict_to_divisor,
)
from .wpoly import (
    BiGradedPoly,
    EckardtDatum,
    EckardtNotApplicable,
    SparseWPoly,
    eckardt_analyze,
    parse,
    parse_bigraded,
    qsm_at_coordinate_points,
    qsm_at_point,
    restrict,
    strict_transform,
)
from .convex import (
    GravityBounds,
    GravityInput,
    RationalPolygon,
    SlicedBody,
    SurfaceLocalData,
    barycenter,
    delta_lower_gravity,
    gravity_bounds,
    okounkov_body_surface,
    zariski_decompose,
)
from .moments import (
    MomentRegion,
    delta_eckardt,
    s_value,
    s_value_closed_form,
    unstable_check,
)
from .engine import (
    DeltaCertificate,
    FanoDatum,
    Flags,
    certify,
    derive_b1,
    enumerate_data,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
