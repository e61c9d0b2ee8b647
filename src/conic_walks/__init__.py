"""Exact expectations and Monte Carlo verification for positive hulls of
random walks and bridges.

The exact layer evaluates every closed-form probability and expectation for
these random cones in rational arithmetic; the geometry and simulation
layers independently re-measure the same functionals on sampled cones so
the two routes can be checked against each other.
"""

from .combinatorics import (
    StirlingTables,
    binomial,
    coeff_P,
    coeff_Q,
    compositions,
    default_tables,
    stirling,
)
from .errors import DegenerateInputError, DomainError, NumericError, SamplingError
from .formulas import (
    A_BRIDGE,
    B_WALK,
    FormulaResult,
    FunctionalQuery,
    Model,
    absorption_probability,
    evaluate_query,
    expected_face_intrinsic_sum,
    expected_fk,
    expected_Lambda,
    expected_tangent_intrinsic_sum,
    expected_Uk,
    expected_vk,
    expected_Y,
    expected_Y_dual,
    expected_Z,
    face_probability,
    joint_absorption_probability,
    nonabsorption_probability,
    subspace_intersection_probability,
    wendel_probability,
)
from .geometry import (
    ConeProjection,
    ConeSample,
    Subspace,
    cone_contains,
    count_k_faces,
    intersects_subspace,
    is_face,
    is_full_cone,
    origin_in_convex_hull,
    project_onto_cone,
    sample_uniform_subspace,
    tangent_cone_projection_base,
)
from .simulation import (
    DistributionSpec,
    MCEstimate,
    RunConfig,
    estimate,
    sample_bridge,
    sample_increments,
    sample_walk,
)
from .verify import identity_checks, verify_suite

__version__ = "0.1.0"

__all__ = [
    "A_BRIDGE", "B_WALK", "ConeProjection", "ConeSample", "DegenerateInputError",
    "DistributionSpec", "DomainError", "FormulaResult", "FunctionalQuery",
    "MCEstimate", "Model", "NumericError", "RunConfig", "SamplingError",
    "StirlingTables", "Subspace",
    "absorption_probability", "binomial", "coeff_P", "coeff_Q", "compositions",
    "cone_contains", "count_k_faces", "default_tables", "estimate",
    "evaluate_query", "expected_Lambda", "expected_Uk", "expected_Y",
    "expected_Y_dual", "expected_Z", "expected_face_intrinsic_sum",
    "expected_fk", "expected_tangent_intrinsic_sum", "expected_vk",
    "face_probability", "identity_checks", "intersects_subspace", "is_face",
    "is_full_cone", "joint_absorption_probability", "nonabsorption_probability",
    "origin_in_convex_hull", "project_onto_cone", "sample_bridge",
    "sample_increments", "sample_uniform_subspace", "sample_walk", "stirling",
    "subspace_intersection_probability", "tangent_cone_projection_base",
    "verify_suite", "wendel_probability",
]
