"""Polytope geometry of n-qubit GHZ-diagonal states.

Classification (genuine / biseparable / fully biseparable / Mermin
violating), exact vertex and facet enumeration, closed-form and
Monte-Carlo volumes, and inscribed balls, all in the probability
coordinates of the GHZ eigenbasis.
"""

from .classify import (
    ClassificationResult,
    classify,
    gm_concurrence,
    is_biseparable,
    is_fully_biseparable,
    is_ppt_all_bipartitions,
    partial_transpose,
)
from .decompose import (
    SeparabilityCertificate,
    certify_midpoint,
    cube_vertex_decomposition,
    midpoint_bipartition,
)
from .errors import (
    GhzPolytopeError,
    InvalidArgumentError,
    NotGhzDiagonalError,
    UnsupportedSizeError,
)
from .indices import Bipartition, all_bipartitions, enumerate_indices, flip_all, flip_subset
from .mermin import (
    MerminOperator,
    build_mermin_operator,
    dist_mermin_to_fbi,
    mermin_bound,
    mermin_expectation,
    mermin_hyperplane_points,
    mermin_threshold,
    violates_mermin,
)
from .polytopes import (
    Ball,
    Facet,
    cube_vertex,
    extreme_points_bisep,
    extreme_points_fbi,
    extreme_points_ghz,
    facet_count,
    facet_distance,
    facets_bisep,
    facets_fbi,
    facets_ghz,
    hs_distance,
    inscribed_ball,
    midpoint,
    min_center_facet_distance,
    simplex_height,
    vertex_count,
)
from .states import (
    GhzDiagonalState,
    az_from_prob,
    density_from_mixture,
    density_from_prob,
    ghz_basis_vector,
    prob_from_density,
)
from .volume import (
    KERNEL_BACKEND,
    VolumeReport,
    hull_volume,
    mc_relative_volume,
    mc_relative_volumes,
    mc_relative_volumes_by_n,
    rel_vol_exact,
    rvr,
    sample_simplex,
    vol_exact,
)

__version__ = "0.1.0"
