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
    UnsupportedSizeError,
)
from .indices import Bipartition, all_bipartitions
from .mermin import (
    dist_mermin_to_fbi,
    mermin_bound,
    mermin_expectation,
    mermin_threshold,
    violates_mermin,
)
from .polytopes import (
    Ball,
    Facet,
    cube_vertex,
    facet_count,
    inscribed_ball,
    iter_extreme_points,
    iter_facets,
    midpoint,
    vertex_count,
)
from .states import (
    GhzDiagonalState,
    az_from_prob,
    density_from_prob,
)
from .volume import (
    VolumeReport,
    mc_relative_volume,
    mc_relative_volumes_by_n,
    rel_vol_exact,
    rvr,
    sample_simplex,
    vol_exact,
)

__version__ = "0.1.0"


def __getattr__(name):
    """``KERNEL_BACKEND``, resolved by its first read: see ``volume``."""
    if name == "KERNEL_BACKEND":
        from .volume import KERNEL_BACKEND
        return KERNEL_BACKEND
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
