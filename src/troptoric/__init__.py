"""Exact tropical (max-plus) toolkit for smooth toric surfaces.

Max-plus arithmetic over exact rationals, rank-2 fans and toric divisors,
lattice-point h0, section modules with Vandermonde interpolation, corner
loci of plane tropical curves, intersection numbers, and a Riemann-Roch
inequality verifier.
"""

from .curve import WeightedComplex, corner_locus, is_balanced, newton_subdivision
from .divisor import (
    DivisorPolytope,
    ToricDivisor,
    UnboundedPolytopeError,
    canonical_divisor,
    degree_along_ray,
    divisor_of_section,
    h0,
    lattice_points,
    linearly_equivalent,
    polytope,
    principal_divisor,
    ray_divisor,
    zero_divisor,
)
from .fan import (
    Cone,
    Fan,
    adjacent_rays,
    blow_up,
    dual_frame,
    hirzebruch,
    is_complete,
    is_smooth,
    primitive,
    product_p1_p1,
    projective_plane,
)
from .intersect import (
    RRReport,
    intersection_matrix,
    pairing,
    ray_intersection,
    rr_check,
    self_intersection,
)
from .sections import (
    SectionModule,
    global_sections,
    h0_a,
    h0_b,
    is_generic_configuration,
    local_slope_count,
    passes_through,
    vandermonde_section,
)
from .trop import TropPolynomial, evaluate, supporting_monomials, trop_det

__version__ = "0.1.0"
