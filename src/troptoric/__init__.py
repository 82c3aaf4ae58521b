"""Exact tropical (max-plus) toolkit for smooth toric surfaces.

Max-plus arithmetic over exact rationals, rank-2 fans and toric divisors,
lattice-point h0, section modules with Vandermonde interpolation, corner
loci of plane tropical curves, intersection numbers, and a Riemann-Roch
inequality verifier.

The package imports lazily: a public name (or a submodule name) loads
its submodule on first access, so ``import troptoric.cli`` loads only
what a subcommand runs, and a sweep never loads `curve`, `sections` or
`trop`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "curve": ("WeightedComplex", "corner_locus", "is_balanced", "newton_subdivision"),
    "divisor": (
        "ToricDivisor",
        "UnboundedPolytopeError",
        "canonical_divisor",
        "degree_along_ray",
        "divisor_of_section",
        "h0",
        "lattice_points",
        "linearly_equivalent",
        "polytope",
        "polytope_vertices",
        "principal_divisor",
        "ray_divisor",
        "zero_divisor",
    ),
    "fan": (
        "Cone",
        "Fan",
        "adjacent_rays",
        "blow_up",
        "dual_frame",
        "hirzebruch",
        "is_complete",
        "is_smooth",
        "primitive",
        "product_p1_p1",
        "projective_plane",
    ),
    "intersect": ("RRReport", "intersection_matrix", "pairing", "ray_intersection", "rr_check", "self_intersection"),
    "sections": (
        "SectionModule",
        "global_sections",
        "h0_a",
        "h0_b",
        "is_generic_configuration",
        "local_slope_count",
        "passes_through",
        "vandermonde_section",
    ),
    "trop": ("TropPolynomial", "evaluate", "supporting_monomials", "trop_det"),
}
_SUBMODULES = ("cli", "curve", "divisor", "fan", "intersect", "jsonutil", "sections", "trop")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | set(_SUBMODULES))
