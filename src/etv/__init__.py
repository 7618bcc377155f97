"""Exact-arithmetic exponential tropical varieties in C^n.

Framed polyhedral complexes with odd complex frames, dual fans of
polytopes, stable intersections and products, recession fans, the mixed
Monge-Ampere operator on piecewise linear functions, and the zero-value
criterion with constructive witnesses.  Everything runs over exact
rationals; there is no floating point anywhere.

`import etv` loads no submodule.  Each name below is imported from its
module on first access (PEP 562), so `from etv import X` loads only the
modules X needs, and `etv.<module>` imports that module.  The CLI relies
on this: each `etv` command loads only the modules it runs.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "scalars": ("CRat", "rat_str"),
    "exterior": ("Alt", "OddForm", "apply_J", "dc_affine", "dc_ccov",
                 "max_complex_subspace", "quotient_pushforward", "restrict",
                 "restrict_rform", "rho", "wedge"),
    "polyhedra": ("HPoly", "PolyhedralSet", "VPolytope", "common_refinement",
                  "dual_cone", "localization", "volume_multivector"),
    "framed": ("EtvRep", "FramedCell", "FramedSet", "TestForm", "add", "boundary",
               "canonicalize", "cell_sign", "cell_weight", "equivalent",
               "evaluate_current", "irreducible_components", "is_etp",
               "is_positive", "negate", "scale", "split_positive", "translate",
               "unit_positive_frame", "zero_etv"),
    "dualfan": ("DualFanEtp", "dual_fan_etp", "pascal_check",
                "symplectic_orientation_sign", "volume_recursion_check"),
    "intersection": ("ShiftCertificate", "StableSupportCell", "bergman_fan",
                     "generic_shift", "product", "stable_intersection",
                     "stable_support", "transversal", "transversal_intersection"),
    "monge": ("AffineFunc", "PLFunction", "corner_locus", "dc_weighted",
              "is_r_generated", "linearity_complex", "mixed_ma",
              "mixed_volume_oracle", "mixed_volume_via_ma", "support_function"),
    "degeneracy": ("DegeneracyWitness", "HDegeneracyCertificate", "VectorFamily",
                   "degeneracy_witness", "hyperplane_equations", "is_nondegenerate",
                   "ma_zero_criterion", "mixed_volume_zero_criterion",
                   "witness_bruteforce"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, from its module; or a submodule, imported."""
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
