"""Exact-arithmetic exponential tropical varieties in C^n.

Framed polyhedral complexes with odd complex frames, dual fans of
polytopes, stable intersections and products, recession fans, the mixed
Monge-Ampere operator on piecewise linear functions, and the zero-value
criterion with constructive witnesses.  Everything runs over exact
rationals; there is no floating point anywhere.
"""

from .scalars import CRat, rat_str
from .exterior import (Alt, OddForm, apply_J, dc_affine, dc_ccov,
                       max_complex_subspace, quotient_pushforward, restrict,
                       restrict_rform, rho, wedge)
from .polyhedra import (HPoly, PolyhedralSet, VPolytope, common_refinement,
                        dual_cone, localization, volume_multivector)
from .framed import (EtvRep, FramedCell, FramedSet, TestForm, add, boundary,
                     canonicalize, cell_sign, cell_weight, equivalent,
                     evaluate_current, irreducible_components, is_etp,
                     is_positive, negate, scale, split_positive, translate,
                     unit_positive_frame, zero_etv)
from .dualfan import (DualFanEtp, dual_fan_etp, pascal_check,
                      symplectic_orientation_sign, volume_recursion_check)
from .intersection import (ShiftCertificate, StableSupportCell, bergman_fan,
                           generic_shift, product, stable_intersection,
                           stable_support, transversal,
                           transversal_intersection)
from .monge import (AffineFunc, PLFunction, corner_locus, dc_weighted,
                    is_r_generated, linearity_complex, mixed_ma,
                    mixed_volume_oracle, mixed_volume_via_ma, support_function)
from .degeneracy import (DegeneracyWitness, HDegeneracyCertificate,
                         VectorFamily, degeneracy_witness,
                         hyperplane_equations, is_nondegenerate,
                         ma_zero_criterion, mixed_volume_zero_criterion,
                         witness_bruteforce)

__version__ = "0.1.0"
