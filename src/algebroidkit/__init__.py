"""algebroidkit: exact-arithmetic verification and construction kit for
homotopy Lie algebroids over graded commutative dgas, their dual degree-1
derivations on truncated symmetric algebras, and the formal-neighborhood
differential assembled from finite curvature data.

Everything is computed over the Gaussian rationals; no floating point enters
any result.
"""

from .scalars import Scalar
from .signs import Permutation, enumerate_unshuffles, skew_sign, sym_sign
from .algebra import AlgebraElement, BaseAlgebra, validate_base_algebra
from .modules import FreeModule, ModuleElement, validate_module
from .symtensor import (
    DerivationD,
    FilteredAutomorphism,
    SymAlgebra,
    SymElement,
    conjugate,
    evaluate,
    from_values,
    mc_residual,
    square,
    square_components,
)
from .linfty import (
    AlgebraDerivation,
    LInftyAlgebra,
    ShiftedDerDGLA,
    decalage,
    decalage_inverse,
)
from .algebroid import (
    AlgebroidStructure,
    algebroid_jacobi_residual,
    anchor_morphism_residual,
    ce_differential,
    d0_derivation,
    extract_structure,
    leibniz_residual,
)
from .geometry import (
    GeometricModel,
    build_frakD,
    build_kapranov,
    commutator_lemma_residual,
    duality_residual,
    retraction_residual,
    structure_from_geometry,
    transport_lemma_residual,
    validate_geometric_model,
)
from .modelio import parse_model, serialize_model
from .reports import CheckResult, Report

__all__ = [
    "Scalar",
    "Permutation",
    "enumerate_unshuffles",
    "sym_sign",
    "skew_sign",
    "AlgebraElement",
    "BaseAlgebra",
    "validate_base_algebra",
    "FreeModule",
    "ModuleElement",
    "validate_module",
    "SymAlgebra",
    "SymElement",
    "DerivationD",
    "FilteredAutomorphism",
    "evaluate",
    "from_values",
    "square",
    "square_components",
    "conjugate",
    "mc_residual",
    "LInftyAlgebra",
    "AlgebraDerivation",
    "ShiftedDerDGLA",
    "decalage",
    "decalage_inverse",
    "AlgebroidStructure",
    "ce_differential",
    "d0_derivation",
    "extract_structure",
    "algebroid_jacobi_residual",
    "leibniz_residual",
    "anchor_morphism_residual",
    "GeometricModel",
    "validate_geometric_model",
    "retraction_residual",
    "commutator_lemma_residual",
    "transport_lemma_residual",
    "build_frakD",
    "build_kapranov",
    "structure_from_geometry",
    "duality_residual",
    "parse_model",
    "serialize_model",
    "Report",
    "CheckResult",
]

__version__ = "0.1.0"
