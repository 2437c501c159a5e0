"""Exact engine for p-Kahler structures on Lie algebras with complex structures."""

from .scalars import GaussianRational, parse_scalar
from .exterior import (
    ComplexForm,
    MultiIndex,
    bidegree_component,
    conjugate,
    monomial,
    parse_form,
    wedge,
)
from .liealg import (
    LieAlgebraSpec,
    algebra_invariants,
    ce_differential,
    check_jacobi,
    from_bracket_list,
)
from .cxstruct import (
    AscendingSeries,
    ComplexStructureSpec,
    JClass,
    ascending_series,
    b_extension_quotient,
    check_integrability,
    restrict_to_jinvariant_ideal,
    triangular_coframe,
)
from .positivity import (
    SearchBudget,
    SimpleFormWitness,
    TransStatus,
    TransversalityVerdict,
    check_transverse,
    gram_matrix,
    metric_power_root,
    volume_coefficient,
)
from .pkahler import (
    ObstructionCertificate,
    PKVerdict,
    PKahlerReport,
    closed_coframe_obstruction,
    closed_pp_space,
    find_pkahler,
    obstruction_check,
    obstruction_search,
)
from .catalog import (
    AlmostAbelianData,
    build_almost_abelian,
    build_snn8,
    kahler_decision_almost_abelian,
    named_example,
)

__all__ = [
    "GaussianRational",
    "parse_scalar",
    "ComplexForm",
    "MultiIndex",
    "bidegree_component",
    "conjugate",
    "monomial",
    "parse_form",
    "wedge",
    "LieAlgebraSpec",
    "algebra_invariants",
    "ce_differential",
    "check_jacobi",
    "from_bracket_list",
    "AscendingSeries",
    "ComplexStructureSpec",
    "JClass",
    "ascending_series",
    "b_extension_quotient",
    "check_integrability",
    "restrict_to_jinvariant_ideal",
    "triangular_coframe",
    "SearchBudget",
    "SimpleFormWitness",
    "TransStatus",
    "TransversalityVerdict",
    "check_transverse",
    "gram_matrix",
    "metric_power_root",
    "volume_coefficient",
    "ObstructionCertificate",
    "PKVerdict",
    "PKahlerReport",
    "closed_coframe_obstruction",
    "closed_pp_space",
    "find_pkahler",
    "obstruction_check",
    "obstruction_search",
    "AlmostAbelianData",
    "build_almost_abelian",
    "build_snn8",
    "kahler_decision_almost_abelian",
    "named_example",
]

__version__ = "0.1.0"
