"""Exact engine for p-Kahler structures on Lie algebras with complex structures.

The public names load their home module on first access (PEP 562), so
`import pklie`, which `python -m pklie.cli` runs first, compiles no engine
module.  A name is read from its home module on every access and never
stored here, so it always gives that module's current binding.
"""

from importlib import import_module

_EXPORTS = {
    "scalars": ("GaussianRational", "parse_scalar"),
    "exterior": (
        "ComplexForm",
        "MultiIndex",
        "bidegree_component",
        "conjugate",
        "monomial",
        "parse_form",
        "wedge",
    ),
    "liealg": (
        "LieAlgebraSpec",
        "ce_differential",
        "check_jacobi",
        "from_bracket_list",
    ),
    "cxstruct": (
        "ComplexStructureSpec",
        "check_integrability",
    ),
    "reductions": (
        "AscendingSeries",
        "JClass",
        "algebra_invariants",
        "ascending_series",
        "b_extension_quotient",
        "closed_coframe_obstruction",
        "restrict_to_jinvariant_ideal",
    ),
    "positivity": (
        "SearchBudget",
        "SimpleFormWitness",
        "TransStatus",
        "TransversalityVerdict",
        "check_transverse",
        "gram_matrix",
        "metric_power_root",
        "volume_coefficient",
    ),
    "obstruction": ("ObstructionCertificate", "obstruction_check"),
    "pkahler": (
        "PKVerdict",
        "PKahlerReport",
        "closed_pp_space",
        "find_pkahler",
        "obstruction_search",
    ),
    "almost_abelian": ("AlmostAbelianData", "kahler_decision_almost_abelian"),
    "catalog": ("build_almost_abelian", "build_snn8", "named_example"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
