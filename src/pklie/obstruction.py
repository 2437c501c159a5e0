"""Same-sign obstruction certificates, checked from a candidate beta or from a
serialized certificate with no `pkahler`, `positivity` or `simplex` loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cxstruct import ComplexStructureSpec
from .exterior import (
    ComplexForm,
    bidegree_component,
    conjugate,
    form_from_json,
    form_to_json,
    is_simple,
    term_order,
    wedge,
)
from .liealg import is_unimodular
from .linalg import gr
from .scalars import GaussianRational, ONE, unexpected_fields


class ObstructionRejected(ValueError):
    pass


@dataclass
class ObstructionCertificate:
    beta: ComplexForm
    component: ComplexForm  # the (n-p, n-p) part of d beta
    terms: list[tuple[GaussianRational, ComplexForm]]  # (c_j, psi_j)

    def to_json(self) -> dict:
        return {
            "kind": "obstruction",
            "beta": form_to_json(self.beta),
            "component": form_to_json(self.component),
            "terms": [
                {"c": str(c), "psi": form_to_json(psi)} for c, psi in self.terms
            ],
        }


def obstruction_check(
    struct: ComplexStructureSpec,
    p: int,
    beta: ComplexForm,
    decomposition: list[tuple[GaussianRational, ComplexForm]] | None = None,
) -> ObstructionCertificate:
    """Validate a same-sign obstruction form for degree p.

    d beta is recomputed from the structure equations; its (n-p,n-p) part
    must be nonzero and equal to sum c_j psi_j ^ conj(psi_j) with real
    same-sign c_j and simple psi_j.  Soundness of the refutation uses that
    exact top-degree forms vanish, so the algebra must be unimodular.
    """
    n = struct.n
    q = n - p
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    if beta.is_zero() or beta.degrees() != {2 * n - 2 * p - 1}:
        raise ObstructionRejected(f"beta must be a nonzero ({2 * n - 2 * p - 1})-form")
    if not is_unimodular(struct.g):
        raise ObstructionRejected("obstruction argument needs a unimodular algebra")
    dbeta = struct.d(beta)
    component = bidegree_component(dbeta, q, q)
    if component.is_zero():
        raise ObstructionRejected("the (n-p,n-p) part of d beta vanishes")
    if decomposition is None:
        decomposition = _diagonal_decomposition(component)
    total = ComplexForm.zero(n)
    signs = set()
    for c, psi in decomposition:
        c = gr(c)
        if not c.is_real() or c.is_zero():
            raise ObstructionRejected("decomposition coefficients must be real nonzero")
        signs.add(c.a > 0)
        if not is_simple(psi):
            raise ObstructionRejected("decomposition contains a non-simple test form")
        total = total + wedge(psi, conjugate(psi)) * c
    if len(signs) != 1:
        raise ObstructionRejected("decomposition coefficients have mixed signs")
    if total != component:
        raise ObstructionRejected("decomposition does not reproduce the component")
    return ObstructionCertificate(beta, component, [(gr(c), psi) for c, psi in decomposition])


def verify_obstruction(struct: ComplexStructureSpec, p: int, data: dict) -> list[str]:
    """Exact re-check of a serialized ObstructionCertificate; returns failures."""
    n = struct.n
    if not isinstance(data, dict):
        raise ValueError("an obstruction certificate must be a JSON object")
    if not isinstance(data["terms"], list) or not all(isinstance(t, dict) for t in data["terms"]):
        raise ValueError("obstruction terms must be a list of {c, psi} objects")
    failures = unexpected_fields(data, {"kind", "beta", "component", "terms"}, "certificate")
    if data.get("kind") != "obstruction":
        failures.append(f"certificate kind {data.get('kind')!r} is not 'obstruction'")
    for item in data["terms"]:
        failures += unexpected_fields(item, {"c", "psi"}, "certificate term")
    beta = form_from_json(data["beta"], n)
    terms = [
        (GaussianRational.parse(item["c"]), form_from_json(item["psi"], n))
        for item in data["terms"]
    ]
    try:
        cert = obstruction_check(struct, p, beta, terms)
    except ObstructionRejected as exc:
        return failures + [f"obstruction invalid: {exc}"]
    if cert.component != form_from_json(data["component"], n):
        failures.append("stored obstruction component mismatch")
    return failures


def _diagonal_decomposition(component: ComplexForm):
    n = component.n
    terms = []
    for m in sorted(component.terms, key=term_order(n)):
        holo = m & (1 << n) - 1
        if holo != m >> n:
            raise ObstructionRejected(
                "component has off-diagonal terms; supply an explicit decomposition"
            )
        terms.append((component.terms[m], ComplexForm._wrap(n, {holo: ONE})))
    return terms
