"""The p-Kahler decision pipeline.

Real (p,p)-forms are coordinatized over the rationals (Hermitian-symmetric
coefficient pairs), the closed subspace is an exact kernel, and verdicts are
certified: FOUND carries an exactly closed form with an exact Gram
certificate, REFUTED carries either an exact linear-programming witness
family with Farkas multipliers, a same-sign obstruction certificate, or the
empty closed cone.  INCONCLUSIVE is a first-class outcome.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb, lcm

from .cxstruct import ComplexStructureSpec, ascending_series, JClass
from .exterior import (
    ComplexForm,
    MultiIndex,
    bidegree_component,
    combine,
    conjugate,
    form_from_json,
    form_to_json,
    monomial,
    wedge,
)
from .liealg import InvalidAlgebraError, is_nilpotent, is_unimodular
from .linalg import gr, same_row_space, solve, sparse_kernel
from .positivity import (
    SearchBudget,
    TransStatus,
    TransversalityVerdict,
    apply_functional,
    check_transverse,
    gram_basis,
    gram_matrix,
    gram_positive_definite,
    is_simple,
    pairing_functional,
    verify_verdict,
    volume_coefficient,
)
from .scalars import GaussianRational, I, ONE, ZERO, i_power, json_int, json_rational
from .simplex import feasibility, verify_farkas


class PKVerdict(str, Enum):
    FOUND = "FOUND"
    REFUTED = "REFUTED"
    INCONCLUSIVE = "INCONCLUSIVE"


class ObstructionRejected(ValueError):
    pass


# -- real (p,p) coordinates ----------------------------------------------------


def real_pp_basis(n: int, p: int) -> list[ComplexForm]:
    """Rational basis of the real vector space of real (p,p)-forms."""
    return list(_real_pp_basis(n, p))


@functools.lru_cache(maxsize=None)
def _real_pp_basis(n: int, p: int) -> tuple[ComplexForm, ...]:
    combos = list(itertools.combinations(range(1, n + 1), p))
    unit = i_power(p * p)
    out = []
    for a in combos:
        out.append(monomial(n, a, a, unit))
    for ia, a in enumerate(combos):
        for b in combos[ia + 1 :]:
            out.append(monomial(n, a, b, unit) + monomial(n, b, a, unit))
            out.append(monomial(n, a, b, unit * I) - monomial(n, b, a, unit * I))
    return tuple(out)


def pp_coordinates(omega: ComplexForm, p: int) -> list[Fraction]:
    """Coordinates of a real (p,p)-form over real_pp_basis, exact."""
    combos = list(itertools.combinations(range(1, omega.n + 1), p))
    terms = omega.terms
    zero = Fraction(0)
    odd = p % 2

    def parts(c: GaussianRational) -> tuple[Fraction, Fraction]:
        # c times conj(i^{p^2}), which is 1 for even p and -i for odd p
        x, y = (c.b, -c.a) if odd else (c.a, c.b)
        return (Fraction(x, c.d) if x else zero, Fraction(y, c.d) if y else zero)

    coords: list[Fraction] = []
    for a in combos:
        c = terms.get(MultiIndex(a, a))
        re, im = parts(c) if c is not None else (zero, zero)
        if im:
            raise ValueError("omega is not real in these coordinates")
        coords.append(re)
    for ia, a in enumerate(combos):
        for b in combos[ia + 1 :]:
            c = terms.get(MultiIndex(a, b))
            coords.extend(parts(c) if c is not None else (zero, zero))
    return coords


@dataclass
class ClosedPP:
    p: int
    coords: list[list[Fraction]]  # kernel basis over the real coordinates
    forms: list[ComplexForm]


def closed_pp_space(struct: ComplexStructureSpec, p: int) -> ClosedPP:
    """Exact kernel of d on real (p,p)-forms, deterministic RREF basis.

    Only the (p+1,p) part of d is used: for real omega the (p,p+1) part is
    its conjugate, so its rows add nothing to the row space.  A basis
    column's image is read off `struct.d_pp_block(p)`: u X for a diagonal
    monomial, and u(X + Y), iu(X - Y) for the pair of a^{A,B} and a^{B,A},
    with X, Y their blocks and u = i^{p^2}.  Each (key, real or imaginary
    part) of the images is one sparse int row, cleared of the denominators
    by their common lcm, and the kernel is taken over them.
    """
    n = struct.n
    if not 0 <= p <= n:
        raise ValueError("p out of range")
    basis = real_pp_basis(n, p)
    block = struct.d_pp_block(p)
    combos = list(itertools.combinations(range(1, n + 1), p))
    turns = p % 2  # the basis unit i^{p^2} is i^turns
    # each column's image as (key, coefficient, quarter turns it is rotated by)
    images = [
        [(key, c, turns) for key, c in block[MultiIndex(a, a)].terms.items()] for a in combos
    ]
    for ia, a in enumerate(combos):
        for b in combos[ia + 1 :]:
            # the +- pair of columns is u(X + Y) and iu(X - Y), built in one pass
            x, y = block[MultiIndex(a, b)].terms, block[MultiIndex(b, a)].terms
            plus, minus = [], []
            for key in {**x, **y}:
                s, t = x.get(key), y.get(key)
                if t is None:
                    plus.append((key, s, turns))
                    minus.append((key, s, turns + 1))
                elif s is None:
                    plus.append((key, t, turns))
                    minus.append((key, t, (turns + 3) % 4))  # iu(-t)
                else:
                    if c := s + t:
                        plus.append((key, c, turns))
                    if c := s - t:
                        minus.append((key, c, turns + 1))
            images += (plus, minus)
    den = lcm(*(c.d for img in images for _, c, _ in img))
    rows: dict[tuple[MultiIndex, int], dict[int, int]] = {}
    for col, img in enumerate(images):
        for key, c, k in img:
            scale = den // c.d
            re, im = ((c.a, c.b), (-c.b, c.a), (-c.a, -c.b), (c.b, -c.a))[k]  # c * i^k
            if re:
                rows.setdefault((key, 0), {})[col] = re * scale
            if im:
                rows.setdefault((key, 1), {})[col] = im * scale
    vectors = sparse_kernel(list(rows.values()), len(basis))
    zero = Fraction(0)
    coords = [[vec.get(j, zero) for j in range(len(basis))] for vec in vectors]
    forms = [combine(n, ((x, basis[j]) for j, x in vec.items())) for vec in vectors]
    return ClosedPP(p, coords, forms)


def _combine(basis: list[ComplexForm], coords) -> ComplexForm:
    n = basis[0].n if basis else 0
    return combine(n, ((c, f) for c, f in zip(coords, basis) if c))


# -- certificates ------------------------------------------------------------------


@dataclass
class WitnessRefutation:
    """Finite witness family whose pairing constraints are exactly infeasible."""

    witnesses: list[ComplexForm]
    farkas: list[Fraction]

    def to_json(self) -> dict:
        return {
            "kind": "witness_family",
            "witnesses": [form_to_json(w) for w in self.witnesses],
            "farkas": [str(x) for x in self.farkas],
        }


@dataclass
class EmptyConeRefutation:
    def to_json(self) -> dict:
        return {"kind": "empty_cone"}


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


@dataclass
class PKahlerReport:
    p: int
    verdict: PKVerdict
    closed_basis: list[ComplexForm]
    found_form: ComplexForm | None = None
    found_certificate: TransversalityVerdict | None = None
    refutation: object | None = None
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict = {
            "p": self.p,
            "verdict": self.verdict.value,
            "closed_basis": [form_to_json(f) for f in self.closed_basis],
            "stats": self.stats,
        }
        if self.found_form is not None:
            out["found_form"] = form_to_json(self.found_form)
            out["found_certificate"] = self.found_certificate.to_json()
        if self.refutation is not None:
            out["refutation"] = self.refutation.to_json()
        return out


# -- obstruction machinery ----------------------------------------------------------


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
    beta = form_from_json(data["beta"], n)
    terms = [
        (GaussianRational.parse(item["c"]), form_from_json(item["psi"], n))
        for item in data["terms"]
    ]
    try:
        cert = obstruction_check(struct, p, beta, terms)
    except ObstructionRejected as exc:
        return [f"obstruction invalid: {exc}"]
    if cert.component != form_from_json(data["component"], n):
        return ["stored obstruction component mismatch"]
    return []


def _diagonal_decomposition(component: ComplexForm):
    n = component.n
    terms = []
    for (holo, anti), c in sorted(component.terms.items()):
        if holo != anti:
            raise ObstructionRejected(
                "component has off-diagonal terms; supply an explicit decomposition"
            )
        terms.append((c, monomial(n, holo)))
    return terms


def obstruction_search(struct: ComplexStructureSpec, p: int) -> ObstructionCertificate | None:
    """Exact search for a diagonal same-sign obstruction.

    The ansatz runs over (q-1,q) and (q,q-1) monomials (the only bidegrees
    whose differential meets (q,q)); the sign conditions become an exact
    rational feasibility problem.
    """
    n = struct.n
    q = n - p
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    if not is_unimodular(struct.g):
        return None
    ansatz: list[MultiIndex] = []
    for a, b in ((q - 1, q), (q, q - 1)):
        for holo in itertools.combinations(range(1, n + 1), a):
            for anti in itertools.combinations(range(1, n + 1), b):
                ansatz.append(MultiIndex(holo, anti))
    images = [
        bidegree_component(struct.d(ComplexForm(n, {key: ONE})), q, q) for key in ansatz
    ]
    target_keys = sorted({key for img in images for key in img.terms})
    diag_keys = [key for key in target_keys if key.holo == key.anti]
    if not diag_keys:
        return None
    off_keys = [key for key in target_keys if key.holo != key.anti]
    nv = 2 * len(ansatz)

    def row_for(key: MultiIndex, part: str) -> list[Fraction]:
        row = []
        for img in images:
            c = img.terms.get(key, ZERO)
            if part == "re":
                row.extend([c.re, -c.im])
            else:
                row.extend([c.im, c.re])
        return row

    a_eq = []
    b_eq = []
    for key in off_keys:
        a_eq.append(row_for(key, "re"))
        b_eq.append(Fraction(0))
        a_eq.append(row_for(key, "im"))
        b_eq.append(Fraction(0))
    for key in diag_keys:
        a_eq.append(row_for(key, "im"))
        b_eq.append(Fraction(0))
    # each diagonal coefficient is >= 0, and their sum is >= 1
    a_ge = [row_for(key, "re") for key in diag_keys]
    a_ge.append([sum(col) for col in zip(*a_ge)])
    b_ge = [Fraction(0)] * len(diag_keys) + [Fraction(1)]
    res = feasibility(a_ge, b_ge, a_eq, b_eq)
    if not res.feasible:
        return None
    beta = ComplexForm.zero(n)
    for idx, key in enumerate(ansatz):
        c = GaussianRational(res.point[2 * idx], res.point[2 * idx + 1])
        if not c.is_zero():
            beta = beta + ComplexForm(n, {key: c})
    return obstruction_check(struct, p, beta)


@dataclass
class CoframeClosureResult:
    t: int
    forbidden_p: int | None


def closed_coframe_obstruction(struct: ComplexStructureSpec) -> CoframeClosureResult:
    """Count of closed coframe elements t; degree n-t admits no structure.

    Defined for nilpotent complex structures on nilpotent algebras.
    """
    if not is_nilpotent(struct.g):
        raise InvalidAlgebraError("closure obstruction needs a nilpotent algebra")
    series = ascending_series(struct)
    if series.classification != JClass.NILPOTENT:
        raise InvalidAlgebraError("closure obstruction needs a nilpotent complex structure")
    t = len(struct.closed_10_forms())
    forbidden = struct.n - t
    return CoframeClosureResult(t, forbidden if forbidden >= 1 else None)


# -- the main search ------------------------------------------------------------------


def find_pkahler(
    struct: ComplexStructureSpec, p: int, budget: SearchBudget | None = None
) -> PKahlerReport:
    """Search for, or refute, a d-closed transverse real (p,p)-form.

    Decision order, after the exact closed-space kernel:
    1. the projection of the standard power, tested by the exact Gram
       reduction, unless one of the first C(n,p) coordinates (the diagonal
       monomials) is zero on the whole closed space: no closed form can then
       pass the Gram test, and that monomial's LP row is all zero, so
       round 1 of step 2 refutes;
    2. witness rounds, at most `budget.witness_cap`.  Each solves the LP over
       the witnesses (the coframe monomials, then harvested simple forms);
       infeasible means REFUTED.  Otherwise `check_transverse` on the LP point
       decides: TRANSVERSE is FOUND, NOT_TRANSVERSE adds its simple witness
       to the LP, INCONCLUSIVE ends the rounds.  Round 1 also runs the
       diagonal obstruction search.
    The LP points never repeat: each harvested row cuts off the point that
    produced it.  Only the harvest's numeric search (at 1 < p < n-1) reads
    the budget's seed, restarts and steps.
    """
    budget = budget or SearchBudget()
    n = struct.n
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    closed = closed_pp_space(struct, p)
    stats: dict = {"closed_dim": len(closed.coords)}
    stats.update(budget.config_json())
    report = PKahlerReport(p, PKVerdict.INCONCLUSIVE, closed.forms, stats=stats)
    if not closed.coords:
        report.verdict = PKVerdict.REFUTED
        report.refutation = EmptyConeRefutation()
        return report

    def found(omega: ComplexForm, cert: TransversalityVerdict) -> PKahlerReport:
        if not struct.d(omega).is_zero():
            raise AssertionError("found form is not closed; internal error")
        report.verdict = PKVerdict.FOUND
        report.found_form = omega
        report.found_certificate = cert
        return report

    def refuted(refutation, rounds: int) -> PKahlerReport:
        report.verdict = PKVerdict.REFUTED
        report.refutation = refutation
        report.stats["witness_rounds"] = rounds
        return report

    # a positive definite Gram matrix has h_aa > 0 at every monomial witness,
    # so no form with a vanishing diagonal coordinate passes the Gram test
    if all(any(vec[j] for vec in closed.coords) for j in range(comb(n, p))):
        proj = _project_onto_span(_standard_power_coords(n, p), closed.coords)
        if proj is not None and any(proj):
            omega = _combine(closed.forms, proj)
            ok, cert = gram_positive_definite(gram_matrix(omega)[1])
            if ok:
                return found(omega, TransversalityVerdict(TransStatus.TRANSVERSE, gram=cert))

    # witness family: all coframe monomials, then harvested simple forms
    witnesses: list[ComplexForm] = [monomial(n, idx) for idx in gram_basis(n, n - p)]
    rows = _witness_rows(closed.forms, witnesses, n - p)
    harvest_budget = SearchBudget(
        restarts=max(2, budget.restarts // 20),
        steps=max(50, budget.steps // 5),
        seed=budget.seed,
        step_tol=budget.step_tol,
    )
    for round_idx in range(budget.witness_cap):
        res = feasibility(rows, [Fraction(1)] * len(rows))
        if not res.feasible:
            return refuted(WitnessRefutation(witnesses, res.farkas_ge), round_idx + 1)
        if round_idx == 0 and (obstruction := obstruction_search(struct, p)) is not None:
            return refuted(obstruction, 1)
        omega = _combine(closed.forms, res.point)
        verdict = check_transverse(omega, harvest_budget)
        if verdict.status == TransStatus.TRANSVERSE:
            return found(omega, verdict)
        if verdict.status == TransStatus.INCONCLUSIVE:
            report.stats["witness_rounds"] = round_idx + 1
            break
        psi = verdict.witness.to_form(n)
        witnesses.append(psi)
        rows += _witness_rows(closed.forms, [psi], n - p)
    return report


@functools.lru_cache(maxsize=None)
def _standard_power_coords(n: int, p: int) -> tuple[Fraction, ...]:
    """pp_coordinates of omega^p / p! for omega = sum_j i a^{j,jb}."""
    omega = ComplexForm.zero(n)
    for j in range(1, n + 1):
        omega = omega + monomial(n, (j,), (j,), I)
    acc = ComplexForm.scalar(n, 1)
    fact = 1
    for t in range(1, p + 1):
        acc = wedge(acc, omega)
        fact *= t
    return tuple(pp_coordinates(acc / fact, p))


def _witness_rows(forms: list[ComplexForm], witnesses: list[ComplexForm], k: int) -> list[list[int | Fraction]]:
    """One LP row per (k,0) witness psi: the real part of the volume pairing
    of psi with each form, from one pairing functional per witness."""
    functionals = [pairing_functional(psi, psi, k) for psi in witnesses]
    return [[_real_part(apply_functional(fn, f)) for f in forms] for fn in functionals]


def _real_part(c: GaussianRational) -> int | Fraction:
    """The real part of c as an LP entry: an int when it is integral."""
    return c.a if c.d == 1 else Fraction(c.a, c.d)


def _project_onto_span(x0: list[Fraction], basis_vecs: list[list[Fraction]]):
    """Exact orthogonal projection coefficients of x0 onto span(basis_vecs).

    The Gram matrix and the right-hand side are summed coordinate by
    coordinate, over the vectors that are nonzero there, so that only
    products of entries sharing a coordinate are formed.
    """
    if not basis_vecs:
        return None
    k = len(basis_vecs)
    buckets: dict[int, list[tuple[int, Fraction]]] = {}
    for i, vec in enumerate(basis_vecs):
        for j, v in enumerate(vec):
            if v:
                buckets.setdefault(j, []).append((i, v))
    zero = Fraction(0)
    gram = [[zero] * k for _ in range(k)]
    for col in buckets.values():
        for a, (i, v) in enumerate(col):
            row = gram[i]
            for l, w in col[a:]:
                row[l] += v * w
    for i in range(k):
        for l in range(i + 1, k):
            gram[l][i] = gram[i][l]
    rhs = [zero] * k
    for j, x in enumerate(x0):
        if x:
            for i, v in buckets.get(j, ()):
                rhs[i] += v * x
    return solve(gram, rhs)


# -- re-verification of serialized reports -------------------------------------------


def verify_report(struct: ComplexStructureSpec, data: dict) -> list[str]:
    """Exact re-verification of a serialized PKahlerReport; returns failures.

    A witness family's witnesses are all checked (nonzero, of bidegree
    (n-p,0), simple), but only those with a nonzero Farkas multiplier are
    paired with the closed forms: the other rows add nothing to the
    certificate.
    """
    failures: list[str] = []
    if not isinstance(data, dict):
        raise ValueError("a report must be a JSON object")
    p = json_int(data["p"], "p")
    n = struct.n
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    closed = closed_pp_space(struct, p)
    stored = data.get("closed_basis", [])
    if not isinstance(stored, list):
        raise ValueError("closed_basis must be a list of forms")
    stored_basis = [form_from_json(item, n) for item in stored]
    # find_pkahler stores the canonical basis; any other basis of the same
    # space, as many real (p,p)-forms as its dimension, passes the row-space
    # comparison
    if stored_basis != closed.forms:
        if not all(f.bidegrees() <= {(p, p)} and f.is_real() for f in stored_basis):
            failures.append(f"closed basis holds a form that is not a real ({p},{p})-form")
        elif len(stored_basis) != len(closed.coords) or not same_row_space(
            closed.coords, [pp_coordinates(f, p) for f in stored_basis]
        ):
            failures.append("closed space mismatch")
    verdict = data["verdict"]
    if verdict == PKVerdict.FOUND.value:
        omega = form_from_json(data["found_form"], n)
        if not struct.d(omega).is_zero():
            failures.append("found form is not closed")
        pp = omega.bidegrees() == {(p, p)}
        if not pp:
            failures.append(f"found form is not of bidegree ({p},{p})")
        real = omega.is_real()
        if not real:
            failures.append("found form is not real")
        # the Gram test is defined for real (p,p)-forms only; verify_verdict
        # runs it once and compares the stored minors, and a FOUND claim must
        # carry a TRANSVERSE certificate
        if pp and real:
            cert = data.get("found_certificate", {})
            if isinstance(cert, dict) and cert.get("status") != TransStatus.TRANSVERSE.value:
                failures.append("found certificate is not TRANSVERSE")
            else:
                failures.extend(verify_verdict(omega, cert))
    elif verdict == PKVerdict.REFUTED.value:
        ref = data.get("refutation", {})
        if not isinstance(ref, dict):
            raise ValueError("a refutation must be a JSON object")
        kind = ref.get("kind")
        if kind == "empty_cone":
            if closed.coords:
                failures.append("closed space is nonzero; empty-cone claim false")
        elif kind == "witness_family":
            if not isinstance(ref["witnesses"], list) or not isinstance(ref["farkas"], list):
                raise ValueError("witnesses and farkas must be lists")
            witnesses = [form_from_json(item, n) for item in ref["witnesses"]]
            farkas = [json_rational(x, "farkas multiplier") for x in ref["farkas"]]
            before = len(failures)
            for psi in witnesses:
                if psi.is_zero():
                    failures.append("zero witness form")
                elif psi.bidegrees() != {(n - p, 0)}:
                    failures.append(f"witness is not of bidegree ({n - p},0)")
                elif not is_simple(psi):
                    failures.append("witness is not simple")
            if len(farkas) != len(witnesses):
                failures.append("farkas length mismatch")
            elif len(failures) == before:
                # a row with multiplier 0 adds nothing to y A or y b; a
                # negative multiplier stays, for verify_farkas to reject
                support = [(psi, y) for psi, y in zip(witnesses, farkas) if y != 0]
                rows = [
                    [_real_part(volume_coefficient(f, psi)) for f in closed.forms]
                    for psi, _ in support
                ]
                if not verify_farkas(rows, [Fraction(1)] * len(rows), [y for _, y in support]):
                    failures.append("farkas certificate invalid")
        elif kind == "obstruction":
            failures.extend(verify_obstruction(struct, p, ref))
        else:
            failures.append(f"unknown refutation kind {kind!r}")
    elif verdict != PKVerdict.INCONCLUSIVE.value:
        failures.append(f"unknown verdict {verdict!r}")
    return failures
