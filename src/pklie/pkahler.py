"""The p-Kahler decision pipeline.

Real (p,p)-forms are coordinatized over the rationals (Hermitian-symmetric
coefficient pairs), the closed subspace is an exact kernel, and verdicts are
certified: FOUND carries an exactly closed form with an exact Gram
certificate, REFUTED carries either an exact linear-programming witness
family with Farkas multipliers, a same-sign obstruction certificate, or the
empty closed cone.  INCONCLUSIVE is a first-class outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb

from .cxstruct import ComplexStructureSpec
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
from .liealg import is_unimodular
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
    _gram_units,
    is_simple,
    pairing_functional,
    verify_verdict,
    volume_coefficient,
)
from .scalars import GaussianRational, ONE, ZERO, json_int, json_rational
from .simplex import feasibility, verify_farkas


class PKVerdict(str, Enum):
    FOUND = "FOUND"
    REFUTED = "REFUTED"
    INCONCLUSIVE = "INCONCLUSIVE"


class ObstructionRejected(ValueError):
    pass


# -- real (p,p) coordinates ----------------------------------------------------


def pp_coordinates(omega: ComplexForm, p: int) -> list[Fraction]:
    """Exact coordinates of a real (p,p)-form over the real basis that
    `closed_pp_space` coordinatizes: u a^{A,A} for each |A| = p, then for
    each A < B the pair u(a^{A,B} + a^{B,A}), iu(a^{A,B} - a^{B,A}), with
    u = i^{p^2} and the p-subsets A, B in lexicographic order."""
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
    coords: list[dict[int, Fraction]]  # kernel basis over the real coordinates, nonzeros only
    forms: list[ComplexForm]


def closed_pp_space(struct: ComplexStructureSpec, p: int) -> ClosedPP:
    """Exact kernel of d on real (p,p)-forms, deterministic RREF basis.

    Coordinates are those of `pp_coordinates`.  The kernel is `sparse_kernel`
    of the int rows of `struct.pp_system(p)`, the (p+1,p) part of d (for real
    omega the (p,p+1) part is its conjugate).  Each closed form is written
    from its kernel vector: with u = i^{p^2}, x on a diagonal column is u x at
    (A,A), and the pair (x+, x-) is u(x+ + i x-) at (A,B), u(x+ - i x-) at (B,A).
    """
    n = struct.n
    if not 0 <= p <= n:
        raise ValueError("p out of range")
    combos = list(itertools.combinations(range(1, n + 1), p))
    pairs = [(a, b) for ia, a in enumerate(combos) for b in combos[ia + 1 :]]
    turns = p % 2  # the basis unit i^{p^2} is i^turns
    vectors = sparse_kernel(list(struct.pp_system(p).values()), len(combos) ** 2)
    zero = Fraction(0)
    diag = len(combos)
    forms = []
    for vec in vectors:
        terms: dict[MultiIndex, GaussianRational] = {}
        for j, x in vec.items():
            if j < diag:
                # u x, with u = 1 for even p and i for odd p
                key = MultiIndex(combos[j], combos[j])
                terms[key] = GaussianRational(zero, x) if turns else GaussianRational.coerce(x)
                continue
            k = (j - diag) // 2
            a, b = pairs[k]
            key = MultiIndex(a, b)
            if key in terms:  # written from the pair's other column
                continue
            xp, xm = vec.get(diag + 2 * k, zero), vec.get(diag + 2 * k + 1, zero)
            # u(x+ + i x-) at (A,B) and u(x+ - i x-) at (B,A): z and conj z for
            # u = 1, and -conj z and z for u = i with z = x- + i x+
            if turns:
                z = GaussianRational(xm, xp)
                terms[key], terms[MultiIndex(b, a)] = -z.conjugate(), z
            else:
                z = GaussianRational(xp, xm)
                terms[key], terms[MultiIndex(b, a)] = z, z.conjugate()
        forms.append(ComplexForm._wrap(n, terms))
    return ClosedPP(p, vectors, forms)


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
    """Exact search for a diagonal same-sign obstruction, as the dual of
    witness round 1 of `find_pkahler`.

    On a unimodular algebra, with q = n - p, the wedge pairing of (p,p)- and
    (q,q)-forms is perfect and exact top-degree forms vanish, so the
    (q,q)-forms that annihilate every closed (p,p)-form are exactly the (q,q)
    parts of d beta, over beta of bidegree (q-1,q) and (q,q-1) (Harvey-Lawson;
    Alessandrini-Bassanelli).  A diagonal same-sign obstruction therefore
    exists iff the LP over the coframe-monomial witnesses a^K is infeasible.
    Its Farkas multipliers y give the target sum_K y_K a^{K,Kb}, and one exact
    solve of (d beta)^{(q,q)} = target over the (q-1,q) and (q,q-1) monomials
    gives beta.  None when the LP is feasible or the algebra is not unimodular.
    """
    n = struct.n
    q = n - p
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    if not is_unimodular(struct.g):
        return None
    closed = closed_pp_space(struct, p)
    rows = _monomial_rows(closed.forms, n, q)
    res = feasibility(rows, [Fraction(1)] * len(rows))
    if res.feasible:
        return None
    target = {MultiIndex(key, key): gr(y) for key, y in zip(gram_basis(n, q), res.farkas_ge) if y}
    ansatz = [
        MultiIndex(holo, anti)
        for a, b in ((q - 1, q), (q, q - 1))
        for holo in gram_basis(n, a)
        for anti in gram_basis(n, b)
    ]
    images = [bidegree_component(struct.d(ComplexForm(n, {key: ONE})), q, q).terms for key in ansatz]
    image_keys = sorted({*target, *(key for img in images for key in img)})
    x = solve(
        [[img.get(key, ZERO) for img in images] for key in image_keys],
        [target.get(key, ZERO) for key in image_keys],
    )
    if x is None:
        raise AssertionError("no beta reaches the Farkas target; internal error")
    return obstruction_check(struct, p, ComplexForm(n, {key: c for key, c in zip(ansatz, x) if c}))


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
       the witnesses (coframe monomials, rows read off the closed forms'
       diagonals, then harvested simple forms); infeasible means REFUTED.
       Otherwise `check_transverse` on the LP point decides: TRANSVERSE is
       FOUND, NOT_TRANSVERSE adds its simple witness to the LP, INCONCLUSIVE
       ends the rounds.  Round 1 also runs the diagonal obstruction search,
       the dual of its LP, which finds nothing once that LP is feasible.
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
    support = set().union(*closed.coords)
    if all(j in support for j in range(comb(n, p))):
        proj = _project_onto_span(_standard_power_coords(n, p), closed.coords)
        if proj is not None and any(proj):
            omega = _combine(closed.forms, proj)
            ok, cert = gram_positive_definite(gram_matrix(omega)[1])
            if ok:
                return found(omega, TransversalityVerdict(TransStatus.TRANSVERSE, gram=cert))

    # witness family: all coframe monomials, then harvested simple forms
    witnesses: list[ComplexForm] = [monomial(n, idx) for idx in gram_basis(n, n - p)]
    rows = _monomial_rows(closed.forms, n, n - p)
    harvest_budget = SearchBudget(
        restarts=max(2, budget.restarts // 20),
        steps=max(50, budget.steps // 5),
        seed=budget.seed,
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


def _standard_power_coords(n: int, p: int) -> tuple[Fraction, ...]:
    """pp_coordinates of omega^p / p! for omega = sum_j i a^{j,jb}: that power
    is i^{p^2} sum_A a^{A,Ab}, so 1 on each diagonal column, 0 elsewhere."""
    diag = comb(n, p)
    return (Fraction(1),) * diag + (Fraction(0),) * (diag * (diag - 1))


def _witness_rows(forms: list[ComplexForm], witnesses: list[ComplexForm], k: int) -> list[list[int | Fraction]]:
    """One LP row per (k,0) witness psi: the real part of the volume pairing
    of psi with each form, from one pairing functional per witness."""
    functionals = [pairing_functional(psi, psi, k) for psi in witnesses]
    return [[_real_part(apply_functional(fn, f)) for f in forms] for fn in functionals]


def _monomial_rows(forms: list[ComplexForm], n: int, k: int) -> list[list[int | Fraction]]:
    """`_witness_rows` of the coframe monomials a^K, K in `gram_basis(n, k)`: a^K pairs
    with an (n-k,n-k)-form through its one coefficient at (K^c, K^c) and a `_gram_units` unit."""
    diagonal = [row[a] for a, row in enumerate(_gram_units(n, k))]
    return [[_real_part(f.terms[key] * unit) if key in f.terms else 0 for f in forms] for key, unit in diagonal]


def _real_part(c: GaussianRational) -> int | Fraction:
    """The real part of c as an LP entry: an int when it is integral."""
    return c.a if c.d == 1 else Fraction(c.a, c.d)


def _project_onto_span(x0: list[Fraction], basis_vecs: list[dict[int, Fraction] | list[Fraction]]):
    """Exact orthogonal projection coefficients of the dense x0 onto the span
    of basis_vecs, each sparse ({coordinate: entry}, as `ClosedPP.coords`
    holds them) or a dense list.

    The Gram matrix and the right-hand side are summed coordinate by
    coordinate, over the vectors that are nonzero there, so that only
    products of entries sharing a coordinate are formed.
    """
    if not basis_vecs:
        return None
    k = len(basis_vecs)
    buckets: dict[int, list[tuple[int, Fraction]]] = {}
    for i, vec in enumerate(basis_vecs):
        for j, v in vec.items() if isinstance(vec, dict) else enumerate(vec):
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
    # find_pkahler stores the canonical basis, and form_to_json is canonical,
    # so the same JSON (with int indices, which == does not tell from true or
    # 1.0) is the same forms.  Any other serialization is parsed; any other
    # basis of the same space, as many real (p,p)-forms as its dimension,
    # passes the row-space comparison
    if stored != [form_to_json(f) for f in closed.forms] or not all(
        type(j) is int for form in stored for term in form for j in (*term["holo"], *term["anti"])
    ):
        stored_basis = [form_from_json(item, n) for item in stored]
        if stored_basis != closed.forms:
            if not all(f.bidegrees() <= {(p, p)} and f.is_real() for f in stored_basis):
                failures.append(f"closed basis holds a form that is not a real ({p},{p})-form")
            else:
                zero, size = Fraction(0), comb(n, p) ** 2
                dense = [[vec.get(j, zero) for j in range(size)] for vec in closed.coords]
                if len(stored_basis) != len(dense) or not same_row_space(
                    dense, [pp_coordinates(f, p) for f in stored_basis]
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
