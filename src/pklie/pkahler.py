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
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction

from .cxstruct import ComplexStructureSpec, pp_basis
from .exterior import (
    ComplexForm,
    bidegree_component,
    combine,
    form_from_json,
    form_to_json,
    index_mask,
    is_simple,
    term_order,
)
from .liealg import is_unimodular
from .linalg import gr, same_row_space, solve, sparse_kernel
from .obstruction import ObstructionCertificate, obstruction_check, verify_obstruction
from .positivity import (
    SearchBudget,
    TransStatus,
    TransversalityVerdict,
    apply_functional,
    check_transverse,
    gram_basis,
    gram_matrix,
    gram_positive_definite,
    pairing_functional,
    verify_verdict,
    volume_coefficient,
)
from .scalars import GaussianRational, ONE, ZERO, _gr, json_int, json_rational, unexpected_fields
from .simplex import feasibility, verify_farkas


class PKVerdict(str, Enum):
    FOUND = "FOUND"
    REFUTED = "REFUTED"
    INCONCLUSIVE = "INCONCLUSIVE"


# -- real (p,p) coordinates ----------------------------------------------------


def pp_coordinates(omega: ComplexForm, p: int) -> list[Fraction]:
    """Exact coordinates of a real (p,p)-form over the columns of `pp_basis`.

    Each coordinate is read at its column's first term i^k a^mask as the real
    part of i^-k times omega's coefficient there; ValueError unless the
    coordinates rebuild omega, that is unless omega is a real (p,p)-form.
    """
    n = omega.n
    coords: list[Fraction] = []
    for (mask, k), *_ in pp_basis(n, p):
        c = omega.terms.get(mask, ZERO)
        x = c.b if k & 1 else c.a
        coords.append(Fraction(-x if k & 2 else x, c.d))
    if _pp_form(n, p, {j: x for j, x in enumerate(coords) if x}) != omega:
        raise ValueError(f"omega is not a real ({p},{p})-form")
    return coords


def _pp_form(n: int, p: int, vec: dict[int, Fraction]) -> ComplexForm:
    """sum_j x_j times column j of `pp_basis(n, p)`, for the sparse vec {j: x_j}."""
    basis = pp_basis(n, p)
    acc: dict[int, GaussianRational] = {}
    for j, x in vec.items():
        num, den = x.numerator, x.denominator
        for mask, k in basis[j]:
            # i^k x: x on the real (even k) or imaginary (odd k) part, negated for k >= 2
            s = -num if k & 2 else num
            z = _gr(0, s, den) if k & 1 else _gr(s, 0, den)
            prev = acc.get(mask)
            acc[mask] = z if prev is None else prev + z
    return ComplexForm._wrap(n, {m: z for m, z in acc.items() if z})


@dataclass
class ClosedPP:
    p: int
    coords: list[dict[int, Fraction]]  # kernel basis over the `pp_basis` columns, nonzeros only
    forms: list[ComplexForm]


def closed_pp_space(struct: ComplexStructureSpec, p: int) -> ClosedPP:
    """Exact kernel of d on real (p,p)-forms, deterministic RREF basis.

    Coordinates are over the columns of `pp_basis(n, p)`.  The kernel is
    `sparse_kernel` of the int rows of `struct.pp_system(p)`, the (p+1,p) part
    of d (for real omega the (p,p+1) part is its conjugate), and each closed
    form is sum_j x_j (column j) over its kernel vector x.
    """
    n = struct.n
    if not 0 <= p <= n:
        raise ValueError("p out of range")
    vectors = sparse_kernel(list(struct.pp_system(p).values()), len(pp_basis(n, p)))
    return ClosedPP(p, vectors, [_pp_form(n, p, vec) for vec in vectors])


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


# -- obstruction search ------------------------------------------------------------


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
    rows = _monomial_rows(closed_pp_space(struct, p).coords, n, q)
    res = feasibility(rows, [Fraction(1)] * len(rows))
    if res.feasible:
        return None
    target = {m | m << n: gr(y) for m, y in zip(map(index_mask, gram_basis(n, q)), res.farkas_ge) if y}
    ansatz = [
        index_mask(holo) | index_mask(anti) << n
        for a, b in ((q - 1, q), (q, q - 1))
        for holo in gram_basis(n, a)
        for anti in gram_basis(n, b)
    ]
    images = [bidegree_component(struct.d(ComplexForm._wrap(n, {key: ONE})), q, q).terms for key in ansatz]
    image_keys = sorted({*target, *(key for img in images for key in img)}, key=term_order(n))
    x = solve(
        [[img.get(key, ZERO) for img in images] for key in image_keys],
        [target.get(key, ZERO) for key in image_keys],
    )
    if x is None:
        raise AssertionError("no beta reaches the Farkas target; internal error")
    return obstruction_check(struct, p, ComplexForm._wrap(n, {key: c for key, c in zip(ansatz, x) if c}))


# -- the main search ------------------------------------------------------------------


def find_pkahler(
    struct: ComplexStructureSpec, p: int, budget: SearchBudget | None = None
) -> PKahlerReport:
    """Search for, or refute, a d-closed transverse real (p,p)-form.

    Decision order, after the exact closed-space kernel:
    1. the projection of the standard power, tested by the exact Gram
       reduction, unless a coframe monomial's LP row (a diagonal coordinate)
       is zero on the whole closed space: no closed form can then pass the
       Gram test, and round 1 of step 2 refutes;
    2. witness rounds, at most `budget.witness_cap`.  Each solves the LP over
       the witnesses (coframe monomials, rows read off the closed vectors'
       diagonal coordinates, then harvested simple forms); infeasible means REFUTED.
       Otherwise `check_transverse` on the LP point decides: TRANSVERSE is
       FOUND, NOT_TRANSVERSE adds its simple witness form to the LP,
       INCONCLUSIVE ends the rounds.  Round 1 also runs the diagonal
       obstruction search, the dual of its LP, which finds nothing once that
       LP is feasible.
    The LP points never repeat: each harvested row cuts off the point that
    produced it.  Unless it is FOUND or the closed space is zero, the report
    records the rounds run as `witness_rounds`.  Every step is exact; the
    budget's seed, restarts and steps are only recorded in the stats.
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
    # so no form passes the Gram test while a monomial's row is all zero
    rows = _monomial_rows(closed.coords, n, n - p)
    if all(any(row) for row in rows):
        proj = _project_onto_span(_standard_power_coords(n, p), closed.coords)
        if proj is not None and any(proj):
            omega = _combine(closed.forms, proj)
            ok, cert = gram_positive_definite(gram_matrix(omega)[1])
            if ok:
                return found(omega, TransversalityVerdict(TransStatus.TRANSVERSE, gram=cert))

    # witness family: all coframe monomials, then harvested simple forms
    witnesses = [ComplexForm._wrap(n, {index_mask(idx): ONE}) for idx in gram_basis(n, n - p)]
    for round_idx in range(budget.witness_cap):
        res = feasibility(rows, [Fraction(1)] * len(rows))
        if not res.feasible:
            return refuted(WitnessRefutation(witnesses, res.farkas_ge), round_idx + 1)
        if round_idx == 0 and (obstruction := obstruction_search(struct, p)) is not None:
            return refuted(obstruction, 1)
        omega = _combine(closed.forms, res.point)
        verdict = check_transverse(omega)
        if verdict.status == TransStatus.TRANSVERSE:
            return found(omega, verdict)
        if verdict.status == TransStatus.INCONCLUSIVE:
            break
        psi = verdict.witness.form
        witnesses.append(psi)
        rows += _witness_rows(closed.forms, [psi], n - p)
    report.stats["witness_rounds"] = round_idx + 1
    return report


def _standard_power_coords(n: int, p: int) -> tuple[Fraction, ...]:
    """pp_coordinates of omega^p / p! for omega = sum_j i a^{j,jb}: that power
    is i^{p^2} sum_A a^{A,Ab}, the sum of the one-term (diagonal) columns."""
    return tuple(Fraction(int(len(terms) == 1)) for terms in pp_basis(n, p))


def _witness_rows(forms: list[ComplexForm], witnesses: list[ComplexForm], k: int) -> list[list[int | Fraction]]:
    """One LP row per (k,0) witness psi: the real part of the volume pairing
    of psi with each form, from one pairing functional per witness."""
    functionals = [pairing_functional(psi, k) for psi in witnesses]
    return [[_real_part(apply_functional(fn, f)) for f in forms] for fn in functionals]


def _monomial_rows(coords: list[dict[int, Fraction]], n: int, k: int) -> list[list[int | Fraction]]:
    """`_witness_rows` of the coframe monomials a^K, K in `gram_basis(n, k)`, over the closed
    forms with these `pp_basis(n, n - k)` coordinates: a^K pairs to 1 with the column
    i^{(n-k)^2} a^{K^c,K^c} and to 0 with every other, so its row is the (int when integral)
    coordinates there."""
    return [
        [(vec[j].numerator if vec[j].denominator == 1 else vec[j]) if j in vec else 0 for vec in coords]
        for j in _monomial_columns(n, k)
    ]


@functools.lru_cache(maxsize=None)
def _monomial_columns(n: int, k: int) -> tuple[int, ...]:
    """The `pp_basis(n, n - k)` column of i^{(n-k)^2} a^{K^c,K^c} for each K in `gram_basis(n, k)`."""
    full = (1 << n) - 1
    column = {terms[0][0] & full: j for j, terms in enumerate(pp_basis(n, n - k)) if len(terms) == 1}
    return tuple(column[full ^ index_mask(idx)] for idx in gram_basis(n, k))


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


# the keys each refutation kind's check reads; `verify_obstruction` checks its own
_REFUTATION_FIELDS = {"empty_cone": {"kind"}, "witness_family": {"kind", "witnesses", "farkas"}}


def verify_report(struct: ComplexStructureSpec, data: dict) -> list[str]:
    """Exact re-verification of a serialized PKahlerReport; returns failures.

    A witness family's witnesses are all checked (nonzero, of bidegree
    (n-p,0), simple), but only those with a nonzero Farkas multiplier are
    paired with the closed forms: the other rows add nothing to the
    certificate.
    """
    if not isinstance(data, dict):
        raise ValueError("a report must be a JSON object")
    # the JSON keys of a report are the names of the PKahlerReport fields
    failures = unexpected_fields(data, {f.name for f in fields(PKahlerReport)}, "report")
    p = json_int(data["p"], "p")
    n = struct.n
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    closed = closed_pp_space(struct, p)
    stats = data.get("stats", {})
    if not isinstance(stats, dict):
        raise ValueError("stats must be a JSON object")
    not_int = sorted(key for key, value in stats.items() if type(value) is not int)
    failures += [f"stats value {key!r} is not an int" for key in not_int]
    if "closed_dim" not in not_int and stats.get("closed_dim") != len(closed.coords):
        failures.append(f"stats closed_dim is not {len(closed.coords)}, the dimension of the closed space")
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
                zero, size = Fraction(0), len(pp_basis(n, p))
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
        # checks that a FOUND claim carries a TRANSVERSE certificate, runs
        # the test once and compares the stored minors
        if pp and real:
            failures.extend(verify_verdict(omega, data.get("found_certificate", {})))
    elif verdict == PKVerdict.REFUTED.value:
        ref = data.get("refutation", {})
        if not isinstance(ref, dict):
            raise ValueError("a refutation must be a JSON object")
        kind = ref.get("kind")
        if isinstance(kind, str) and kind in _REFUTATION_FIELDS:
            failures += unexpected_fields(ref, _REFUTATION_FIELDS[kind], "refutation")
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
