"""Positivity of real (p,p)-forms: transversality and its certificates.

Verdicts are three-valued.  TRANSVERSE and NOT_TRANSVERSE always carry exact
certificates (a positive-definite Gram reduction, or a simple test form with
nonpositive volume coefficient); INCONCLUSIVE carries nothing.
Every decision is made in exact arithmetic; floating point appears only in
the irrational fallback of `metric_power_root`, which decides nothing.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .exterior import (
    ComplexForm,
    index_mask,
    is_simple,
    monomial,
    one_form,
    reference_volume_coefficient,
    substitute,
    wedge,
)
from .linalg import Matrix, gr, hermitian_pivots, leading_minors
from .scalars import GaussianRational, I, ONE, ZERO, i_power, unexpected_fields


class TransStatus(str, Enum):
    TRANSVERSE = "TRANSVERSE"
    NOT_TRANSVERSE = "NOT_TRANSVERSE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class SearchBudget:
    """Search settings of `find_pkahler`: `witness_cap` bounds its LP rounds.

    `seed`, `restarts` and `steps` are validated and recorded in the report
    stats (`config_json`) but read by no search: every step is exact.
    """

    restarts: int = 200
    steps: int = 500
    seed: int = 0
    witness_cap: int = 24

    def __post_init__(self):
        if self.restarts < 0 or self.steps < 0:
            raise ValueError(
                f"search budget restarts and steps must be >= 0, got {self.restarts} and {self.steps}"
            )
        if self.seed < 0:
            raise ValueError(f"search seed must be >= 0, got {self.seed}")
        if self.witness_cap < 1:
            raise ValueError(f"witness cap must be >= 1, got {self.witness_cap}")

    def config_json(self) -> dict:
        return {
            "pkl.search.restarts": self.restarts,
            "pkl.search.steps": self.steps,
            "pkl.search.seed": self.seed,
        }


@dataclass
class GramCertificate:
    pivots: list[GaussianRational]
    minors: list[Fraction]

    def to_json(self) -> dict:
        return {
            "pivots": [str(p) for p in self.pivots],
            "minors": [str(m) for m in self.minors],
        }


@dataclass
class SimpleFormWitness:
    """The offending simple (n-p,0)-form psi and its volume coefficient."""

    form: ComplexForm
    value: GaussianRational


@dataclass
class TransversalityVerdict:
    status: TransStatus
    gram: GramCertificate | None = None
    witness: SimpleFormWitness | None = None

    def to_json(self) -> dict:
        out: dict = {"status": self.status.value}
        if self.gram is not None:
            out["gram"] = self.gram.to_json()
        return out


# -- volume pairing ---------------------------------------------------------------


def volume_coefficient(omega: ComplexForm, psi: ComplexForm) -> GaussianRational:
    """i^{(n-p)^2} omega ^ psi ^ conj(psi) over i a^{1,1b} ^ ... ^ i a^{n,nb}, by `pairing_functional`."""
    bid = omega.bidegree()
    if bid is None or bid[0] != bid[1]:
        raise ValueError("omega must be a homogeneous (p,p)-form")
    if psi.n != omega.n:
        raise ValueError("coframe dimension mismatch")
    return apply_functional(pairing_functional(psi, omega.n - bid[0]), omega)


def pairing_functional(psi: ComplexForm, k: int) -> dict[int, GaussianRational]:
    """The volume pairing with the (k,0)-form psi as {key: coefficient} on (n-k,n-k)-forms.

    With psi = sum x_a a^{I_a} it is sum x_a conj(x_b) times the pairing of
    a^{I_a} with a^{I_b}, which `_gram_units` holds as one key of omega,
    distinct for each (a, b), and a unit factor.
    """
    if not psi.is_zero() and psi.bidegrees() != {(k, 0)}:
        raise ValueError(f"test form must be a ({k},0)-form")
    units = _gram_units(psi.n, k)
    position = _gram_position(psi.n, k)
    out = {}
    for holo_a, x in psi.terms.items():
        row = units[position[holo_a]]
        for holo_b, y in psi.terms.items():
            key, unit = row[position[holo_b]]
            out[key] = x * y.conjugate() * unit
    return out


def apply_functional(functional: dict[int, GaussianRational], omega: ComplexForm) -> GaussianRational:
    """The sum over the functional's keys of omega's coefficient there times the functional's."""
    return sum((omega.terms[key] * c for key, c in functional.items() if key in omega.terms), ZERO)


def gram_basis(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n + 1), k))


@functools.lru_cache(maxsize=None)
def _gram_position(n: int, k: int) -> dict[int, int]:
    """Row of each (k,0) coframe monomial, by its mask, in the Gram matrix."""
    return {index_mask(idx): a for a, idx in enumerate(gram_basis(n, k))}


@functools.lru_cache(maxsize=None)
def _gram_units(n: int, k: int) -> tuple[tuple[tuple[int, GaussianRational], ...], ...]:
    """Per Gram entry (a, b): the one key of omega it reads, and its factor.

    Only omega's term at (complement of I_a, complement of I_b) survives the
    wedge with a^{I_a} and conj(a^{I_b}); the factor is the pairing of that
    unit monomial, computed here once by wedges, so entry (a, b) is omega's
    coefficient there times it.
    """
    basis = gram_basis(n, k)
    full = (1 << n) - 1
    comp = [full ^ index_mask(idx) for idx in basis]
    top = full | full << n
    scale = i_power(k * k) / reference_volume_coefficient(n)
    rows = []
    for a, ca in enumerate(comp):
        row = []
        for b, cb in enumerate(comp):
            key = ca | cb << n
            w = wedge(ComplexForm._wrap(n, {key: ONE}), monomial(n, basis[a]))
            w = wedge(w, monomial(n, (), basis[b]))
            row.append((key, w.terms.get(top, ZERO) * scale))
        rows.append(tuple(row))
    return tuple(rows)


def gram_matrix(omega: ComplexForm) -> tuple[list[tuple[int, ...]], Matrix]:
    """Hermitian matrix of the volume pairing on Lambda^{n-p,0} monomials."""
    n = omega.n
    bid = omega.bidegree()
    if bid is None or bid[0] != bid[1]:
        raise ValueError("omega must be a homogeneous (p,p)-form")
    k = n - bid[0]
    basis = gram_basis(n, k)
    terms = omega.terms
    h = [
        [terms[key] * unit if key in terms else ZERO for key, unit in row]
        for row in _gram_units(n, k)
    ]
    for a, row in enumerate(h):
        for b in range(a, len(h)):
            x, y = row[b], h[b][a]
            if x.a != y.a or x.b != -y.b or x.d != y.d:
                raise AssertionError("volume pairing is not Hermitian; omega not real?")
    return basis, h


def gram_positive_definite(h: Matrix):
    """(is_pd, certificate-or-witness) via exact conjugate Gram-Schmidt."""
    ok, pivots, _vectors, bad = hermitian_pivots(h)
    if ok:
        return True, GramCertificate(pivots, leading_minors(pivots))
    return False, bad


# -- transversality decision --------------------------------------------------------


def check_transverse(omega: ComplexForm) -> TransversalityVerdict:
    """Decide transversality of a real (p,p)-form, exactly.

    Pipeline: Gram positivity (sufficient); the witness from the failed Gram
    reduction at p = 1 or p = n-1 (where transversality and positive
    definiteness agree); then a scan over coordinate pencils, whose blocks
    hold every coframe monomial.
    """
    n = omega.n
    bid = omega.bidegree()
    if bid is None or bid[0] != bid[1]:
        raise ValueError("transversality is defined for homogeneous (p,p)-forms")
    if not omega.is_real():
        raise ValueError("transversality is defined for real forms")
    p = bid[0]
    if not 1 <= p <= n - 1:
        raise ValueError("need 1 <= p <= n-1")
    k = n - p
    basis, h = gram_matrix(omega)
    ok, cert = gram_positive_definite(h)
    if ok:
        return TransversalityVerdict(TransStatus.TRANSVERSE, gram=cert)
    if p in (1, n - 1):
        return _not_transverse(omega, cert[0], basis)
    # exact pencil scan: for a (k-1)-subset J, every sum of the monomials
    # a^K with K containing J is a^J ^ phi for a 1-form phi, so simple, and
    # the Gram block of those monomials is the pairing on such sums
    masks = [index_mask(idx) for idx in basis]
    for jdx in itertools.combinations(range(1, n + 1), k - 1):
        j_mask = index_mask(jdx)
        block = [a for a, mask in enumerate(masks) if mask & j_mask == j_mask]
        ok, _pivots, _vectors, bad = hermitian_pivots([[h[a][b] for b in block] for a in block])
        if not ok:
            return _not_transverse(omega, bad[0], [basis[a] for a in block])
    return TransversalityVerdict(TransStatus.INCONCLUSIVE)


def _not_transverse(omega: ComplexForm, vec: Sequence, basis) -> TransversalityVerdict:
    """NOT_TRANSVERSE with the witness sum_a vec_a a^{basis_a}, which must be simple."""
    psi = ComplexForm._wrap(omega.n, {index_mask(idx): c for c, idx in zip(vec, basis) if c})
    if not is_simple(psi):
        raise AssertionError("witness form is not simple; internal error")
    witness = SimpleFormWitness(psi, volume_coefficient(omega, psi))
    return TransversalityVerdict(TransStatus.NOT_TRANSVERSE, witness=witness)


def verify_verdict(omega: ComplexForm, data: dict) -> list[str]:
    """Exact re-verification of a serialized TRANSVERSE found certificate."""
    if not isinstance(data, dict):
        raise ValueError("a found certificate must be a JSON object")
    if data.get("status") != TransStatus.TRANSVERSE.value:
        return ["found certificate is not TRANSVERSE"]
    failures = unexpected_fields(data, {"status", "gram"}, "found certificate")
    ok, cert = gram_positive_definite(gram_matrix(omega)[1])
    if not ok:
        failures.append("Gram pairing is not positive definite")
    elif cert.to_json() != data.get("gram"):
        failures.append("stored Gram certificate does not match the recomputation")
    return failures


# -- root extraction for top-codimension positive forms ------------------------------


@dataclass
class MetricRoot:
    exact: bool
    form: ComplexForm
    residual: float


def _nth_root_fraction(value: Fraction, k: int) -> Fraction | None:
    def iroot(m: int) -> int | None:
        if m < 0:
            return None
        r = round(m ** (1.0 / k)) if m else 0
        for cand in range(max(r - 2, 0), r + 3):
            if cand**k == m:
                return cand
        return None

    num = iroot(value.numerator)
    den = iroot(value.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def metric_power_root(phi: ComplexForm) -> MetricRoot:
    """Extract the (1,1)-form omega with omega^(m-1)/(m-1)! = phi.

    phi must be a real (m-1,m-1)-form whose Gram pairing on Lambda^{1,0} is
    positive definite.  The pairing is diagonalized by an exact congruence;
    the diagonal system prod_{k != j} c_k = d_j has the closed-form solution
    c_j = S/d_j with S the (m-1)-st root of prod d_j.  When S is irrational
    the root is returned with float-accurate rational coefficients and the
    exact-wedge residual is reported.
    """
    m = phi.n
    bid = phi.bidegree()
    if bid != (m - 1, m - 1):
        raise ValueError("phi must be an (m-1,m-1)-form")
    if not phi.is_real():
        raise ValueError("phi must be real")
    basis, h = gram_matrix(phi)
    ok, pivots, vectors, bad = hermitian_pivots(h)
    if not ok:
        raise ValueError("phi is not strictly positive (Gram pairing not definite)")
    # coframe change b = S a with S = conj(V) (rows of the Gram-Schmidt basis)
    s_rows = [[c.conjugate() for c in vec] for vec in vectors]
    d = [piv.re for piv in pivots]
    prod = Fraction(1)
    for dj in d:
        prod *= dj
    root = _nth_root_fraction(prod, m - 1)
    factorial = 1
    for t in range(2, m):
        factorial *= t

    def build_root_form(cs: list[GaussianRational]) -> ComplexForm:
        omega_b = ComplexForm.zero(m)
        for j, c in enumerate(cs, start=1):
            omega_b = omega_b + monomial(m, (j,), (j,), c * I)
        images = [one_form(m, row) for row in s_rows]
        return substitute(omega_b, images, n_target=m)

    def power_over_factorial(w: ComplexForm) -> ComplexForm:
        acc = ComplexForm.scalar(m, 1)
        for _ in range(m - 1):
            acc = wedge(acc, w)
        return acc / factorial

    if root is not None:
        cs = [gr(root / dj) for dj in d]
        omega = build_root_form(cs)
        if power_over_factorial(omega) != phi:
            raise AssertionError("exact root reconstruction failed")
        return MetricRoot(True, omega, 0.0)
    root_f = float(prod) ** (1.0 / (m - 1))
    cs = [
        gr(Fraction(root_f / float(dj)).limit_denominator(10**12)) for dj in d
    ]
    omega = build_root_form(cs)
    diff = power_over_factorial(omega) - phi
    residual = max(
        (abs(v.to_complex()) for v in diff.terms.values()), default=0.0
    )
    if residual > 1e-6:
        raise AssertionError("float-mode root residual unexpectedly large")
    return MetricRoot(False, omega, residual)
