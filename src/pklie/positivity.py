"""Positivity of real (p,p)-forms: transversality and its certificates.

Verdicts are three-valued.  TRANSVERSE and NOT_TRANSVERSE always carry exact
certificates (a positive-definite Gram reduction, or a simple test form with
nonpositive volume coefficient); INCONCLUSIVE reports search statistics.
Floating point appears only inside the candidate search; every candidate is
re-verified in exact arithmetic before it can appear in a certificate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .exterior import (
    ComplexForm,
    MultiIndex,
    conjugate,
    monomial,
    one_form,
    reference_volume_coefficient,
    substitute,
    wedge,
    wedge_all,
)
from .linalg import (
    Matrix,
    Vector,
    gr,
    hermitian_pivots,
    identity,
    kernel,
    leading_minors,
)
from .scalars import GaussianRational, I, ONE, ZERO, i_power

if TYPE_CHECKING:
    import numpy as np


class TransStatus(str, Enum):
    TRANSVERSE = "TRANSVERSE"
    NOT_TRANSVERSE = "NOT_TRANSVERSE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class SearchBudget:
    """Knobs of the numeric search in `check_transverse`; exact paths ignore them.

    `seed`, `restarts`, `steps` and `step_tol` drive that search, which runs
    only at 1 < p < n-1.  In `find_pkahler` it is the harvest on each LP
    point, with a fraction of `restarts` and `steps`; `witness_cap` bounds
    the LP rounds there.
    """

    restarts: int = 200
    steps: int = 500
    seed: int = 0
    step_tol: float = 1e-12
    witness_cap: int = 24

    def __post_init__(self):
        # restarts = 0 is valid: it leaves only the exact steps
        if self.restarts < 0 or self.steps < 0:
            raise ValueError(
                f"search budget restarts and steps must be >= 0, got {self.restarts} and {self.steps}"
            )
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
    """Columns of (1,0)-forms whose wedge is the offending simple form."""

    columns: list[list[GaussianRational]]
    value: GaussianRational

    def to_form(self, n: int) -> ComplexForm:
        return _columns_form(self.columns, n)

    def to_json(self) -> dict:
        return {
            "columns": [[str(c) for c in col] for col in self.columns],
            "value": str(self.value),
        }


@dataclass
class TransversalityVerdict:
    status: TransStatus
    gram: GramCertificate | None = None
    witness: SimpleFormWitness | None = None
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict = {"status": self.status.value}
        if self.gram is not None:
            out["gram"] = self.gram.to_json()
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.stats:
            out["stats"] = self.stats
        return out


# -- volume pairing ---------------------------------------------------------------


def volume_coefficient(omega: ComplexForm, psi: ComplexForm) -> GaussianRational:
    """c with i^{(n-p)^2} omega ^ psi ^ conj(psi) = c * (i a^{1,1b} ^ ... ^ i a^{n,nb})."""
    return pairing_coefficient(omega, psi, psi)


def pairing_coefficient(
    omega: ComplexForm, psi: ComplexForm, phi: ComplexForm
) -> GaussianRational:
    """Polarized volume pairing i^{(n-p)^2} omega ^ psi ^ conj(phi) over the volume:
    `pairing_functional(psi, phi, n - p)` applied to omega."""
    bid = omega.bidegree()
    if bid is None or bid[0] != bid[1]:
        raise ValueError("omega must be a homogeneous (p,p)-form")
    if psi.n != omega.n:
        raise ValueError("coframe dimension mismatch")
    return apply_functional(pairing_functional(psi, phi, omega.n - bid[0]), omega)


def pairing_functional(psi: ComplexForm, phi: ComplexForm, k: int) -> dict[MultiIndex, GaussianRational]:
    """The pairing with (k,0)-forms psi and phi as {key: coefficient} on (n-k,n-k)-forms.

    Sesquilinear in (psi, phi): with psi = sum x_a a^{I_a} and phi = sum y_b a^{I_b}
    it is sum x_a conj(y_b) times the pairing of the two monomials, which
    `_gram_units` holds as one key of omega, distinct for each (a, b), and a
    unit factor.
    """
    n = psi.n
    for test in (psi,) if phi is psi else (psi, phi):
        if test.n != n:
            raise ValueError("coframe dimension mismatch")
        if not test.is_zero() and test.bidegrees() != {(k, 0)}:
            raise ValueError(f"test form must be a ({k},0)-form")
    units = _gram_units(n, k)
    position = _gram_position(n, k)
    out = {}
    for (holo_a, _), x in psi.terms.items():
        row = units[position[holo_a]]
        for (holo_b, _), y in phi.terms.items():
            key, unit = row[position[holo_b]]
            out[key] = x * y.conjugate() * unit
    return out


def apply_functional(functional: dict[MultiIndex, GaussianRational], omega: ComplexForm) -> GaussianRational:
    """The sum over the functional's keys of omega's coefficient there times the functional's."""
    return sum((omega.terms[key] * c for key, c in functional.items() if key in omega.terms), ZERO)


def gram_basis(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n + 1), k))


@functools.lru_cache(maxsize=None)
def _gram_position(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Row of each (k,0) coframe monomial in the Gram matrix."""
    return {idx: a for a, idx in enumerate(gram_basis(n, k))}


@functools.lru_cache(maxsize=None)
def _gram_units(n: int, k: int) -> tuple[tuple[tuple[MultiIndex, GaussianRational], ...], ...]:
    """Per Gram entry (a, b): the one key of omega it reads, and its factor.

    Only omega's term at (complement of I_a, complement of I_b) survives the
    wedge with a^{I_a} and conj(a^{I_b}); the factor is the pairing of that
    unit monomial, computed here once by wedges, so entry (a, b) is omega's
    coefficient there times it.
    """
    basis = gram_basis(n, k)
    comp = [tuple(j for j in range(1, n + 1) if j not in idx) for idx in basis]
    top = MultiIndex(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    scale = i_power(k * k) / reference_volume_coefficient(n)
    rows = []
    for a, ca in enumerate(comp):
        row = []
        for b, cb in enumerate(comp):
            key = MultiIndex(ca, cb)
            w = wedge(ComplexForm(n, {key: ONE}), monomial(n, basis[a]))
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


# -- simple (decomposable) forms ----------------------------------------------------


def divisor_space(psi: ComplexForm) -> list[Vector]:
    """(1,0)-forms phi with phi ^ psi = 0; dimension equals deg(psi) iff simple."""
    n = psi.n
    products = [wedge(monomial(n, (j,)), psi) for j in range(1, n + 1)]
    keys = sorted({key for w in products for key in w.terms})
    if not keys:
        return identity(n)
    rows = [[w.terms.get(key, ZERO) for w in products] for key in keys]
    return kernel(rows, n)


def is_simple(psi: ComplexForm) -> bool:
    if psi.is_zero():
        return False
    bid = psi.bidegree()
    if bid is None or bid[1] != 0:
        return False
    k = bid[0]
    if len(psi.terms) == 1 or k in (0, 1, psi.n - 1, psi.n):
        return True
    return len(divisor_space(psi)) == k


def simple_factors(psi: ComplexForm) -> list[Vector] | None:
    """Columns mu_1..mu_k with mu_1 ^ ... ^ mu_k = psi exactly, or None."""
    if psi.is_zero():
        return None
    bid = psi.bidegree()
    if bid is None or bid[1] != 0:
        return None
    k = bid[0]
    if k == 0:
        return None
    cols = divisor_space(psi)
    if len(cols) != k:
        return None
    candidate = _columns_form(cols, psi.n)
    if candidate.is_zero():
        return None
    key = next(iter(psi.terms))
    cand_coeff = candidate.terms.get(key)
    if cand_coeff is None:
        return None
    scale = psi.terms[key] / cand_coeff
    if candidate * scale != psi:
        return None
    cols = [list(c) for c in cols]
    cols[0] = [x * scale for x in cols[0]]
    return cols


def _columns_form(cols: Sequence[Vector], n: int) -> ComplexForm:
    return wedge_all([one_form(n, col) for col in cols], n)


# -- transversality decision --------------------------------------------------------


def check_transverse(omega: ComplexForm, budget: SearchBudget | None = None) -> TransversalityVerdict:
    """Decide transversality of a real (p,p)-form.

    Pipeline: exact Gram positivity (sufficient); exact witness extraction at
    p = 1 or p = n-1 (where transversality and positive definiteness agree);
    an exact scan over coframe monomials; then a budgeted numeric search over
    decomposable directions whose findings are rationalized and re-verified.
    """
    budget = budget or SearchBudget()
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
    bad_vec, bad_val = cert
    if p in (1, n - 1):
        psi = _vector_form(bad_vec, basis, n)
        cols = simple_factors(psi)
        if cols is None:
            raise AssertionError("degree-1 or codegree-1 forms must be simple")
        value = volume_coefficient(omega, psi)
        witness = SimpleFormWitness(cols, value)
        return TransversalityVerdict(TransStatus.NOT_TRANSVERSE, witness=witness)
    # exact monomial scan on the Gram diagonal
    for a, idx in enumerate(basis):
        if h[a][a].a <= 0:
            cols = [_unit_column(n, j) for j in idx]
            witness = SimpleFormWitness(cols, h[a][a])
            return TransversalityVerdict(TransStatus.NOT_TRANSVERSE, witness=witness)
    found, stats = _numeric_negative_search(omega, basis, h, budget)
    if found is not None:
        return TransversalityVerdict(TransStatus.NOT_TRANSVERSE, witness=found, stats=stats)
    stats.update(budget.config_json())
    return TransversalityVerdict(TransStatus.INCONCLUSIVE, stats=stats)


def _unit_column(n: int, j: int) -> Vector:
    col = [ZERO] * n
    col[j - 1] = ONE
    return col


def _vector_form(vec: Sequence, basis, n: int) -> ComplexForm:
    return ComplexForm(n, {MultiIndex(idx, ()): c for c, idx in zip(vec, basis) if c})


# -- numeric search over decomposable directions -------------------------------------


def _plucker(mat: np.ndarray, basis) -> np.ndarray:
    import numpy as np

    k = mat.shape[1]
    out = np.empty(len(basis), dtype=complex)
    for a, idx in enumerate(basis):
        rows = [j - 1 for j in idx]
        out[a] = np.linalg.det(mat[np.ix_(rows, range(k))]) if k else 1.0
    return out


def _plucker_jacobian(mat: np.ndarray, basis) -> np.ndarray:
    import numpy as np

    n, k = mat.shape
    jac = np.zeros((len(basis), n * k), dtype=complex)
    for a, idx in enumerate(basis):
        rows = [j - 1 for j in idx]
        for pos, r in enumerate(rows):
            for c in range(k):
                sub_rows = rows[:pos] + rows[pos + 1 :]
                sub_cols = [cc for cc in range(k) if cc != c]
                if sub_rows:
                    minor = np.linalg.det(mat[np.ix_(sub_rows, sub_cols)])
                else:
                    minor = 1.0
                jac[a, r * k + c] = (-1) ** (pos + c) * minor
    return jac


def _numeric_negative_search(omega, basis, h_exact, budget: SearchBudget):
    """Minimize the volume pairing over decomposable directions (float), then
    rationalize promising minima and re-verify exactly."""
    import numpy as np

    n = omega.n
    k = len(basis[0]) if basis else 0
    hf = np.array([[v.to_complex() for v in row] for row in h_exact])
    rng = np.random.default_rng(budget.seed)
    best = np.inf
    stats = {"restarts": 0, "min_margin": None}
    for _ in range(max(budget.restarts, 0)):
        stats["restarts"] += 1
        mat = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        lr = 0.1
        prev = np.inf
        for _step in range(budget.steps):
            p = _plucker(mat, basis)
            norm2 = float(np.real(np.vdot(p, p)))
            if norm2 < 1e-30:
                mat = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
                continue
            hp = hf @ p
            val = float(np.real(np.vdot(p, hp))) / norm2
            jac = _plucker_jacobian(mat, basis)
            grad = jac.conj().T @ (hp - val * p) / norm2
            mat = mat - lr * grad.reshape(n, k)
            scale = np.max(np.abs(mat))
            if scale > 4.0:
                mat = mat / scale
            if abs(prev - val) < budget.step_tol:
                break
            if val > prev:
                lr *= 0.5
            prev = val
        p = _plucker(mat, basis)
        norm2 = float(np.real(np.vdot(p, p)))
        if norm2 < 1e-30:
            continue
        val = float(np.real(np.vdot(p, hf @ p))) / norm2
        best = min(best, val)
        if val < -1e-9:
            witness = _rationalize_witness(omega, mat)
            if witness is not None:
                stats["min_margin"] = best
                return witness, stats
    stats["min_margin"] = best if best < np.inf else None
    return None, stats


def _rationalize_witness(omega: ComplexForm, mat: np.ndarray) -> SimpleFormWitness | None:
    """Continued-fraction rounding of float columns, then exact re-evaluation."""
    import numpy as np

    n, k = mat.shape
    scale = np.max(np.abs(mat))
    if scale > 0:
        mat = mat / scale
    for denom in (10, 100, 10**4, 10**6):
        cols = []
        for c in range(k):
            col = []
            for r in range(n):
                z = mat[r, c]
                col.append(
                    GaussianRational(
                        Fraction(float(np.real(z))).limit_denominator(denom),
                        Fraction(float(np.imag(z))).limit_denominator(denom),
                    )
                )
            cols.append(col)
        psi = _columns_form(cols, n)
        if psi.is_zero():
            continue
        value = volume_coefficient(omega, psi)
        if value.a <= 0:
            return SimpleFormWitness(cols, value)
    return None


def witness_from_json(data: dict) -> SimpleFormWitness:
    from .scalars import parse_scalar

    if not isinstance(data, dict) or not isinstance(data["columns"], list):
        raise ValueError("a witness must be an object with a list of columns")
    if not all(isinstance(col, list) for col in data["columns"]):
        raise ValueError("witness columns must be lists of scalars")
    columns = [[parse_scalar(x) for x in col] for col in data["columns"]]
    return SimpleFormWitness(columns, parse_scalar(data["value"]))


def verify_verdict(omega: ComplexForm, data: dict) -> list[str]:
    """Exact re-verification of a serialized TransversalityVerdict."""
    failures: list[str] = []
    if not isinstance(data, dict):
        raise ValueError("a found certificate must be a JSON object")
    status = data.get("status")
    if status == TransStatus.TRANSVERSE.value:
        ok, cert = gram_positive_definite(gram_matrix(omega)[1])
        if not ok:
            failures.append("Gram pairing is not positive definite")
        else:
            gram = data.get("gram", {})
            if not isinstance(gram, dict) or cert.to_json()["minors"] != gram.get("minors"):
                failures.append("stored minors do not match the recomputation")
    elif status == TransStatus.NOT_TRANSVERSE.value:
        witness = witness_from_json(data["witness"])
        psi = witness.to_form(omega.n)
        if psi.is_zero():
            failures.append("witness form is zero")
        else:
            value = volume_coefficient(omega, psi)
            if value != witness.value:
                failures.append("stored witness value does not match")
            if value.a > 0:
                failures.append("witness pairing is positive; no refutation")
    elif status != TransStatus.INCONCLUSIVE.value:
        failures.append(f"unknown status {status!r}")
    return failures


def verify_strongly_positive(omega: ComplexForm, factors: Sequence[ComplexForm]) -> bool:
    """Constructive strong-positivity check: omega = i^{p^2} sum psi_j ^ conj(psi_j).

    Only verifies a supplied decomposition; there is no general decision
    procedure here.
    """
    bid = omega.bidegree()
    if bid is None or bid[0] != bid[1]:
        return False
    p = bid[0]
    total = ComplexForm.zero(omega.n)
    for psi in factors:
        if not is_simple(psi):
            return False
        total = total + wedge(psi, conjugate(psi)) * i_power(p * p)
    return total == omega


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
