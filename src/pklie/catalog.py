"""Constructors for the worked families: strongly non-nilpotent 8-dimensional
structures, almost-abelian structures, and named standard examples.

All instances come out validated (Jacobi, J^2 = -Id, integrability); the
families enforce exactly the admissible parameter tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cxstruct import ComplexStructureSpec
from .exterior import ComplexForm, monomial, parse_form
from .liealg import LieAlgebraSpec, from_bracket_list
from .linalg import Matrix, apply_columns, gr, solve, sparse_columns, zeros
from .polynomials import (
    all_roots_purely_imaginary,
    char_poly,
    is_squarefree,
    minimal_poly,
)
from .scalars import GaussianRational, I, ONE, parse_fraction


class InadmissibleParameters(ValueError):
    pass


# -- strongly non-nilpotent families in real dimension 8 ---------------------------


def _f(x) -> Fraction:
    return parse_fraction(x) if isinstance(x, str) else Fraction(x)


def snn8_family1_equations(eps, nu, a, b, delta) -> list[ComplexForm]:
    eps, nu, a, b, delta = _f(eps), _f(nu), _f(a), _f(b), _f(delta)
    n = 4
    d1 = ComplexForm.zero(n)
    d2 = monomial(n, (1,), (1,), eps)
    d3 = (
        monomial(n, (1, 4))
        + monomial(n, (1,), (4,))
        + monomial(n, (2,), (1,), a)
        + monomial(n, (1,), (2,), gr(delta * eps * b) * I)
    )
    d4 = (
        monomial(n, (1,), (1,), gr(nu) * I)
        + monomial(n, (2,), (2,), b)
        + monomial(n, (1,), (3,), gr(delta) * I)
        - monomial(n, (3,), (1,), gr(delta) * I)
    )
    return [d1, d2, d3, d4]


def snn8_family2_equations(eps, mu, nu, a, b) -> list[ComplexForm]:
    eps, mu, nu, a, b = _f(eps), _f(mu), _f(nu), _f(a), _f(b)
    n = 4
    d1 = ComplexForm.zero(n)
    d2 = monomial(n, (1, 4)) + monomial(n, (1,), (4,))
    d3 = (
        monomial(n, (1,), (1,), a)
        + (monomial(n, (1, 2)) + monomial(n, (1,), (2,)) - monomial(n, (2,), (1,))) * eps
        + (monomial(n, (2, 4)) + monomial(n, (2,), (4,))) * (gr(mu) * I)
    )
    d4 = (
        monomial(n, (1,), (1,), gr(nu) * I)
        - monomial(n, (2,), (2,), mu)
        + (monomial(n, (1,), (2,)) - monomial(n, (2,), (1,))) * (gr(b) * I)
        + (monomial(n, (1,), (3,)) - monomial(n, (3,), (1,))) * I
    )
    return [d1, d2, d3, d4]


def _check_family1_tuple(eps, nu, a, b) -> None:
    if eps not in (0, 1) or nu not in (0, 1):
        raise InadmissibleParameters("eps and nu must be 0 or 1")
    if a < 0:
        raise InadmissibleParameters("a must be nonnegative")
    if a == 0 and b == 0:
        raise InadmissibleParameters("(a, b) = (0, 0) is excluded")
    key = (eps, nu)
    if key == (0, 0):
        if (a, b) not in ((0, 1), (1, 0), (1, 1)):
            raise InadmissibleParameters("with (eps,nu)=(0,0): (a,b) in {(0,1),(1,0),(1,1)}")
    elif key == (0, 1):
        if not ((a == 0 and b in (1, -1)) or a == 1):
            raise InadmissibleParameters("with (eps,nu)=(0,1): (a,b) = (0,±1) or a = 1")
    elif key == (1, 0):
        if not ((a, b) == (0, 1) or (a == 1 and b >= 0)):
            raise InadmissibleParameters("with (eps,nu)=(1,0): (a,b) = (0,1) or a = 1, b >= 0")
    # (1,1): a, b free subject to the global constraints


def _check_family2_tuple(eps, mu, nu, a, b) -> None:
    if any(x not in (0, 1) for x in (eps, mu, nu)):
        raise InadmissibleParameters("eps, mu, nu must be 0 or 1")
    key = (eps, mu, nu)
    if key in ((1, 1, 0), (1, 0, 1)):
        return
    if key == (1, 0, 0):
        if a not in (0, 1):
            raise InadmissibleParameters("with (1,0,0): a in {0,1}")
        return
    if key == (0, 1, 0):
        if (a, b) not in ((0, 0), (1, 0)):
            raise InadmissibleParameters("with (0,1,0): (a,b) in {(0,0),(1,0)}")
        return
    raise InadmissibleParameters(f"tuple (eps,mu,nu) = ({eps}, {mu}, {nu}) is not admissible")


_SNN8_PARAMS = {1: ("eps", "nu", "a", "b"), 2: ("eps", "mu", "nu", "a", "b")}


def build_snn8(family: int, params: Sequence, delta=1) -> ComplexStructureSpec:
    """Validated instance of one of the two 8-dimensional SnN families."""
    names = _SNN8_PARAMS.get(family)
    if names is None:
        raise InadmissibleParameters("family must be 1 or 2")
    values = [_f(x) for x in params]
    if len(values) != len(names):
        raise InadmissibleParameters(
            f"family {family} takes the parameters {','.join(names)}, got {len(values)} values"
        )
    delta = _f(delta)
    if family == 1:
        if delta not in (1, -1):
            raise InadmissibleParameters("delta must be +1 or -1")
        _check_family1_tuple(*values)
        equations = snn8_family1_equations(*values, delta)
    else:
        _check_family2_tuple(*values)
        equations = snn8_family2_equations(*values)
    return ComplexStructureSpec.from_equations(equations)


# -- almost abelian structures -------------------------------------------------------


@dataclass
class AlmostAbelianData:
    """One transverse direction acting on an abelian ideal.

    Real dimension 2n; the abelian ideal is spanned by e_1..e_{2n-1}; the
    matrix of the action of e_{2n} splits as lambda on e_1, a vector v into
    the J-invariant part, and A on span(e_2..e_{2n-1}).  J pairs e_j with
    e_{2n+1-j}.
    """

    n: int
    lam: Fraction
    v: list[Fraction]  # length 2n-2, indexed by e_2..e_{2n-1}
    A: list[list[Fraction]]  # (2n-2) x (2n-2), same indexing

    def __post_init__(self):
        self.lam = _f(self.lam)
        self.v = [_f(x) for x in self.v]
        self.A = [[_f(x) for x in row] for row in self.A]
        size = 2 * self.n - 2
        if len(self.v) != size or len(self.A) != size or any(len(r) != size for r in self.A):
            raise ValueError("v must have length 2n-2 and A must be (2n-2)x(2n-2)")

    def j1_matrix(self) -> list[list[Fraction]]:
        size = 2 * self.n - 2
        out = [[Fraction(0)] * size for _ in range(size)]
        for j in range(2, self.n + 1):
            out[(2 * self.n + 1 - j) - 2][j - 2] = Fraction(1)
            out[j - 2][(2 * self.n + 1 - j) - 2] = Fraction(-1)
        return out

    def integrable(self) -> bool:
        """A J1 = J1 A, compared column by column: A (J1 e_c) = J1 (A e_c)."""
        a = sparse_columns(self.A)
        j1 = sparse_columns(self.j1_matrix())
        return all(apply_columns(a, jc) == apply_columns(j1, ac) for jc, ac in zip(j1, a))

    def unimodular(self) -> bool:
        return self.lam == -sum(self.A[i][i] for i in range(len(self.A)))


def almost_abelian_algebra(data: AlmostAbelianData) -> tuple[LieAlgebraSpec, Matrix]:
    """Raw (g, J) for the data; no integrability check (used by tests too)."""
    n = data.n
    dim = 2 * n
    entries = []
    # [e_{2n}, e_1] = lam e_1 + sum v_j e_j
    if data.lam:
        entries.append((1, dim, 1, -data.lam))
    for j in range(2, dim):
        if data.v[j - 2]:
            entries.append((1, dim, j, -data.v[j - 2]))
    # [e_{2n}, e_k] = sum_j A_{jk} e_j
    for k in range(2, dim):
        for j in range(2, dim):
            if data.A[j - 2][k - 2]:
                entries.append((k, dim, j, -data.A[j - 2][k - 2]))
    g = from_bracket_list(dim, entries)
    J = zeros(dim, dim)
    for j in range(1, n + 1):
        J[(2 * n + 1 - j) - 1][j - 1] = ONE
        J[j - 1][(2 * n + 1 - j) - 1] = -ONE
    return g, J


def almost_abelian_coframe(data: AlmostAbelianData) -> Matrix:
    """Adapted coframe a^j = e^j + i e^{2n+1-j}."""
    n = data.n
    dim = 2 * n
    rows = zeros(n, dim)
    for j in range(1, n + 1):
        rows[j - 1][j - 1] = ONE
        rows[j - 1][(2 * n + 1 - j) - 1] = I
    return rows


def build_almost_abelian(data: AlmostAbelianData) -> ComplexStructureSpec:
    if not data.integrable():
        raise InadmissibleParameters("A does not commute with the restricted J")
    g, J = almost_abelian_algebra(data)
    return ComplexStructureSpec.from_coframe(g, J, almost_abelian_coframe(data))


def almost_abelian_equations(data: AlmostAbelianData) -> list[ComplexForm]:
    """Structure equations written directly from the defining data.

    d a^1 = (i/2) lam a^{1,1b};
    d a^j = (i/2) w_j a^{1,1b} + ((a^1 - conj a^1)/2) ^ sum_k b_{jk} a^k,
    with w_j = v_j + i v_{2n+1-j} and b_{jk} = i a_{j,k} + a_{j,2n+1-k}.
    """
    n = data.n
    half_i = GaussianRational(0, "1/2")
    out = [monomial(n, (1,), (1,), half_i * gr(data.lam))]
    lead = (monomial(n, (1,)) - monomial(n, anti=(1,))) / 2

    def a_entry(j, k):
        return data.A[j - 2][k - 2]

    for j in range(2, n + 1):
        w_j = GaussianRational(data.v[j - 2], data.v[(2 * n + 1 - j) - 2])
        form = monomial(n, (1,), (1,), half_i * w_j)
        tail = ComplexForm.zero(n)
        for k in range(2, n + 1):
            b_jk = GaussianRational(a_entry(j, 2 * n + 1 - k), a_entry(j, k))
            if not b_jk.is_zero():
                tail = tail + monomial(n, (k,), coeff=b_jk)
        form = form + (lead ^ tail)
        out.append(form)
    return out


@dataclass
class KahlerDecision:
    value: bool
    adapted: bool
    reason: str
    absorb: list[Fraction] | None = None
    min_poly: list[str] | None = None
    char_poly_a: list[str] | None = None

    def __bool__(self):
        return self.value


def kahler_decision_almost_abelian(data: AlmostAbelianData) -> KahlerDecision:
    """Decide whether the structure admits a compatible Kahler metric.

    Fast path: the given basis is already adapted (A antisymmetric,
    J-commuting, with v absorbed by the rank condition).  Otherwise the full
    action matrix C = (lam 0 // v A) is compared against the antisymmetric
    block model by rational canonical data: C similar to lam + antisymmetric
    iff its minimal polynomial is squarefree and the spectrum of A is purely
    imaginary; both are decided without radicals.
    """
    if not data.integrable():
        raise InadmissibleParameters("A does not commute with the restricted J")
    if not data.unimodular():
        raise InadmissibleParameters("decision requires a unimodular algebra")
    size = 2 * data.n - 2
    a = data.A
    antisym = all(a[i][j] == -a[j][i] for i in range(size) for j in range(size))
    if antisym:
        # try to absorb v: (A - lam) u = -v
        shifted = [
            [a[i][j] - (data.lam if i == j else 0) for j in range(size)] for i in range(size)
        ]
        u = solve(shifted, [-x for x in data.v])
        if u is not None:
            return KahlerDecision(
                True,
                adapted=True,
                reason="A antisymmetric and J-commuting; v absorbed",
                absorb=u,
            )
    c_full = [[Fraction(0)] * (size + 1) for _ in range(size + 1)]
    c_full[0][0] = data.lam
    for i in range(size):
        c_full[i + 1][0] = data.v[i]
        for j in range(size):
            c_full[i + 1][j + 1] = a[i][j]
    mp = minimal_poly(c_full)
    cp_a = char_poly(a)
    semisimple = is_squarefree(mp)
    imag = all_roots_purely_imaginary(cp_a)
    value = semisimple and imag
    reason = (
        "action matrix similar to lam + antisymmetric block"
        if value
        else ("minimal polynomial not squarefree" if not semisimple else "spectrum of A leaves the imaginary axis")
    )
    return KahlerDecision(
        value,
        adapted=False,
        reason=reason,
        min_poly=[str(c) for c in mp],
        char_poly_a=[str(c) for c in cp_a],
    )


# -- named examples -------------------------------------------------------------------


def _torus(n: int) -> ComplexStructureSpec:
    return ComplexStructureSpec.from_equations([ComplexForm.zero(n)] * n)


def _equations(n: int, texts: Mapping[int, str]) -> list[ComplexForm]:
    return [parse_form(texts.get(j, "0"), n) for j in range(1, n + 1)]


_REGISTRY: dict[str, tuple[str, callable]] = {}


def _register(name: str, description: str):
    def wrap(fn):
        _REGISTRY[name] = (description, fn)
        return fn

    return wrap


@_register("torus2", "abelian R^4 with the standard structure")
def _torus2():
    return _torus(2)


@_register("torus3", "abelian R^6 with the standard structure")
def _torus3():
    return _torus(3)


@_register("torus4", "abelian R^8 with the standard structure")
def _torus4():
    return _torus(4)


@_register("kt", "Kodaira-Thurston: d a^2 = a^{1,1b} (nilpotent structure on h3 + R)")
def _kt():
    return ComplexStructureSpec.from_equations(_equations(2, {2: "a1_b1"}))


@_register("iwasawa", "complex Heisenberg: d a^3 = a^{12}")
def _iwasawa():
    return ComplexStructureSpec.from_equations(_equations(3, {3: "a12"}))


@_register("h5r", "d a^3 = a^{1,1b} + a^{2,2b} on six real dimensions")
def _h5r():
    return ComplexStructureSpec.from_equations(_equations(3, {3: "a1_b1 + a2_b2"}))


@_register("qn8a", "central plane extension of C^3 with d a^4 = a^{12}")
def _qn8a():
    return ComplexStructureSpec.from_equations(_equations(4, {4: "a12"}))


@_register("qn8b", "central plane extension of C^3 with d a^4 = a^{1,1b} + a^{2,2b}")
def _qn8b():
    return ComplexStructureSpec.from_equations(_equations(4, {4: "a1_b1 + a2_b2"}))


@_register("qn8c", "central plane extension of C^3 with d a^4 = a^{1,2b}")
def _qn8c():
    return ComplexStructureSpec.from_equations(_equations(4, {4: "a1_b2"}))


@_register("iwasawa_x_c", "complex Heisenberg times C")
def _iwasawa_x_c():
    return ComplexStructureSpec.from_equations(_equations(4, {3: "a12"}))


def named_example(name: str) -> ComplexStructureSpec:
    entry = _REGISTRY.get(name)
    if entry is None:
        parsed = parse_catalog_name(name)
        if parsed is None:
            raise KeyError(f"unknown catalog name {name!r}")
        return parsed
    return entry[1]()


def registry() -> dict[str, str]:
    return {name: desc for name, (desc, _) in sorted(_REGISTRY.items())}


def parse_catalog_name(name: str) -> ComplexStructureSpec | None:
    """Parametrized names: snn8f1:eps,nu,a,b[:delta] and snn8f2:eps,mu,nu,a,b."""
    if ":" not in name:
        return None
    head, _, rest = name.partition(":")
    if head not in ("snn8f1", "snn8f2"):
        return None
    pieces = rest.split(":")
    params = [p.strip() for p in pieces[0].split(",")]
    if head == "snn8f1":
        if len(pieces) > 2:
            raise InadmissibleParameters(f"{name!r}: snn8f1 takes eps,nu,a,b[:delta]")
        delta = pieces[1] if len(pieces) > 1 else "1"
        return build_snn8(1, params, delta)
    if len(pieces) > 1:
        raise InadmissibleParameters(f"{name!r}: snn8f2 takes eps,mu,nu,a,b and no delta")
    return build_snn8(2, params)
