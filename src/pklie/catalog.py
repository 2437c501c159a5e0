"""Constructors for the worked families: strongly non-nilpotent 8-dimensional
structures, almost-abelian structures, and named standard examples.

All instances come out validated (Jacobi, J^2 = -Id, integrability); the
families enforce exactly the admissible parameter tuples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .catalog_names import _NAMED, registry
from .cxstruct import ComplexStructureSpec, equations_from_literals
from .exterior import ComplexForm, monomial
from .liealg import LieAlgebraSpec, from_bracket_list
from .linalg import Matrix, gr, zeros
from .scalars import GaussianRational, I, InadmissibleParameters, ONE, as_fraction

if TYPE_CHECKING:
    from .almost_abelian import AlmostAbelianData

# Names of `almost_abelian`, re-exported on first access (PEP 562) and then kept in
# this module's globals, so building a structure loads neither it nor `polynomials`.
_ALMOST_ABELIAN = ("AlmostAbelianData", "KahlerDecision", "kahler_decision_almost_abelian")


def __getattr__(name):
    if name not in _ALMOST_ABELIAN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import almost_abelian

    value = globals()[name] = getattr(almost_abelian, name)
    return value


# -- strongly non-nilpotent families in real dimension 8 ---------------------------


def snn8_family1_equations(eps, nu, a, b, delta) -> list[ComplexForm]:
    eps, nu, a, b, delta = map(as_fraction, (eps, nu, a, b, delta))
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
    eps, mu, nu, a, b = map(as_fraction, (eps, mu, nu, a, b))
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
    values = [as_fraction(x) for x in params]
    if len(values) != len(names):
        raise InadmissibleParameters(
            f"family {family} takes the parameters {','.join(names)}, got {len(values)} values"
        )
    delta = as_fraction(delta)
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


# -- named examples -------------------------------------------------------------------


def named_example(name: str) -> ComplexStructureSpec:
    entry = _NAMED.get(name)
    if entry is None:
        parsed = parse_catalog_name(name)
        if parsed is None:
            raise KeyError(f"unknown catalog name {name!r}")
        return parsed
    _, n, literals = entry
    return ComplexStructureSpec.from_equations(equations_from_literals(literals, n))


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
