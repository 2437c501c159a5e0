"""What only `pkl classify`, `restrict` and `quotient` run: algebra invariants,
the ascending series adapted to J, the closed-coframe obstruction, and the
restriction to a J-invariant ideal and the quotient by a central plane."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .cxstruct import ComplexStructureSpec, _j_int_columns
from .exterior import ComplexForm, combine, one_form, substitute
from .liealg import (
    IntBracketTable,
    InvalidAlgebraError,
    LieAlgebraSpec,
    _int_row,
    ensure_valid,
    int_bracket,
    is_unimodular,
    signed_brackets,
)
from .linalg import Matrix, Vector, gr, identity, inverse, kernel, row_space_rref, sparse_kernel
from .scalars import I, ONE, ZERO


# -- invariants of the real algebra ---------------------------------------------


@dataclass
class AlgebraInvariants:
    center_basis: list[list[Fraction]]
    lower_central_series_dims: list[int]
    is_nilpotent: bool
    is_unimodular: bool
    abelian_codim1_ideal: list[list[Fraction]] | None


def center(g: LieAlgebraSpec) -> list[list[Fraction]]:
    """Exact basis of {x : [x, e_i] = 0 for all i}."""
    # condition [x, e_i] = 0: row (i, k) -> {m: c} for [e_m, e_i] = sum (c / D) e_k
    table, _ = signed_brackets(g)
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for (m, i), comp in table.items():
        for k, c in comp:
            rows.setdefault((i, k), {})[m - 1] = c
    zero = Fraction(0)
    return [[v.get(c, zero) for c in range(g.dim)] for v in sparse_kernel(list(rows.values()), g.dim)]


def _span_products(table: IntBracketTable, dim: int, rows_a: Matrix, rows_b: Matrix) -> Matrix:
    """Canonical basis of the span of [u, v] over the real rows u, v.

    Each row is scaled to ints and bracketed through the int table of
    `signed_brackets`: a positive multiple of a product spans the same line,
    and the RREF of a span is unique.
    """
    products = []
    ints_b = [_int_row(v) for v in rows_b]
    for u in map(_int_row, rows_a):
        for v in ints_b:
            if w := int_bracket(table, u, v):
                products.append([gr(w.get(k, 0)) for k in range(1, dim + 1)])
    return row_space_rref(products)


def lower_central_series(g: LieAlgebraSpec) -> list[Matrix]:
    """g = g_1 >= g_2 = [g, g_1] >= ... until stabilization."""
    table, _ = signed_brackets(g)
    full = identity(g.dim)
    series = [full]
    while True:
        nxt = _span_products(table, g.dim, full, series[-1])
        if len(nxt) == len(series[-1]):
            series.append(nxt)
            break
        series.append(nxt)
        if not nxt:
            break
    return series


def abelian_codim1_ideal(g: LieAlgebraSpec) -> list[list[Fraction]] | None:
    """Exact decision: the RREF basis of a codimension-one abelian ideal, or
    None when there is none (always for dim < 2).

    With c^k(x, y) = e^k([x, y]), the hyperplane h = ker phi is abelian iff
    every c^k vanishes on it, that is iff phi ^ c^k = 0.  Then [g, g] = [g, h],
    so h is an ideal iff phi vanishes on [g, g]: sum_k phi_k c^k = 0.  Both
    conditions are linear in phi, so every nonzero phi in the kernel of the
    stacked rows gives such an ideal.
    """
    n = g.dim
    if n < 2:
        return None
    rows: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for (i, j), comp in g.brackets.items():
        rows[(i, j)] = {k - 1: c for k, c in comp.items()}
        # phi_m c^k_ij e^m ^ e^i ^ e^j, with e^m moved into ascending place
        for m in range(1, n + 1):
            if m != i and m != j:
                sign = -1 if (i < m) != (j < m) else 1
                for k, c in comp.items():
                    rows.setdefault((*sorted((i, j, m)), k), {})[m - 1] = sign * c
    phis = sparse_kernel(list(rows.values()), n)
    if not phis:
        return None
    zero = Fraction(0)
    return row_space_rref([[v.get(c, zero) for c in range(n)] for v in sparse_kernel(phis[:1], n)])


def algebra_invariants(g: LieAlgebraSpec) -> AlgebraInvariants:
    ensure_valid(g)
    series = lower_central_series(g)
    dims = [len(step) for step in series]
    nilpotent = dims[-1] == 0
    return AlgebraInvariants(
        center_basis=center(g),
        lower_central_series_dims=dims,
        is_nilpotent=nilpotent,
        is_unimodular=is_unimodular(g),
        abelian_codim1_ideal=abelian_codim1_ideal(g),
    )


def is_nilpotent(g: LieAlgebraSpec) -> bool:
    return len(lower_central_series(g)[-1]) == 0


# -- ascending series adapted to J ----------------------------------------------


class JClass(str, Enum):
    SNN = "SNN"
    WEAKLY_NON_NILPOTENT = "WEAKLY_NON_NILPOTENT"
    NILPOTENT = "NILPOTENT"


@dataclass
class AscendingSeries:
    chain: list[Matrix]
    dims: list[int]
    classification: JClass

    @property
    def first_term(self) -> Matrix:
        return self.chain[1] if len(self.chain) > 1 else []


def ascending_series(struct: ComplexStructureSpec) -> AscendingSeries:
    """Chain a_0 = 0, a_k = {X : [X,g] and [JX,g] both land in a_{k-1}}.

    Defined (and classified) for nilpotent algebras only.
    """
    g = struct.g
    if not is_nilpotent(g):
        raise InvalidAlgebraError("ascending series classification needs a nilpotent algebra")
    dim = g.dim
    # X lies in a_k iff phi([X, e_i]) = 0 and phi([JX, e_i]) = 0 for every
    # phi annihilating a_{k-1}: rows m -> phi([e_m, e_i]) and that row times J,
    # from the int bracket table and int columns of J, each a positive multiple
    # of the exact row, which leaves the kernel as it is
    table, _ = signed_brackets(g)
    jcols, _ = _j_int_columns(struct.J)

    chain: list[Matrix] = [[]]
    while True:
        prev = chain[-1]
        ann = [_int_row(phi) for phi in (kernel(prev, dim) if prev else identity(dim))]
        rows = []
        for i in range(1, dim + 1):
            for phi in ann:
                ad = [0] * (dim + 1)
                for m in range(1, dim + 1):
                    for k, c in table.get((m, i), ()):
                        if k in phi:
                            ad[m] += phi[k] * c
                rows.append([gr(x) for x in ad[1:]])
                rows.append([gr(sum(ad[l] * x for l, x in col.items())) for col in jcols])
        nxt = row_space_rref(kernel(rows, dim)) if rows else identity(dim)
        if len(nxt) == len(prev):
            break
        chain.append(nxt)
    dims = [len(step) for step in chain]
    if len(dims) == 1:
        classification = JClass.SNN
    elif dims[-1] == dim:
        classification = JClass.NILPOTENT
    else:
        classification = JClass.WEAKLY_NON_NILPOTENT
    return AscendingSeries(chain, dims, classification)


@dataclass
class CoframeClosureResult:
    t: int
    forbidden_p: int | None


def closed_coframe_obstruction(
    struct: ComplexStructureSpec, series: AscendingSeries | None = None
) -> CoframeClosureResult:
    """Count of closed coframe elements t; degree n-t admits no structure.

    Defined for nilpotent complex structures on nilpotent algebras; `series`
    is `ascending_series(struct)` when the caller has it already.
    """
    if (series or ascending_series(struct)).classification != JClass.NILPOTENT:
        raise InvalidAlgebraError("closure obstruction needs a nilpotent complex structure")
    t = len(struct.closed_10_forms())
    forbidden = struct.n - t
    return CoframeClosureResult(t, forbidden if forbidden >= 1 else None)


# -- reductions -------------------------------------------------------------------


@dataclass
class Restriction:
    sub: ComplexStructureSpec
    omega_h: ComplexForm


def _complete_row_to_basis(row: Vector, n: int) -> Matrix:
    pivot = next((j for j, c in enumerate(row) if not c.is_zero()), None)
    if pivot is None:
        raise ValueError("cannot complete the zero row")
    rows = [list(row)]
    for j in range(n):
        if j != pivot:
            unit = [ZERO] * n
            unit[j] = ONE
            rows.append(unit)
    return rows


def _transform_struct_forms(struct: ComplexStructureSpec, transform: Matrix):
    """Structure equations in the coframe a'^j = sum transform[j][k] a^k."""
    n = struct.n
    tinv = inverse([row[:] for row in transform])
    old_in_new = [one_form(n, row) for row in tinv]
    equations = []
    for row in transform:
        d_old = combine(n, ((c, eq) for c, eq in zip(row, struct.equations) if c))
        equations.append(substitute(d_old, old_in_new, n_target=n))

    def to_new(f: ComplexForm) -> ComplexForm:
        return substitute(f, old_in_new, n_target=n)

    return equations, to_new


def _strip_index(f: ComplexForm, idx: int) -> ComplexForm:
    """Drop the terms containing a^idx or its conjugate; a^j for j > idx
    becomes a^(j-1)."""

    n, below = f.n, (1 << idx - 1) - 1

    def squeeze(half: int) -> int:
        return half & below | half >> 1 & ~below

    return ComplexForm._wrap(
        n - 1,
        {
            squeeze(m & (1 << n) - 1) | squeeze(m >> n) << n - 1: c
            for m, c in f.terms.items()
            if not m & (1 << idx - 1 | 1 << n + idx - 1)
        },
    )


def restrict_to_jinvariant_ideal(
    struct: ComplexStructureSpec, omega: ComplexForm, alpha: ComplexForm
) -> Restriction:
    """Restriction to the J-invariant codimension-2 ideal dual to a closed a^1.

    The closed (1,0)-form alpha becomes the first coframe element; the ideal
    h annihilates alpha and its conjugate, and omega_h is the part of omega
    free of a^1 and its conjugate, on the coframe of h.
    """
    n = struct.n
    if alpha.is_zero():
        raise ValueError("alpha must be nonzero")
    if alpha.bidegrees() != {(1, 0)}:
        raise ValueError("alpha must be a (1,0)-form")
    if not struct.d(alpha).is_zero():
        raise ValueError("alpha must be closed")
    if not omega.is_real():
        raise ValueError("omega must be real")
    row = [alpha.coeff((j,)) for j in range(1, n + 1)]
    equations, to_new = _transform_struct_forms(struct, _complete_row_to_basis(row, n))
    sub = ComplexStructureSpec.from_equations([_strip_index(eq, 1) for eq in equations[1:]])
    return Restriction(sub, _strip_index(to_new(omega), 1))


@dataclass
class BExtension:
    quotient: ComplexStructureSpec
    omega: ComplexForm  # coefficient of i a^{n,nb}; the (p-1,p-1) descent


def b_extension_quotient(
    struct: ComplexStructureSpec, omega: ComplexForm, p: int
) -> BExtension:
    """Quotient by a central J-invariant plane inside the first series term.

    Requires a quasi-nilpotent structure.  The last coframe element spans the
    plane's (1,0)-dual; omega' is the form on the quotient coframe with
    omega' ^ i a^{n,nb} equal to the terms of omega that hold both a^n and
    conj a^n.
    """
    n = struct.n
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    series = ascending_series(struct)
    first = series.first_term
    if not first:
        raise InvalidAlgebraError("no central J-invariant plane: structure is SnN")
    if not omega.is_real():
        raise ValueError("omega must be real")
    if omega.bidegrees() not in ({(p, p)}, set()):
        raise ValueError(f"omega must be a real ({p},{p})-form")
    x = [c.re for c in first[0]]

    # (1,0)-forms vanishing on the plane: single linear condition
    u = [
        sum((struct.coframe[j][m] * gr(x[m]) for m in range(struct.g.dim)), ZERO)
        for j in range(n)
    ]
    vanish = kernel([u], n)
    if len(vanish) != n - 1:
        raise AssertionError("expected a corank-one condition on the coframe")
    pivot = next(j for j, c in enumerate(u) if not c.is_zero())
    last = [ZERO] * n
    last[pivot] = ONE / u[pivot]
    equations, to_new = _transform_struct_forms(struct, [list(v) for v in vanish] + [last])
    plane_dual = 1 << n - 1 | 1 << 2 * n - 1  # a^n and conj a^n
    for eq in equations[:-1]:
        for m in eq.terms:
            if m & plane_dual:
                raise AssertionError("quotient equations must not touch the plane dual")
    quotient = ComplexStructureSpec.from_equations([_strip_index(eq, n) for eq in equations[:-1]])

    # a^H ^ conj a^A ^ i a^{n,nb} = i (-1)^{|A|} a^{Hn, An}, n being the last index
    low = (1 << n - 1) - 1  # a^1..a^{n-1}
    omega_prime = {
        m & low | (m >> n & low) << n - 1: c * (-I if (m >> n).bit_count() % 2 else I)
        for m, c in to_new(omega).terms.items()
        if m & plane_dual == plane_dual
    }
    return BExtension(quotient, ComplexForm._wrap(n - 1, omega_prime))
