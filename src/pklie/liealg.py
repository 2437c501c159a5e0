"""Real Lie algebras by structure constants and their Chevalley-Eilenberg calculus.

Sign convention, fixed once and tested: d alpha(X, Y) = -alpha([X, Y]), so a
bracket [e_i, e_j] = e_k reads off as d e^k = -e^i ^ e^j.  Real coframe forms
are represented as ComplexForm values whose indices are all "holomorphic";
only the graded algebra structure is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .exterior import ComplexForm, apply_antiderivation, index_mask, indices, monomial, split_terms
from .linalg import (
    Matrix,
    Vector,
    apply_columns,
    gr,
    identity,
    inverse,
    row_space_rref,
    sparse_kernel,
)
from .scalars import GaussianRational, _gr, as_fraction, json_int, json_literal, parse_fraction


class InvalidAlgebraError(ValueError):
    """Raised when an operation requires a valid Lie algebra and gets none."""


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Real Lie algebra of dimension `dim` with rational structure constants.

    brackets maps (i, j) with i < j to {k: c} meaning [e_i, e_j] = sum c e_k.
    Antisymmetry is implicit in the storage; the Jacobi identity is checked
    by `check_jacobi`, not assumed.
    """

    dim: int
    brackets: Mapping[tuple[int, int], Mapping[int, Fraction]] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), comp in self.brackets.items():
            if not (1 <= i <= self.dim and 1 <= j <= self.dim):
                raise ValueError(f"bracket index out of range: ({i},{j})")
            if i == j:
                raise ValueError("brackets must be given with i < j")
            if i > j:
                raise ValueError("brackets must be stored with i < j")
            entries = {}
            for k, v in comp.items():
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    entries[k] = v
            for k in entries:
                if not 1 <= k <= self.dim:
                    raise ValueError(f"bracket target out of range: {k}")
            if entries:
                clean[(i, j)] = entries
        object.__setattr__(self, "brackets", clean)

    def abelian(self) -> bool:
        return not self.brackets


def from_bracket_list(dim: int, entries: Sequence[tuple[int, int, int, object]]) -> LieAlgebraSpec:
    """Build a spec from (i, j, k, c) tuples; i > j entries are folded in."""
    acc: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, k, c in entries:
        c = as_fraction(c)
        if i == j:
            if c:
                raise ValueError("[e_i, e_i] must vanish")
            continue
        key, c = ((i, j), c) if i < j else ((j, i), -c)
        comp = acc.setdefault(key, {})
        prev = comp.get(k)
        comp[k] = c if prev is None else prev + c
    return LieAlgebraSpec(dim, acc)


@dataclass
class JacobiResult:
    ok: bool
    triple: tuple[int, int, int] | None = None
    residual: list[Fraction] | None = None

    def __bool__(self):
        return self.ok


# (a, b) -> the (k, c) int pairs of D [e_a, e_b] = sum c e_k
IntBracketTable = dict[tuple[int, int], list[tuple[int, int]]]


def signed_brackets(g: LieAlgebraSpec) -> tuple[IntBracketTable, int]:
    """(table, D): [e_a, e_b] = sum (c / D) e_k with table[(a, b)] the (k, c)
    int pairs, for both orders of every a != b with a nonzero bracket.  D is
    the lcm of the structure constants' denominators."""
    den = lcm(*(c.denominator for comp in g.brackets.values() for c in comp.values()))
    table: IntBracketTable = {}
    for (a, b), comp in g.brackets.items():
        row = [(k, c.numerator * (den // c.denominator)) for k, c in comp.items()]
        table[(a, b)] = row
        table[(b, a)] = [(k, -x) for k, x in row]
    return table, den


def int_bracket(table: IntBracketTable, u: Mapping[int, int], v: Mapping[int, int]) -> dict[int, int]:
    """D [u, v] for sparse int vectors {1-based index: int}, through the table
    of `signed_brackets`; only the nonzero entries are kept."""
    out: dict[int, int] = {}
    for a, x in u.items():
        for b, y in v.items():
            for k, c in table.get((a, b), ()):
                out[k] = out.get(k, 0) + x * y * c
    return {k: c for k, c in out.items() if c}


def check_jacobi(g: LieAlgebraSpec) -> JacobiResult:
    """Exhaustive Jacobi check; returns the first violating basis triple.

    The residuals are summed as ints over the bracket table scaled by D, so
    they come out scaled by D^2; only a failing triple's residual is divided
    back into Fractions.
    """
    n = g.dim
    table, den = signed_brackets(g)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ij = (i, j) in table
            for k in range(j + 1, n + 1):
                # the residual is a sum over the three cyclic brackets
                if not (ij or (j, k) in table or (k, i) in table):
                    continue
                acc = [0] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, coeff in table.get((a, b), ()):
                        for t, c2 in table.get((m, c), ()):
                            acc[t - 1] += coeff * c2
                if any(acc):
                    den2 = den * den
                    return JacobiResult(False, (i, j, k), [Fraction(x, den2) for x in acc])
    return JacobiResult(True)


def ensure_valid(g: LieAlgebraSpec) -> None:
    res = check_jacobi(g)
    if not res.ok:
        raise InvalidAlgebraError(
            f"Jacobi identity fails on basis triple {res.triple}: residual {res.residual}"
        )


# -- Chevalley-Eilenberg differential on the real coframe ----------------------


def coframe_differentials(g: LieAlgebraSpec) -> list[ComplexForm]:
    """d e^k = -sum_{i<j} c^k_{ij} e^i ^ e^j for each coframe element."""
    terms: list[dict[int, GaussianRational]] = [{} for _ in range(g.dim)]
    for ij, comp in g.brackets.items():
        key = index_mask(ij)
        for k, c in comp.items():
            terms[k - 1][key] = _gr(-c.numerator, 0, c.denominator)
    return [ComplexForm._wrap(g.dim, t) for t in terms]


def ce_differential(g: LieAlgebraSpec, f: ComplexForm) -> ComplexForm:
    """CE differential of a real-coframe form (holomorphic-slot encoding).

    Works for any antisymmetric structure tensor; d o d = 0 holds exactly
    when the Jacobi identity does.
    """
    if f.n != g.dim:
        raise ValueError("form does not live over this algebra's coframe")
    if any(m >> g.dim for m in f.terms):
        raise ValueError("real-coframe forms must not use conjugate indices")
    diffs = coframe_differentials(g)
    return apply_antiderivation(f, diffs, [ComplexForm.zero(g.dim)] * g.dim)


def d_squared_vanishes(g: LieAlgebraSpec) -> bool:
    diffs = coframe_differentials(g)
    zero_anti = [ComplexForm.zero(g.dim)] * g.dim
    return all(apply_antiderivation(df, diffs, zero_anti).is_zero() for df in diffs)


# -- structural invariants ------------------------------------------------------


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


def _int_row(row: Vector) -> dict[int, int]:
    """A real row as {1-based index: int}, scaled by the lcm of its denominators."""
    den = lcm(*(x.d for x in row))
    return {i: x.a * (den // x.d) for i, x in enumerate(row, start=1) if x.a}


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


def is_unimodular(g: LieAlgebraSpec) -> bool:
    """tr ad(e_i) = sum_k c^k_{ik} vanishes for every i."""
    traces = [0] * (g.dim + 1)
    for (i, j), comp in g.brackets.items():
        # [e_i, e_j] adds its e_j part to tr ad(e_i); [e_j, e_i] = -[e_i, e_j]
        # adds minus its e_i part to tr ad(e_j).  Most brackets have neither.
        if (c := comp.get(j)) is not None:
            traces[i] += c
        if (c := comp.get(i)) is not None:
            traces[j] -= c
    return not any(traces)


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


def change_basis(g: LieAlgebraSpec, s: Matrix) -> LieAlgebraSpec:
    """Structure constants in the new basis f_j = sum_i s[i][j] e_i."""
    n = g.dim
    if not all(x.is_real() for row in s for x in row):
        raise ValueError("change of basis must stay rational")
    sinv = inverse([[x.re for x in row] for row in s])
    table, den = signed_brackets(g)
    # f_j = (int column j) / scales[j], and s^{-1} = (int columns of back) / e
    cols = [[row[j] for row in s] for j in range(n)]
    scales = [lcm(*(x.d for x in col)) for col in cols]
    ints = [_int_row(col) for col in cols]
    e = lcm(*(x.denominator for row in sinv for x in row))
    back = [
        {k: x.numerator * (e // x.denominator) for k, x in enumerate(col, start=1) if x}
        for col in zip(*sinv)
    ]
    entries = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            coords = apply_columns(back, int_bracket(table, ints[i - 1], ints[j - 1]))
            scale = e * den * scales[i - 1] * scales[j - 1]
            entries.extend((i, j, k, Fraction(coords[k], scale)) for k in sorted(coords))
    return from_bracket_list(n, entries)


# -- JSON interchange -----------------------------------------------------------


def algebra_to_json(g: LieAlgebraSpec) -> dict:
    brackets = []
    for (i, j) in sorted(g.brackets):
        for k in sorted(g.brackets[(i, j)]):
            brackets.append({"i": i, "j": j, "k": k, "c": str(g.brackets[(i, j)][k])})
    return {"dim": g.dim, "brackets": brackets}


def algebra_from_json(data: Mapping) -> LieAlgebraSpec:
    if not isinstance(data, Mapping):
        raise ValueError("an algebra must be a JSON object")
    if "d" in data:
        return algebra_from_coframe_json(data)
    dim = json_int(data["dim"], "dim")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list) or not all(isinstance(item, Mapping) for item in brackets):
        raise ValueError("brackets must be a list of {i, j, k, c} objects")
    entries = []
    for item in brackets:
        i, j, k = (json_int(item[x], f"bracket {x!r}") for x in "ijk")
        entries.append((i, j, k, parse_fraction(json_literal(item["c"], "bracket 'c'"))))
    return from_bracket_list(dim, entries)


def algebra_from_coframe_json(data: Mapping) -> LieAlgebraSpec:
    """Parse {"dim": n, "d": {"e3": "e1^e2", ...}} real structure equations.

    The dimension is inferred from the largest index when not given.
    """
    import re

    equations = data.get("d", {})
    if not isinstance(equations, Mapping):
        raise ValueError("d must be an object of coframe key: 2-form literal pairs")
    if "dim" in data:
        dim = json_int(data["dim"], "dim")
    else:
        dim = 0
        for key, text in equations.items():
            for m in re.finditer(r"e(\d+)", key + " " + str(text)):
                dim = max(dim, int(m.group(1)))

    diffs = {}
    for key, text in equations.items():
        match = re.fullmatch(r"e(\d+)", key.strip())
        if not match:
            raise ValueError(f"bad coframe key {key!r}")
        k = int(match.group(1))
        diffs[k] = _parse_real_two_form(str(text), dim)
    entries = []
    for k, form in diffs.items():
        for m, coeff in form.terms.items():
            holo = indices(m)
            if len(holo) != 2:
                raise ValueError("coframe differentials must be 2-forms")
            if not coeff.is_real():
                raise ValueError("real coframe differentials need rational coefficients")
            i, j = holo
            entries.append((i, j, k, -coeff.re))
    return from_bracket_list(dim, entries)


def _parse_real_two_form(text: str, dim: int) -> ComplexForm:
    out = ComplexForm.zero(dim)
    text = text.strip()
    if text in ("0", ""):
        return out
    import re

    for sign_text, chunk in split_terms(text):
        match = re.fullmatch(r"(.*?)\s*e(\d+)\s*\^\s*e(\d+)", chunk.strip())
        if not match:
            raise ValueError(f"bad real 2-form term {chunk!r}")
        coeff_text, i, j = match.group(1).strip(), int(match.group(2)), int(match.group(3))
        coeff = parse_fraction(coeff_text) if coeff_text else Fraction(1)
        i, j, flip = (i, j, 1) if i < j else (j, i, -1)
        if i == j:
            continue
        out = out + monomial(dim, (i, j), coeff=Fraction(sign_text * flip) * coeff)
    return out

