"""Real Lie algebras by structure constants and their Chevalley-Eilenberg calculus.

Sign convention, fixed once and tested: d alpha(X, Y) = -alpha([X, Y]), so a
bracket [e_i, e_j] = e_k reads off as d e^k = -e^i ^ e^j.  Real coframe forms
are represented as ComplexForm values whose indices are all "holomorphic";
only the graded algebra structure is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .exterior import ComplexForm, MultiIndex, apply_antiderivation, monomial, split_terms
from .linalg import (
    Matrix,
    Vector,
    gr,
    identity,
    kernel,
    matvec,
    inverse,
    is_zero_vec,
    row_space_rref,
)
from .scalars import ZERO, ONE, json_int, parse_fraction


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
            entries = {k: Fraction(v) for k, v in comp.items() if Fraction(v) != 0}
            for k in entries:
                if not 1 <= k <= self.dim:
                    raise ValueError(f"bracket target out of range: {k}")
            if entries:
                clean[(i, j)] = entries
        object.__setattr__(self, "brackets", clean)

    # -- bracket evaluation -----------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        for i in range(1, self.dim + 1):
            xi = Fraction(x[i - 1])
            if not xi:
                continue
            for j in range(1, self.dim + 1):
                yj = Fraction(y[j - 1])
                if not yj:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    out[k - 1] += xi * yj * c
        return out

    def ad_matrix(self, i: int) -> list[list[Fraction]]:
        """Matrix of ad(e_i) acting on column vectors."""
        out = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for j in range(1, self.dim + 1):
            for k, c in self.bracket_basis(i, j).items():
                out[k - 1][j - 1] = c
        return out

    def abelian(self) -> bool:
        return not self.brackets


def from_bracket_list(dim: int, entries: Sequence[tuple[int, int, int, object]]) -> LieAlgebraSpec:
    """Build a spec from (i, j, k, c) tuples; i > j entries are folded in."""
    acc: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, k, c in entries:
        c = parse_fraction(c) if isinstance(c, str) else Fraction(c)
        if i == j:
            if c:
                raise ValueError("[e_i, e_i] must vanish")
            continue
        key, sign = ((i, j), 1) if i < j else ((j, i), -1)
        comp = acc.setdefault(key, {})
        comp[k] = comp.get(k, Fraction(0)) + sign * c
    return LieAlgebraSpec(dim, acc)


@dataclass
class JacobiResult:
    ok: bool
    triple: tuple[int, int, int] | None = None
    residual: list[Fraction] | None = None

    def __bool__(self):
        return self.ok


def signed_brackets(g: LieAlgebraSpec) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
    """[e_a, e_b] = sum c e_k as (k, c) pairs, for both orders of every a != b
    with a nonzero bracket."""
    table: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (a, b), comp in g.brackets.items():
        table[(a, b)] = list(comp.items())
        table[(b, a)] = [(k, -c) for k, c in comp.items()]
    return table


def check_jacobi(g: LieAlgebraSpec) -> JacobiResult:
    """Exhaustive Jacobi check; returns the first violating basis triple."""
    n = g.dim
    table = signed_brackets(g)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ij = (i, j) in table
            for k in range(j + 1, n + 1):
                # the residual is a sum over the three cyclic brackets
                if not (ij or (j, k) in table or (k, i) in table):
                    continue
                acc = [Fraction(0)] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, coeff in table.get((a, b), ()):
                        for t, c2 in table.get((m, c), ()):
                            acc[t - 1] += coeff * c2
                if any(acc):
                    return JacobiResult(False, (i, j, k), acc)
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
    return [
        ComplexForm(
            g.dim,
            {MultiIndex(ij, ()): -comp[k] for ij, comp in g.brackets.items() if comp.get(k)},
        )
        for k in range(1, g.dim + 1)
    ]


def ce_differential(g: LieAlgebraSpec, f: ComplexForm) -> ComplexForm:
    """CE differential of a real-coframe form (holomorphic-slot encoding).

    Works for any antisymmetric structure tensor; d o d = 0 holds exactly
    when the Jacobi identity does.
    """
    if f.n != g.dim:
        raise ValueError("form does not live over this algebra's coframe")
    if any(key.anti for key in f.terms):
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
    center_basis: list[Vector]
    lower_central_series_dims: list[int]
    is_nilpotent: bool
    is_unimodular: bool
    abelian_codim1_ideal: list[Vector] | None


def center(g: LieAlgebraSpec) -> list[Vector]:
    """Exact basis of {x : [x, e_i] = 0 for all i}."""
    rows: Matrix = []
    for i in range(1, g.dim + 1):
        ad = g.ad_matrix(i)
        # condition [x, e_i] = 0: row per output coordinate, negated ad(e_i) of x
        for k in range(g.dim):
            rows.append([gr(-ad[k][m]) for m in range(g.dim)])
    if not rows:
        return identity(g.dim)
    return kernel(rows, g.dim)


def _span_products(g: LieAlgebraSpec, rows_a: Matrix, rows_b: Matrix) -> Matrix:
    products = []
    for u in rows_a:
        for v in rows_b:
            w = g.bracket([x.re for x in u], [y.re for y in v])
            if any(w):
                products.append([gr(c) for c in w])
    return row_space_rref(products)


def lower_central_series(g: LieAlgebraSpec) -> list[Matrix]:
    """g = g_1 >= g_2 = [g, g_1] >= ... until stabilization."""
    full = identity(g.dim)
    series = [full]
    while True:
        nxt = _span_products(g, full, series[-1])
        if len(nxt) == len(series[-1]):
            series.append(nxt)
            break
        series.append(nxt)
        if not nxt:
            break
    return series


def is_unimodular(g: LieAlgebraSpec) -> bool:
    """tr ad(e_i) = sum_k c^k_{ik} vanishes for every i."""
    traces = [Fraction(0)] * (g.dim + 1)
    for (i, j), comp in g.brackets.items():
        # [e_i, e_j] adds its e_j part to tr ad(e_i); [e_j, e_i] = -[e_i, e_j]
        # adds minus its e_i part to tr ad(e_j)
        traces[i] += comp.get(j, 0)
        traces[j] -= comp.get(i, 0)
    return not any(traces)


def derived_subalgebra(g: LieAlgebraSpec) -> Matrix:
    full = identity(g.dim)
    return _span_products(g, full, full)


def abelian_codim1_ideal(g: LieAlgebraSpec) -> list[Vector] | None:
    """Exact decision: find a codimension-one abelian ideal, or report none.

    Every codimension-one ideal contains the derived subalgebra D, so the
    search reduces to hyperplanes h >= D with vanishing bracket.  Writing
    V = g/D, the candidates are h = D + K for hyperplanes K of V killed by
    [D, .], and the remaining obstruction is a bracket Lambda^2 V -> g that
    must vanish on K; for dim V >= 3 that is the linear condition
    phi ^ bracket = 0 on the defining functional phi of K.
    """
    dim = g.dim
    if dim == 0:
        return None
    derived = derived_subalgebra(g)
    codim = dim - len(derived)
    if codim == 0:
        return None

    # [D, D] must vanish on any abelian subspace containing D
    for u in derived:
        for v in derived:
            if any(g.bracket([x.re for x in u], [y.re for y in v])):
                return None

    # complement U of D inside g (coordinates of V = g/D)
    pivots = set()
    for row in derived:
        pivots.add(next(j for j, x in enumerate(row) if not x.is_zero()))
    comp_idx = [j for j in range(dim) if j not in pivots]
    comp = []
    for j in comp_idx:
        v = [Fraction(0)] * dim
        v[j] = Fraction(1)
        comp.append(v)
    q = len(comp)

    # U0 = complement directions commuting with all of D
    if derived:
        rows = []
        for u in comp:
            row_block = []
            for dvec in derived:
                row_block.extend(g.bracket([x.re for x in dvec], u))
            rows.append(row_block)
        cols = len(rows[0])
        mat = [[gr(rows[i][j]) for i in range(q)] for j in range(cols)]
        u0_coords = kernel(mat, q) if cols else identity(q)
    else:
        u0_coords = identity(q)

    def lift(coords: Vector) -> Vector:
        out = [ZERO] * dim
        for c, base in zip(coords, comp):
            for m in range(dim):
                out[m] = out[m] + c * base[m]
        return out

    def abelian_span(rows_vecs: list[Vector]) -> bool:
        for u in rows_vecs:
            for v in rows_vecs:
                if any(g.bracket([x.re for x in u], [y.re for y in v])):
                    return False
        return True

    r0 = len(u0_coords)
    if r0 < q - 1:
        return None
    if r0 == q - 1:
        candidate = list(derived) + [lift(v) for v in u0_coords]
        if abelian_span(candidate):
            return row_space_rref(candidate)
        return None

    # D is central among the complement; bracket factors through V = g/D
    if q == 1:
        return row_space_rref(list(derived)) if derived else None
    gamma = {}
    for a in range(q):
        for b in range(a + 1, q):
            w = g.bracket(comp[a], comp[b])
            gamma[(a, b)] = w
    if all(not any(w) for w in gamma.values()):
        candidate = list(derived) + [lift(v) for v in identity(q)[:-1]]
        return row_space_rref(candidate)
    if q == 2:
        # any line of V works only if gamma vanishes on it; a single generator
        # is automatically abelian with itself, so check [D+span, same]
        for pick in range(2):
            coords = [ZERO] * q
            coords[pick] = ONE
            candidate = list(derived) + [lift(coords)]
            if abelian_span(candidate):
                return row_space_rref(candidate)
        return None
    # q >= 3: solve phi ^ gamma = 0 for the hyperplane functional phi
    rows = []
    for a in range(q):
        for b in range(a + 1, q):
            for c in range(b + 1, q):
                for m in range(dim):
                    row = [ZERO] * q
                    row[a] = row[a] + gr(gamma[(b, c)][m])
                    row[b] = row[b] - gr(gamma[(a, c)][m])
                    row[c] = row[c] + gr(gamma[(a, b)][m])
                    rows.append(row)
    sols = kernel(rows, q)
    for phi in sols:
        if is_zero_vec(phi):
            continue
        # K = kernel of phi inside V
        k_basis = kernel([phi], q)
        candidate = list(derived) + [lift(v) for v in k_basis]
        if abelian_span(candidate):
            return row_space_rref(candidate)
    return None


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
    sinv = inverse(s)
    entries = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            fi = [s[m][i - 1].re for m in range(n)]
            fj = [s[m][j - 1].re for m in range(n)]
            w = g.bracket(fi, fj)
            coords = matvec(sinv, [gr(c) for c in w])
            for k, c in enumerate(coords, start=1):
                if not c.is_zero():
                    if not c.is_real():
                        raise ValueError("change of basis must stay rational")
                    entries.append((i, j, k, c.re))
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
        entries.append((i, j, k, parse_fraction(item["c"])))
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
        for (holo, _), coeff in form.terms.items():
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

