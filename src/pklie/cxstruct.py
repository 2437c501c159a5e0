"""Complex structures on real Lie algebras.

A ComplexStructureSpec always carries two synchronized representations after
validation: the real side (structure constants and the endomorphism J with
J^2 = -Id) and the complex side (a (1,0)-coframe a^1..a^n plus its structure
equations d a^j expanded over that coframe).  Either side can be the input.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exterior import (
    ComplexForm,
    antiderivation_terms,
    apply_antiderivation,
    combine,
    conjugate,
    index_mask,
    indices,
    key_bidegree,
    monomial,
    one_form,
    parse_form,
    substitute,
    term_order,
)
from .liealg import (
    InvalidAlgebraError,
    LieAlgebraSpec,
    algebra_from_json,
    coframe_differentials,
    _int_row,
    ensure_valid,
    int_bracket,
    is_nilpotent,
    signed_brackets,
)
from .linalg import (
    Matrix,
    Vector,
    apply_columns,
    gr,
    identity,
    inverse,
    kernel,
    mat_from_json,
    mat_from_rows,
    row_space_rref,
    transpose,
    zeros,
)
from .scalars import I, ONE, ZERO, _reduced, json_literal, parse_fraction


class NonIntegrableError(ValueError):
    """The given almost complex structure is not integrable."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _has_02_part(eq: ComplexForm) -> bool:
    return any(key_bidegree(m, eq.n) == (0, 2) for m in eq.terms)


class JClass(str, Enum):
    SNN = "SNN"
    WEAKLY_NON_NILPOTENT = "WEAKLY_NON_NILPOTENT"
    NILPOTENT = "NILPOTENT"


@dataclass
class IntegrabilityResult:
    ok: bool
    witness: tuple[int, int] | None = None
    nijenhuis_value: list[Fraction] | None = None
    # the (1,0)-coframe whose structure equations `check_integrability`
    # read for the bidegree test, and those equations
    coframe: Matrix | None = None
    equations: list[ComplexForm] | None = None

    def __bool__(self):
        return self.ok


def _j_int_columns(J: Matrix) -> tuple[list[dict[int, int]], int]:
    """(cols, D): J e_j = sum_i (cols[j - 1][i] / D) e_i over the nonzero
    entries of a real J, rows 1-based, with D the lcm of J's denominators."""
    den = lcm(*(x.d for row in J for x in row))
    cols: list[dict[int, int]] = [{} for _ in J]
    for i, row in enumerate(J, start=1):
        for j, x in enumerate(row):
            if x.a:
                cols[j][i] = x.a * (den // x.d)
    return cols, den


def _check_j_square(J: Matrix, dim: int) -> None:
    if len(J) != dim or any(len(row) != dim for row in J):
        raise ValueError(f"J must be a {dim}x{dim} matrix")
    for row in J:
        for entry in row:
            if not entry.is_real():
                raise ValueError("J must be a real rational matrix")
    cols, den = _j_int_columns(J)
    for i, col in enumerate(cols, start=1):
        if apply_columns(cols, col) != {i: -den * den}:
            raise ValueError("J^2 != -Id")


def nijenhuis_tensor(g: LieAlgebraSpec, J: Matrix) -> IntegrabilityResult:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] on basis pairs.

    Formed from the nonzero terms of the signed bracket table and of the
    columns J e_i, both as ints: with brackets over D and J over D_J every
    term is an int over D_J^2 D.  The first pair (in lexicographic order)
    with N != 0 is the witness, its value the dense residual in Fractions.
    """
    table, den = signed_brackets(g)
    cols, jden = _j_int_columns(J)
    jden2 = jden * jden

    for i in range(1, g.dim + 1):
        jx = cols[i - 1]
        for j in range(i + 1, g.dim + 1):
            jy = cols[j - 1]
            term = int_bracket(table, jx, jy)
            mixed = int_bracket(table, jx, {j: 1})
            for k, c in int_bracket(table, {i: 1}, jy).items():
                mixed[k] = mixed.get(k, 0) + c
            for k, c in apply_columns(cols, mixed).items():
                term[k] = term.get(k, 0) - c
            for k, c in table.get((i, j), ()):
                term[k] = term.get(k, 0) - c * jden2
            if any(term.values()):
                scale = jden2 * den
                value = [Fraction(term.get(k, 0), scale) for k in range(1, g.dim + 1)]
                return IntegrabilityResult(False, (i, j), value)
    return IntegrabilityResult(True)


def _eigen_coframe(g: LieAlgebraSpec, J: Matrix) -> Matrix:
    """Canonical basis (RREF rows) of the +i eigenspace of J acting on g*."""
    dim = g.dim
    jt = transpose(J)
    m = [[jt[r][c] - (I if r == c else ZERO) for c in range(dim)] for r in range(dim)]
    vecs = kernel(m, dim)
    if 2 * len(vecs) != dim:
        raise ValueError("J eigenspace has wrong dimension; is J^2 = -Id?")
    return row_space_rref(vecs)


def _real_to_complex_images(coframe: Matrix) -> list[ComplexForm]:
    """Images e^m -> expansion in a^j, conj(a^j) for the given coframe rows.

    [C; conj C] = T [Re C; Im C] with T = [[1, i], [1, -i]], so the inverse is
    the rational inverse of [Re C; Im C] followed by T^-1 = 1/2 [[1, 1], [-i, i]]:
    e^m = sum_j (r_mj - i r_m,n+j)/2 a^j + (r_mj + i r_m,n+j)/2 conj(a^j).
    [Re C; Im C] is inverted as the int matrix R whose rows k and n+k are
    rows k of Re C and Im C times the lcm s_k of row k's denominators; then
    r_mj = (R^-1)_mj s_j and r_m,n+j = (R^-1)_m,n+j s_j.
    """
    n = len(coframe)
    scales = [lcm(*(c.d for c in row)) for row in coframe]
    real = [[c.a * (s // c.d) for c in row] for row, s in zip(coframe, scales)]
    real += [[c.b * (s // c.d) for c in row] for row, s in zip(coframe, scales)]
    try:
        rinv = inverse(real)
    except ValueError:
        raise ValueError("coframe rows are linearly dependent") from None
    images = []
    for row in rinv:
        terms = {}
        for j, s in enumerate(scales):
            x, y = row[j], row[n + j]
            if x or y:
                # (x - i y) s / 2, over the denominator 2 q r of x = p/q, y = t/r
                q, r = x.denominator, y.denominator
                c1 = _reduced(x.numerator * r * s, -y.numerator * q * s, 2 * q * r)
                terms[1 << j] = c1
                terms[1 << n + j] = c1.conjugate()
        images.append(ComplexForm._wrap(n, terms))
    return images


@functools.lru_cache(maxsize=None)
def _real_image(n: int, key: int) -> ComplexForm:
    """The monomial a^key over the real coframe e^{2j-1} = Re a^j, e^{2j} = Im a^j.

    Conjugation must act on the image coefficientwise; then the real and
    imaginary parts of sum c_K image(K) are the real images of the real and
    imaginary parts of sum c_K a^K, for every equation at once.
    """
    dim = 2 * n
    re = [monomial(dim, (2 * j - 1,)) for j in range(1, n + 1)]
    im = [monomial(dim, (2 * j,)) for j in range(1, n + 1)]
    holo = [x + y * I for x, y in zip(re, im)]
    anti = [x - y * I for x, y in zip(re, im)]
    mono = ComplexForm._wrap(n, {key: ONE})
    image = substitute(mono, holo, anti, n_target=dim)
    conj_image = substitute(conjugate(mono), holo, anti, n_target=dim)
    if conj_image.terms != {k: c.conjugate() for k, c in image.terms.items()}:
        raise ValueError("derived real structure constants not real")
    return image


def _real_algebra(equations: Sequence[ComplexForm]) -> LieAlgebraSpec:
    """Structure constants over e^{2j-1} = Re a^j, e^{2j} = Im a^j; Jacobi unchecked.

    d e^{2j-1} and d e^{2j} are the real and imaginary parts of d a^j
    written over the real coframe.
    """
    n = len(equations)
    dim = 2 * n
    # every image coefficient is a Gaussian integer, so d alpha is summed as
    # (real, imaginary) int numerators over the lcm of the equations' denominators
    den = lcm(*(c.d for eq in equations for c in eq.terms.values()))
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for j, eq in enumerate(equations, start=1):
        # keys that cancel are dropped as they cancel, as `combine` drops them
        acc: dict[int, tuple[int, int]] = {}
        for key, c in eq.terms.items():
            scale = den // c.d
            a, b = c.a * scale, c.b * scale
            for holo, e in _real_image(n, key).terms.items():
                x, y = a * e.a - b * e.b, a * e.b + b * e.a
                prev = acc.get(holo)
                if prev is not None:
                    x, y = x + prev[0], y + prev[1]
                    if not (x or y):
                        del acc[holo]
                        continue
                acc[holo] = (x, y)
        for k, part in ((2 * j - 1, 0), (2 * j, 1)):
            for holo, value in acc.items():
                if value[part]:
                    brackets.setdefault(indices(holo), {})[k] = Fraction(-value[part], den)
    return LieAlgebraSpec(dim, brackets)


def structure_equations(g: LieAlgebraSpec, coframe: Matrix) -> list[ComplexForm]:
    """d a^j expanded over the a / conj(a) coframe, for a^j = sum coframe[j] e."""
    dim = g.dim
    n = len(coframe)
    images = _real_to_complex_images(coframe)
    zero_anti = [ComplexForm.zero(n)] * dim
    diffs = coframe_differentials(g)
    out = []
    for row in coframe:
        # d(sum_m row[m] e^m) = sum_m row[m] d e^m, over the real coframe
        real_two_form = combine(dim, ((c, df) for c, df in zip(row, diffs) if c))
        out.append(substitute(real_two_form, images, zero_anti, n_target=n))
    return out


@functools.lru_cache(maxsize=None)
def pp_basis(n: int, p: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The real basis of real (p,p)-forms that every (p,p) coordinate refers to.

    One column per basis form, each a tuple of (mask, k) terms, the term
    i^k a^mask with k mod 4 and mask an `exterior` monomial mask.  With
    u = i^{p^2} and the p-subsets A, B in lexicographic order, the columns
    are u a^{A,A} for each A, then for each A < B the pair u(a^{A,B} + a^{B,A})
    and iu(a^{A,B} - a^{B,A}).
    """
    combos = [index_mask(c) for c in itertools.combinations(range(1, n + 1), p)]
    u = p * p % 4
    cols = [((a | a << n, u),) for a in combos]
    for ia, a in enumerate(combos):
        for b in combos[ia + 1 :]:
            cols.append(((a | b << n, u), (b | a << n, u)))
            cols.append(((a | b << n, (u + 1) % 4), (b | a << n, (u + 3) % 4)))
    return tuple(cols)


@dataclass
class ComplexStructureSpec:
    """Validated pair (g, J) with cached coframe and structure equations."""

    g: LieAlgebraSpec
    J: Matrix
    coframe: Matrix
    equations: list[ComplexForm]
    # pp_system(p) per p, built on first use
    _pp_systems: dict[int, dict] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.coframe)

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_coframe(
        g: LieAlgebraSpec, J: Sequence[Sequence], coframe: Sequence[Sequence] | None = None
    ) -> "ComplexStructureSpec":
        """Validate (g, J) and keep the given (1,0)-coframe of J, or J's
        canonical one when none is given, with its structure equations."""
        J = mat_from_rows(J)
        if g.dim % 2:
            raise ValueError("complex structures need even real dimension")
        if coframe is not None and (
            len(coframe) != g.dim // 2 or any(len(row) != g.dim for row in coframe)
        ):
            raise ValueError(f"coframe must have {g.dim // 2} rows of {g.dim} entries")
        integ = check_integrability(g, J, coframe)
        if not integ.ok:
            raise NonIntegrableError(
                f"Nijenhuis tensor nonzero on basis pair {integ.witness}",
                witness=integ,
            )
        return ComplexStructureSpec(g, J, integ.coframe, integ.equations)

    @staticmethod
    def from_equations(equations: Sequence[ComplexForm]) -> "ComplexStructureSpec":
        """Build the real algebra underlying given (1,0) structure equations.

        The real coframe is e^{2j-1} = Re a^j, e^{2j} = Im a^j; validation
        covers homogeneity, integrability ((0,2) parts must vanish) and the
        Jacobi identity (equivalently d^2 = 0 on the coframe).
        """
        n = len(equations)
        dim = 2 * n
        for j, eq in enumerate(equations, start=1):
            if eq.n != n:
                raise ValueError(f"equation {j} lives over the wrong coframe size")
            if not eq.is_zero() and eq.degrees() != {2}:
                raise ValueError(f"d a^{j} must be a 2-form")
            if _has_02_part(eq):
                raise NonIntegrableError(
                    f"d a^{j} has a (0,2) component; structure not integrable"
                )
        g = _real_algebra(equations)
        ensure_valid(g)
        J = zeros(dim, dim)
        for j in range(1, n + 1):
            J[2 * j - 1][2 * j - 2] = ONE
            J[2 * j - 2][2 * j - 1] = -ONE
        coframe = zeros(n, dim)
        for j in range(1, n + 1):
            coframe[j - 1][2 * j - 2] = ONE
            coframe[j - 1][2 * j - 1] = I
        struct = ComplexStructureSpec(g, J, coframe, [eq for eq in equations])
        # the cached equations must agree with the real side
        recomputed = structure_equations(g, coframe)
        if recomputed != struct.equations:
            raise AssertionError("internal inconsistency between representations")
        return struct

    # -- differential -----------------------------------------------------------

    def d(self, f: ComplexForm) -> ComplexForm:
        """Chevalley-Eilenberg differential over the complex coframe."""
        if f.n != self.n:
            raise ValueError("form lives over a different coframe")
        return apply_antiderivation(f, self.equations, self._conj_equations)

    @functools.cached_property
    def _conj_equations(self) -> list[ComplexForm]:
        return [conjugate(eq) for eq in self.equations]

    def pp_system(self, p: int) -> dict[tuple[int, int], dict[int, int]]:
        """The (p+1,p) part of d on real (p,p)-forms as sparse int rows over the
        columns of `pp_basis(n, p)`: row (m, part), m a monomial mask of
        `exterior`, holds D times the nonzero real (part 0) or imaginary parts
        at m, D the lcm of the equations' denominators.  Built once per p by
        the Leibniz rule of `exterior.antiderivation_terms` from the (2,0) parts
        of the d a^j and the (1,1) parts of the d conj a^j, the only ones
        integrability leaves:
        (d(a^A ^ conj a^B))^{p+1,p} = del a^A ^ conj a^B + (-1)^p a^A ^ (d conj a^B)^{1,p},
        once per mask; a column's image is the sum of i^k (image of a^mask) over its terms.
        """
        if p in self._pp_systems:
            return self._pp_systems[p]
        n = self.n
        den = lcm(*(c.d for eq in self.equations for c in eq.terms.values()))
        # per generator bit, its 2-form terms c a^u as (u, (x, y)) with x + iy = D c
        parts: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(2 * n)]
        for j, eq in enumerate(self.equations):
            for u, c in eq.terms.items():
                x, y, b = c.a * (den // c.d), c.b * (den // c.d), j
                if u >> n:
                    # a (1,1) term: conj(c a^i ^ conj a^k) = -conj(c) a^k ^ conj a^i
                    b, u, x = n + j, u >> n | (u & (1 << n) - 1) << n, -x
                parts[b].append((u, (x, y)))

        images: dict[int, dict[int, tuple[int, int]]] = {}
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for col, terms in enumerate(pp_basis(n, p)):
            acc: dict[int, tuple[int, int]] = {}
            for mask, k in terms:
                img = images.get(mask)
                if img is None:
                    img = images[mask] = {}
                    for key, odd, (x, y) in antiderivation_terms(mask, parts):
                        prev = img.get(key, (0, 0))
                        img[key] = (prev[0] - x, prev[1] - y) if odd else (prev[0] + x, prev[1] + y)
                for key, (x, y) in img.items():
                    if k & 1:
                        x, y = -y, x
                    if k & 2:
                        x, y = -x, -y
                    px, py = acc.get(key, (0, 0))
                    acc[key] = (px + x, py + y)
            for key, (x, y) in acc.items():
                if x:
                    rows.setdefault((key, 0), {})[col] = x
                if y:
                    rows.setdefault((key, 1), {})[col] = y
        self._pp_systems[p] = rows
        return rows

    def closed_10_forms(self) -> list[Vector]:
        """Coefficient vectors x with d(sum x_j a^j) = 0, RREF-canonical."""
        keys = sorted({key for eq in self.equations for key in eq.terms}, key=term_order(self.n))
        rows = [[eq.terms.get(key, ZERO) for eq in self.equations] for key in keys]
        if not rows:
            return identity(self.n)
        return kernel(rows, self.n)

    def j_apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        cols, den = _j_int_columns(self.J)
        jv = apply_columns(cols, {m: x for m, x in enumerate(v, start=1) if x})
        return [Fraction(jv.get(k, 0), den) for k in range(1, self.g.dim + 1)]


def struct_to_json(struct: ComplexStructureSpec) -> dict:
    from .exterior import form_to_json
    from .liealg import algebra_to_json

    return {
        "algebra": algebra_to_json(struct.g),
        "J": [[str(x.re) for x in row] for row in struct.J],
        "coframe": [[str(x) for x in row] for row in struct.coframe],
        "dalpha": [form_to_json(eq) for eq in struct.equations],
    }


def struct_from_json(data) -> ComplexStructureSpec:
    """Rebuild and revalidate a serialized structure; equations must agree."""
    from .exterior import form_from_json

    if not isinstance(data, dict):
        raise ValueError("a structure must be a JSON object")
    g = algebra_from_json(data["algebra"])
    J = mat_from_json(data["J"], g.dim, g.dim, "J")
    coframe = mat_from_json(data["coframe"], g.dim // 2, g.dim, "coframe")
    struct = ComplexStructureSpec.from_coframe(g, J, coframe)
    dalpha = data["dalpha"]
    if not isinstance(dalpha, list) or len(dalpha) != struct.n:
        raise ValueError(f"dalpha must be a list of {struct.n} forms")
    stored = [form_from_json(item, struct.n) for item in dalpha]
    if stored != struct.equations:
        raise ValueError("stored structure equations do not match the algebra")
    return struct


def equations_from_literals(literals, n=None, params=None) -> list[ComplexForm]:
    """Structure equations from form literals keyed "a1", "a2", ...

    A missing key up to n is d a^j = 0; n defaults to the largest key.
    `params` maps parameter names to the rational values the literals use.
    """
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError("params must be an object of name: value pairs")
    for name in params:
        if name == "i":
            raise ValueError("a parameter may not be named i, the imaginary unit")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ValueError(f"bad parameter name {name!r}; expected an identifier")
    values = {k: parse_fraction(json_literal(v, f"param {k!r}")) for k, v in params.items()}
    texts = {}
    for key, text in literals.items():
        match = re.fullmatch(r"a([1-9][0-9]*)", key)
        if match is None:
            raise ValueError(f"bad dalpha key {key!r}; expected a1, a2, ...")
        if not isinstance(text, str):
            raise ValueError(f"dalpha {key} must be a form literal string")
        texts[int(match.group(1))] = text
    if n is None:
        n = max(texts, default=0)
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    beyond = sorted(j for j in texts if j > n)
    if beyond:
        raise ValueError(f"dalpha key a{beyond[0]} is out of range 1..{n}")
    return [parse_form(texts.get(j, "0"), n, values) for j in range(1, n + 1)]


def struct_from_payload(data: dict) -> ComplexStructureSpec:
    """A structure from an input payload, in the first format it matches:
    a `dalpha` object of literals (with optional `n` and `params`), a
    serialized structure (`algebra`), or an algebra with a matrix `J`."""
    if isinstance(data.get("dalpha"), dict):
        equations = equations_from_literals(data["dalpha"], data.get("n"), data.get("params"))
        return ComplexStructureSpec.from_equations(equations)
    if "algebra" in data:
        return struct_from_json(data)
    if "J" in data:
        g = algebra_from_json(data)
        return ComplexStructureSpec.from_coframe(g, mat_from_json(data["J"], g.dim, g.dim, "J"))
    raise ValueError("unrecognized input format")


def check_integrability(
    g: LieAlgebraSpec, J: Sequence[Sequence], coframe: Sequence[Sequence] | None = None
) -> IntegrabilityResult:
    """Nijenhuis test cross-checked against the bidegree test on d(Lambda^{1,0}).

    The bidegree test reads the structure equations of `coframe`, whose rows
    must be (1,0)-forms of J, or of J's canonical (1,0)-coframe when none is
    given; the result carries that coframe and its equations for the
    constructor to keep.  Disagreement between the two tests is an internal
    error, not a verdict.
    """
    J = mat_from_rows(J)
    _check_j_square(J, g.dim)
    ensure_valid(g)
    if coframe is None:
        coframe = _eigen_coframe(g, J)
    else:
        coframe = mat_from_rows(coframe)
        # a (1,0)-form a = sum_k row[k] e^k has (J^T a)_m = sum_k J_km row[k] = i row[m]
        cols, den = _j_int_columns(J)
        for row in coframe:
            for col, entry in zip(cols, row):
                if sum((row[k - 1] * c for k, c in col.items()), ZERO) != I * entry * den:
                    raise ValueError("coframe row is not a (1,0)-form for J")
    nij = nijenhuis_tensor(g, J)
    equations = structure_equations(g, coframe)
    bidegree_ok = not any(_has_02_part(eq) for eq in equations)
    if bidegree_ok != nij.ok:
        raise AssertionError(
            "integrability tests disagree (Nijenhuis vs bidegree); internal bug"
        )
    nij.coframe, nij.equations = coframe, equations
    return nij


# -- ascending series adapted to J ----------------------------------------------


@dataclass
class AscendingSeries:
    chain: list[Matrix]
    dims: list[int]
    stabilization: int
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
    stab = len(chain) - 1
    if len(dims) == 1:
        classification = JClass.SNN
    elif dims[-1] == dim:
        classification = JClass.NILPOTENT
    else:
        classification = JClass.WEAKLY_NON_NILPOTENT
    return AscendingSeries(chain, dims, stab, classification)


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
