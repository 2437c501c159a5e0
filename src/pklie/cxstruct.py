"""Complex structures on real Lie algebras.

A ComplexStructureSpec always carries two synchronized representations after
validation: the real side (structure constants and the endomorphism J with
J^2 = -Id) and the complex side (a (1,0)-coframe a^1..a^n plus its structure
equations d a^j expanded over that coframe).  Either side can be the input.
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
    MultiIndex,
    apply_antiderivation,
    combine,
    conjugate,
    generator,
    monomial,
    one_form,
    substitute,
    wedge,
)
from .liealg import (
    InvalidAlgebraError,
    LieAlgebraSpec,
    coframe_differentials,
    ensure_valid,
    from_bracket_list,
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
    is_zero_vec,
    kernel,
    mat_from_json,
    mat_from_rows,
    matmul,
    reduce_against,
    row_space_rref,
    sparse_columns,
    transpose,
    zeros,
)
from .scalars import GaussianRational, I, ONE, ZERO


class NonIntegrableError(ValueError):
    """The given almost complex structure is not integrable."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _has_02_part(eq: ComplexForm) -> bool:
    return any(key.bidegree == (0, 2) for key in eq.terms)


class JClass(str, Enum):
    SNN = "SNN"
    WEAKLY_NON_NILPOTENT = "WEAKLY_NON_NILPOTENT"
    NILPOTENT = "NILPOTENT"


@dataclass
class IntegrabilityResult:
    ok: bool
    witness: tuple[int, int] | None = None
    nijenhuis_value: list[Fraction] | None = None
    # the canonical (1,0)-coframe of J and its structure equations, which
    # `check_integrability` computes for the bidegree test
    coframe: Matrix | None = None
    equations: list[ComplexForm] | None = None

    def __bool__(self):
        return self.ok


def _j_fraction_matrix(J: Matrix) -> list[list[Fraction]]:
    return [[entry.re for entry in row] for row in J]


def _check_j_square(J: Matrix, dim: int) -> None:
    if len(J) != dim or any(len(row) != dim for row in J):
        raise ValueError(f"J must be a {dim}x{dim} matrix")
    for row in J:
        for entry in row:
            if not entry.is_real():
                raise ValueError("J must be a real rational matrix")
    cols = sparse_columns(_j_fraction_matrix(J))
    for i, col in enumerate(cols, start=1):
        if apply_columns(cols, col) != {i: -1}:
            raise ValueError("J^2 != -Id")


def nijenhuis_tensor(g: LieAlgebraSpec, J: Matrix) -> IntegrabilityResult:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] on basis pairs.

    Formed from the nonzero terms of the signed bracket table and of the
    columns J e_i; the first pair (in lexicographic order) with N != 0 is
    the witness, its value the dense residual.
    """
    table = signed_brackets(g)
    cols = sparse_columns(_j_fraction_matrix(J))

    def bracket(x: dict[int, Fraction], y: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for a, xa in x.items():
            for b, yb in y.items():
                for k, c in table.get((a, b), ()):
                    out[k] = out.get(k, 0) + xa * yb * c
        return out

    for i in range(1, g.dim + 1):
        jx = cols[i - 1]
        for j in range(i + 1, g.dim + 1):
            jy = cols[j - 1]
            term = bracket(jx, jy)
            mixed = bracket(jx, {j: 1})
            for k, c in bracket({i: 1}, jy).items():
                mixed[k] = mixed.get(k, 0) + c
            for k, c in apply_columns(cols, mixed).items():
                term[k] = term.get(k, 0) - c
            for k, c in table.get((i, j), ()):
                term[k] = term.get(k, 0) - c
            if any(term.values()):
                value = [Fraction(term.get(k, 0)) for k in range(1, g.dim + 1)]
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
    """
    n = len(coframe)
    real = [[c.re for c in row] for row in coframe] + [[c.im for c in row] for row in coframe]
    rinv = inverse(real)
    images = []
    for row in rinv:
        terms = {}
        for j in range(n):
            if row[j] or row[n + j]:
                c1 = GaussianRational(row[j], row[n + j]).conjugate() / 2
                terms[MultiIndex((j + 1,), ())] = c1
                terms[MultiIndex((), (j + 1,))] = c1.conjugate()
        images.append(ComplexForm._wrap(n, terms))
    return images


@functools.lru_cache(maxsize=None)
def _real_image(n: int, key: MultiIndex) -> ComplexForm:
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
    entries = []
    for j, eq in enumerate(equations, start=1):
        d_alpha = combine(dim, ((c, _real_image(n, key)) for key, c in eq.terms.items()))
        for k, part in ((2 * j - 1, "re"), (2 * j, "im")):
            for (holo, _anti), coeff in d_alpha.terms.items():
                value = getattr(coeff, part)
                if value:
                    entries.append((holo[0], holo[1], k, -value))
    return from_bracket_list(dim, entries)


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


@dataclass
class ComplexStructureSpec:
    """Validated pair (g, J) with cached coframe and structure equations."""

    g: LieAlgebraSpec
    J: Matrix
    coframe: Matrix
    equations: list[ComplexForm]

    @property
    def n(self) -> int:
        return len(self.coframe)

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_matrix(g: LieAlgebraSpec, J: Sequence[Sequence]) -> "ComplexStructureSpec":
        J = mat_from_rows(J)
        if g.dim % 2:
            raise ValueError("complex structures need even real dimension")
        integ = check_integrability(g, J)
        if not integ.ok:
            raise NonIntegrableError(
                f"Nijenhuis tensor nonzero on basis pair {integ.witness}",
                witness=integ,
            )
        return ComplexStructureSpec(g, J, integ.coframe, integ.equations)

    @staticmethod
    def from_coframe(g: LieAlgebraSpec, J: Sequence[Sequence], coframe: Sequence[Sequence]) -> "ComplexStructureSpec":
        """Use a caller-supplied adapted coframe instead of the canonical one."""
        J = mat_from_rows(J)
        coframe = mat_from_rows(coframe)
        if g.dim % 2:
            raise ValueError("complex structures need even real dimension")
        if len(coframe) != g.dim // 2 or any(len(row) != g.dim for row in coframe):
            raise ValueError(f"coframe must have {g.dim // 2} rows of {g.dim} entries")
        integ = check_integrability(g, J)
        if not integ.ok:
            raise NonIntegrableError(
                f"Nijenhuis tensor nonzero on basis pair {integ.witness}",
                witness=integ,
            )
        # a (1,0)-form a = sum_k row[k] e^k has (J^T a)_m = sum_k J_km row[k] = i row[m]
        cols = sparse_columns(_j_fraction_matrix(J))
        for row in coframe:
            for col, entry in zip(cols, row):
                if sum((row[k - 1] * c for k, c in col.items()), ZERO) != I * entry:
                    raise ValueError("coframe row is not a (1,0)-form for J")
        if coframe == integ.coframe:
            equations = integ.equations
        else:
            equations = structure_equations(g, coframe)
        return ComplexStructureSpec(g, J, coframe, equations)

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

    @functools.cached_property
    def _d_pp_blocks(self) -> dict[int, dict[MultiIndex, ComplexForm]]:
        return {}

    def d_pp_block(self, p: int) -> dict[MultiIndex, ComplexForm]:
        """The (p+1,p) part of d(a^A ^ conj a^B) for every |A| = |B| = p.

        Keyed by MultiIndex(A, B) and built once per p by `apply_antiderivation`
        from the parts of the structure equations that land in (p+1,p):
        (d a^A ^ conj a^B)^{p+1,p} = del a^A ^ conj a^B + (-1)^p a^A ^ del conj a^B,
        where del takes the (2,0) part of each d a^j and the (1,1) part of
        each d conj a^j.  Integrability leaves no other bidegree that ends
        in (p+1,p).
        """
        block = self._d_pp_blocks.get(p)
        if block is not None:
            return block
        holo_parts = [
            ComplexForm._wrap(self.n, {k: c for k, c in eq.terms.items() if k.bidegree == (2, 0)})
            for eq in self.equations
        ]
        anti_parts = [
            ComplexForm._wrap(self.n, {k: c for k, c in eq.terms.items() if k.bidegree == (1, 1)})
            for eq in self._conj_equations
        ]
        combos = list(itertools.combinations(range(1, self.n + 1), p))
        block = {}
        for holo in combos:
            for anti in combos:
                key = MultiIndex(holo, anti)
                mono = ComplexForm._wrap(self.n, {key: ONE})
                block[key] = apply_antiderivation(mono, holo_parts, anti_parts)
        self._d_pp_blocks[p] = block
        return block

    def closed_10_forms(self) -> list[Vector]:
        """Coefficient vectors x with d(sum x_j a^j) = 0, RREF-canonical."""
        keys = sorted({key for eq in self.equations for key in eq.terms})
        rows = [[eq.terms.get(key, ZERO) for eq in self.equations] for key in keys]
        if not rows:
            return identity(self.n)
        return kernel(rows, self.n)

    def j_apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        jf = _j_fraction_matrix(self.J)
        dim = self.g.dim
        return [sum((jf[k][m] * Fraction(v[m]) for m in range(dim)), Fraction(0)) for k in range(dim)]


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
    from .liealg import algebra_from_json

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


def check_integrability(g: LieAlgebraSpec, J: Sequence[Sequence]) -> IntegrabilityResult:
    """Nijenhuis test cross-checked against the bidegree test on d(Lambda^{1,0}).

    Disagreement between the two tests is an internal error, not a verdict.
    The result carries the canonical (1,0)-coframe of J and the structure
    equations the bidegree test read, for the constructors to reuse.
    """
    J = mat_from_rows(J)
    _check_j_square(J, g.dim)
    ensure_valid(g)
    nij = nijenhuis_tensor(g, J)
    coframe = _eigen_coframe(g, J)
    equations = structure_equations(g, coframe)
    bidegree_ok = not any(_has_02_part(eq) for eq in equations)
    if bidegree_ok != nij.ok:
        raise AssertionError(
            "integrability tests disagree (Nijenhuis vs bidegree); internal bug"
        )
    nij.coframe, nij.equations = coframe, equations
    return nij


def coframe_from_J(g: LieAlgebraSpec, J: Sequence[Sequence]) -> ComplexStructureSpec:
    """Canonical (1,0)-coframe and structure equations for an integrable J."""
    return ComplexStructureSpec.from_matrix(g, J)


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
    jf = _j_fraction_matrix(struct.J)
    ad_mats = []
    for i in range(1, dim + 1):
        b = zeros(dim, dim)
        for m in range(1, dim + 1):
            for k, c in g.bracket_basis(m, i).items():
                b[k - 1][m - 1] = gr(c)
        ad_mats.append(b)
    jmat = mat_from_rows(jf)

    chain: list[Matrix] = [[]]
    while True:
        prev = chain[-1]
        ann = kernel(prev, dim) if prev else identity(dim)
        rows = []
        for b in ad_mats:
            bj = matmul(b, jmat)
            for phi in ann:
                rows.append([sum((phi[k] * b[k][m] for k in range(dim)), ZERO) for m in range(dim)])
                rows.append([sum((phi[k] * bj[k][m] for k in range(dim)), ZERO) for m in range(dim)])
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


# -- triangular coframe (closed forms first) --------------------------------------


@dataclass
class TriangularCoframe:
    transform: Matrix  # rows: new coframe in terms of the old one
    equations: list[ComplexForm]
    closed_count: int  # leading coframe elements with d = 0


def _two_form_keys(n: int) -> list[MultiIndex]:
    keys = []
    for p, q in ((2, 0), (1, 1), (0, 2)):
        for holo in itertools.combinations(range(1, n + 1), p):
            for anti in itertools.combinations(range(1, n + 1), q):
                keys.append(MultiIndex(holo, anti))
    return keys


def _form_vector(f: ComplexForm, keys: list[MultiIndex]) -> Vector:
    return [f.terms.get(key, ZERO) for key in keys]


def ideal_two_form_span(struct_n: int, rows: Matrix, keys: list[MultiIndex]) -> Matrix:
    """Span of {s ^ gamma : s in the row span, gamma any coframe 1-form}."""
    gens = []
    for row in rows:
        s = one_form(struct_n, row)
        for j in range(1, struct_n + 1):
            for anti in (False, True):
                w = wedge(s, generator(struct_n, j, anti))
                if not w.is_zero():
                    gens.append(_form_vector(w, keys))
    return row_space_rref(gens)


def triangular_coframe(struct: ComplexStructureSpec) -> TriangularCoframe:
    """Reorder/retriangulate the coframe so each d a^{j+1} lies in the ideal
    generated by a^1..a^j; closed elements come first.

    Exists for every complex structure on a nilpotent algebra; raises when
    the extraction stalls (non-nilpotent input).
    """
    g = struct.g
    if not is_nilpotent(g):
        raise InvalidAlgebraError("triangular coframe extraction needs a nilpotent algebra")
    n = struct.n
    keys = _two_form_keys(n)
    eq_vectors = [_form_vector(eq, keys) for eq in struct.equations]

    chosen: Matrix = []
    closed_count = None
    while len(chosen) < n:
        span = ideal_two_form_span(n, chosen, keys)
        rows = []
        reduced = [reduce_against(span, v) for v in eq_vectors]
        for coord in range(len(keys)):
            rows.append([reduced[j][coord] for j in range(n)])
        sols = row_space_rref(kernel(rows, n))
        if closed_count is None:
            closed_count = len(sols)
        if len(sols) <= len(chosen):
            raise InvalidAlgebraError("triangular extraction stalled; input not nilpotent?")
        new_rows = list(chosen)
        for cand in sols:
            span_now = row_space_rref(new_rows) if new_rows else []
            if not is_zero_vec(reduce_against(span_now, cand)):
                new_rows.append(cand)
        chosen = new_rows
    equations, _ = _transform_struct_forms(struct, chosen)
    return TriangularCoframe(chosen, equations, closed_count)


def in_coframe_ideal(form: ComplexForm, first: int) -> bool:
    """True when every term of `form` contains one of a^1..a^first."""
    return all(
        any(j <= first for j in key.holo) for key in form.terms
    )


# -- reductions -------------------------------------------------------------------


@dataclass
class Restriction:
    sub: ComplexStructureSpec
    omega_h: ComplexForm
    eta: ComplexForm
    theta: ComplexForm
    transform: Matrix


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


def _strip_index(f: ComplexForm, idx: int, n_new: int, relabel) -> ComplexForm:
    """Drop terms containing idx and relabel the rest via `relabel`."""
    out = ComplexForm.zero(n_new)
    for (holo, anti), c in f.terms.items():
        if idx in holo or idx in anti:
            continue
        out = out + monomial(
            n_new, tuple(relabel(j) for j in holo), tuple(relabel(j) for j in anti), c
        )
    return out


def _extract_factor(f: ComplexForm, idx: int, holo_side: bool, anti_side: bool, left: bool):
    """Write the idx-carrying part of f as factor ^ rest (or rest ^ factor).

    Returns the coefficient form `rest` such that wedging it with the fixed
    factor (a^idx, conj, or i a^{idx,idxb}) reproduces exactly those terms.
    """
    n = f.n
    if holo_side and anti_side:
        factor = monomial(n, (idx,), (idx,), I)
    elif holo_side:
        factor = monomial(n, (idx,))
    else:
        factor = monomial(n, anti=(idx,))
    rest = ComplexForm.zero(n)
    for (holo, anti), c in f.terms.items():
        if (idx in holo) != holo_side or (idx in anti) != anti_side:
            continue
        reduced = MultiIndex(
            tuple(j for j in holo if not (holo_side and j == idx)),
            tuple(j for j in anti if not (anti_side and j == idx)),
        )
        mono = ComplexForm(n, {reduced: ONE})
        probe = wedge(factor, mono) if left else wedge(mono, factor)
        scale = probe.terms[MultiIndex(holo, anti)]
        rest = rest + mono * (c / scale)
    return rest


def restrict_to_jinvariant_ideal(
    struct: ComplexStructureSpec, omega: ComplexForm, alpha: ComplexForm
) -> Restriction:
    """Restriction to the J-invariant codimension-2 ideal dual to a closed a^1.

    The closed (1,0)-form alpha becomes the first coframe element; the ideal
    h annihilates alpha and its conjugate, and omega splits as
    omega_h + a^1 ^ eta + conj + i a^{1,1b} ^ theta.
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
    row = [alpha.terms.get(MultiIndex((j,), ()), ZERO) for j in range(1, n + 1)]
    transform = _complete_row_to_basis(row, n)
    equations, to_new = _transform_struct_forms(struct, transform)

    def relabel(j: int) -> int:
        return j - 1

    sub_equations = [
        _strip_index(equations[j], 1, n - 1, relabel) for j in range(1, n)
    ]
    sub = ComplexStructureSpec.from_equations(sub_equations)

    omega_new = to_new(omega)
    omega_h = _strip_index(omega_new, 1, n - 1, relabel)
    eta_full = _extract_factor(omega_new, 1, True, False, left=True)
    theta_full = _extract_factor(omega_new, 1, True, True, left=True)
    eta = _strip_index(eta_full, 1, n - 1, relabel)
    theta = _strip_index(theta_full, 1, n - 1, relabel)
    return Restriction(sub, omega_h, eta, theta, transform)


@dataclass
class BExtension:
    quotient: ComplexStructureSpec
    omega: ComplexForm  # coefficient of i a^{n,nb}; the (p-1,p-1) descent
    omega_k: ComplexForm
    eta: ComplexForm
    plane: Matrix  # real basis of the central J-invariant plane
    transform: Matrix


def b_extension_quotient(
    struct: ComplexStructureSpec, omega: ComplexForm, p: int
) -> BExtension:
    """Quotient by a central J-invariant plane inside the first series term.

    Requires a quasi-nilpotent structure.  The last coframe element spans the
    plane's (1,0)-dual; omega decomposes as
    omega_k + eta ^ a^n + conj(eta) ^ conj(a^n) + omega' ^ i a^{n,nb}
    and omega' is returned on the quotient coframe.
    """
    n = struct.n
    series = ascending_series(struct)
    first = series.first_term
    if not first:
        raise InvalidAlgebraError("no central J-invariant plane: structure is SnN")
    if not omega.is_real():
        raise ValueError("omega must be real")
    if omega.bidegrees() not in ({(p, p)}, set()):
        raise ValueError(f"omega must be a real ({p},{p})-form")
    x = [c.re for c in first[0]]
    jx = struct.j_apply(x)
    plane = mat_from_rows([x, jx])

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
    transform = [list(v) for v in vanish] + [last]
    equations, to_new = _transform_struct_forms(struct, transform)

    def relabel(j: int) -> int:
        return j

    sub_equations = []
    for j in range(n - 1):
        eq = equations[j]
        for key in eq.terms:
            if n in key.holo or n in key.anti:
                raise AssertionError("quotient equations must not touch the plane dual")
        sub_equations.append(_strip_index(eq, n, n - 1, relabel))
    quotient = ComplexStructureSpec.from_equations(sub_equations)

    omega_new = to_new(omega)
    omega_k = _strip_index(omega_new, n, n - 1, relabel)
    eta_full = _extract_factor(omega_new, n, True, False, left=False)
    omega_prime_full = _extract_factor(omega_new, n, True, True, left=False)
    eta = _strip_index(eta_full, n, n - 1, relabel)
    omega_prime = _strip_index(omega_prime_full, n, n - 1, relabel)
    return BExtension(quotient, omega_prime, omega_k, eta, plane, transform)
