"""Exact linear algebra over the rationals or the Gaussian rationals.

Matrices are lists of row lists.  `rref`, `kernel`, `solve`, `inverse` and
`row_space_rref` work in the field of the entries they are given: `Fraction`
for data that are real by construction, `GaussianRational` otherwise (an int
triple (a + b i)/d in lowest terms, so `hermitian_pivots` reads the sign of a
real pivot off its numerator).  A matrix of plain `int` entries is reduced by
one sparse fraction-free Gauss-Jordan elimination (Bareiss-style: rows held
as {column: int}, each updated row divided by its content, the sparsest
candidate row as pivot) and yields `Fraction` results: `rref` densifies the
pivot rows once, and `kernel` reads each basis entry off them as one
division by the pivot.  Everything is exact; pivot columns are found scanning
left to right, so reduced echelon forms and kernel bases are reproducible,
and since the RREF of a row space is unique they are the same in every field
and for every choice of pivot row.  A matrix of the wrong shape is a
`ValueError`.  `sparse_columns` and `apply_columns` hold a real matrix by its
nonzero entries, for products that would mostly multiply zeros.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Mapping, Sequence

from .scalars import GaussianRational, ZERO, ONE, parse_scalar

Vector = list[GaussianRational]
Matrix = list[Vector]


def gr(value) -> GaussianRational:
    return GaussianRational.coerce(value)


def _one_like(m: Matrix):
    """1 in the field of m's entries: GaussianRational if they are, else Fraction."""
    return ONE if m and m[0] and isinstance(m[0][0], GaussianRational) else Fraction(1)


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def identity(n: int, one=ONE) -> Matrix:
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_from_rows(rows: Sequence[Sequence]) -> Matrix:
    return [[gr(x) for x in row] for row in rows]


def mat_from_json(data, rows: int, cols: int, what: str) -> Matrix:
    """Parse a JSON list of `rows` lists of `cols` scalar literals."""
    if not (
        isinstance(data, list)
        and len(data) == rows
        and all(isinstance(row, list) and len(row) == cols for row in data)
    ):
        raise ValueError(f"{what} must be a list of {rows} rows of {cols} entries")
    return [[parse_scalar(str(x)) for x in row] for row in data]


def copy_matrix(m: Matrix) -> Matrix:
    return [list(row) for row in m]


def matvec(m: Matrix, v: Sequence) -> Vector:
    return [sum((row[j] * gr(v[j]) for j in range(len(v))), ZERO) for row in m]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return []
    rows, inner = len(a), len(a[0])
    cols = len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            aik = ai[k]
            if aik.is_zero():
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                oi[j] = oi[j] + aik * bk[j]
    return out


def sparse_columns(m: Sequence[Sequence[Fraction]]) -> list[dict[int, Fraction]]:
    """Columns of a square real matrix over their nonzero entries, rows
    1-based: m e_j = sum_i cols[j - 1][i] e_i."""
    cols: list[dict[int, Fraction]] = [{} for _ in m]
    for i, row in enumerate(m, start=1):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def apply_columns(cols: Sequence[Mapping[int, Fraction]], v: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """m v for the matrix with sparse columns `cols` and a sparse 1-based v;
    the result holds no zero entries."""
    out: dict[int, Fraction] = {}
    for j, vj in v.items():
        for i, c in cols[j - 1].items():
            out[i] = out.get(i, 0) + vj * c
    return {i: c for i, c in out.items() if c}


def transpose(m: Matrix) -> Matrix:
    if not m:
        return []
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]


def is_zero_vec(v: Sequence) -> bool:
    return not any(v)


def _is_integer_matrix(m: Sequence[Sequence]) -> bool:
    """True when m has entries and every one is a plain int."""
    return set(map(type, chain.from_iterable(m))) == {int}


def _width(m: Sequence[Sequence]) -> int:
    """The common row length of m (0 when m has no rows)."""
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):
        raise ValueError("matrix rows differ in length")
    return cols


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list, in the field of m."""
    cols = _width(m)
    if _is_integer_matrix(m):
        rows, pivots = _integer_pivot_rows(m, cols)
        zero, one = Fraction(0), Fraction(1)
        out = []
        for row, c in zip(rows, pivots):
            pv = row[c]
            dense = [zero] * cols
            for j, x in row.items():
                dense[j] = Fraction(x, pv)
            dense[c] = one
            out.append(dense)
        out.extend([zero] * cols for _ in range(len(m) - len(pivots)))
        return out, pivots
    a = copy_matrix(m)
    rows = len(a)
    one = _one_like(a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        row = a[r]
        inv = one / row[c]
        # columns left of c are zero in every row from r down
        support = [j for j in range(c, cols) if row[j]]
        for j in support:
            row[j] = row[j] * inv
        for i in range(rows):
            if i == r:
                continue
            other = a[i]
            factor = other[c]
            if factor:
                for j in support:
                    other[j] = other[j] - factor * row[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _integer_pivot_rows(m: Sequence[Sequence[int]], cols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse fraction-free Gauss-Jordan elimination of an int matrix.

    Rows are held as {column: int} over their nonzero entries and divided by
    their content.  Pivot columns are taken left to right; the rows that
    lead with column c are the candidates, and the sparsest of them is the
    pivot row, which clears c from the others.  A last pass clears each pivot
    column from the pivot rows above it.  Returns the pivot rows, in the
    order of their pivot columns, and those columns: row k over its pivot
    entry is row k of the RREF.
    """
    leading: dict[int, list[dict[int, int]]] = {}
    for row in m:
        sparse = {j: x for j, x in enumerate(row) if x}
        if sparse:
            leading.setdefault(next(iter(sparse)), []).append(_primitive(sparse))
    done: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(cols):
        candidates = leading.pop(c, None)
        if candidates is None:
            continue
        prow = min(candidates, key=len)
        for row in candidates:
            if row is not prow:
                reduced = _eliminate(row, prow, c)
                if reduced:
                    leading.setdefault(min(reduced), []).append(reduced)
        done.append(prow)
        pivots.append(c)
    for k in range(len(done) - 1, 0, -1):
        prow, c = done[k], pivots[k]
        for i in range(k):
            if c in done[i]:
                done[i] = _eliminate(done[i], prow, c)
    return done, pivots


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """(p / g) row - (row[c] / g) prow for the pivot p = prow[c] and g the
    gcd of the two, divided by its content: a sparse int row without c."""
    pv, factor = prow[c], row[c]
    g = gcd(pv, factor)
    s, t = pv // g, factor // g
    new = {j: s * x for j, x in row.items()} if s != 1 else dict(row)
    for j, y in prow.items():
        x = new.get(j, 0) - t * y
        if x:
            new[j] = x
        else:
            del new[j]
    return _primitive(new)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The sparse int row divided by its content (the gcd of its entries)."""
    content = gcd(*row.values())
    if content > 1:
        return {j: x // content for j, x in row.items()}
    return row


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix, cols: int | None = None) -> list[Vector]:
    """Deterministic basis of the right kernel {x : m x = 0}, in the field of m.

    Basis vector k has a 1 in the k-th free column, zeros in the other free
    columns, and minus the RREF's free-column entries in the pivot columns.
    """
    if cols is None:
        if not m:
            raise ValueError("kernel of empty matrix needs explicit column count")
        cols = len(m[0])
    if not m:
        return identity(cols)
    if _width(m) != cols:
        raise ValueError(f"kernel of a matrix with {len(m[0])} columns, not {cols}")
    if _is_integer_matrix(m):
        rows, pivots = _integer_pivot_rows(m, cols)
        zero, one = Fraction(0), Fraction(1)
        free = [c for c in range(cols) if c not in pivots]
        slot = {fc: k for k, fc in enumerate(free)}
        basis = [[zero] * cols for _ in free]
        for vec, fc in zip(basis, free):
            vec[fc] = one
        for row, pc in zip(rows, pivots):
            pv = row[pc]
            for j, x in row.items():
                if j != pc:
                    basis[slot[j]][pc] = Fraction(-x, pv)
        return basis
    one = _one_like(m)
    zero = one - one
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(m: Matrix, b: Sequence) -> Vector | None:
    """One exact solution of m x = b, or None when inconsistent."""
    if len(b) != len(m):
        raise ValueError(f"{len(m)} equations but {len(b)} right-hand sides")
    if not m:
        return []
    cols = len(m[0])
    one = _one_like(m)
    aug = [list(row) + [bv * one] for row, bv in zip(m, b)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [one - one] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("only a square matrix has an inverse")
    unit = identity(n, _one_like(m))
    aug = [list(m[i]) + unit[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def row_space_rref(rows: Sequence[Sequence]) -> Matrix:
    """Canonical (RREF, zero rows dropped) basis of the span of the rows."""
    if not rows:
        return []
    red, pivots = rref(rows)
    return red[: len(pivots)]


def reduce_against(rows_rref: Matrix, v: Sequence) -> Vector:
    """Residual of v after eliminating the pivots of an RREF row basis."""
    out = [gr(x) for x in v]
    for row in rows_rref:
        pc = next((j for j, x in enumerate(row) if not x.is_zero()), None)
        if pc is None:
            continue
        factor = out[pc] / row[pc]
        if not factor.is_zero():
            out = [x - factor * y for x, y in zip(out, row)]
    return out


def same_row_space(a: Matrix, b: Matrix) -> bool:
    return row_space_rref(a) == row_space_rref(b)


# -- Hermitian forms -----------------------------------------------------------


def hermitian_pairing(h: Matrix, x: Sequence, y: Sequence) -> GaussianRational:
    """sum_ij conj(x_i) h_ij y_j (conjugate-linear in the first slot)."""
    total = ZERO
    for i, xi in enumerate(x):
        cxi = gr(xi).conjugate()
        if cxi.is_zero():
            continue
        row = h[i]
        for j, yj in enumerate(y):
            yj = gr(yj)
            if not yj.is_zero():
                total = total + cxi * row[j] * yj
    return total


def hermitian_pivots(h: Matrix):
    """Conjugate Gram-Schmidt of a Hermitian matrix.

    Returns (is_positive_definite, pivots, vectors, witness) where pivots are
    the successive real diagonal values d_k = <u_k, u_k>_h; on failure,
    witness is the first vector with nonpositive value (exact certificate
    that the form is not positive definite).  Leading principal minors are
    the cumulative pivot products.
    """
    n = len(h)
    vectors: list[Vector] = []
    pivots: list[GaussianRational] = []
    for k in range(n):
        u = [ZERO] * n
        u[k] = ONE
        for l, (ul, dl) in enumerate(zip(vectors, pivots)):
            coeff = hermitian_pairing(h, ul, u) / dl
            if not coeff.is_zero():
                u = [a - coeff * b for a, b in zip(u, ul)]
        d = hermitian_pairing(h, u, u)
        if not d.is_real():
            raise ValueError("pairing matrix is not Hermitian")
        if d.a <= 0:
            return False, pivots, vectors, (u, d)
        vectors.append(u)
        pivots.append(d)
    return True, pivots, vectors, None


def leading_minors(pivots: Sequence[GaussianRational]) -> list[Fraction]:
    out: list[Fraction] = []
    acc = Fraction(1)
    for d in pivots:
        acc *= d.re
        out.append(acc)
    return out
