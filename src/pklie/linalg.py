"""Exact linear algebra over the rationals or the Gaussian rationals.

Matrices are lists of row lists.  `rref`, `kernel`, `solve`, `inverse` and
`row_space_rref` work in the field of the entries they are given:
`GaussianRational` when any entry is one (an int triple (a + b i)/d in lowest
terms, so `hermitian_pivots` reads the sign of a real pivot off its
numerator), else `Fraction`.  Every matrix goes through one sparse
fraction-free Gauss-Jordan elimination (Bareiss-style) on {column: entry}
rows: each row is cleared of denominators on entry (to ints, or to Gaussian
integers in a Gaussian matrix; an int row stays as it is), each updated row
is divided by its content (a Gaussian gcd in a Gaussian matrix), and the
sparsest candidate row is the pivot.  The RREF and the kernel basis are read
off the pivot rows, one division by the pivot per entry; `sparse_kernel`
takes and gives {column: entry} rows.  Scaling a row keeps its row space and
the RREF of a row space is unique, so neither the scaling nor the pivot row
changes a result; pivot columns are found left to right, so reduced echelon
forms and kernel bases are reproducible.  A matrix of the wrong shape is a
`ValueError`.  `apply_columns` multiplies by a real matrix held by the
nonzero entries of its columns, for products that would mostly multiply zeros.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import truediv
from typing import Mapping, Sequence

from .scalars import GaussianRational, ZERO, ONE, parse_scalar

Vector = list[GaussianRational]
Matrix = list[Vector]


def gr(value) -> GaussianRational:
    return GaussianRational.coerce(value)


def _one_like(m: Sequence[Sequence]):
    """1 in the field of m's entries: GaussianRational if any entry is one,
    else Fraction."""
    return ONE if GaussianRational in set(map(type, chain.from_iterable(m))) else Fraction(1)


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


def apply_columns(cols: Sequence[Mapping[int, Fraction]], v: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """m v for the matrix with m e_j = sum_i cols[j - 1][i] e_i (rows 1-based,
    zero entries left out) and a sparse 1-based v; the result holds no zero
    entries.  Int entries give an int result."""
    out: dict[int, Fraction] = {}
    for j, vj in v.items():
        for i, c in cols[j - 1].items():
            out[i] = out.get(i, 0) + vj * c
    return {i: c for i, c in out.items() if c}


def transpose(m: Matrix) -> Matrix:
    if not m:
        return []
    return [[m[i][j] for i in range(len(m))] for j in range(len(m[0]))]


def _width(m: Sequence[Sequence]) -> int:
    """The common row length of m (0 when m has no rows)."""
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):
        raise ValueError("matrix rows differ in length")
    return cols


# (0, 1, x / y for integers x and y) of the rationals and the Gaussian rationals
_RATIONALS = (Fraction(0), Fraction(1), Fraction)
_GAUSSIAN = (ZERO, ONE, truediv)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list, in the field of m."""
    cols = _width(m)
    rows, pivots, (zero, one, div) = _pivot_rows(m, cols)
    out = []
    for row, c in zip(rows, pivots):
        pv = row[c]
        dense = [zero] * cols
        for j, x in row.items():
            dense[j] = div(x, pv)
        dense[c] = one
        out.append(dense)
    out.extend([zero] * cols for _ in range(len(m) - len(pivots)))
    return out, pivots


def _pivot_rows(m: Sequence[Sequence], cols: int) -> tuple[list[dict], list[int], tuple]:
    """`_sparse_pivot_rows` of m, in the field read from all its entries, zeros included."""
    kinds = set(map(type, chain.from_iterable(m)))
    gaussian = GaussianRational in kinds
    if gaussian and len(kinds) > 1:
        m = [[gr(x) for x in row] for row in m]
    return _sparse_pivot_rows([{j: x for j, x in enumerate(row) if x} for row in m], cols, gaussian)


def _sparse_pivot_rows(m: Sequence[dict], cols: int, gaussian: bool) -> tuple[list[dict], list[int], tuple]:
    """Sparse fraction-free Gauss-Jordan elimination of the rows of m, each
    {column: entry} over its nonzero entries (GaussianRational when
    `gaussian`, else int or Fraction).

    Rows are cleared of denominators and divided by their content; scaling a
    row changes neither its row space nor the RREF.  Pivot columns are taken
    left to right; the rows that lead with column c are the candidates, and
    the sparsest of them is the pivot row, which clears c from the others.  A
    last pass clears each pivot column from the pivot rows above it.  Returns
    the pivot rows, in the order of their pivot columns, those columns, and
    the field of m: row k over its pivot entry is row k of the RREF.
    """
    field, clear = (_GAUSSIAN, _gaussian_integers) if gaussian else (_RATIONALS, _integers)
    leading: dict[int, list[dict]] = {}
    for row in m:
        if row:
            leading.setdefault(min(row), []).append(_primitive(clear(row)))
    done: list[dict] = []
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
    return done, pivots, field


def _integers(row: dict) -> dict[int, int]:
    """A sparse rational row times the lcm of its denominators; an int row
    as it is."""
    if all(type(x) is int for x in row.values()):
        return row
    den = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def _gaussian_integers(row: dict[int, GaussianRational]) -> dict[int, GaussianRational]:
    """A sparse Gaussian-rational row times the lcm of its denominators:
    Gaussian integers, held as GaussianRational with d = 1."""
    den = lcm(*(z.d for z in row.values()))
    if den == 1:
        return row
    return {j: GaussianRational(z.a * (den // z.d), z.b * (den // z.d)) for j, z in row.items()}


def _eliminate(row: dict, prow: dict, c: int) -> dict:
    """s row - t prow for (s, t) = (p, f), the pivot p = prow[c] and f =
    row[c], divided by their gcd when they are ints; then divided by its
    content.  A sparse row without c."""
    pv, factor = prow[c], row[c]
    if type(pv) is int:
        g = gcd(pv, factor)
        s, t = pv // g, factor // g
    else:
        s, t = pv, factor
    new = {j: s * x for j, x in row.items()} if s != 1 else dict(row)
    for j, y in prow.items():
        x = new.get(j, 0) - t * y
        if x:
            new[j] = x
        else:
            del new[j]
    return _primitive(new)


def _primitive(row: dict) -> dict:
    """The sparse row divided by its content: the gcd of its int entries, or
    the Gaussian gcd of its Gaussian-integer entries."""
    if type(next(iter(row.values()), 0)) is int:
        content = gcd(*row.values())
        if content > 1:
            return {j: x // content for j, x in row.items()}
        return row
    # g by Euclid in Z[i] with rounded quotients, then z / g = z conj(g) / |g|^2
    ga = gb = 0
    for z in row.values():
        xa, xb = z.a, z.b
        while ga or gb:
            norm = ga * ga + gb * gb
            qa = (2 * (xa * ga + xb * gb) + norm) // (2 * norm)
            qb = (2 * (xb * ga - xa * gb) + norm) // (2 * norm)
            xa, xb, ga, gb = ga, gb, xa - qa * ga + qb * gb, xb - qa * gb - qb * ga
        ga, gb, norm = xa, xb, xa * xa + xb * xb
        if norm == 1:
            return row
    return {
        j: GaussianRational((z.a * ga + z.b * gb) // norm, (z.b * ga - z.a * gb) // norm)
        for j, z in row.items()
    }


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix, cols: int | None = None) -> list[Vector]:
    """Deterministic basis of the right kernel {x : m x = 0}, in the field of m.

    Basis vector k has a 1 in the k-th free column, zeros in the other free
    columns, and minus the RREF's free-column entries in the pivot columns,
    read off the pivot rows of the elimination.
    """
    if cols is None:
        if not m:
            raise ValueError("kernel of empty matrix needs explicit column count")
        cols = len(m[0])
    if not m:
        return identity(cols)
    if _width(m) != cols:
        raise ValueError(f"kernel of a matrix with {len(m[0])} columns, not {cols}")
    rows, pivots, field = _pivot_rows(m, cols)
    vectors = _kernel_vectors(rows, pivots, field, cols)
    return [[vec.get(j, field[0]) for j in range(cols)] for vec in vectors]


def sparse_kernel(m: Sequence[dict], cols: int) -> list[dict]:
    """`kernel` of the rows {column: entry} over their nonzero int or Fraction
    entries, as {column: entry} in ascending columns."""
    return _kernel_vectors(*_sparse_pivot_rows(m, cols, False), cols)


def _kernel_vectors(rows: list[dict], pivots: list[int], field: tuple, cols: int) -> list[dict]:
    """Sparse kernel basis: vector k is 1 in the k-th free column and minus
    the RREF's entries of that column in the pivot columns, all to its left."""
    _, one, div = field
    pivot_set = set(pivots)
    basis = {fc: {} for fc in range(cols) if fc not in pivot_set}
    for row, pc in zip(rows, pivots):
        pv = row[pc]
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = div(-x, pv)
    for fc, vec in basis.items():
        vec[fc] = one
    return list(basis.values())


def solve(m: Matrix, b: Sequence) -> Vector | None:
    """One exact solution of m x = b in the field of [m | b], or None when
    inconsistent."""
    if len(b) != len(m):
        raise ValueError(f"{len(m)} equations but {len(b)} right-hand sides")
    if not m:
        return []
    cols = len(m[0])
    aug = [[*row, bv] for row, bv in zip(m, b)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [_one_like(aug) * 0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("only a square matrix has an inverse")
    # an int matrix gets an int identity, so [m | I] stays on the int path
    ints = all(type(x) is int for x in chain.from_iterable(m))
    unit = identity(n, 1 if ints else _one_like(m))
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
