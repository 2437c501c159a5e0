"""Exact rational linear feasibility with Farkas infeasibility certificates.

Phase-one simplex with Bland's rule (no cycling, no floats, no external
solver), run fraction-free.  Each tableau row, and the objective row, is a
list of ints over one positive denominator of its own, in lowest terms (the
gcd of the row's ints and its denominator is 1).  A pivot keeps the pivot
row's ints and makes the pivot entry its denominator; every other row with
a nonzero f in the pivot column becomes s*row - t*pivot_row with
(s, t) = (pivot, f) / gcd, over s times its denominator, and is then divided
by the gcd of its ints and that denominator.  Building the tableau and each
pivot subtract only the pivot row's nonzero entries.  Every row holds the
same rationals as the Fraction tableau, and a positive row scale changes no
sign and no ratio (the ratio test compares by cross-multiplication), so the
Bland pivot sequence, the point and the Farkas multipliers are those of the
Fraction tableau.  The system is  A_ge x >= b_ge,  A_eq x = b_eq  with x
free.  Infeasibility returns multipliers (y_ge >= 0, y_eq free) satisfying
y_ge A_ge + y_eq A_eq = 0 and y_ge b_ge + y_eq b_eq > 0, verified before
being handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = list[int | Fraction]


@dataclass
class LPResult:
    feasible: bool
    point: list[Fraction] | None = None
    farkas_ge: list[Fraction] | None = None
    farkas_eq: list[Fraction] | None = None


class LPError(RuntimeError):
    pass


def _rational(x) -> int | Fraction:
    """x as an exact rational; an int or a Fraction is kept as it is."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _to_rows(rows: Sequence[Sequence]) -> list[Row]:
    return [[_rational(x) for x in row] for row in rows]


def _width(rows: Sequence[Row]) -> int:
    """The common length of the rows of a_ge and a_eq (0 when there are none)."""
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ValueError("rows of a_ge and a_eq differ in length")
    return widths.pop() if widths else 0


def feasibility(
    a_ge: Sequence[Sequence],
    b_ge: Sequence,
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LPResult:
    a_ge = _to_rows(a_ge)
    a_eq = _to_rows(a_eq)
    b_ge = [_rational(x) for x in b_ge]
    b_eq = [_rational(x) for x in b_eq]
    if len(a_ge) != len(b_ge) or len(a_eq) != len(b_eq):
        raise ValueError("row/rhs count mismatch")
    rows = a_ge + a_eq
    nv = _width(rows)
    if not rows:
        return LPResult(True, [])
    n_ge = len(a_ge)
    m = len(rows)
    rhs = b_ge + b_eq

    # columns: x+ (nv), x- (nv), slacks (n_ge), artificials (m), rhs; a row
    # whose rhs is negative is negated, and its denominator is the lcm of
    # its entries' denominators
    n_cols = 2 * nv + n_ge + m
    tableau: list[list[int]] = []
    dens: list[int] = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        den = lcm(rhs[i].denominator, *(c.denominator for c in rows[i]))
        row = [0] * (n_cols + 1)
        for j, c in enumerate(rows[i]):
            if c:
                row[j] = sign * c.numerator * (den // c.denominator)
                row[nv + j] = -row[j]
        if i < n_ge:
            row[2 * nv + i] = -sign * den
        row[2 * nv + n_ge + i] = den
        row[n_cols] = sign * rhs[i].numerator * (den // rhs[i].denominator)
        tableau.append(row)
        dens.append(den)

    # phase-one objective, stored as row m: minimize the artificial sum; it
    # holds the negated reduced costs -(c_j - z_j), the sum of the rows less
    # 1 on each artificial column, where that sum is 1 (so 0 is left there)
    den = lcm(*dens)
    obj = [0] * (n_cols + 1)
    for row, row_den in zip(tableau, dens):
        scale = den // row_den
        for j, c in enumerate(row):
            if c:
                obj[j] += scale * c
    for j in range(2 * nv + n_ge, n_cols):
        obj[j] = 0
    g = gcd(den, *obj)
    tableau.append([c // g for c in obj])
    dens.append(den // g)

    basis = [2 * nv + n_ge + i for i in range(m)]

    def pivot(row_idx: int, col_idx: int):
        # the pivot row keeps its ints over the pivot entry (its content
        # divides the pivot entry); every row with a nonzero in the pivot
        # column, the objective included, is rescaled and loses that column
        prow = tableau[row_idx]
        content = gcd(*prow)
        if content > 1:
            prow = tableau[row_idx] = [x // content for x in prow]
        pv = dens[row_idx] = prow[col_idx]
        nonzero = [(j, y) for j, y in enumerate(prow) if y]
        for i, row in enumerate(tableau):
            factor = row[col_idx]
            if not factor or i == row_idx:
                continue
            g = gcd(pv, factor)
            s, t = pv // g, factor // g
            if s != 1:
                row = [s * x for x in row]
            for j, y in nonzero:
                row[j] -= t * y
            den = dens[i] * s
            g = gcd(den, *row)
            if g > 1:
                row = [x // g for x in row]
                den //= g
            tableau[i] = row
            dens[i] = den
        basis[row_idx] = col_idx

    guard = 0
    limit = 20000
    while True:
        guard += 1
        if guard > limit:
            raise LPError("simplex iteration limit exceeded")
        obj = tableau[m]
        enter = next((j for j in range(n_cols) if obj[j] > 0), None)
        if enter is None:
            break
        # Bland's ratio test: least rhs/coeff over the rows with coeff > 0,
        # ties to the smaller basis index; a row's denominator cancels
        best_row = None
        for r in range(m):
            coeff = tableau[r][enter]
            if coeff > 0:
                b = tableau[r][n_cols]
                if best_row is None:
                    best_row, best_b, best_coeff = r, b, coeff
                    continue
                left, right = b * best_coeff, best_b * coeff
                if left < right or (left == right and basis[r] < basis[best_row]):
                    best_row, best_b, best_coeff = r, b, coeff
        if best_row is None:
            raise LPError("phase-one objective unbounded; internal error")
        pivot(best_row, enter)

    optimum = obj[n_cols]
    if optimum < 0:
        raise LPError("negative phase-one optimum; internal error")
    if optimum == 0:
        x = [Fraction(0)] * (2 * nv)
        for r, b in enumerate(basis):
            if b < 2 * nv:
                x[b] = Fraction(tableau[r][n_cols], dens[r])
        point = [x[j] - x[nv + j] for j in range(nv)]
        for row, b in zip(a_ge, b_ge):
            if sum(c * v for c, v in zip(row, point)) < b:
                raise LPError("claimed feasible point violates a >= row")
        for row, b in zip(a_eq, b_eq):
            if sum(c * v for c, v in zip(row, point)) != b:
                raise LPError("claimed feasible point violates an = row")
        return LPResult(True, point)

    # infeasible: read the dual off the artificial columns; the objective row
    # stores z_j - c_j, and an artificial column has A_col = e_i, c = 1, so
    # obj[col] = y_i - 1
    den = dens[m]
    y_flip = [Fraction(obj[2 * nv + n_ge + i] + den, den) for i in range(m)]
    y = [-v if b < 0 else v for v, b in zip(y_flip, rhs)]
    y_ge = y[:n_ge]
    y_eq = y[n_ge:]
    if not verify_farkas(a_ge, b_ge, y_ge, a_eq, b_eq, y_eq):
        raise LPError("Farkas certificate failed exact verification")
    return LPResult(False, None, y_ge, y_eq)


def verify_farkas(
    a_ge: Sequence[Sequence],
    b_ge: Sequence,
    y_ge: Sequence,
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    y_eq: Sequence = (),
) -> bool:
    """Re-check an infeasibility certificate with exact arithmetic only."""
    a_ge = _to_rows(a_ge)
    a_eq = _to_rows(a_eq)
    y_ge = [_rational(x) for x in y_ge]
    y_eq = [_rational(x) for x in y_eq]
    nv = _width(a_ge + a_eq)
    if any(y < 0 for y in y_ge):
        return False
    combo = [Fraction(0)] * nv
    for yi, row in [*zip(y_ge, a_ge), *zip(y_eq, a_eq)]:
        if yi:
            for j, c in enumerate(row):
                if c:
                    combo[j] += yi * c
    if any(combo):
        return False
    value = sum(yi * _rational(bi) for yi, bi in zip(y_ge, b_ge)) + sum(
        yi * _rational(bi) for yi, bi in zip(y_eq, b_eq)
    )
    return value > 0
