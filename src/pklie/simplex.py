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
Fraction tableau.  The tableau spans only the columns some row uses, and
only their entries are converted, once: a column zero in every row stays
zero through every pivot, so Bland's rule never enters it, and dropping it
keeps the order of the others, hence the pivots; its variable is 0 in the
point.  The system is  A x >= b  with x free; an equality is the pair of
rows a x >= b, -a x >= -b.  Infeasibility returns multipliers y >= 0 with
y A = 0 and y b > 0, verified before being handed out; the check sums
y_i a_ij over the nonzero entries only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


@dataclass
class LPResult:
    feasible: bool
    point: list[Fraction] | None = None
    farkas_ge: list[Fraction] | None = None


class LPError(RuntimeError):
    pass


def _rational(x) -> int | Fraction:
    """x as an exact rational; an int or a Fraction is kept as it is."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows (0 when there are none)."""
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ValueError("rows of a_ge differ in length")
    return widths.pop() if widths else 0


def feasibility(a_ge: Sequence[Sequence], b_ge: Sequence) -> LPResult:
    rhs = [_rational(x) for x in b_ge]
    if len(a_ge) != len(rhs):
        raise ValueError("row/rhs count mismatch")
    width = _width(a_ge)
    if not rhs:
        return LPResult(True, [])
    m = len(rhs)
    used = sorted({j for row in a_ge for j, c in enumerate(row) if c})
    rows = [[_rational(row[j]) for j in used] for row in a_ge]
    nv = len(used)

    # columns: x+ (nv), x- (nv), slacks (m), artificials (m), rhs; a row
    # whose rhs is negative is negated, and its denominator is the lcm of
    # its entries' denominators
    n_cols = 2 * nv + 2 * m
    tableau: list[list[int]] = []
    dens: list[int] = []
    signs = [-1 if b.numerator < 0 else 1 for b in rhs]
    for i, sign in enumerate(signs):
        den = lcm(rhs[i].denominator, *(c.denominator for c in rows[i]))
        row = [0] * (n_cols + 1)
        for j, c in enumerate(rows[i]):
            if c:
                row[j] = sign * c.numerator * (den // c.denominator)
                row[nv + j] = -row[j]
        row[2 * nv + i] = -sign * den
        row[2 * nv + m + i] = den
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
    for j in range(2 * nv + m, n_cols):
        obj[j] = 0
    g = gcd(den, *obj)
    tableau.append([c // g for c in obj])
    dens.append(den // g)

    basis = [2 * nv + m + i for i in range(m)]

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
        for row, b in zip(rows, rhs):
            if sum(c * v for c, v in zip(row, point)) < b:
                raise LPError("claimed feasible point violates a >= row")
        full = [Fraction(0)] * width
        for j, v in zip(used, point):
            full[j] = v
        return LPResult(True, full)

    # infeasible: read the dual off the artificial columns; the objective row
    # stores z_j - c_j, and an artificial column has A_col = e_i, c = 1, so
    # obj[col] = y_i - 1
    den = dens[m]
    y = [Fraction(obj[2 * nv + m + i] + den, sign * den) for i, sign in enumerate(signs)]
    if not verify_farkas(rows, rhs, y):
        raise LPError("Farkas certificate failed exact verification")
    return LPResult(False, None, y)


def verify_farkas(a_ge: Sequence[Sequence], b_ge: Sequence, y_ge: Sequence) -> bool:
    """Re-check an infeasibility certificate with exact arithmetic only."""
    combo = [0] * _width(a_ge)
    y_ge = [_rational(x) for x in y_ge]
    if any(y.numerator < 0 for y in y_ge):
        return False
    for yi, row in zip(y_ge, a_ge):
        if yi:
            for j, c in enumerate(row):
                if c:
                    combo[j] += yi * _rational(c)
    if any(combo):
        return False
    return sum(yi * _rational(bi) for yi, bi in zip(y_ge, b_ge) if yi) > 0
