"""Exact rational linear feasibility with Farkas infeasibility certificates.

Phase-one simplex over Fraction with Bland's rule (no cycling, no floats,
no external solver).  The tableau is stored dense, but building it and
each pivot touch only nonzero entries: a skipped term is an exact zero, so
every rational, and hence the Bland pivot sequence, is the same as for the
dense update.  The system is  A_ge x >= b_ge,  A_eq x = b_eq  with x
free.  Infeasibility returns multipliers (y_ge >= 0, y_eq free) satisfying
y_ge A_ge + y_eq A_eq = 0 and y_ge b_ge + y_eq b_eq > 0, verified before
being handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


@dataclass
class LPResult:
    feasible: bool
    point: list[Fraction] | None = None
    farkas_ge: list[Fraction] | None = None
    farkas_eq: list[Fraction] | None = None


class LPError(RuntimeError):
    pass


def _to_rows(rows: Sequence[Sequence]) -> list[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def feasibility(
    a_ge: Sequence[Sequence],
    b_ge: Sequence,
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LPResult:
    a_ge = _to_rows(a_ge)
    a_eq = _to_rows(a_eq)
    b_ge = [Fraction(x) for x in b_ge]
    b_eq = [Fraction(x) for x in b_eq]
    if len(a_ge) != len(b_ge) or len(a_eq) != len(b_eq):
        raise ValueError("row/rhs count mismatch")
    rows = a_ge + a_eq
    if not rows:
        return LPResult(True, [])
    nv = len(rows[0])
    n_ge = len(a_ge)
    m = len(rows)
    rhs = b_ge + b_eq

    # columns: x+ (nv), x- (nv), slacks (n_ge), artificials (m); a row whose
    # rhs is negative is negated, and only nonzero entries are written
    n_cols = 2 * nv + n_ge + m
    zero = Fraction(0)
    tableau: list[Row] = []
    for i in range(m):
        flip = rhs[i] < 0
        row = [zero] * (n_cols + 1)
        for j, c in enumerate(rows[i]):
            if c:
                row[j], row[nv + j] = (-c, c) if flip else (c, -c)
        if i < n_ge:
            row[2 * nv + i] = Fraction(1 if flip else -1)
        row[2 * nv + n_ge + i] = Fraction(1)
        row[n_cols] = -rhs[i] if flip else rhs[i]
        tableau.append(row)

    # phase-one objective: minimize the artificial sum; objective row holds
    # the negated reduced costs -(c_j - z_j) so pivoting is row arithmetic
    obj = [zero] * (n_cols + 1)
    for row in tableau:
        for j, c in enumerate(row):
            if c:
                obj[j] += c
    for j in range(2 * nv + n_ge, n_cols):
        obj[j] -= Fraction(1)

    basis = [2 * nv + n_ge + i for i in range(m)]

    def pivot(row_idx: int, col_idx: int):
        # scale the pivot row, then eliminate its column from the rows (and
        # the objective) that have a nonzero there, on its nonzero columns only
        inv = Fraction(1) / tableau[row_idx][col_idx]
        prow = tableau[row_idx] = [x * inv if x else x for x in tableau[row_idx]]
        nonzero = [(j, y) for j, y in enumerate(prow) if y]
        for row in tableau + [obj]:
            factor = row[col_idx]
            if factor and row is not prow:
                for j, y in nonzero:
                    row[j] -= factor * y
        basis[row_idx] = col_idx

    guard = 0
    limit = 20000
    while True:
        guard += 1
        if guard > limit:
            raise LPError("simplex iteration limit exceeded")
        enter = next((j for j in range(n_cols) if obj[j] > 0), None)
        if enter is None:
            break
        best_row = None
        best_ratio = None
        for r in range(m):
            coeff = tableau[r][enter]
            if coeff > 0:
                ratio = tableau[r][n_cols] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = r
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
                x[b] = tableau[r][n_cols]
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
    y_flip = [obj[2 * nv + n_ge + i] + Fraction(1) for i in range(m)]
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
    y_ge = [Fraction(x) for x in y_ge]
    y_eq = [Fraction(x) for x in y_eq]
    if any(y < 0 for y in y_ge):
        return False
    nv = len(a_ge[0]) if a_ge else (len(a_eq[0]) if a_eq else 0)
    combo = [Fraction(0)] * nv
    for yi, row in [*zip(y_ge, a_ge), *zip(y_eq, a_eq)]:
        if yi:
            for j, c in enumerate(row):
                if c:
                    combo[j] += yi * c
    if any(combo):
        return False
    value = sum(yi * Fraction(bi) for yi, bi in zip(y_ge, b_ge)) + sum(
        yi * Fraction(bi) for yi, bi in zip(y_eq, b_eq)
    )
    return value > 0
