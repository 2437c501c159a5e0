"""Almost-abelian data (lambda, v, A) and the exact Kahler decision of the
almost-abelian theorem.

This module imports only `linalg`, `polynomials` and `scalars`, so `pkl
aab-kahler`, and `pkl verify` of its reports, load no p-Kahler pipeline.
`catalog` re-exports its names and builds the structures from the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import solve
from .polynomials import (
    all_roots_purely_imaginary,
    char_poly,
    is_squarefree,
    minimal_poly,
)
from .scalars import InadmissibleParameters, as_fraction, json_literal, parse_fraction


@dataclass
class AlmostAbelianData:
    """One transverse direction acting on an abelian ideal.

    Real dimension 2n; the abelian ideal is spanned by e_1..e_{2n-1}; the
    matrix of the action of e_{2n} splits as lambda on e_1, a vector v into
    the J-invariant part, and A on span(e_2..e_{2n-1}).  J pairs e_j with
    e_{2n+1-j}.
    """

    n: int
    lam: Fraction
    v: list[Fraction]  # length 2n-2, indexed by e_2..e_{2n-1}
    A: list[list[Fraction]]  # (2n-2) x (2n-2), same indexing

    def __post_init__(self):
        self.lam = as_fraction(self.lam)
        self.v = [as_fraction(x) for x in self.v]
        self.A = [[as_fraction(x) for x in row] for row in self.A]
        size = 2 * self.n - 2
        if len(self.v) != size or len(self.A) != size or any(len(r) != size for r in self.A):
            raise ValueError("v must have length 2n-2 and A must be (2n-2)x(2n-2)")

    def j1_matrix(self) -> list[list[Fraction]]:
        size = 2 * self.n - 2
        out = [[Fraction(0)] * size for _ in range(size)]
        for j in range(2, self.n + 1):
            out[(2 * self.n + 1 - j) - 2][j - 2] = Fraction(1)
            out[j - 2][(2 * self.n + 1 - j) - 2] = Fraction(-1)
        return out

    def integrable(self) -> bool:
        """A J1 = J1 A, compared entry by entry with no products.

        Over 0-based indices of size m = 2n-2, J1 e_c = s_c e_{m-1-c} with
        s_c = 1 on the first half and -1 on the second, so the (r, c) entries
        read A[r][m-1-c] s_c = -s_r A[m-1-r][c]; the (m-1-r, m-1-c) entries
        give the same condition, so r runs over the first half only.
        """
        a = self.A
        m = len(a)
        half = m // 2
        for r in range(half):
            row, mirror = a[r], a[m - 1 - r]
            for c in range(m):
                x, y = row[m - 1 - c], mirror[c]
                if c < half:  # s_r s_c = 1: x = -y
                    if x.numerator != -y.numerator or x.denominator != y.denominator:
                        return False
                elif x != y:
                    return False
        return True

    def unimodular(self) -> bool:
        return self.lam == -sum(self.A[i][i] for i in range(len(self.A)))


_PAYLOAD_KEYS = {"n", "lambda", "v", "A"}


def almost_abelian_from_json(body) -> AlmostAbelianData:
    """The {n, lambda, v, A} object that aab-kahler reads and writes; a
    missing or unknown key is a ValueError."""
    if not isinstance(body, dict):
        raise ValueError("almost_abelian data must be an object with n, lambda, v and A")
    unknown, missing = sorted(body.keys() - _PAYLOAD_KEYS), sorted(_PAYLOAD_KEYS - body.keys())
    if unknown or missing:
        raise ValueError(
            f"almost_abelian keys are exactly n, lambda, v and A (unknown: {unknown}, missing: {missing})"
        )
    n, v, a = body["n"], body["v"], body["A"]
    if type(n) is not int or n < 1:
        raise ValueError(f"almost_abelian n must be a positive integer, got {n!r}")
    if not isinstance(v, list):
        raise ValueError("almost_abelian v must be a list of rationals")
    if not isinstance(a, list) or not all(isinstance(row, list) for row in a):
        raise ValueError("almost_abelian A must be a list of rows of rationals")
    try:
        return AlmostAbelianData(
            n,
            parse_fraction(json_literal(body["lambda"], "lambda")),
            [parse_fraction(json_literal(x, "v entry")) for x in v],
            [[parse_fraction(json_literal(x, "A entry")) for x in row] for row in a],
        )
    except ValueError as exc:
        raise ValueError(f"bad almost_abelian payload: {exc}") from exc


@dataclass
class KahlerDecision:
    value: bool
    adapted: bool
    reason: str
    absorb: list[Fraction] | None = None
    min_poly: list[str] | None = None
    char_poly_a: list[str] | None = None

    def __bool__(self):
        return self.value


def kahler_decision_almost_abelian(data: AlmostAbelianData) -> KahlerDecision:
    """Decide whether the structure admits a compatible Kahler metric.

    Fast path: the given basis is already adapted (A antisymmetric,
    J-commuting, with v absorbed by the rank condition).  Otherwise the full
    action matrix C = (lam 0 // v A) is compared against the antisymmetric
    block model by rational canonical data: C similar to lam + antisymmetric
    iff its minimal polynomial is squarefree and the spectrum of A is purely
    imaginary; both are decided without radicals.
    """
    if not data.integrable():
        raise InadmissibleParameters("A does not commute with the restricted J")
    if not data.unimodular():
        raise InadmissibleParameters("decision requires a unimodular algebra")
    size = 2 * data.n - 2
    a = data.A
    antisym = all(a[i][j] == -a[j][i] for i in range(size) for j in range(size))
    if antisym:
        # try to absorb v: (A - lam) u = -v
        shifted = [
            [a[i][j] - (data.lam if i == j else 0) for j in range(size)] for i in range(size)
        ]
        u = solve(shifted, [-x for x in data.v])
        if u is not None:
            return KahlerDecision(
                True,
                adapted=True,
                reason="A antisymmetric and J-commuting; v absorbed",
                absorb=u,
            )
    c_full = [[Fraction(0)] * (size + 1) for _ in range(size + 1)]
    c_full[0][0] = data.lam
    for i in range(size):
        c_full[i + 1][0] = data.v[i]
        for j in range(size):
            c_full[i + 1][j + 1] = a[i][j]
    mp = minimal_poly(c_full)
    cp_a = char_poly(a)
    semisimple = is_squarefree(mp)
    imag = all_roots_purely_imaginary(cp_a)
    value = semisimple and imag
    reason = (
        "action matrix similar to lam + antisymmetric block"
        if value
        else ("minimal polynomial not squarefree" if not semisimple else "spectrum of A leaves the imaginary axis")
    )
    return KahlerDecision(
        value,
        adapted=False,
        reason=reason,
        min_poly=[str(c) for c in mp],
        char_poly_a=[str(c) for c in cp_a],
    )


def decision_report(data: AlmostAbelianData) -> dict:
    """The body of an aab-kahler report; `pkl verify` rebuilds it from the
    stored payload and compares every field."""
    dec = kahler_decision_almost_abelian(data)
    report = {
        "almost_abelian": {
            "n": data.n,
            "lambda": str(data.lam),
            "v": [str(x) for x in data.v],
            "A": [[str(x) for x in row] for row in data.A],
        },
        "kahler": dec.value,
        "adapted": dec.adapted,
        "reason": dec.reason,
    }
    if dec.absorb is not None:
        report["absorb"] = [str(x) for x in dec.absorb]
    if dec.min_poly is not None:
        report["min_poly"] = dec.min_poly
        report["char_poly_A"] = dec.char_poly_a
    return report
