"""Exact univariate polynomial utilities over the rationals.

Polynomials are coefficient lists, low degree first.  Used for the
similarity decision of the almost-abelian Kahler criterion: characteristic
and minimal polynomials, squarefree tests, and Sturm root counting (all
radical-free).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = list[Fraction]


def trim(p: Sequence[Fraction]) -> Poly:
    out = [Fraction(c) for c in p]
    while out and not out[-1]:
        out.pop()
    return out


def degree(p: Poly) -> int:
    return len(trim(p)) - 1


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    return trim([x * c for x in p])


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    p = trim(p)
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    rem = p[:]
    while rem and len(rem) >= len(q):
        factor = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem = trim(rem)
    return trim(quot), rem


def gcd_poly(p: Poly, q: Poly) -> Poly:
    p, q = trim(p), trim(q)
    while q:
        p, q = q, divmod_poly(p, q)[1]
    if p:
        p = scale(p, Fraction(1) / p[-1])
    return p


def derivative(p: Poly) -> Poly:
    return trim([i * c for i, c in enumerate(p)][1:])


def evaluate(p: Poly, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(trim(p)):
        out = out * x + c
    return out


def is_squarefree(p: Poly) -> bool:
    return degree(gcd_poly(p, derivative(p))) <= 0


def squarefree_part(p: Poly) -> Poly:
    g = gcd_poly(p, derivative(p))
    if degree(g) <= 0:
        return trim(p)
    return divmod_poly(p, g)[0]


def char_poly(m: Sequence[Sequence[Fraction]]) -> Poly:
    """Characteristic polynomial det(xI - M) by the trace recursion."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    work = [[Fraction(0)] * n for _ in range(n)]  # N = 0
    for k in range(1, n + 1):
        # N <- M (N + c_{n-k+1} I); c_{n-k} = -tr(M N + c I M)/k
        for i in range(n):
            work[i][i] += coeffs[n - k + 1]
        work = [
            [sum(a[i][t] * work[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        coeffs[n - k] = -sum(work[i][i] for i in range(n)) / k
    return coeffs


def minimal_poly(m: Sequence[Sequence[Fraction]]) -> Poly:
    """Minimal polynomial via the first linear dependence among powers of M."""
    from .linalg import kernel

    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    powers = [[[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]]
    for _ in range(n):
        last = powers[-1]
        powers.append(
            [[sum(a[i][t] * last[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        )
    for d in range(1, n + 1):
        rows = []
        for i in range(n):
            for j in range(n):
                rows.append([powers[k][i][j] for k in range(d + 1)])
        for vec in kernel(rows, d + 1):
            if vec[d]:
                return trim([c / vec[d] for c in vec])
    raise AssertionError("no annihilating polynomial up to dimension; impossible")


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [trim(p), derivative(p)]
    while chain[-1]:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(scale(rem, -1))
    return [c for c in chain if c]


def _sign_changes(values: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots_in(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi] of a squarefree polynomial."""
    chain = sturm_chain(p)
    v_lo = _sign_changes([evaluate(c, lo) for c in chain])
    v_hi = _sign_changes([evaluate(c, hi) for c in chain])
    return v_lo - v_hi


def cauchy_bound(p: Poly) -> Fraction:
    p = trim(p)
    if len(p) <= 1:
        return Fraction(1)
    lead = abs(p[-1])
    return Fraction(1) + max(abs(c) / lead for c in p[:-1])


def all_roots_purely_imaginary(p: Poly) -> bool:
    """True iff every complex root of p lies on the imaginary axis.

    Equivalent to p(x) = c x^a s(x^2) with s having only real nonpositive
    roots; decided by parity of the support plus Sturm counting.
    """
    p = trim(p)
    if not p:
        raise ValueError("zero polynomial")
    if len(p) == 1:
        return True
    a = 0
    while not p[0]:
        p = p[1:]
        a += 1
    if len(p) == 1:
        return True
    if any(c for i, c in enumerate(p) if i % 2):
        return False
    s = [p[2 * i] for i in range((len(p) + 1) // 2)]
    s_hat = squarefree_part(s)
    deg = degree(s_hat)
    if deg == 0:
        return True
    bound = cauchy_bound(s_hat)
    negative = count_real_roots_in(s_hat, -bound, Fraction(0))
    if evaluate(s_hat, Fraction(0)) == 0:
        return False  # s(0) = 0 was already stripped with x^a
    return negative == deg
