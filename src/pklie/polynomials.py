"""Exact univariate polynomial utilities over the rationals.

Polynomials are coefficient lists, low degree first.  Used for the
similarity decision of the almost-abelian Kahler criterion: characteristic
and minimal polynomials, squarefree tests, and Sturm root counting (all
radical-free).  The characteristic and minimal polynomials of a rational
matrix M are computed fraction-free on the int matrix N = D M, D the lcm of
M's denominators: the trace recursion and the RREF of the powers run in
ints, and the coefficients are scaled back by powers of D, so they are the
rationals a Fraction computation on M gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def _clear_denominators(m: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(N, D) with N = D M an int matrix and D > 0 the lcm of M's denominators."""
    a = [[Fraction(x) for x in row] for row in m]
    den = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def char_poly(m: Sequence[Sequence[Fraction]]) -> Poly:
    """Characteristic polynomial det(xI - M) by the trace recursion.

    The recursion runs on the int matrix N = D M, whose coefficients are
    ints (each trace is divisible by its k); then c_k(M) = c_k(N) / D^(n-k).
    """
    n = len(m)
    a, den = _clear_denominators(m)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    work = [[0] * n for _ in range(n)]  # W = 0
    for k in range(1, n + 1):
        # W <- N (W + c_{n-k+1} I); c_{n-k} = -tr(W)/k
        for i in range(n):
            work[i][i] += coeffs[n - k + 1]
        work = _int_matmul(a, work)
        trace = sum(work[i][i] for i in range(n))
        if trace % k:
            raise AssertionError("trace recursion left the integers; impossible")
        coeffs[n - k] = -trace // k
    return [Fraction(c, den ** (n - k)) for k, c in enumerate(coeffs)]


def minimal_poly(m: Sequence[Sequence[Fraction]]) -> Poly:
    """Minimal polynomial via the first linear dependence among powers of M.

    One integer `rref` of the n^2 x (n+1) matrix whose column k is vec(N^k),
    N = D M: its first non-pivot column d gives N^d = sum_k r_k N^k over the
    pivot columns k < d, so mp(M) = x^d - sum_k r_k D^(k-d) x^k.
    """
    from .linalg import rref

    n = len(m)
    a, den = _clear_denominators(m)
    powers = [[[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    for _ in range(n):
        powers.append(_int_matmul(a, powers[-1]))
    columns = [[power[i][j] for power in powers] for i in range(n) for j in range(n)]
    red, pivots = rref(columns)
    d = next(c for c in range(n + 1) if c not in pivots)
    return [-red[k][d] / den ** (d - k) for k in range(d)] + [Fraction(1)]


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
    return count_real_roots_in(s_hat, -cauchy_bound(s_hat), Fraction(0)) == deg
