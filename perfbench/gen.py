"""Seeded input generators for the benchmark workloads.

The generators return plain inputs (parameter tuples, almost-abelian data)
drawn from a ``random.Random``; the same seed gives the same inputs.  The
SnN sampler has a fixed composition (how many instances of each family and
tuple shape) and the seed draws the free values inside it.  The almost-abelian
sampler is run with fixed sampler seeds (``AAB_SET``): the cost and verdict of
an almost-abelian decision swing widely with the drawn matrix, even inside one
(n, Kahler-able) class, so a per-run draw would make runs with different
seeds do different work.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pklie.catalog import AlmostAbelianData

# -- SnN families in real dimension 8 -------------------------------------------

# Family 1 tuples (eps, nu, a, b) whose (a, b) the classification fixes.
SNN8_F1_FIXED = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 0, -1), (1, 0, 0, 1)]
# Family 2 tuples (eps, mu, nu, a, b) with (a, b) fixed.
SNN8_F2_FIXED = [(0, 1, 0, 0, 0), (0, 1, 0, 1, 0)]


def _rational(rng: random.Random, nonnegative: bool = False) -> Fraction:
    num = rng.randint(0 if nonnegative else -4, 4)
    return Fraction(num, rng.randint(1, 3))


def snn8_params(rng: random.Random) -> list[tuple[int, tuple[Fraction, ...], int]]:
    """(family, params, delta) triples: 48 of family 1 and 24 of family 2.

    Family 1: the six fixed tuples, four (0,1,1,b), four (1,0,1,b>=0) and
    ten (1,1,a>=0,b), each with delta = +1 and -1.  Family 2: eight each of
    (1,1,0,a,b) and (1,0,1,a,b), three each of (1,0,0,a,b) for a = 0 and 1,
    and the two fixed (0,1,0) tuples.
    """
    f1 = [tuple(Fraction(x) for x in t) for t in SNN8_F1_FIXED]
    f1 += [(Fraction(0), Fraction(1), Fraction(1), _rational(rng)) for _ in range(4)]
    f1 += [(Fraction(1), Fraction(0), Fraction(1), _rational(rng, True)) for _ in range(4)]
    while len(f1) < 24:
        a, b = _rational(rng, True), _rational(rng)
        if (a, b) != (0, 0):
            f1.append((Fraction(1), Fraction(1), a, b))
    f2 = []
    for key in ((1, 1, 0), (1, 0, 1)):
        f2 += [(*map(Fraction, key), _rational(rng), _rational(rng)) for _ in range(8)]
    for a in (0, 1):
        f2 += [(Fraction(1), Fraction(0), Fraction(0), Fraction(a), _rational(rng)) for _ in range(3)]
    f2 += [tuple(Fraction(x) for x in t) for t in SNN8_F2_FIXED]
    return [(1, t, delta) for t in f1 for delta in (1, -1)] + [(2, t, 1) for t in f2]


# -- almost-abelian data -----------------------------------------------------------


def random_integrable_data(n: int, rng: random.Random, kahlerable: bool) -> AlmostAbelianData:
    """Unimodular almost-abelian data whose A commutes with the restricted J.

    With ``kahlerable`` A is antisymmetrized and v dropped, so the algebra
    admits a Kahler structure; otherwise v and A are left generic.
    """
    size = 2 * n - 2
    a = [[Fraction(0)] * size for _ in range(size)]
    for j in range(2, n + 1):
        for k in range(2, n + 1):
            p_val = Fraction(rng.randint(-2, 2))
            q_val = Fraction(rng.randint(-2, 2))
            jp, kp = 2 * n + 1 - j, 2 * n + 1 - k
            a[j - 2][k - 2] = p_val
            a[jp - 2][kp - 2] = p_val
            a[j - 2][kp - 2] = q_val
            a[jp - 2][k - 2] = -q_val
    if kahlerable:
        a = [[(a[i][j] - a[j][i]) / 2 for j in range(size)] for i in range(size)]
        v = [Fraction(0)] * size
    else:
        v = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
    lam = -sum(a[i][i] for i in range(size))
    return AlmostAbelianData(n, lam, v, a)


# The aab instance set: (n, kahlerable, sampler seed).  For each class the
# first sampler seeds are taken, so the set is fixed and every benchmark
# seed decides the same algebras; ten of the twenty are Kahler-able.
# Sampler seed 5 of the generic n = 3 class is the first one whose p = 1
# search ends INCONCLUSIVE (no Kahler form and no witness found), so every
# pass has exactly one INCONCLUSIVE decision; the other n = 3 algebras end
# FOUND (Kahler-able) or REFUTED at p = 1, and the n = 4 algebras end FOUND
# or REFUTED at p = 1 and p = 2 in one witness round.  The classes hold
# unlike times: n = 3 decisions and verifications take 15-40 ms, n = 4 ones
# 60-140 ms at p = 1 and 0.3-0.85 s at p = 2.  A pass makes 15 definitive
# n = 3 decisions of its 24, and 15 of its 23 verifications are n = 3 ones,
# so the median decision and the median verification fall inside the n = 3
# group and not between two groups, where a little host noise would move
# them from one group's times to the next one's.
AAB_SET = [
    *((3, True, seed) for seed in range(1, 9)),
    *((3, False, seed) for seed in range(1, 9)),
    (4, True, 1),
    (4, True, 2),
    (4, False, 1),
    (4, False, 2),
]


def aab_set() -> list[AlmostAbelianData]:
    """The ``AAB_SET`` almost-abelian data, each drawn by the sampler."""
    return [random_integrable_data(n, random.Random(seed), kahlerable) for n, kahlerable, seed in AAB_SET]
