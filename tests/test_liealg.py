import random
from fractions import Fraction

import pytest

from pklie.exterior import ComplexForm, monomial
from pklie.liealg import (
    LieAlgebraSpec,
    algebra_from_json,
    algebra_invariants,
    algebra_to_json,
    ce_differential,
    change_basis,
    check_jacobi,
    d_squared_vanishes,
    from_bracket_list,
    is_unimodular,
)
from pklie.linalg import gr, identity


def heisenberg3():
    return from_bracket_list(3, [(1, 2, 3, 1)])


def h3_plus_line():
    return from_bracket_list(4, [(1, 2, 3, 1)])


def random_antisymmetric(dim, rng, density=0.4, span=2):
    entries = []
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(1, dim + 1):
                if rng.random() < density:
                    c = rng.randint(-span, span)
                    if c:
                        entries.append((i, j, k, c))
    return from_bracket_list(dim, entries)


def test_jacobi_heisenberg():
    assert check_jacobi(heisenberg3()).ok


def test_jacobi_violation_reports_triple_and_residual():
    g = from_bracket_list(3, [(1, 2, 3, 1), (1, 3, 1, 1)])
    res = check_jacobi(g)
    assert not res.ok
    assert res.triple == (1, 2, 3)
    assert res.residual == [Fraction(0), Fraction(0), Fraction(-1)]


def test_jacobi_abelian():
    assert check_jacobi(LieAlgebraSpec(5)).ok


def test_ce_differential_structure_equation():
    g = heisenberg3()
    # d e^3 = -e^1 ^ e^2 under the convention d a(X,Y) = -a([X,Y])
    de3 = ce_differential(g, monomial(3, (3,)))
    assert de3 == monomial(3, (1, 2), coeff=-1)
    assert ce_differential(g, monomial(3, (1,))).is_zero()


def test_ce_differential_top_degree_vanishes():
    rng = random.Random(1)
    for _ in range(10):
        g = random_antisymmetric(4, rng)
        top = monomial(4, (1, 2, 3, 4), coeff=rng.randint(1, 5))
        assert ce_differential(g, top).is_zero()


def test_ce_differential_leibniz():
    g = heisenberg3()
    f = monomial(3, (1,))
    h = monomial(3, (2, 3))
    lhs = ce_differential(g, f ^ h)
    rhs = (ce_differential(g, f) ^ h) - (f ^ ce_differential(g, h))
    assert lhs == rhs


def test_d_squared_iff_jacobi_random():
    rng = random.Random(42)
    seen_valid = seen_invalid = 0
    for _ in range(100):
        if rng.random() < 0.3:
            g = change_basis(heisenberg3(), _random_invertible(3, rng))
        else:
            g = random_antisymmetric(rng.choice([3, 4]), rng)
        ok = check_jacobi(g).ok
        assert d_squared_vanishes(g) == ok
        seen_valid += ok
        seen_invalid += not ok
    assert seen_valid > 5 and seen_invalid > 5


def _random_invertible(dim, rng):
    from pklie.linalg import rank

    while True:
        m = [[gr(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        if rank(m) == len(m):
            return m


def test_invariants_h3_plus_line():
    inv = algebra_invariants(h3_plus_line())
    assert len(inv.center_basis) == 2
    assert inv.is_nilpotent
    assert inv.is_unimodular
    assert inv.lower_central_series_dims[0] == 4
    assert inv.lower_central_series_dims[-1] == 0


def test_invariants_abelian():
    inv = algebra_invariants(LieAlgebraSpec(8))
    assert len(inv.center_basis) == 8
    assert inv.lower_central_series_dims == [8, 0]
    assert inv.abelian_codim1_ideal is not None
    assert len(inv.abelian_codim1_ideal) == 7


def test_abelian_codim1_ideal_detection():
    # one non-abelian direction acting on an abelian ideal
    g = from_bracket_list(4, [(1, 4, 1, 1), (2, 4, 3, 1), (3, 4, 2, -1)])
    inv = algebra_invariants(g)
    ideal = inv.abelian_codim1_ideal
    assert ideal is not None and len(ideal) == 3
    # heisenberg algebras are almost abelian too
    inv3 = algebra_invariants(heisenberg3())
    assert inv3.abelian_codim1_ideal is not None
    # sl2-like algebra has no codimension-one ideal at all
    sl2 = from_bracket_list(3, [(1, 2, 3, 1), (1, 3, 1, -2), (2, 3, 2, 2)])
    assert check_jacobi(sl2).ok
    assert algebra_invariants(sl2).abelian_codim1_ideal is None


def test_unimodularity_basis_invariance():
    rng = random.Random(9)
    g = h3_plus_line()
    sl2 = from_bracket_list(3, [(1, 2, 3, 1), (1, 3, 1, -2), (2, 3, 2, 2)])
    solv = from_bracket_list(2, [(1, 2, 1, 1)])
    for base in (g, sl2, solv):
        flag = is_unimodular(base)
        for _ in range(20):
            s = _random_invertible(base.dim, rng)
            assert is_unimodular(change_basis(base, s)) == flag


def test_json_round_trip():
    g = h3_plus_line()
    assert algebra_from_json(algebra_to_json(g)) == g


def test_coframe_json():
    g = algebra_from_json({"d": {"e3": "e1^e2"}})
    assert g.dim == 3
    # d e^3 = e^1 ^ e^2 means [e1, e2] = -e3
    assert g.bracket_basis(1, 2) == {3: Fraction(-1)}
    g2 = algebra_from_json({"dim": 4, "d": {"e3": "2 e1^e2 - 1/2 e1^e4"}})
    assert g2.bracket_basis(1, 2) == {3: Fraction(-2)}
    assert g2.bracket_basis(1, 4) == {3: Fraction(1, 2)}
