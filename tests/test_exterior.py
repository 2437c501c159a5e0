import random

import pytest

from pklie.exterior import (
    ComplexForm,
    FormParseError,
    apply_antiderivation,
    bidegree_component,
    conjugate,
    form_from_json,
    form_to_json,
    form_to_literal,
    generator,
    monomial,
    parse_form,
    reference_volume_coefficient,
    substitute,
    wedge,
    wedge_all,
)
from pklie.scalars import GaussianRational, I, ONE, i_power


def a(n, *holo):
    return monomial(n, holo=holo)


def b(n, *anti):
    return monomial(n, anti=anti)


def random_form(n, rng, max_terms=4):
    out = ComplexForm.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        holo = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        anti = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        coeff = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        out = out + monomial(n, holo, anti, coeff)
    return out


def random_homogeneous(n, p, q, rng, max_terms=4):
    import itertools

    holos = list(itertools.combinations(range(1, n + 1), p))
    antis = list(itertools.combinations(range(1, n + 1), q))
    out = ComplexForm.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        coeff = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        out = out + monomial(n, rng.choice(holos), rng.choice(antis), coeff)
    return out


def test_wedge_antisymmetry():
    n = 2
    assert wedge(a(n, 1), a(n, 2)) == monomial(n, (1, 2))
    assert wedge(a(n, 2), a(n, 1)) == monomial(n, (1, 2), coeff=-1)


def test_wedge_bilinearity():
    n = 2
    lhs = wedge(a(n, 1) + a(n, 2), b(n, 1))
    assert lhs == monomial(n, (1,), (1,)) + monomial(n, (2,), (1,))


def test_wedge_repeated_index_is_zero():
    n = 2
    f = monomial(n, (1, 2))
    g = monomial(n, (1,), (1,))
    assert wedge(f, g).is_zero()


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(a(2, 1), a(3, 1))


def test_koszul_sign_on_random_homogeneous_pairs():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 4)
        p1, q1 = rng.randint(0, 2), rng.randint(0, 2)
        p2, q2 = rng.randint(0, 2), rng.randint(0, 2)
        f = random_homogeneous(n, p1, q1, rng)
        g = random_homogeneous(n, p2, q2, rng)
        sign = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
        assert wedge(f, g) == wedge(g, f) * sign


def test_wedge_associative():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        f, g, h = (random_form(n, rng, 3) for _ in range(3))
        assert wedge(wedge(f, g), h) == wedge(f, wedge(g, h))


def test_conjugate_examples():
    n = 2
    assert conjugate(monomial(n, (1,), (1,), I)) == monomial(n, (1,), (1,), I)
    # conjugating a^1 ^ conj(a^2) reorders to canonical form, picking up a sign
    assert conjugate(monomial(n, (1,), (2,))) == monomial(n, (2,), (1,), -1)


def test_conjugate_involution_random():
    rng = random.Random(3)
    for _ in range(100):
        f = random_form(rng.randint(1, 4), rng)
        assert conjugate(conjugate(f)) == f


def test_conjugate_multiplicative_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 4)
        f, g = random_form(n, rng, 3), random_form(n, rng, 3)
        assert conjugate(wedge(f, g)) == wedge(conjugate(f), conjugate(g))


def test_bidegree_component_examples():
    n = 2
    f = monomial(n, (1, 2)) + monomial(n, (1,), (1,))
    assert bidegree_component(f, 1, 1) == monomial(n, (1,), (1,))
    assert bidegree_component(f, 2, 0) == monomial(n, (1, 2))
    assert bidegree_component(f, 0, 2).is_zero()


def test_bidegree_real_coframe_example():
    # e^1 = (a^1 + conj(a^1))/2, e^2 = (a^1 - conj(a^1))/(2i);
    # e^1 ^ e^2 has (1,1)-part (i/2) a^{1,1b} (and nothing else)
    n = 1
    half = GaussianRational("1/2")
    e1 = (a(n, 1) + b(n, 1)) * half
    e2 = (a(n, 1) - b(n, 1)) * (ONE / (2 * I))
    w = wedge(e1, e2)
    expected = monomial(n, (1,), (1,), I * half)
    assert bidegree_component(w, 1, 1) == expected
    assert w == expected


def test_bidegree_projection_is_direct_sum():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        f = random_form(n, rng)
        total = ComplexForm.zero(n)
        for p in range(n + 1):
            for q in range(n + 1):
                comp = bidegree_component(f, p, q)
                assert bidegree_component(comp, p, q) == comp
                total = total + comp
        assert total == f


def test_reference_volume_coefficient():
    for n in range(1, 6):
        vol = wedge_all([monomial(n, (j,), (j,), I) for j in range(1, n + 1)])
        full = tuple(range(1, n + 1))
        assert vol == monomial(n, full, full, reference_volume_coefficient(n))
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        assert reference_volume_coefficient(n) == i_power(n) * sign


def test_antiderivation_leibniz():
    # d with d(a^1)=0, d(a^2) = a^{1,1b} must satisfy the graded Leibniz rule
    rng = random.Random(17)
    n = 2
    d_holo = [ComplexForm.zero(n), monomial(n, (1,), (1,))]

    def d(f):
        return apply_antiderivation(f, d_holo)

    for _ in range(40):
        f = random_homogeneous(n, rng.randint(0, 1), rng.randint(0, 1), rng)
        g = random_form(n, rng, 3)
        deg = f.degree()
        if deg is None:
            continue
        sign = -1 if deg % 2 else 1
        assert d(wedge(f, g)) == wedge(d(f), g) + wedge(f, d(g)) * sign


def test_substitute_relabel_and_kill():
    n = 3
    f = monomial(n, (1, 2), (3,), GaussianRational(2))
    images = [generator(2, 1), generator(2, 2), ComplexForm.zero(2)]
    assert substitute(f, images, n_target=2).is_zero()
    g = monomial(n, (2, 3), (2,))
    images2 = [ComplexForm.zero(2), generator(2, 1), generator(2, 2)]
    assert substitute(g, images2, n_target=2) == monomial(2, (1, 2), (1,))


def test_literal_round_trip():
    rng = random.Random(23)
    for _ in range(50):
        f = random_form(rng.randint(1, 4), rng)
        assert parse_form(form_to_literal(f), f.n) == f


def test_literal_examples():
    f = parse_form("(3/2+1/2i) a12_b1", 2)
    assert f == monomial(2, (1, 2), (1,), GaussianRational("3/2", "1/2"))
    assert parse_form("a1_b2 - a2_b1", 2) == monomial(2, (1,), (2,)) + monomial(
        2, (2,), (1,), -1
    )
    assert parse_form("eps a1_b1", 2, params={"eps": 2}) == monomial(2, (1,), (1,), 2)
    assert parse_form("0", 3).is_zero()
    with pytest.raises(FormParseError):
        parse_form("3/2", 2)


def test_json_round_trip():
    rng = random.Random(29)
    for _ in range(30):
        f = random_form(rng.randint(1, 4), rng)
        assert form_from_json(form_to_json(f), f.n) == f


def test_bidegree_is_the_one_element_of_bidegrees():
    rng = random.Random(31)
    cases = [ComplexForm.zero(3)]
    for _ in range(60):
        n = rng.randint(1, 4)
        p, q = rng.randint(0, n), rng.randint(0, n)
        cases += [random_form(n, rng), random_homogeneous(n, p, q, rng)]
    for f in cases:
        bids = f.bidegrees()
        assert f.bidegree() == (bids.pop() if len(bids) == 1 else None)


def test_homogeneity_flags():
    n = 3
    f = monomial(n, (1,), (2,)) + monomial(n, (1, 2), ())
    assert f.degree() == 2
    assert f.bidegree() is None
    g = f + monomial(n, (1, 2, 3), (1,))
    assert g.degree() is None
    assert not g.is_homogeneous() or g.is_zero()


def test_real_detection():
    n = 2
    w = monomial(n, (1,), (1,), I) + monomial(n, (2,), (2,), I)
    assert w.is_real()
    assert not monomial(n, (1,), (2,)).is_real()
    sym = monomial(n, (1,), (2,)) - monomial(n, (2,), (1,))
    assert sym.is_real()
