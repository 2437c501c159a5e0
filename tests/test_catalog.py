import random
from fractions import Fraction

import pytest

from pklie.catalog import (
    AlmostAbelianData,
    InadmissibleParameters,
    almost_abelian_algebra,
    almost_abelian_equations,
    build_almost_abelian,
    build_snn8,
    kahler_decision_almost_abelian,
    named_example,
    parse_catalog_name,
    registry,
)
from pklie.cxstruct import check_integrability
from pklie.liealg import check_jacobi, is_unimodular
from pklie.pkahler import PKVerdict, find_pkahler
from pklie.positivity import SearchBudget
from pklie.reductions import JClass, ascending_series


F1_SAMPLES = [
    ((0, 0, 0, 1), 1),
    ((0, 0, 1, 0), 1),
    ((0, 0, 1, 1), -1),
    ((0, 1, 0, 1), 1),
    ((0, 1, 0, -1), 1),
    ((0, 1, 1, Fraction(1, 2)), -1),
    ((1, 0, 0, 1), 1),
    ((1, 0, 1, 2), 1),
    ((1, 1, Fraction(1, 2), Fraction(-3, 2)), 1),
]

F2_SAMPLES = [
    (1, 1, 0, 0, 0),
    (1, 1, 0, Fraction(1, 2), -2),
    (1, 0, 1, 1, 1),
    (1, 0, 0, 0, 3),
    (1, 0, 0, 1, Fraction(-1, 2)),
    (0, 1, 0, 0, 0),
    (0, 1, 0, 1, 0),
]


def test_family1_instances_validate_and_classify():
    for params, delta in F1_SAMPLES:
        s = build_snn8(1, params, delta)
        assert check_jacobi(s.g).ok
        assert check_integrability(s.g, s.J).ok
        assert ascending_series(s).classification == JClass.SNN


def test_family2_instances_validate_and_classify():
    for params in F2_SAMPLES:
        s = build_snn8(2, params)
        assert check_jacobi(s.g).ok
        assert ascending_series(s).classification == JClass.SNN


def test_family1_rejections():
    with pytest.raises(InadmissibleParameters):
        build_snn8(1, (0, 0, 0, 0))  # (a,b) = (0,0)
    with pytest.raises(InadmissibleParameters):
        build_snn8(1, (0, 0, 2, 0))  # not in the printed list
    with pytest.raises(InadmissibleParameters):
        build_snn8(1, (0, 1, 0, 2))  # b must be a sign when a = 0
    with pytest.raises(InadmissibleParameters):
        build_snn8(1, (1, 0, 1, -1))  # b >= 0 required here
    with pytest.raises(InadmissibleParameters):
        build_snn8(1, (0, 0, -1, 0))  # a >= 0
    with pytest.raises(InadmissibleParameters):
        build_snn8(1, (0, 0, 1, 0), delta=2)


def test_family2_rejections():
    with pytest.raises(InadmissibleParameters):
        build_snn8(2, (0, 0, 0, 1, 1))
    with pytest.raises(InadmissibleParameters):
        build_snn8(2, (1, 0, 0, 2, 0))
    with pytest.raises(InadmissibleParameters):
        build_snn8(2, (0, 1, 0, 1, 1))
    with pytest.raises(InadmissibleParameters):
        build_snn8(2, (0, 1, 1, 0, 0))


def _rotation_data(n, angles, v=None, lam=0):
    size = 2 * n - 2
    a = [[Fraction(0)] * size for _ in range(size)]
    for idx, theta in enumerate(angles, start=2):
        j, jp = idx, 2 * n + 1 - idx
        a[jp - 2][j - 2] = Fraction(theta)
        a[j - 2][jp - 2] = Fraction(-theta)
    return AlmostAbelianData(n, lam, v or [Fraction(0)] * size, a)


def test_almost_abelian_torus():
    data = AlmostAbelianData(3, 0, [0] * 4, [[0] * 4 for _ in range(4)])
    s = build_almost_abelian(data)
    assert all(eq.is_zero() for eq in s.equations)


def test_almost_abelian_equations_match_formula():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.choice([3, 4])
        size = 2 * n - 2
        # random integrable A: commute with J1 via paired blocks
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
        v = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
        lam = Fraction(rng.randint(-2, 2))
        data = AlmostAbelianData(n, lam, v, a)
        assert data.integrable()
        s = build_almost_abelian(data)
        assert s.equations == almost_abelian_equations(data)


def test_almost_abelian_rejects_non_commuting():
    n = 3
    size = 4
    a = [[Fraction(0)] * size for _ in range(size)]
    a[0][1] = Fraction(1)  # breaks [A, J1] = 0
    data = AlmostAbelianData(n, 0, [0] * size, a)
    assert not data.integrable()
    with pytest.raises(InadmissibleParameters):
        build_almost_abelian(data)
    # the raw algebra is a Lie algebra whose J is genuinely non-integrable
    g, J = almost_abelian_algebra(data)
    assert check_jacobi(g).ok
    res = check_integrability(g, J)
    assert not res.ok and res.witness is not None


def test_almost_abelian_unimodularity_flag():
    data = _rotation_data(3, [1, 2])
    assert data.unimodular()
    assert is_unimodular(build_almost_abelian(data).g)
    size = 4
    a = [[Fraction(0)] * size for _ in range(size)]
    a[0][0] = a[1][1] = a[2][2] = a[3][3] = Fraction(1)
    bad = AlmostAbelianData(3, -1, [0] * size, a)  # trace 4, lam != -4
    assert not bad.unimodular()


def test_round_trip_data_recovery():
    # reading the adapted coframe differentials back recovers (lam, v, A)
    data = _rotation_data(3, [1, -2], v=[1, 0, 0, 2], lam=0)
    s = build_almost_abelian(data)
    eqs = almost_abelian_equations(data)
    assert s.equations == eqs
    # lam from d a^1; w_j and b_jk from d a^j coefficient extraction
    half_i = Fraction(1, 2)
    c = s.equations[0].coeff((1,), (1,))
    assert c.re == 0 and c.im == half_i * data.lam


def test_kahler_decision_positive():
    data = _rotation_data(3, [1, 2])
    dec = kahler_decision_almost_abelian(data)
    assert dec.value and dec.adapted


def test_kahler_decision_absorbs_v_in_image():
    # v in the image of antisymmetric A: still Kahler
    data = _rotation_data(3, [1, 2])
    v = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    data2 = AlmostAbelianData(3, 0, v, data.A)
    dec = kahler_decision_almost_abelian(data2)
    assert dec.value and dec.absorb is not None


def test_kahler_decision_negative_cases():
    size = 4
    v = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    heis = AlmostAbelianData(3, 0, v, [[Fraction(0)] * size for _ in range(size)])
    dec = kahler_decision_almost_abelian(heis)
    assert not dec.value
    sym = [[Fraction(0)] * size for _ in range(size)]
    sym[0][0] = sym[3][3] = Fraction(1)
    sym[1][1] = sym[2][2] = Fraction(-1)
    data = AlmostAbelianData(3, 0, [0] * size, sym)
    assert data.integrable() and data.unimodular()
    dec2 = kahler_decision_almost_abelian(data)
    assert not dec2.value


def test_kahler_decision_requires_unimodular():
    size = 4
    a = [[Fraction(0)] * size for _ in range(size)]
    a[0][0] = a[1][1] = a[2][2] = a[3][3] = Fraction(1)
    data = AlmostAbelianData(3, 0, [0] * size, a)
    with pytest.raises(InadmissibleParameters):
        kahler_decision_almost_abelian(data)


def test_kahler_true_implies_p1_found():
    data = _rotation_data(3, [1, 2])
    assert kahler_decision_almost_abelian(data).value
    s = build_almost_abelian(data)
    rep = find_pkahler(s, 1, SearchBudget(restarts=8, steps=60))
    assert rep.verdict == PKVerdict.FOUND


def test_named_examples_validate():
    for name in registry():
        s = named_example(name)
        assert check_jacobi(s.g).ok
        assert check_integrability(s.g, s.J).ok


def test_named_example_kt_classification():
    kt = named_example("kt")
    series = ascending_series(kt)
    assert series.classification == JClass.NILPOTENT
    assert len(series.first_term) == 2


def test_parse_catalog_names():
    s = parse_catalog_name("snn8f1:0,0,1,0")
    assert s is not None and s.n == 4
    s2 = parse_catalog_name("snn8f1:0,0,1,1:-1")
    assert s2 is not None
    s3 = parse_catalog_name("snn8f2:1,1,0,1/2,-2")
    assert s3 is not None
    assert parse_catalog_name("nope") is None
    with pytest.raises(KeyError):
        named_example("missing_entry")
