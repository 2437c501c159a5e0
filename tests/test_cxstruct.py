import random
from fractions import Fraction

import pytest

from pklie import cxstruct
from pklie.catalog import AlmostAbelianData, almost_abelian_algebra, almost_abelian_coframe
from pklie.exterior import ComplexForm, conjugate, monomial, parse_form, wedge
from pklie.liealg import InvalidAlgebraError, LieAlgebraSpec, change_basis, from_bracket_list
from pklie.linalg import gr, identity, inverse, matmul, mat_from_rows, rank
from pklie.cxstruct import (
    AscendingSeries,
    ComplexStructureSpec,
    JClass,
    NonIntegrableError,
    ascending_series,
    b_extension_quotient,
    check_integrability,
    in_coframe_ideal,
    restrict_to_jinvariant_ideal,
    structure_equations,
    triangular_coframe,
)
from pklie.scalars import GaussianRational, I, ONE


def torus(n):
    return ComplexStructureSpec.from_equations([ComplexForm.zero(n)] * n)


def kodaira_thurston():
    return ComplexStructureSpec.from_equations(
        [ComplexForm.zero(2), monomial(2, (1,), (1,))]
    )


def iwasawa():
    return ComplexStructureSpec.from_equations(
        [ComplexForm.zero(3), ComplexForm.zero(3), monomial(3, (1, 2))]
    )


def std_omega(n):
    out = ComplexForm.zero(n)
    for j in range(1, n + 1):
        out = out + monomial(n, (j,), (j,), I)
    return out


def _random_invertible(dim, rng):
    while True:
        m = [[gr(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        if rank(m) == len(m):
            return m


def _conjugated_pair(struct, rng):
    """Same geometry in a random rational basis."""
    s = _random_invertible(struct.g.dim, rng)
    g2 = change_basis(struct.g, s)
    j2 = matmul(matmul(inverse(s), struct.J), s)
    return g2, j2


def test_from_equations_builds_real_side():
    kt = kodaira_thurston()
    assert kt.g.dim == 4
    # brackets must reproduce d a^2 = a^{1,1b}: one central direction
    assert kt.g.brackets
    assert check_integrability(kt.g, kt.J).ok


def test_kt_from_real_matrix_recovers_equations():
    g = from_bracket_list(4, [(1, 2, 3, 1)])
    J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    struct = ComplexStructureSpec.from_matrix(g, J)
    assert struct.equations[0].is_zero()
    expected = monomial(2, (1,), (1,), GaussianRational(0, "-1/2"))
    assert struct.equations[1] == expected


def test_standard_j_on_abelian_gives_closed_coframe():
    g = LieAlgebraSpec(4)
    J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    struct = ComplexStructureSpec.from_matrix(g, J)
    assert all(eq.is_zero() for eq in struct.equations)


def test_any_j_on_abelian_is_integrable():
    rng = random.Random(5)
    g = LieAlgebraSpec(4)
    j_std = mat_from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    for _ in range(10):
        s = _random_invertible(4, rng)
        J = matmul(matmul(inverse(s), j_std), s)
        assert check_integrability(g, J).ok


def test_non_integrable_witness():
    g = from_bracket_list(4, [(1, 2, 3, 1)])
    # J e1 = e3, J e2 = e4 mixes the center with the derived algebra
    J = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    res = check_integrability(g, J)
    assert not res.ok
    assert res.witness == (1, 2)
    assert any(res.nijenhuis_value)
    with pytest.raises(NonIntegrableError):
        ComplexStructureSpec.from_matrix(g, J)


def test_integrability_tests_agree_on_random_pairs():
    rng = random.Random(11)
    bases = [kodaira_thurston(), iwasawa(), torus(2)]
    count = 0
    for _ in range(100):
        base = rng.choice(bases)
        g2, j2 = _conjugated_pair(base, rng)
        assert check_integrability(g2, j2).ok
        count += 1
    assert count == 100


def test_d_examples():
    iw = iwasawa()
    lhs = iw.d(monomial(3, (3,), (3,)))
    assert lhs == monomial(3, (1, 2), (3,)) - monomial(3, (3,), (1, 2))
    kt = kodaira_thurston()
    assert kt.d(monomial(2, (1,), (2,))).is_zero()
    # top degree closes for any algebra
    assert iw.d(monomial(3, (1, 2, 3), (1, 2, 3))).is_zero()


def test_d_conjugation_random():
    rng = random.Random(3)
    iw = iwasawa()
    for _ in range(30):
        f = ComplexForm.zero(3)
        for _ in range(3):
            holo = tuple(sorted(rng.sample([1, 2, 3], rng.randint(0, 2))))
            anti = tuple(sorted(rng.sample([1, 2, 3], rng.randint(0, 2))))
            f = f + monomial(3, holo, anti, GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)))
        assert iw.d(conjugate(f)) == conjugate(iw.d(f))


def test_d_squared_zero_complex_side():
    for struct in (kodaira_thurston(), iwasawa()):
        for j in range(struct.n):
            assert struct.d(struct.equations[j]).is_zero()


def test_closed_10_forms():
    assert len(iwasawa().closed_10_forms()) == 2
    assert len(torus(3).closed_10_forms()) == 3
    assert len(kodaira_thurston().closed_10_forms()) == 1


def test_ascending_series_abelian():
    series = ascending_series(torus(3))
    assert series.classification == JClass.NILPOTENT
    assert series.dims == [0, 6]
    assert len(series.first_term) == 6


def test_ascending_series_kt():
    series = ascending_series(kodaira_thurston())
    assert series.classification == JClass.NILPOTENT
    assert series.dims[1] == 2


def test_ascending_series_iwasawa():
    series = ascending_series(kodaira_thurston())
    assert series.dims == sorted(series.dims)
    series_iw = ascending_series(iwasawa())
    assert series_iw.classification == JClass.NILPOTENT
    assert series_iw.dims[1] == 2


def test_ascending_series_chain_j_invariant():
    for struct in (kodaira_thurston(), iwasawa()):
        series = ascending_series(struct)
        for step in series.chain[1:]:
            span = [list(v) for v in step]
            for v in step:
                jv = struct.j_apply([c.re for c in v])
                from pklie.linalg import reduce_against, row_space_rref, is_zero_vec

                assert is_zero_vec(reduce_against(row_space_rref(span), [gr(c) for c in jv]))


def test_ascending_series_requires_nilpotent():
    g = from_bracket_list(2, [(1, 2, 1, 1)])
    J = [[0, -1], [1, 0]]
    struct = ComplexStructureSpec.from_matrix(g, J)
    with pytest.raises(InvalidAlgebraError):
        ascending_series(struct)


def test_triangular_coframe_iwasawa():
    tri = triangular_coframe(iwasawa())
    assert tri.closed_count == 2
    for j, eq in enumerate(tri.equations):
        assert eq.is_zero() or in_coframe_ideal(eq, j)
    assert tri.transform == identity(3)


def test_triangular_coframe_permuted():
    # same algebra with the non-closed element listed first
    struct = ComplexStructureSpec.from_equations(
        [monomial(3, (2, 3)), ComplexForm.zero(3), ComplexForm.zero(3)]
    )
    tri = triangular_coframe(struct)
    assert tri.closed_count == 2
    assert tri.equations[0].is_zero() and tri.equations[1].is_zero()
    assert not tri.equations[2].is_zero()
    for j, eq in enumerate(tri.equations):
        assert eq.is_zero() or in_coframe_ideal(eq, j)


def test_triangular_coframe_abelian():
    tri = triangular_coframe(torus(4))
    assert tri.closed_count == 4


def test_restriction_torus():
    t4 = torus(4)
    omega = std_omega(4)
    big = wedge(omega, omega) / 2
    alpha = monomial(4, (1,))
    res = restrict_to_jinvariant_ideal(t4, big, alpha)
    assert res.sub.n == 3
    assert all(eq.is_zero() for eq in res.sub.equations)
    small = std_omega(3)
    assert res.omega_h == wedge(small, small) / 2
    assert res.sub.d(res.omega_h).is_zero()


def test_restriction_iwasawa_gives_abelian():
    iw = iwasawa()
    omega = std_omega(3)
    big = wedge(omega, omega) / 2
    alpha = monomial(3, (1,))
    res = restrict_to_jinvariant_ideal(iw, big, alpha)
    assert all(eq.is_zero() for eq in res.sub.equations)


def test_restriction_requires_closed_nonzero_alpha():
    iw = iwasawa()
    omega = std_omega(3)
    with pytest.raises(ValueError):
        restrict_to_jinvariant_ideal(iw, omega, monomial(3, (3,)))
    with pytest.raises(ValueError):
        restrict_to_jinvariant_ideal(iw, omega, ComplexForm.zero(3))


def test_restriction_closedness_propagation():
    # whenever d omega = 0, the restricted component is closed too
    iw = iwasawa()
    rng = random.Random(7)
    closed = [
        monomial(3, (1,), (1,), I),
        monomial(3, (1,), (2,)) - monomial(3, (2,), (1,)),
        monomial(3, (2,), (2,), I),
    ]
    for _ in range(10):
        omega = ComplexForm.zero(3)
        for f in closed:
            omega = omega + f * rng.randint(-2, 2)
        if not omega.is_real():
            omega = omega + conjugate(omega)
        assert iw.d(omega).is_zero()
        res = restrict_to_jinvariant_ideal(iw, omega, monomial(3, (1,)))
        assert res.sub.d(res.omega_h).is_zero()


def test_restriction_zero_component_flagged():
    t3 = torus(3)
    omega = monomial(3, (1,), (1,), I)  # no component away from a^1
    res = restrict_to_jinvariant_ideal(t3, omega, monomial(3, (1,)))
    assert res.omega_h.is_zero()


def test_b_extension_torus():
    t3 = torus(3)
    omega = std_omega(3)
    big = wedge(omega, omega) / 2
    ext = b_extension_quotient(t3, big, 2)
    assert ext.quotient.n == 2
    assert all(eq.is_zero() for eq in ext.quotient.equations)
    assert ext.omega == std_omega(2)
    # at p = 1 the Kahler form descends to the scalar 1 on the quotient
    assert b_extension_quotient(t3, omega, 1).omega == monomial(2)


def test_b_extension_one_dim_derived():
    struct = ComplexStructureSpec.from_equations(
        [
            ComplexForm.zero(3),
            ComplexForm.zero(3),
            monomial(3, (1,), (1,)) + monomial(3, (2,), (2,)),
        ]
    )
    omega = monomial(3, (1, 2), (1, 2))
    assert struct.d(omega).is_zero()
    ext = b_extension_quotient(struct, omega, 2)
    assert all(eq.is_zero() for eq in ext.quotient.equations)
    assert ext.quotient.n == 2
    # closedness propagates to the extracted coefficient form
    assert ext.quotient.d(ext.omega).is_zero()


def test_b_extension_rejects_snn():
    # solvable algebras are rejected before the series is even classified
    g = from_bracket_list(2, [(1, 2, 1, 1)])
    struct = ComplexStructureSpec.from_matrix(g, [[0, -1], [1, 0]])
    omega = monomial(1, (1,), (1,), I)
    with pytest.raises(InvalidAlgebraError):
        b_extension_quotient(struct, omega, 1)


def test_integrability_agreement_includes_non_integrable():
    # the Nijenhuis and bidegree tests must agree (not just on integrable J)
    rng = random.Random(31)
    g = from_bracket_list(4, [(1, 2, 3, 1)])
    j_good = mat_from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j_bad = mat_from_rows([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    agree = 0
    for _ in range(100):
        s = _random_invertible(4, rng)
        sinv = inverse(s)
        base = j_good if rng.random() < 0.5 else j_bad
        j2 = matmul(matmul(sinv, base), s)
        g2 = change_basis(g, s)
        res = check_integrability(g2, j2)  # raises on internal disagreement
        assert res.ok == (base is j_good)
        agree += 1
    assert agree == 100


def test_classification_is_isomorphism_invariant():
    rng = random.Random(37)
    for struct in (kodaira_thurston(), iwasawa()):
        base_class = ascending_series(struct).classification
        for _ in range(5):
            s = _random_invertible(struct.g.dim, rng)
            g2 = change_basis(struct.g, s)
            j2 = matmul(matmul(inverse(s), struct.J), s)
            struct2 = ComplexStructureSpec.from_matrix(g2, j2)
            assert ascending_series(struct2).classification == base_class


_J_STD4 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


@pytest.mark.parametrize(
    "J",
    [
        [row + [0] for row in _J_STD4],
        [[0, -1], [1, 0]],
        [row + [0] for row in _J_STD4[:3]],
    ],
    ids=["4x5", "2x2", "3x4"],
)
def test_wrongly_shaped_j_rejected(J):
    with pytest.raises(ValueError, match="J must be a 4x4 matrix"):
        check_integrability(LieAlgebraSpec(4), J)


def test_wrongly_shaped_coframe_rejected():
    coframe = [[1, I, 0, 0, 0], [0, 0, 1, I, 0]]
    with pytest.raises(ValueError, match="coframe must have 2 rows of 4 entries"):
        ComplexStructureSpec.from_coframe(LieAlgebraSpec(4), _J_STD4, coframe)


def _count_structure_equations(monkeypatch):
    calls = []

    def counted(g, coframe):
        calls.append(coframe)
        return structure_equations(g, coframe)

    monkeypatch.setattr(cxstruct, "structure_equations", counted)
    return calls


def _aab_data():
    a = [[0, 0, 0, -1], [0, 0, -2, 0], [0, 2, 0, 0], [1, 0, 0, 0]]
    return AlmostAbelianData(3, 0, [1, 0, 0, 2], a)


def test_from_matrix_computes_structure_equations_once(monkeypatch):
    g = from_bracket_list(4, [(1, 2, 3, 1)])
    calls = _count_structure_equations(monkeypatch)
    struct = ComplexStructureSpec.from_matrix(g, _J_STD4)
    assert len(calls) == 1
    assert struct.coframe == calls[0]
    assert struct.equations == structure_equations(g, struct.coframe)


@pytest.mark.parametrize("which", ["kt", "almost_abelian"])
def test_from_coframe_on_canonical_coframe_computes_structure_equations_once(monkeypatch, which):
    if which == "kt":
        kt = kodaira_thurston()
        g, J, coframe = kt.g, kt.J, kt.coframe
    else:
        g, J = almost_abelian_algebra(_aab_data())
        coframe = almost_abelian_coframe(_aab_data())
    calls = _count_structure_equations(monkeypatch)
    struct = ComplexStructureSpec.from_coframe(g, J, coframe)
    assert len(calls) == 1
    assert struct.coframe == coframe
    assert struct.equations == structure_equations(g, coframe)


@pytest.mark.parametrize("edit", ["reversed", "scaled"])
def test_from_coframe_on_other_coframe_uses_its_own_equations(monkeypatch, edit):
    g, J = almost_abelian_algebra(_aab_data())
    coframe = almost_abelian_coframe(_aab_data())
    if edit == "reversed":
        coframe = coframe[::-1]
    else:
        coframe = [[x * 2 for x in coframe[0]]] + coframe[1:]
    calls = _count_structure_equations(monkeypatch)
    struct = ComplexStructureSpec.from_coframe(g, J, coframe)
    assert len(calls) == 2 and calls[1] == coframe
    assert struct.coframe == coframe
    assert struct.equations == structure_equations(g, coframe)
    assert struct.equations != ComplexStructureSpec.from_matrix(g, J).equations
