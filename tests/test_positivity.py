import itertools
import random
from fractions import Fraction

import pytest

from pklie.exterior import (
    ComplexForm,
    conjugate,
    monomial,
    substitute,
    wedge,
    wedge_all,
)
from pklie.linalg import gr, rank
from pklie.positivity import (
    SearchBudget,
    TransStatus,
    _columns_form,
    check_transverse,
    gram_matrix,
    gram_positive_definite,
    is_simple,
    metric_power_root,
    pairing_coefficient,
    simple_factors,
    volume_coefficient,
)
from pklie.scalars import GaussianRational, I, ONE


def random_decomposable(n, k, rng):
    """Random rational simple (k,0)-form; may be zero for degenerate draws."""
    cols = [
        [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        for _ in range(k)
    ]
    return _columns_form(cols, n)


def std_omega(n):
    out = ComplexForm.zero(n)
    for j in range(1, n + 1):
        out = out + monomial(n, (j,), (j,), I)
    return out


def diag_omega(n, coeffs):
    out = ComplexForm.zero(n)
    for j, c in enumerate(coeffs, start=1):
        out = out + monomial(n, (j,), (j,), gr(c) * I)
    return out


def omega_power(n, p, omega=None):
    omega = omega if omega is not None else std_omega(n)
    acc = ComplexForm.scalar(n, 1)
    fact = 1
    for t in range(1, p + 1):
        acc = wedge(acc, omega)
        fact *= t
    return acc / fact


def test_volume_coefficient_examples():
    assert volume_coefficient(std_omega(2), monomial(2, (1,))) == ONE
    omega = diag_omega(3, [1, 1, -1])
    assert volume_coefficient(omega, monomial(3, (1, 2))) == GaussianRational(-1)
    big = omega_power(4, 2)
    psi = monomial(4, (1, 2)) + monomial(4, (3, 4))
    assert volume_coefficient(big, psi) == GaussianRational(2)


def test_volume_coefficient_is_real_for_real_omega():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.choice([2, 3])
        p = rng.randint(1, n - 1)
        omega = _random_real_pp(n, p, rng)
        psi = random_decomposable(n, n - p, rng)
        if psi.is_zero():
            continue
        assert volume_coefficient(omega, psi).is_real()


def _random_real_pp(n, p, rng):
    out = ComplexForm.zero(n)
    holos = list(itertools.combinations(range(1, n + 1), p))
    for _ in range(4):
        a = rng.choice(holos)
        b = rng.choice(holos)
        c = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        term = monomial(n, a, b, c)
        out = out + term + conjugate(term)
    return out


def test_gram_matrix_standard_power_is_identity():
    basis, h = gram_matrix(omega_power(4, 2))
    assert len(basis) == 6
    for a in range(6):
        for b in range(6):
            assert h[a][b] == (ONE if a == b else GaussianRational(0))
    ok, cert = gram_positive_definite(h)
    assert ok
    assert cert.minors == [Fraction(1)] * 6
    assert all(p == ONE for p in cert.pivots)


def test_gram_indefinite_diagonal():
    omega = wedge(diag_omega(4, [1, 1, 1, -1]), diag_omega(4, [1, 1, 1, 1]))
    # not a clean power; just check that some pairing is negative
    basis, h = gram_matrix(omega)
    ok, _ = gram_positive_definite(h)
    assert not ok


def test_gram_p1_is_coefficient_matrix():
    n = 3
    omega = (
        monomial(n, (1,), (1,), I)
        + monomial(n, (2,), (2,), 2 * I)
        + monomial(n, (1,), (2,), GaussianRational(1, 1))
        + monomial(n, (2,), (1,), GaussianRational(-1, 1))
        + monomial(n, (3,), (3,), I)
    )
    assert omega.is_real()
    basis, h = gram_matrix(omega)
    # the pairing of a (1,1)-form against degree n-1 monomials recovers the
    # Hermitian coefficient matrix: omega = i sum h_jk a^j ^ conj(a^k)
    assert basis == [(1,), (2,), (3,)] or len(basis) == 3


def test_p1_pairing_matches_coefficients():
    # the Gram of a (1,1)-form is the coefficient matrix read at the
    # complementary indices; positive definiteness of one is equivalent to
    # positive definiteness of the other
    n = 2
    h11, h22 = GaussianRational(3), GaussianRational(5)
    h12 = GaussianRational(1, 2)
    omega = (
        monomial(n, (1,), (1,), h11 * I)
        + monomial(n, (2,), (2,), h22 * I)
        + monomial(n, (1,), (2,), h12 * I)
        + monomial(n, (2,), (1,), h12.conjugate() * I)
    )
    assert omega.is_real()
    basis, h = gram_matrix(omega)
    assert h[0][0] == h22 and h[1][1] == h11
    assert h[0][1] == -h12.conjugate() and h[1][0] == -h12
    ok, _ = gram_positive_definite(h)
    assert ok  # h is PD, and so is its complementary pairing
    bad = omega - monomial(n, (1,), (1,), 2 * h11 * I)
    ok2, _ = gram_positive_definite(gram_matrix(bad)[1])
    assert not ok2


def test_check_transverse_standard_form():
    for n in (2, 3, 4):
        verdict = check_transverse(std_omega(n))
        assert verdict.status == TransStatus.TRANSVERSE
        assert verdict.gram is not None
        assert all(m > 0 for m in verdict.gram.minors)


def test_check_transverse_power_via_gram():
    verdict = check_transverse(omega_power(4, 2))
    assert verdict.status == TransStatus.TRANSVERSE


def test_check_transverse_sign_witness():
    # flip one diagonal block so that psi = a^{34} pairs negatively
    n = 4
    omega = omega_power(n, 2) - 2 * wedge(
        monomial(n, (1,), (1,), I), monomial(n, (2,), (2,), I)
    )
    assert volume_coefficient(omega, monomial(n, (3, 4))) == GaussianRational(-1)
    verdict = check_transverse(omega, SearchBudget(restarts=0))
    assert verdict.status == TransStatus.NOT_TRANSVERSE
    w = verdict.witness
    assert w is not None
    psi = w.to_form(n)
    assert volume_coefficient(omega, psi) == w.value
    assert w.value.re <= 0


def test_check_transverse_p1_never_inconclusive():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.choice([2, 3])
        omega = ComplexForm.zero(n)
        for j in range(1, n + 1):
            omega = omega + monomial(n, (j,), (j,), gr(rng.randint(-2, 2)) * I)
        term = monomial(n, (1,), (2,), GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1)))
        omega = omega + term + conjugate(term)
        if not omega.is_real() or omega.bidegree() != (1, 1):
            continue
        verdict = check_transverse(omega, SearchBudget(restarts=0))
        assert verdict.status in (TransStatus.TRANSVERSE, TransStatus.NOT_TRANSVERSE)
        if verdict.status == TransStatus.NOT_TRANSVERSE:
            psi = verdict.witness.to_form(n)
            assert not psi.is_zero()
            assert volume_coefficient(omega, psi) == verdict.witness.value


def test_hierarchy_gram_positive_implies_positive_on_decomposables():
    rng = random.Random(11)
    omega = omega_power(4, 2)
    count = 0
    for _ in range(1000):
        psi = random_decomposable(4, 2, rng)
        if psi.is_zero():
            continue
        count += 1
        assert volume_coefficient(omega, psi).re > 0
    assert count > 900


def test_coframe_invariance_of_sign():
    rng = random.Random(13)
    n = 3
    pairs = []
    for _ in range(10):
        p = rng.randint(1, n - 1)
        omega = _random_real_pp(n, p, rng)
        psi = random_decomposable(n, n - p, rng)
        if psi.is_zero() or omega.is_zero():
            continue
        pairs.append((omega, psi))
    changes = 0
    for omega, psi in pairs:
        base = volume_coefficient(omega, psi)
        for _ in range(50 // len(pairs) + 1):
            t = _random_invertible_complex(n, rng)
            images = [
                sum(
                    (monomial(n, (k + 1,), coeff=t[j][k]) for k in range(n) if not t[j][k].is_zero()),
                    ComplexForm.zero(n),
                )
                for j in range(n)
            ]
            omega2 = substitute(omega, images, n_target=n)
            psi2 = substitute(psi, images, n_target=n)
            val = volume_coefficient(omega2, psi2)
            changes += 1
            assert (val.re > 0) == (base.re > 0)
            assert (val.re < 0) == (base.re < 0)
            assert (val.re == 0) == (base.re == 0)
    assert changes >= 50


def _random_invertible_complex(n, rng):
    while True:
        m = [
            [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(n)
        ]
        if rank(m) == len(m):
            return m


def test_simplicity_detection():
    n = 4
    assert is_simple(monomial(n, (1, 2)))
    assert is_simple(monomial(n, (1,)))
    assert is_simple(monomial(n, (1, 2, 3)))
    mixed = monomial(n, (1, 2)) + monomial(n, (3, 4))
    assert not is_simple(mixed)
    # a decomposable combination: (a1+a3)^(a2+a4)
    psi = wedge(monomial(n, (1,)) + monomial(n, (3,)), monomial(n, (2,)) + monomial(n, (4,)))
    assert is_simple(psi)
    cols = simple_factors(psi)
    assert cols is not None
    rebuilt = wedge_all(
        [
            sum(
                (monomial(n, (j,), coeff=c) for j, c in enumerate(col, start=1) if not c.is_zero()),
                ComplexForm.zero(n),
            )
            for col in cols
        ],
        n,
    )
    assert rebuilt == psi
    assert simple_factors(mixed) is None


def test_numeric_search_finds_hidden_negative():
    # negative direction not visible on coframe monomials: rotate the bad
    # block so the monomial scan stays positive
    n = 4
    omega = omega_power(n, 2) - 3 * wedge(
        monomial(n, (1,), (1,), I), monomial(n, (2,), (2,), I)
    )
    t = [
        [ONE, ONE, GaussianRational(0), GaussianRational(0)],
        [-ONE, ONE, GaussianRational(0), GaussianRational(0)],
        [GaussianRational(0), GaussianRational(0), ONE, ONE],
        [GaussianRational(0), GaussianRational(0), -ONE, ONE],
    ]
    images = [
        sum(
            (monomial(n, (k + 1,), coeff=t[j][k]) for k in range(n) if not t[j][k].is_zero()),
            ComplexForm.zero(n),
        )
        for j in range(n)
    ]
    omega2 = substitute(omega, images, n_target=n)
    assert omega2.is_real()
    verdict = check_transverse(omega2, SearchBudget(restarts=12, steps=200, seed=3))
    if verdict.status == TransStatus.NOT_TRANSVERSE:
        w = verdict.witness
        assert volume_coefficient(omega2, w.to_form(n)) == w.value
        assert w.value.re <= 0
    else:
        assert verdict.status == TransStatus.INCONCLUSIVE


def test_metric_power_root_round_trip_exact():
    m = 3
    omega = diag_omega(m, [1, 1, 1])
    phi = omega_power(m, m - 1, omega)
    root = metric_power_root(phi)
    assert root.exact
    assert root.form == omega


def test_metric_power_root_diagonal_case():
    m = 3
    # diagonal pairing (1,1,4): solution (2,2,1/2)
    phi = ComplexForm.zero(m)
    targets = [Fraction(1), Fraction(1), Fraction(4)]
    blocks = {
        0: wedge(monomial(m, (2,), (2,), I), monomial(m, (3,), (3,), I)),
        1: wedge(monomial(m, (1,), (1,), I), monomial(m, (3,), (3,), I)),
        2: wedge(monomial(m, (1,), (1,), I), monomial(m, (2,), (2,), I)),
    }
    for j, d in enumerate(targets):
        phi = phi + blocks[j] * gr(d)
    root = metric_power_root(phi)
    assert root.exact
    expected = diag_omega(m, [2, 2, Fraction(1, 2)])
    assert root.form == expected


def test_metric_power_root_float_mode():
    m = 3
    phi = ComplexForm.zero(m)
    targets = [Fraction(1), Fraction(1), Fraction(2)]
    blocks = {
        0: wedge(monomial(m, (2,), (2,), I), monomial(m, (3,), (3,), I)),
        1: wedge(monomial(m, (1,), (1,), I), monomial(m, (3,), (3,), I)),
        2: wedge(monomial(m, (1,), (1,), I), monomial(m, (2,), (2,), I)),
    }
    for j, d in enumerate(targets):
        phi = phi + blocks[j] * gr(d)
    root = metric_power_root(phi)
    assert not root.exact
    assert root.residual < 1e-9


def test_metric_power_root_random_exact_round_trips():
    rng = random.Random(17)
    for m in (3, 4):
        for _ in range(10):
            coeffs = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(m)]
            omega = diag_omega(m, coeffs)
            phi = omega_power(m, m - 1, omega)
            root = metric_power_root(phi)
            assert root.exact
            assert root.form == omega


def test_metric_power_root_rejects_indefinite():
    m = 3
    omega = diag_omega(m, [1, 1, -1])
    phi = omega_power(m, m - 1, omega)
    with pytest.raises(ValueError):
        metric_power_root(phi)


def test_verdict_json_round_trip_verification():
    from pklie.positivity import verify_verdict

    omega = omega_power(4, 2)
    verdict = check_transverse(omega)
    assert verify_verdict(omega, verdict.to_json()) == []
    bad = omega_power(4, 2) - 2 * wedge(
        monomial(4, (1,), (1,), I), monomial(4, (2,), (2,), I)
    )
    verdict2 = check_transverse(bad, SearchBudget(restarts=0))
    assert verdict2.status == TransStatus.NOT_TRANSVERSE
    assert verify_verdict(bad, verdict2.to_json()) == []
    # swapping certificates across forms must fail
    assert verify_verdict(bad, verdict.to_json()) != []
    assert verify_verdict(omega, verdict2.to_json()) != []


def test_strong_positivity_constructive():
    from pklie.positivity import verify_strongly_positive

    n = 3
    psi1 = monomial(n, (1, 2))
    psi2 = monomial(n, (1, 3)) + monomial(n, (2, 3))
    omega = (wedge(psi1, psi1.conjugate()) + wedge(psi2, psi2.conjugate())) * gr(1)
    from pklie.scalars import i_power

    omega = omega * i_power(4)  # p = 2: i^{p^2} = i^4 = 1
    assert verify_strongly_positive(omega, [psi1, psi2])
    assert not verify_strongly_positive(omega, [psi1])
    mixed = monomial(n, (1, 2)) + monomial(n, (1, 3))
    # decomposable sum still fine; a genuinely non-simple factor must fail
    not_simple = monomial(4, (1, 2)) + monomial(4, (3, 4))
    assert not verify_strongly_positive(
        wedge(not_simple, not_simple.conjugate()), [not_simple]
    )
