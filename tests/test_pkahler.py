import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import pklie.pkahler as pkahler
from pklie.catalog import build_almost_abelian, build_snn8, named_example
from pklie.cxstruct import ComplexStructureSpec, closed_coframe_obstruction
from pklie.exterior import ComplexForm, form_to_json, form_to_literal, monomial, parse_form, wedge
from pklie.liealg import InvalidAlgebraError
from pklie.pkahler import (
    ObstructionRejected,
    PKVerdict,
    closed_pp_space,
    find_pkahler,
    obstruction_check,
    obstruction_search,
    pp_coordinates,
    verify_report,
    _combine,
)
from pklie.positivity import SearchBudget, TransStatus, volume_coefficient
from pklie.scalars import GaussianRational, I, ONE
from test_acceptance import _random_integrable_data
from test_properties import real_pp_basis


BUDGET = SearchBudget(restarts=12, steps=80, seed=0, witness_cap=12)


def std_power(n, p):
    omega = ComplexForm.zero(n)
    for j in range(1, n + 1):
        omega = omega + monomial(n, (j,), (j,), I)
    acc = ComplexForm.scalar(n, 1)
    fact = 1
    for t in range(1, p + 1):
        acc = wedge(acc, omega)
        fact *= t
    return acc / fact


def test_real_pp_basis_spans_real_forms():
    rng = random.Random(2)
    for n, p in ((2, 1), (3, 1), (3, 2), (4, 2)):
        basis = real_pp_basis(n, p)
        import math

        expected = math.comb(n, p) ** 2
        assert len(basis) == expected
        for f in basis:
            assert f.is_real()
            assert f.bidegree() == (p, p)
        # coordinates round-trip
        coords = [Fraction(rng.randint(-3, 3)) for _ in basis]
        omega = _combine(basis, coords)
        assert pp_coordinates(omega, p) == coords


def test_closed_pp_space_torus_full():
    t3 = named_example("torus3")
    for p in (1, 2):
        closed = closed_pp_space(t3, p)
        import math

        assert len(closed.coords) == math.comb(3, p) ** 2


def test_closed_pp_space_kt():
    kt = named_example("kt")
    closed = closed_pp_space(kt, 1)
    assert len(closed.coords) == 3
    # the closed space excludes i a^{2,2b}: its coefficient vanishes throughout
    for f in closed.forms:
        assert f.coeff((2,), (2,)).is_zero()
        assert kt.d(f).is_zero()


def test_closed_pp_space_matches_real_route():
    # cross-check the equation-based differential against the structure
    # constants route on the real coframe (independent code path)
    from pklie.liealg import ce_differential
    from pklie.exterior import substitute

    iw = named_example("iwasawa")
    n, dim = iw.n, iw.g.dim
    holo_images = []
    anti_images = []
    for j in range(1, n + 1):
        holo_images.append(monomial(dim, (2 * j - 1,)) + monomial(dim, (2 * j,), coeff=I))
        anti_images.append(monomial(dim, (2 * j - 1,)) + monomial(dim, (2 * j,), coeff=-I))
    closed = closed_pp_space(iw, 2)
    count = 0
    for f in closed.forms:
        real_version = substitute(f, holo_images, anti_images, n_target=dim)
        assert ce_differential(iw.g, real_version).is_zero()
        count += 1
    assert count == len(closed.coords)
    # and a non-closed form maps to a non-closed real form
    bad = monomial(n, (3,), (3,), I)
    assert not iw.d(bad).is_zero()
    assert not ce_differential(
        iw.g, substitute(bad, holo_images, anti_images, n_target=dim)
    ).is_zero()


def test_find_pkahler_torus_found():
    t4 = named_example("torus4")
    rep = find_pkahler(t4, 2, BUDGET)
    assert rep.verdict == PKVerdict.FOUND
    assert rep.found_form == std_power(4, 2)
    assert rep.found_certificate.status == TransStatus.TRANSVERSE
    assert t4.d(rep.found_form).is_zero()


def test_find_pkahler_kt_refuted_by_witnesses():
    kt = named_example("kt")
    rep = find_pkahler(kt, 1, BUDGET)
    assert rep.verdict == PKVerdict.REFUTED
    ref = rep.refutation
    assert ref.to_json()["kind"] == "witness_family"
    # re-solve the exact feasibility problem with the stored family
    from pklie.simplex import verify_farkas

    rows = [
        [volume_coefficient(f, psi).re for f in rep.closed_basis]
        for psi in ref.witnesses
    ]
    assert verify_farkas(rows, [Fraction(1)] * len(rows), ref.farkas)


def test_find_pkahler_snn_instance_refuted():
    s = build_snn8(1, (0, 0, 1, 0))
    rep = find_pkahler(s, 2, BUDGET)
    assert rep.verdict == PKVerdict.REFUTED


def _kahlerable_aab(n, seed):
    return build_almost_abelian(_random_integrable_data(n, random.Random(seed), True))


@pytest.mark.parametrize(
    "struct, p",
    [
        pytest.param(named_example(f"torus{n}"), p, id=f"torus{n}-p{p}")
        for n in (2, 3, 4)
        for p in range(1, n)
    ]
    + [
        pytest.param(_kahlerable_aab(n, seed), 1, id=f"aab-n{n}-seed{seed}-p1")
        for n, seed in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
    ],
)
def test_witness_rounds_find_and_certify_without_the_projection(monkeypatch, struct, p):
    # every FOUND in the catalog comes from the projection; skipping it makes
    # the LP point, tested by check_transverse, the one that decides
    monkeypatch.setattr(pkahler, "_project_onto_span", lambda *args: None)
    report = find_pkahler(struct, p, SearchBudget(restarts=20, steps=100, witness_cap=6))
    assert report.verdict == PKVerdict.FOUND
    assert report.found_certificate.status == TransStatus.TRANSVERSE
    assert verify_report(struct, json.loads(json.dumps(report.to_json()))) == []


def test_find_pkahler_rejects_bad_p():
    t2 = named_example("torus2")
    with pytest.raises(ValueError):
        find_pkahler(t2, 2)


def test_obstruction_check_family1():
    rng = random.Random(4)
    for a, b in ((1, 0), (0, 1), (1, 1), (2, 3), ("1/2", "1/3")):
        af, bf = Fraction(str(a)), Fraction(str(b))
        if af < 0 or (af, bf) == (0, 0):
            continue
        tuple_ok = None
        # use the free-parameter pattern (1,1,a,b)
        s = build_snn8(1, (1, 1, af, bf), delta=1)
        beta = monomial(4, (1, 4), (1,), bf) - monomial(4, (1, 3), (2,), af)
        cert = obstruction_check(s, 2, beta)
        expected = monomial(4, (1, 2), (1, 2), af * af + bf * bf)
        assert cert.component == expected
        assert s.d(beta) == expected  # the full differential, not just a part
        assert len(cert.terms) == 1
        c, psi = cert.terms[0]
        assert c.re > 0 and psi == monomial(4, (1, 2))


def test_obstruction_check_family2():
    for tup in ((1, 1, 0, 0, 0), (1, 0, 1, 2, 3), (0, 1, 0, 1, 0)):
        eps, mu = Fraction(tup[0]), Fraction(tup[1])
        s = build_snn8(2, tup)
        beta = monomial(4, (1, 4), (1,)) + monomial(4, (1, 2), (3,), 1 - mu)
        cert = obstruction_check(s, 2, beta)
        coeff = eps - eps * mu - mu
        assert cert.component == monomial(4, (1, 2), (1, 2), coeff)
        assert coeff != 0


def test_obstruction_check_torus_rejected():
    t4 = named_example("torus4")
    beta = monomial(4, (1, 4), (1,))
    with pytest.raises(ObstructionRejected):
        obstruction_check(t4, 2, beta)


def test_obstruction_check_rejects_mixed_signs():
    s = named_example("qn8b")
    # d(a^4 ^ a^{3,3b}) produces opposite-sign diagonal terms against
    # a^{1,3},a^{2,3}; engineered mixed-sign component must be rejected
    beta = wedge(monomial(4, (4,)), monomial(4, (1,), (1,)) - monomial(4, (2,), (2,)))
    from pklie.exterior import bidegree_component

    comp = bidegree_component(s.d(beta), 2, 2)
    if not comp.is_zero():
        diag = {k: v for k, v in comp.terms.items() if k.holo == k.anti}
        signs = {v.re > 0 for v in diag.values() if v.is_real() and not v.is_zero()}
        if len(signs) > 1:
            with pytest.raises(ObstructionRejected):
                obstruction_check(s, 2, beta)


def test_obstruction_search_family1():
    s = build_snn8(1, (0, 0, 1, 0))
    cert = obstruction_search(s, 2)
    assert cert is not None
    # certificate validity was verified inside; check the shape again
    recheck = obstruction_check(s, 2, cert.beta, cert.terms)
    assert recheck.component == cert.component


def test_obstruction_search_qn8_instances():
    for name in ("qn8a", "qn8b", "qn8c"):
        s = named_example(name)
        cert = obstruction_search(s, 2)
        assert cert is not None, name


def test_obstruction_search_torus_none():
    assert obstruction_search(named_example("torus4"), 2) is None
    assert obstruction_search(named_example("torus3"), 1) is None


@pytest.mark.parametrize("p", [0, -1, 3, 7])
def test_obstruction_search_rejects_p_out_of_range(p):
    with pytest.raises(ValueError, match="need 1 <= p < n"):
        obstruction_search(named_example("torus3"), p)


def test_closed_coframe_obstruction():
    iw = named_example("iwasawa")
    res = closed_coframe_obstruction(iw)
    assert res.t == 2 and res.forbidden_p == 1
    t3 = named_example("torus3")
    res2 = closed_coframe_obstruction(t3)
    assert res2.t == 3 and res2.forbidden_p is None
    s = ComplexStructureSpec.from_equations(
        [
            ComplexForm.zero(4),
            ComplexForm.zero(4),
            parse_form("a12", 4),
            parse_form("a1_b1", 4),
        ]
    )
    res3 = closed_coframe_obstruction(s)
    assert res3.t == 2 and res3.forbidden_p == 2


def test_closed_coframe_obstruction_rejects_non_nilpotent():
    s = build_snn8(1, (0, 0, 1, 0))
    with pytest.raises(InvalidAlgebraError):
        closed_coframe_obstruction(s)


def test_report_round_trip_and_verification():
    t4 = named_example("torus4")
    rep = find_pkahler(t4, 2, BUDGET)
    assert verify_report(t4, rep.to_json()) == []
    kt = named_example("kt")
    rep2 = find_pkahler(kt, 1, BUDGET)
    assert verify_report(kt, rep2.to_json()) == []
    # tampering must be detected
    data = rep2.to_json()
    data["verdict"] = PKVerdict.FOUND.value
    data["found_form"] = data["closed_basis"][0]
    assert verify_report(kt, data) != []


def _kt_report_with_basis(edit):
    """A verified kt p = 1 report whose stored closed basis is edit(forms)."""
    kt = named_example("kt")
    data = json.loads(json.dumps(find_pkahler(kt, 1, BUDGET).to_json()))
    forms = closed_pp_space(kt, 1).forms
    assert len(forms) >= 2
    data["closed_basis"] = [form_to_json(f) for f in edit(kt, forms)]
    return kt, data


def _count_row_space_checks(monkeypatch):
    calls = []
    original = pkahler.same_row_space

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(pkahler, "same_row_space", counting)
    return calls


def test_verify_accepts_the_canonical_closed_basis_without_a_row_space_check(monkeypatch):
    calls = _count_row_space_checks(monkeypatch)
    kt, data = _kt_report_with_basis(lambda _s, forms: forms)
    assert verify_report(kt, data) == []
    assert calls == []


def _permute_terms(basis):
    basis[_first_two_term_form(basis)].reverse()


def _split_term(basis):
    term = basis[0][0]
    half = {key: str(Fraction(term[key]) / 2) for key in ("re", "im")}
    basis[0][0:1] = [{**term, **half}, {**term, **half}]


def _add_key(basis):
    basis[0][0]["note"] = "not read"


@pytest.mark.parametrize("edit", [_permute_terms, _split_term, _add_key])
def test_verify_accepts_another_serialization_of_the_canonical_basis_without_a_row_space_check(
    monkeypatch, edit
):
    calls = _count_row_space_checks(monkeypatch)
    kt, data = _kt_report_with_basis(lambda _s, forms: forms)
    edit(data["closed_basis"])
    assert verify_report(kt, data) == []
    assert calls == []


@pytest.mark.parametrize("index", [True, 1.0])
def test_verify_rejects_the_canonical_basis_with_an_index_that_only_equals_an_int(index):
    kt, data = _kt_report_with_basis(lambda _s, forms: forms)
    data["closed_basis"][0][0]["holo"] = [index]
    with pytest.raises(ValueError, match="list of ints"):
        verify_report(kt, data)


def test_verify_accepts_another_basis_of_the_closed_space(monkeypatch):
    calls = _count_row_space_checks(monkeypatch)
    kt, data = _kt_report_with_basis(lambda _s, forms: [forms[0] + forms[1], *forms[1:]])
    assert verify_report(kt, data) == []
    assert calls == [1]


def test_verify_rejects_a_basis_of_another_space_of_the_same_dimension():
    def swap_last(struct, forms):
        # a real (1,1)-form that is not closed, so not in the closed space
        outside = next(f for f in real_pp_basis(struct.n, 1) if not struct.d(f).is_zero())
        return [*forms[:-1], outside]

    kt, data = _kt_report_with_basis(swap_last)
    assert len(data["closed_basis"]) == len(closed_pp_space(kt, 1).forms)
    assert verify_report(kt, data) == ["closed space mismatch"]


def test_verify_rejects_a_closed_basis_one_vector_short():
    kt, data = _kt_report_with_basis(lambda _s, forms: forms[:-1])
    assert verify_report(kt, data) == ["closed space mismatch"]


def _qn8a_p2_golden():
    with open(Path(__file__).parent / "golden" / "qn8a.p2.json") as fh:
        return named_example("qn8a"), json.load(fh)["report"]


def _first_two_term_form(basis):
    """Index of the first stored form with an off-diagonal term and its
    conjugate partner."""
    return next(i for i, form in enumerate(basis) if len(form) == 2)


def test_verify_rejects_a_closed_basis_form_with_a_term_of_another_bidegree():
    s, data = _qn8a_p2_golden()
    assert verify_report(s, data) == []
    data["closed_basis"][0].append({"holo": [1, 2, 3], "anti": [4], "re": "1", "im": "0"})
    assert verify_report(s, data) == ["closed basis holds a form that is not a real (2,2)-form"]


def test_verify_rejects_a_closed_basis_form_without_its_conjugate_partner():
    s, data = _qn8a_p2_golden()
    i = _first_two_term_form(data["closed_basis"])
    data["closed_basis"][i].pop()
    assert verify_report(s, data) == ["closed basis holds a form that is not a real (2,2)-form"]


def test_verify_rejects_a_closed_basis_with_a_duplicate_form():
    s, data = _qn8a_p2_golden()
    data["closed_basis"].append(data["closed_basis"][0])
    assert verify_report(s, data) == ["closed space mismatch"]


def test_verify_rejects_a_closed_basis_with_an_empty_form():
    s, data = _qn8a_p2_golden()
    data["closed_basis"].append([])
    assert verify_report(s, data) == ["closed space mismatch"]


def test_empty_cone_refutation():
    # a structure whose closed (2,2) space vanishes entirely would be
    # refuted trivially; simulate via verification of a fabricated report
    s = named_example("qn8a")
    closed = closed_pp_space(s, 2)
    assert closed.coords  # the real instance is not empty: sanity
    data = {"p": 2, "verdict": "REFUTED", "closed_basis": [], "refutation": {"kind": "empty_cone"}}
    assert verify_report(s, data) != []


def test_iwasawa_balanced_found():
    # the classical balanced example: p = n-1 = 2 structure exists
    iw = named_example("iwasawa")
    rep = find_pkahler(iw, 2, BUDGET)
    assert rep.verdict == PKVerdict.FOUND
    assert rep.found_form == std_power(3, 2)
    assert verify_report(iw, rep.to_json()) == []


def test_nilpotent_non_abelian_instances_not_kahler():
    for name in ("iwasawa", "kt", "qn8a", "h5r"):
        s = named_example(name)
        rep = find_pkahler(s, 1, BUDGET)
        assert rep.verdict == PKVerdict.REFUTED, name


def test_balanced_found_on_snn_family_and_descends():
    s = build_snn8(1, (0, 0, 1, 0))
    rep = find_pkahler(s, 3, BUDGET)
    assert rep.verdict == PKVerdict.FOUND
    assert verify_report(s, rep.to_json()) == []


def test_quasi_nilpotent_balanced_descends_through_quotient():
    from pklie.cxstruct import b_extension_quotient
    from pklie.positivity import check_transverse

    s = named_example("qn8a")
    rep = find_pkahler(s, 3, BUDGET)
    assert rep.verdict == PKVerdict.FOUND
    ext = b_extension_quotient(s, rep.found_form, 3)
    assert ext.quotient.d(ext.omega).is_zero()
    assert check_transverse(ext.omega).status == TransStatus.TRANSVERSE


def test_refutation_survives_random_change_of_basis():
    # the p = 2 refutation is a property of the pair (algebra, J), not of the
    # chosen basis or coframe
    from pklie.liealg import change_basis
    from pklie.linalg import gr, inverse, matmul, rank

    rng = random.Random(0)
    s = build_snn8(1, (0, 0, 1, 0))
    while True:
        m = [[gr(rng.randint(-1, 1)) for _ in range(8)] for _ in range(8)]
        if rank(m) == len(m):
            break
    g2 = change_basis(s.g, m)
    j2 = matmul(matmul(inverse(m), s.J), m)
    s2 = ComplexStructureSpec.from_matrix(g2, j2)
    from pklie.cxstruct import ascending_series, JClass

    assert ascending_series(s2).classification == JClass.SNN
    rep = find_pkahler(s2, 2, SearchBudget(restarts=10, steps=80, witness_cap=6))
    assert rep.verdict == PKVerdict.REFUTED


def _witness_family_report(name):
    struct = named_example(name)
    data = json.loads(json.dumps(find_pkahler(struct, 2, BUDGET).to_json()))
    assert data["refutation"]["kind"] == "witness_family"
    assert verify_report(struct, data) == []
    return struct, data


def _with_extra_witness(data, literal):
    data["refutation"]["witnesses"].append(form_to_json(parse_form(literal, 4)))
    data["refutation"]["farkas"].append("0")
    return data


def test_verify_rejects_non_simple_witness():
    # a^{12} + a^{34} is not decomposable; a zero multiplier keeps Farkas valid
    struct, data = _witness_family_report("snn8f1:0,0,0,1")
    assert "witness is not simple" in verify_report(struct, _with_extra_witness(data, "a12 + a34"))


def test_verify_rejects_witness_of_wrong_bidegree():
    for literal in ("a1", "a1_b2"):
        struct, data = _witness_family_report("snn8f1:0,0,0,1")
        failures = verify_report(struct, _with_extra_witness(data, literal))
        assert "witness is not of bidegree (2,0)" in failures


def _found_report(name, p):
    struct = named_example(name)
    data = json.loads(json.dumps(find_pkahler(struct, p, BUDGET).to_json()))
    assert data["verdict"] == "FOUND"
    assert verify_report(struct, data) == []
    return struct, data


def test_verify_rejects_found_form_of_wrong_bidegree():
    struct, data = _found_report("torus3", 2)
    data["found_form"] += form_to_json(parse_form("a1", 3))
    failures = verify_report(struct, data)
    assert "found form is not of bidegree (2,2)" in failures
    assert "found form is not real" in failures


def test_verify_rejects_found_form_that_is_not_real():
    struct, data = _found_report("torus3", 2)
    data["found_form"] += form_to_json(parse_form("i a12_b13", 3))
    assert verify_report(struct, data) == ["found form is not real"]


@pytest.mark.parametrize(
    "certificate",
    [
        {"status": "INCONCLUSIVE"},
        {"status": "NOT_TRANSVERSE", "witness": {}},
        {},
        {"status": "TRANSVERSE"},
        {"status": "TRANSVERSE", "gram": ["1", "1", "1"]},
        {"status": "TRANSVERSE", "gram": {"minors": ["1", "1", "2"], "pivots": ["1", "1", "2"]}},
    ],
    ids=["inconclusive", "not_transverse", "no_status", "no_gram", "gram_a_list", "minors"],
)
def test_verify_rejects_found_report_without_its_transverse_certificate(monkeypatch, certificate):
    # the golden torus3 p = 1 report is FOUND with minors 1, 1, 1; the form
    # passes the Gram test, which runs once, so only the certificate
    # comparison can fail it
    from pklie import pkahler, positivity

    path = Path(__file__).parent / "golden" / "torus3.p1.json"
    data = json.loads(path.read_text())["report"]
    struct = named_example("torus3")
    calls = []
    original = positivity.gram_positive_definite

    def counted(h):
        calls.append(h)
        return original(h)

    monkeypatch.setattr(pkahler, "gram_positive_definite", counted)
    monkeypatch.setattr(positivity, "gram_positive_definite", counted)
    assert verify_report(struct, data) == []
    assert len(calls) == 1
    data["found_certificate"] = certificate
    assert verify_report(struct, data) != []
