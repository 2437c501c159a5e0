"""Property tests: the exact core agrees with itself across fields and routes."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pklie.exterior import ComplexForm, MultiIndex, combine, monomial
from pklie.linalg import kernel, rref
from pklie.pkahler import real_pp_basis, _combine
from pklie.positivity import gram_basis, gram_matrix, pairing_coefficient
from pklie.scalars import GaussianRational

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
# sparse entries, so that kernels of every dimension come up
entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


@st.composite
def fraction_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(fraction_matrices())
def test_fraction_linear_algebra_matches_gaussian(m):
    as_gr = [[GaussianRational(x) for x in row] for row in m]
    red_f, piv_f = rref(m)
    red_g, piv_g = rref(as_gr)
    assert piv_f == piv_g
    assert red_f == [[x.re for x in row] for row in red_g]
    assert all(not x.im for row in red_g for x in row)
    basis_f = kernel(m)
    basis_g = kernel(as_gr)
    assert all(isinstance(x, Fraction) for v in basis_f for x in v)
    assert basis_f == [[x.re for x in v] for v in basis_g]
    for v in basis_f:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)


@st.composite
def real_pp_forms(draw):
    n = draw(st.integers(2, 4))
    p = draw(st.integers(1, n - 1))
    basis = real_pp_basis(n, p)
    coeffs = [draw(entries) for _ in basis]
    return _combine(basis, coeffs)


@settings(max_examples=60, deadline=None)
@given(real_pp_forms())
def test_table_gram_matches_wedge_pairing(omega):
    if omega.is_zero():
        return
    n = omega.n
    k = n - omega.bidegree()[0]
    basis, h = gram_matrix(omega)
    assert basis == gram_basis(n, k)
    mono = [monomial(n, idx) for idx in basis]
    for a, b in itertools.product(range(len(basis)), repeat=2):
        assert h[a][b] == pairing_coefficient(omega, mono[a], mono[b])


gaussians = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))
# few keys, so that sums cancel often
small_keys = st.sampled_from([MultiIndex((1,), ()), MultiIndex((2,), (1,)), MultiIndex((), (1, 2))])
small_forms = st.dictionaries(small_keys, gaussians, max_size=3).map(lambda t: ComplexForm(2, t))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(gaussians, small_forms), max_size=5))
def test_combine_matches_repeated_addition(pairs):
    out = ComplexForm.zero(2)
    for c, f in pairs:
        out = out + f * c
    combined = combine(2, pairs)
    assert combined == out
    assert list(combined.terms) == list(out.terms)
