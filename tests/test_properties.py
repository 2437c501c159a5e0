"""Property tests: the exact core agrees with itself across fields and routes."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pklie.pkahler as pkahler
from pklie.catalog import (
    AlmostAbelianData,
    almost_abelian_algebra,
    almost_abelian_equations,
    build_almost_abelian,
    build_snn8,
    named_example,
)
from pklie.cxstruct import (
    ComplexStructureSpec,
    _check_j_square,
    _eigen_coframe,
    _real_algebra,
    _real_to_complex_images,
    nijenhuis_tensor,
)
from pklie.exterior import (
    ComplexForm,
    MultiIndex,
    apply_antiderivation,
    bidegree_component,
    combine,
    conjugate,
    form_from_json,
    form_to_json,
    monomial,
    reference_volume_coefficient,
    substitute,
    wedge,
)
from pklie.liealg import (
    JacobiResult,
    LieAlgebraSpec,
    change_basis,
    check_jacobi,
    from_bracket_list,
    is_unimodular,
)
from pklie.linalg import (
    _kernel_vectors,
    _pivot_rows,
    _sparse_pivot_rows,
    identity,
    inverse,
    kernel,
    mat_from_rows,
    matmul,
    rref,
    solve,
    sparse_kernel,
)
from pklie.pkahler import (
    EmptyConeRefutation,
    PKahlerReport,
    PKVerdict,
    WitnessRefutation,
    _combine,
    _project_onto_span,
    _real_part,
    _standard_power_coords,
    _witness_rows,
    closed_pp_space,
    find_pkahler,
    obstruction_search,
    pp_coordinates,
    real_pp_basis,
)
from pklie.positivity import (
    SearchBudget,
    TransStatus,
    TransversalityVerdict,
    check_transverse,
    gram_basis,
    gram_matrix,
    gram_positive_definite,
    pairing_coefficient,
    volume_coefficient,
)
from pklie.polynomials import char_poly, divmod_poly, minimal_poly, trim
from pklie.scalars import GaussianRational, I, ONE, ZERO, i_power, json_rational, parse_scalar
from pklie.simplex import LPResult, feasibility, verify_farkas
from test_acceptance import _random_integrable_data
from test_cxstruct import _conjugated_pair, _random_invertible, iwasawa, kodaira_thurston, torus
from test_fuzz_pipeline import random_tower

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
def integer_matrices(draw):
    """Int matrices, some with zero rows or rows that are combinations.

    Draws are sparse or fully dense, short or tall (10 rows or more), with
    small entries or entries of 2^40 or more.
    """
    cols = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["sparse", "dense", "huge"]))
    if kind == "sparse":
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 6, 12])
    elif kind == "dense":
        entry = st.sampled_from([1, -1, 2, -3, 6, 12])
    else:
        huge = st.integers(2**40, 2**64)
        entry = st.one_of(st.just(0), huge, huge.map(lambda x: -x), st.sampled_from([1, -2, 3]))
    tall = draw(st.booleans())
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=10 if tall else 1, max_size=14 if tall else 5))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m.insert(draw(st.integers(0, len(m))), [a * x + b * y for x, y in zip(m[i], m[j])])
    return m


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_integer_rref_matches_fraction_rref(m):
    as_fraction = [[Fraction(x) for x in row] for row in m]
    red, pivots = _field_rref_reference(as_fraction)
    assert rref(m) == rref(as_fraction) == (red, pivots)
    assert all(type(x) is Fraction for row in rref(m)[0] for x in row)
    assert kernel(m) == kernel(as_fraction) == _kernel_from_rref_reference(red, pivots, len(m[0]))


def _dense_rref_integer_reference(m):
    """Dense fraction-free Gauss-Jordan: the first row that meets the pivot
    column is the pivot row; every updated row is divided by its content."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        row = a[r]
        pv = row[c]
        support = [j for j in range(c, cols) if row[j]]
        for i in range(rows):
            if i == r or not a[i][c]:
                continue
            other = a[i]
            factor = other[c]
            g = gcd(pv, factor)
            s, t = pv // g, factor // g
            if s != 1:
                other = [s * x for x in other]
            for j in support:
                other[j] -= t * row[j]
            content = gcd(*other)
            if content > 1:
                other = [x // content for x in other]
            a[i] = other
        pivots.append(c)
        r += 1
        if r == rows:
            break
    zero, one = Fraction(0), Fraction(1)
    out = []
    for row, c in zip(a, pivots):
        pv = row[c]
        out.append([Fraction(x, pv) if x else zero for x in row])
        out[-1][c] = one
    out.extend([zero] * cols for _ in range(rows - len(pivots)))
    return out, pivots


def _field_one(m):
    return ONE if any(isinstance(x, GaussianRational) for row in m for x in row) else Fraction(1)


def _field_rref_reference(m):
    """Dense Gauss-Jordan in the field of m (the Gaussian rationals if any
    entry is a GaussianRational, else the rationals): the first row that meets
    the pivot column is the pivot row, scaled to 1, and clears that column
    from every other row."""
    one = _field_one(m)
    a = [[x * one for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        row = a[r]
        inv = one / row[c]
        support = [j for j in range(c, cols) if row[j]]
        for j in support:
            row[j] = row[j] * inv
        for i in range(rows):
            if i == r:
                continue
            other = a[i]
            factor = other[c]
            if factor:
                for j in support:
                    other[j] = other[j] - factor * row[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _kernel_from_rref_reference(red, pivots, cols, one=Fraction(1)):
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [one - one] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_sparse_integer_elimination_matches_dense_reference(m):
    cols = len(m[0])
    red, pivots = _dense_rref_integer_reference(m)
    assert rref(m) == (red, pivots)
    basis = kernel(m)
    assert basis == _kernel_from_rref_reference(red, pivots, cols)
    assert all(type(x) is Fraction for vec in basis for x in vec)
    for vec in basis:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in m)


@st.composite
def field_matrices(draw, square=False):
    """Fraction or GaussianRational matrices, some with zero rows or rows
    that are combinations of others, some with entries of 2^40 or more.

    Fraction draws mix in plain ints; Gaussian draws mix in ints and
    Fractions, and some are real-valued.
    """
    field = draw(st.sampled_from(["fraction", "gaussian", "real gaussian"]))
    huge = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(2**40, 2**64))
    scalar = st.one_of(rationals, huge) if draw(st.booleans()) else rationals
    if field == "fraction":
        entry = st.one_of(st.just(0), st.just(Fraction(0)), scalar, st.integers(-3, 3))
    else:
        part = scalar.map(GaussianRational)
        if field == "gaussian":
            part = st.one_of(part, st.builds(GaussianRational, scalar, scalar), st.just(I))
        entry = st.one_of(st.just(ZERO), part, st.integers(-3, 3), rationals)
    cols = draw(st.integers(1, 6))
    rows = cols if square else draw(st.integers(1, 6))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a, b = draw(entry), draw(entry)
        m[draw(st.integers(0, rows - 1))] = [a * x + b * y for x, y in zip(m[i], m[j])]
    if draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [draw(st.sampled_from([0, ZERO, Fraction(0)]))] * cols
    return m


@settings(max_examples=200, deadline=None)
@given(field_matrices(), st.data())
def test_fraction_free_elimination_matches_field_reference(m, data):
    one = _field_one(m)
    cols = len(m[0])
    red, pivots = _field_rref_reference(m)
    assert rref(m) == (red, pivots)
    assert all(type(x) is type(one) for row in rref(m)[0] for x in row)
    basis = kernel(m)
    assert basis == _kernel_from_rref_reference(red, pivots, cols, one)
    assert all(type(x) is type(one) for vec in basis for x in vec)
    for vec in basis:
        assert all(sum((a * x for a, x in zip(row, vec)), ZERO) == 0 for row in m)

    rhs = st.sampled_from([0, 1, -2, Fraction(1, 3), I])
    b = data.draw(st.lists(rhs, min_size=len(m), max_size=len(m)))
    aug = [[*row, bv] for row, bv in zip(m, b)]
    red, pivots = _field_rref_reference(aug)
    x = solve(m, b)
    if cols in pivots:
        assert x is None
    else:
        one = _field_one(aug)
        expected = [one - one] * cols
        for r, pc in enumerate(pivots):
            expected[pc] = red[r][cols]
        assert x == expected
        assert all(type(v) is type(one) for v in x)


@settings(max_examples=150, deadline=None)
@given(field_matrices(square=True))
def test_inverse_matches_field_reference(m):
    n = len(m)
    one = _field_one(m)
    unit = [[one if i == j else one - one for j in range(n)] for i in range(n)]
    red, pivots = _field_rref_reference([row + unit[i] for i, row in enumerate(m)])
    if pivots != list(range(n)):
        with pytest.raises(ValueError):
            inverse(m)
    else:
        inv = inverse(m)
        assert inv == [row[n:] for row in red]
        assert all(type(x) is type(one) for row in inv for x in row)


@st.composite
def structures(draw):
    """Random nilpotent towers and almost-abelian structures, n <= 4, with 1 <= p < n."""
    n = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        struct = random_tower(n, rng)
    else:
        struct = build_almost_abelian(_random_integrable_data(n, rng, rng.random() < 0.5))
    return struct, draw(st.integers(1, n - 1))


@settings(max_examples=40, deadline=None)
@given(structures())
def test_cached_d_block_is_the_top_part_of_d(case):
    struct, p = case
    n = struct.n
    block = struct.d_pp_block(p)
    combos = list(itertools.combinations(range(1, n + 1), p))
    assert list(block) == [MultiIndex(a, b) for a in combos for b in combos]
    for (a, b), image in block.items():
        assert image == bidegree_component(struct.d(monomial(n, a, b)), p + 1, p)
    assert struct.d_pp_block(p) is block


def _closed_space_reference(struct, p):
    """The kernel of d on real (p,p)-forms computed from full images of d."""
    basis = real_pp_basis(struct.n, p)
    images = [struct.d(f) for f in basis]
    keys = sorted({key for img in images for key in img.terms})
    rows = []
    for key in keys:
        rows.append([img.terms.get(key, ZERO).re for img in images])
        rows.append([img.terms.get(key, ZERO).im for img in images])
    coords = kernel(rows, len(basis)) if rows else identity(len(basis), Fraction(1))
    return coords, [_combine(basis, vec) for vec in coords]


@settings(max_examples=40, deadline=None)
@given(structures())
def test_closed_pp_space_matches_full_image_reference(case):
    struct, p = case
    closed = closed_pp_space(struct, p)
    coords, forms = _closed_space_reference(struct, p)
    assert closed.coords == coords
    assert all(type(x) is Fraction for vec in closed.coords for x in vec)
    assert closed.forms == forms
    assert [list(f.terms) for f in closed.forms] == [list(f.terms) for f in forms]


def _closed_space_route_reference(struct, p):
    """closed_pp_space as first written over the d-block: a combined image per
    column, dense int rows cleared by the lcm of their denominators, the dense
    kernel, and each form combined over all of its coordinates."""
    n = struct.n
    basis = real_pp_basis(n, p)
    block = struct.d_pp_block(p)
    images = [combine(n, ((c, block[key]) for key, c in f.terms.items())) for f in basis]
    sparse_rows = {}
    for col, img in enumerate(images):
        for key, c in img.terms.items():
            for part, x in ((0, c.a), (1, c.b)):
                if x:
                    sparse_rows.setdefault((key, part), {})[col] = Fraction(x, c.d)
    rows = []
    for _, entries in sorted(sparse_rows.items()):
        den = lcm(*(x.denominator for x in entries.values()))
        row = [0] * len(basis)
        for col, x in entries.items():
            row[col] = x.numerator * (den // x.denominator)
        rows.append(row)
    coords = kernel(rows, len(basis)) if rows else identity(len(basis), Fraction(1))
    return coords, [_combine(basis, vec) for vec in coords]


@settings(max_examples=40, deadline=None)
@given(structures())
def test_closed_pp_space_matches_dense_route_reference(case):
    struct, _ = case
    for q in range(struct.n + 1):
        closed = closed_pp_space(struct, q)
        coords, forms = _closed_space_route_reference(struct, q)
        assert closed.coords == coords
        assert all(type(x) is Fraction for vec in closed.coords for x in vec)
        assert closed.forms == forms
        assert [list(f.terms) for f in closed.forms] == [list(f.terms) for f in forms]


@st.composite
def sparse_row_matrices(draw):
    """Rows {column: entry} over nonzero int, Fraction or Gaussian entries
    (Gaussian rows hold only GaussianRational), some of them empty, with their field."""
    field = draw(st.sampled_from(["int", "fraction", "gaussian"]))
    entry = {
        "int": st.integers(-3, 3),
        "fraction": rationals,
        "gaussian": st.one_of(gaussians, st.integers(-2, 2).map(GaussianRational)),
    }[field].filter(bool)
    cols = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, cols - 1), entry, max_size=4)
    return field == "gaussian", cols, draw(st.lists(row, max_size=8))


def _dense_rows(rows, cols, zero):
    return [[row.get(j, zero) for j in range(cols)] for row in rows]


def _sparse_kernel_in_field(rows, cols, gaussian):
    """`sparse_kernel`, or the same elimination entered with Gaussian rows."""
    if gaussian:
        return _kernel_vectors(*_sparse_pivot_rows(rows, cols, True), cols)
    return sparse_kernel(rows, cols)


@settings(max_examples=200, deadline=None)
@given(sparse_row_matrices())
def test_sparse_kernel_matches_dense_reference(case):
    gaussian, cols, rows = case
    zero, one = (ZERO, ONE) if gaussian else (Fraction(0), Fraction(1))
    vectors = _sparse_kernel_in_field(rows, cols, gaussian)
    # the sparse rows as a dense matrix in the same field, all-zero included
    dense = _dense_rows(rows, cols, zero) if rows else [[zero] * cols]
    red, pivots = _field_rref_reference(dense)
    assert _dense_rows(vectors, cols, zero) == _kernel_from_rref_reference(red, pivots, cols, one)
    assert all(type(x) is type(one) and x for vec in vectors for x in vec.values())
    assert all(list(vec) == sorted(vec) for vec in vectors)


def test_sparse_kernel_of_a_zero_gaussian_matrix_is_gaussian():
    basis = kernel([[ZERO] * 3] * 2, 3)
    assert basis == identity(3) and all(type(x) is GaussianRational for v in basis for x in v)
    vectors = _sparse_kernel_in_field([{}, {}], 3, True)
    assert vectors == [{0: ONE}, {1: ONE}, {2: ONE}]
    assert all(type(x) is GaussianRational for v in vectors for x in v.values())


def _hadamard_bound_squared(rows):
    """The square of prod ||row|| over the nonzero rows of a Gaussian-integer
    (or integer) matrix: a bound on |minor|^2 for every square minor."""
    bound = 1
    for row in rows:
        norm = sum(_abs2(x) for x in row)
        if norm:
            bound *= norm
    return bound


def _abs2(x):
    return x.a * x.a + x.b * x.b if isinstance(x, GaussianRational) else x * x


def _cleared(row):
    """The row times the lcm of its denominators: Gaussian integers or ints."""
    if any(isinstance(x, GaussianRational) for x in row):
        den = lcm(*(x.d for x in row))
        return [GaussianRational(x.a * (den // x.d), x.b * (den // x.d)) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


@pytest.mark.parametrize("field", ["gaussian", "fraction"])
def test_pivot_rows_stay_within_the_hadamard_bound(field):
    """Every pivot-row entry of the fraction-free elimination is at most the
    Hadamard bound of the cleared input, on dense matrices up to 14 x 16: a
    pivot row divided by its content divides the Cramer vector of minors on
    the same line of the row space."""
    rng = random.Random(3)
    for m in (4, 6, 8, 10, 12, 14):
        for _ in range(2):
            if field == "gaussian":
                a = [[GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(m + 2)]
                     for _ in range(m)]
            else:
                a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m + 2)]
                     for _ in range(m)]
            bound = _hadamard_bound_squared([_cleared(row) for row in a])
            rows, pivots, _ = _pivot_rows(a, m + 2)
            assert len(pivots) == len(rows)
            for row in rows:
                assert all(_abs2(x) <= bound for x in row.values()), (m, field)


def _dense_projection_reference(x0, basis_vecs):
    """Orthogonal projection coefficients from the dense Fraction Gram matrix."""
    if not basis_vecs:
        return None
    k = len(basis_vecs)

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v)), Fraction(0))

    gram = [[dot(basis_vecs[i], basis_vecs[j]) for j in range(k)] for i in range(k)]
    return solve(gram, [dot(vec, x0) for vec in basis_vecs])


@settings(max_examples=40, deadline=None)
@given(structures(), st.data())
def test_bucketed_projection_matches_dense_reference(case, data):
    struct, p = case
    coords = closed_pp_space(struct, p).coords
    size = len(real_pp_basis(struct.n, p))
    drawn = data.draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=size, max_size=size))
    for x0 in (list(_standard_power_coords(struct.n, p)), [Fraction(x) for x in drawn]):
        proj = _project_onto_span(x0, coords)
        assert proj == _dense_projection_reference(x0, coords)
        if proj is None:
            continue
        residual = list(x0)
        for c, vec in zip(proj, coords):
            residual = [r - c * v for r, v in zip(residual, vec)]
        assert all(sum(r * v for r, v in zip(residual, vec)) == 0 for vec in coords)


@st.composite
def real_pp_forms(draw):
    n = draw(st.integers(2, 4))
    p = draw(st.integers(1, n - 1))
    basis = real_pp_basis(n, p)
    coeffs = [draw(entries) for _ in basis]
    return _combine(basis, coeffs)


def _wedge_pairing_reference(omega, psi, phi):
    """pairing_coefficient as first written: two wedges and a top-degree division."""
    n = omega.n
    bid = omega.bidegree()
    if bid is None or bid[0] != bid[1]:
        raise ValueError("omega must be a homogeneous (p,p)-form")
    k = n - bid[0]
    for test in (psi, phi):
        if not test.is_zero() and test.bidegrees() != {(k, 0)}:
            raise ValueError(f"test form must be a ({k},0)-form")
    w = wedge(wedge(omega, psi), conjugate(phi)) * i_power(k * k)
    top = MultiIndex(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    assert set(w.terms) <= {top}
    return w.terms.get(top, ZERO) / reference_volume_coefficient(n)


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
        assert h[a][b] == _wedge_pairing_reference(omega, mono[a], mono[b])


gaussians = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def pairing_cases(draw):
    """A nonzero real (p,p)-form, 0 <= p <= n <= 4, and two complex (n-p,0)-forms with
    at least two terms each wherever Lambda^{n-p,0} has two monomials."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(0, n))
    basis = real_pp_basis(n, p)
    coeffs = [draw(entries) for _ in basis]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    omega = _combine(basis, coeffs)
    mono = gram_basis(n, n - p)
    nonzero = gaussians.filter(bool)

    def test_form():
        support = draw(st.lists(st.sampled_from(mono), min_size=min(2, len(mono)), unique=True))
        return ComplexForm(n, {MultiIndex(idx, ()): draw(nonzero) for idx in support})

    return omega, test_form(), test_form()


@settings(max_examples=150, deadline=None)
@given(pairing_cases())
def test_table_pairing_matches_wedge_pairing(case):
    omega, psi, phi = case
    assert pairing_coefficient(omega, psi, phi) == _wedge_pairing_reference(omega, psi, phi)
    assert volume_coefficient(omega, psi) == _wedge_pairing_reference(omega, psi, psi)


@settings(max_examples=100, deadline=None)
@given(pairing_cases(), st.sampled_from(["omega_mixed", "omega_pq", "psi", "phi"]), st.data())
def test_pairing_rejects_wrong_bidegree(case, where, data):
    omega, psi, phi = case
    n, p = omega.n, omega.bidegree()[0]
    if where == "omega_mixed":
        # a second bidegree next to (p,p)
        key = data.draw(st.sampled_from([k for k in _keys(n) if k.bidegree != (p, p)]))
        omega = omega + ComplexForm(n, {key: ONE})
    elif where == "omega_pq":
        # one bidegree, but not of type (p,p)
        key = data.draw(st.sampled_from([k for k in _keys(n) if len(k.holo) != len(k.anti)]))
        omega = ComplexForm(n, {key: ONE})
    else:
        key = data.draw(st.sampled_from([k for k in _keys(n) if k.bidegree != (n - p, 0)]))
        wrong = ComplexForm(n, {key: ONE})
        psi, phi = (psi + wrong, phi) if where == "psi" else (psi, phi + wrong)
    with pytest.raises(ValueError):
        _wedge_pairing_reference(omega, psi, phi)
    with pytest.raises(ValueError):
        pairing_coefficient(omega, psi, phi)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))), st.data())
def test_pp_coordinates_invert_the_real_basis(np_, data):
    n, p = np_
    basis = real_pp_basis(n, p)
    x = [data.draw(entries) for _ in basis]
    assert pp_coordinates(_combine(basis, x), p) == x
    basis.append(None)  # callers get a fresh list, never the cached one
    assert len(real_pp_basis(n, p)) == len(basis) - 1


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


def _keys(n, degree=None):
    """Every monomial over a^1..a^n, or those of one total degree."""
    subsets = [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
    return [
        MultiIndex(h, a)
        for h in subsets
        for a in subsets
        if degree is None or len(h) + len(a) == degree
    ]


def forms_over(n, degree=None):
    keys = st.sampled_from(_keys(n, degree))
    return st.dictionaries(keys, gaussians, max_size=4).map(lambda t: ComplexForm(n, t))


def _antiderivation_reference(f, d_holo, d_anti=None):
    """apply_antiderivation as first written: one wedge per term and slot, then combine."""
    if d_anti is None:
        d_anti = [conjugate(g) for g in d_holo]
    pairs = []
    for (holo, anti), c in f.terms.items():
        word = [(j, False) for j in holo] + [(j, True) for j in anti]
        for pos, (j, is_anti) in enumerate(word):
            dgen = d_anti[j - 1] if is_anti else d_holo[j - 1]
            if dgen.is_zero():
                continue
            rest = MultiIndex(
                tuple(holo[:pos] + holo[pos + 1 :]) if not is_anti else holo,
                tuple(anti[: pos - len(holo)] + anti[pos - len(holo) + 1 :])
                if is_anti
                else anti,
            )
            sign = -1 if pos % 2 else 1
            pairs.append((c * sign, wedge(dgen, ComplexForm(f.n, {rest: ONE}))))
    return combine(f.n, pairs)


@st.composite
def antiderivation_cases(draw):
    """A form of mixed bidegree, arbitrary 2-form generator differentials, and
    either explicit conjugate-slot differentials or None for the default."""
    n = draw(st.integers(1, 4))
    two_forms = forms_over(n, 2)
    f = draw(forms_over(n))
    d_holo = draw(st.lists(two_forms, min_size=n, max_size=n))
    d_anti = draw(st.none() | st.lists(two_forms, min_size=n, max_size=n))
    return f, d_holo, d_anti


@settings(max_examples=300, deadline=None)
@given(antiderivation_cases())
def test_antiderivation_matches_wedge_reference(case):
    f, d_holo, d_anti = case
    out = apply_antiderivation(f, d_holo, d_anti)
    ref = _antiderivation_reference(f, d_holo, d_anti)
    assert out == ref
    assert list(out.terms) == list(ref.terms)


@settings(max_examples=40, deadline=None)
@given(structures(), st.data())
def test_struct_d_is_a_graded_derivation_with_square_zero(case, data):
    struct, _ = case
    n = struct.n
    k = data.draw(st.integers(0, 3))
    f = data.draw(forms_over(n, k))
    g = data.draw(forms_over(n))
    d = struct.d
    sign = -1 if k % 2 else 1
    assert d(wedge(f, g)) == wedge(d(f), g) + wedge(f, d(g)) * sign
    assert d(d(g)).is_zero()
    assert d(d(f)).is_zero()


# -- structure construction and the checks on structure constants ---------------


def _real_structure_reference(equations):
    """The real algebra of (1,0) equations as first built: d a^j and its conjugate
    each substituted into the real coframe, then (d a + d conj a)/2 and
    (d a - d conj a)/2i read off as d e^{2j-1} and d e^{2j}."""
    n = len(equations)
    dim = 2 * n
    holo, anti = [], []
    for j in range(1, n + 1):
        holo.append(monomial(dim, (2 * j - 1,)) + monomial(dim, (2 * j,), coeff=I))
        anti.append(monomial(dim, (2 * j - 1,)) + monomial(dim, (2 * j,), coeff=-I))
    entries = []
    for j, eq in enumerate(equations, start=1):
        d_alpha = substitute(eq, holo, anti, n_target=dim)
        d_alpha_bar = substitute(conjugate(eq), holo, anti, n_target=dim)
        two = GaussianRational(2)
        d_re = (d_alpha + d_alpha_bar) / two
        d_im = (d_alpha - d_alpha_bar) / (two * I)
        for k, dform in ((2 * j - 1, d_re), (2 * j, d_im)):
            for (pair, _), coeff in dform.terms.items():
                assert coeff.is_real()
                entries.append((pair[0], pair[1], k, -coeff.re))
    return from_bracket_list(dim, entries)


def _complex_images_reference(coframe, dim, n):
    """e^m over a^j, conj(a^j) from the Gaussian inverse of [C; conj C]."""
    big = [list(row) for row in coframe] + [[c.conjugate() for c in row] for row in coframe]
    binv = inverse(big)
    images = []
    for m in range(dim):
        terms = {}
        for j in range(n):
            if binv[m][j]:
                terms[MultiIndex((j + 1,), ())] = binv[m][j]
            if binv[m][n + j]:
                terms[MultiIndex((), (j + 1,))] = binv[m][n + j]
        images.append(ComplexForm(n, terms))
    return images


def _ad_trace_unimodular_reference(g):
    """tr ad(e_i) = 0 for every i, from the full ad matrices."""
    for i in range(1, g.dim + 1):
        ad = g.ad_matrix(i)
        if sum((ad[k][k] for k in range(g.dim)), Fraction(0)):
            return False
    return True


def _jacobi_reference(g):
    """check_jacobi as first written, through `bracket_basis` on every lookup."""
    n = g.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                acc = [Fraction(0)] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, coeff in g.bracket_basis(a, b).items():
                        for t, c2 in g.bracket_basis(m, c).items():
                            acc[t - 1] += coeff * c2
                if any(acc):
                    return JacobiResult(False, (i, j, k), acc)
    return JacobiResult(True)


@st.composite
def integrable_equations(draw):
    """(1,0) equations of every kind the engine builds from: random nilpotent
    towers, almost-abelian data (unimodular or not) and hypothesis-drawn
    (2,0)+(1,1) forms, which mostly fail Jacobi."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["tower", "almost_abelian", "drawn"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "tower":
        return random_tower(n, rng).equations
    if kind == "almost_abelian" and n >= 2:
        data = _random_integrable_data(n, rng, rng.random() < 0.5)
        data.lam += draw(st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
        return almost_abelian_equations(data)
    keys = [k for k in _keys(n, 2) if k.bidegree != (0, 2)]
    if not keys:
        return [ComplexForm.zero(n)] * n
    two_forms = st.dictionaries(st.sampled_from(keys), gaussians, max_size=3)
    return [ComplexForm(n, draw(two_forms)) for _ in range(n)]


def _nested_items(g):
    return [(ij, list(comp.items())) for ij, comp in g.brackets.items()]


@settings(max_examples=120, deadline=None)
@given(integrable_equations())
def test_real_algebra_matches_two_substitution_reference(equations):
    g = _real_algebra(equations)
    ref = _real_structure_reference(equations)
    assert g == ref
    assert _nested_items(g) == _nested_items(ref)
    assert is_unimodular(g) == _ad_trace_unimodular_reference(g)
    assert check_jacobi(g) == _jacobi_reference(g)
    if check_jacobi(g):
        struct = ComplexStructureSpec.from_equations(equations)
        assert _nested_items(struct.g) == _nested_items(ref)


def _coframes(struct):
    yield struct.coframe
    yield _eigen_coframe(struct.g, struct.J)


@settings(max_examples=60, deadline=None)
@given(structures())
def test_real_field_inverse_matches_gaussian_inverse(case):
    struct, _ = case
    dim, n = struct.g.dim, struct.n
    for coframe in _coframes(struct):
        images = _real_to_complex_images(coframe)
        ref = _complex_images_reference(coframe, dim, n)
        assert images == ref
        assert [list(f.terms) for f in images] == [list(f.terms) for f in ref]


@st.composite
def bracket_tables(draw):
    """Antisymmetric bracket tables, dim <= 6, with no Jacobi condition; half of
    them are made unimodular with trace terms of both signs."""
    dim = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    if not pairs:
        return LieAlgebraSpec(dim)
    comps = st.dictionaries(st.integers(1, dim), rationals, max_size=3)
    table = draw(st.dictionaries(st.sampled_from(pairs), comps, max_size=5))
    g = LieAlgebraSpec(dim, table)
    if draw(st.booleans()):
        # cancel tr ad(e_i) through the e_j part of [e_i, e_j], which is
        # stored with a minus sign when j < i
        for i in range(1, dim + 1):
            trace = sum(g.ad_matrix(i)[k][k] for k in range(dim))
            j = draw(st.sampled_from([x for x in range(1, dim + 1) if x != i]))
            comp = table.setdefault((min(i, j), max(i, j)), {})
            comp[j] = comp.get(j, 0) + (trace if j < i else -trace)
        g = LieAlgebraSpec(dim, table)
        assert _ad_trace_unimodular_reference(g)
    return g


@settings(max_examples=200, deadline=None)
@given(bracket_tables())
def test_unimodular_and_jacobi_match_references_on_any_brackets(g):
    assert is_unimodular(g) == _ad_trace_unimodular_reference(g)
    assert check_jacobi(g) == _jacobi_reference(g)


@settings(max_examples=60, deadline=None)
@given(structures(), st.data())
def test_jacobi_matches_reference_with_one_broken_bracket(case, data):
    struct, _ = case
    g = struct.g
    assert check_jacobi(g).ok
    dim = g.dim
    i = data.draw(st.integers(1, dim - 1))
    j = data.draw(st.integers(i + 1, dim))
    k = data.draw(st.integers(1, dim))
    brackets = {ij: dict(comp) for ij, comp in g.brackets.items()}
    comp = brackets.setdefault((i, j), {})
    comp[k] = comp.get(k, 0) + data.draw(rationals.filter(bool))
    broken = LieAlgebraSpec(dim, brackets)
    assert check_jacobi(broken) == _jacobi_reference(broken)
    assert is_unimodular(broken) == _ad_trace_unimodular_reference(broken)


def _sparse_gram_reference(grams, coords):
    """Gram matrix of sum c_r omega_r, accumulated entrywise from the basis Gram matrices."""
    size = len(grams[0])
    re = [[Fraction(0)] * size for _ in range(size)]
    im = [[Fraction(0)] * size for _ in range(size)]
    for c, h in zip(coords, grams):
        if c:
            for a, row in enumerate(h):
                for b, v in enumerate(row):
                    re[a][b] += c * v.re
                    im[a][b] += c * v.im
    return [[GaussianRational(x, y) for x, y in zip(rr, ir)] for rr, ir in zip(re, im)]


@settings(max_examples=60, deadline=None)
@given(structures(), st.data())
def test_gram_of_combined_form_matches_sparse_accumulation(case, data):
    """find_pkahler tests a candidate by the Gram matrix of the combined form;
    gram_matrix is linear in omega, so this is the basis Gram matrices summed."""
    struct, p = case
    closed = closed_pp_space(struct, p)
    if not closed.coords:
        return
    grams = [gram_matrix(f)[1] for f in closed.forms]
    k = len(grams)
    vectors = st.lists(st.integers(-2, 2).map(Fraction), min_size=k, max_size=k)
    coords = data.draw(vectors.filter(any))
    reference = _sparse_gram_reference(grams, coords)
    h = gram_matrix(_combine(closed.forms, coords))[1]
    assert h == reference
    ok, cert = gram_positive_definite(h)
    ok_ref, cert_ref = gram_positive_definite(reference)
    assert ok == ok_ref
    if ok:
        assert cert.to_json() == cert_ref.to_json()
    else:
        assert cert == cert_ref


def _gram_diagonal_rows(grams):
    """The monomial-witness LP rows as first built: the real part of each
    Gram diagonal entry, over the closed basis."""
    return [[_real_part(h[a][a]) for h in grams] for a in range(len(grams[0]))]


def _typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


@settings(max_examples=60, deadline=None)
@given(structures(), st.data())
def test_functional_witness_rows_match_gram_diagonal_and_volume_pairing(case, data):
    struct, p = case
    n, k = struct.n, struct.n - p
    forms = closed_pp_space(struct, p).forms
    if not forms:
        return
    monomials = [monomial(n, idx) for idx in gram_basis(n, k)]
    rows = _witness_rows(forms, monomials, k)
    assert _typed(rows) == _typed(_gram_diagonal_rows([gram_matrix(f)[1] for f in forms]))
    support = data.draw(st.lists(st.sampled_from(gram_basis(n, k)), unique=True))
    psi = ComplexForm(n, {MultiIndex(idx, ()): data.draw(gaussians) for idx in support})
    expected = [[_real_part(volume_coefficient(f, psi)) for f in forms]]
    assert _typed(_witness_rows(forms, [psi], k)) == _typed(expected)


@settings(max_examples=60, deadline=None)
@given(structures(), st.integers(0, 3))
def test_infeasible_monomial_lp_rules_out_every_candidate(case, seed):
    """An infeasible monomial-witness LP leaves no closed form with a positive
    definite Gram matrix: the projection of the standard power, the unit
    vectors and seeded random combinations all fail the Gram test."""
    struct, p = case
    n = struct.n
    closed = closed_pp_space(struct, p)
    if not closed.coords:
        return
    grams = [gram_matrix(f)[1] for f in closed.forms]
    rows = _gram_diagonal_rows(grams)
    if feasibility(rows, [Fraction(1)] * len(rows)).feasible:
        return
    k_dim = len(closed.coords)
    budget = SearchBudget(seed=seed)
    rng = random.Random(budget.seed)
    candidates = [_project_onto_span(_standard_power_coords(n, p), closed.coords)]
    candidates += identity(k_dim, Fraction(1))
    candidates += [
        [Fraction(rng.randint(-2, 2)) for _ in range(k_dim)]
        for _ in range(min(budget.restarts, 16))
    ]
    size = len(grams[0])
    for cand in filter(any, candidates):
        h = [
            [sum((g[a][b] * c for c, g in zip(cand, grams)), ZERO) for b in range(size)]
            for a in range(size)
        ]
        assert not gram_positive_definite(h)[0]
    report = find_pkahler(struct, p, budget)
    assert report.verdict == PKVerdict.REFUTED
    assert report.stats["witness_rounds"] == 1


@settings(max_examples=40, deadline=None)
@given(structures())
def test_vanishing_diagonal_zeroes_an_lp_row_and_rules_out_the_projection(case):
    """A diagonal coordinate that is 0 on the whole closed space gives its
    monomial witness an all-zero LP row, so the monomial LP is infeasible and
    the projection of the standard power fails the Gram test."""
    struct, _ = case
    n = struct.n
    for p in range(1, n):
        closed = closed_pp_space(struct, p)
        vanishing = [
            a
            for a in itertools.combinations(range(1, n + 1), p)
            if all(MultiIndex(a, a) not in f.terms for f in closed.forms)
        ]
        if not closed.coords or not vanishing:
            continue
        rows = _gram_diagonal_rows([gram_matrix(f)[1] for f in closed.forms])
        position = {idx: a for a, idx in enumerate(gram_basis(n, n - p))}
        for a in vanishing:
            complement = tuple(j for j in range(1, n + 1) if j not in a)
            assert not any(rows[position[complement]])
        assert not feasibility(rows, [Fraction(1)] * len(rows)).feasible
        proj = _project_onto_span(_standard_power_coords(n, p), closed.coords)
        if proj is not None and any(proj):
            omega = _combine(closed.forms, proj)
            assert not gram_positive_definite(gram_matrix(omega)[1])[0]


def _project_first_reference(struct, p, budget):
    """find_pkahler as it was before the diagonal test: the projection of the
    standard power is Gram-tested on every nonzero closed space."""
    n = struct.n
    closed = closed_pp_space(struct, p)
    stats = {"closed_dim": len(closed.coords), **budget.config_json()}
    report = PKahlerReport(p, PKVerdict.INCONCLUSIVE, closed.forms, stats=stats)

    def decided(verdict, rounds=None, refutation=None, form=None, cert=None):
        report.verdict, report.refutation = verdict, refutation
        report.found_form, report.found_certificate = form, cert
        if rounds is not None:
            report.stats["witness_rounds"] = rounds
        return report

    if not closed.coords:
        return decided(PKVerdict.REFUTED, refutation=EmptyConeRefutation())
    proj = _project_onto_span(_standard_power_coords(n, p), closed.coords)
    if proj is not None and any(proj):
        omega = _combine(closed.forms, proj)
        ok, cert = gram_positive_definite(gram_matrix(omega)[1])
        if ok:
            transverse = TransversalityVerdict(TransStatus.TRANSVERSE, gram=cert)
            return decided(PKVerdict.FOUND, form=omega, cert=transverse)
    witnesses = [monomial(n, idx) for idx in gram_basis(n, n - p)]
    rows = _witness_rows(closed.forms, witnesses, n - p)
    harvest = SearchBudget(
        restarts=max(2, budget.restarts // 20),
        steps=max(50, budget.steps // 5),
        seed=budget.seed,
        step_tol=budget.step_tol,
    )
    for round_idx in range(budget.witness_cap):
        res = feasibility(rows, [Fraction(1)] * len(rows))
        if not res.feasible:
            refutation = WitnessRefutation(witnesses, res.farkas_ge)
            return decided(PKVerdict.REFUTED, round_idx + 1, refutation)
        if round_idx == 0 and (obstruction := obstruction_search(struct, p)) is not None:
            return decided(PKVerdict.REFUTED, 1, obstruction)
        omega = _combine(closed.forms, res.point)
        verdict = check_transverse(omega, harvest)
        if verdict.status == TransStatus.TRANSVERSE:
            return decided(PKVerdict.FOUND, form=omega, cert=verdict)
        if verdict.status == TransStatus.INCONCLUSIVE:
            return decided(PKVerdict.INCONCLUSIVE, round_idx + 1)
        psi = verdict.witness.to_form(n)
        witnesses.append(psi)
        rows += _witness_rows(closed.forms, [psi], n - p)
    return report


@settings(max_examples=40, deadline=None)
@given(structures(), st.integers(0, 3))
def test_find_pkahler_matches_project_first_reference(case, seed):
    struct, _ = case
    budget = SearchBudget(restarts=20, steps=100, seed=seed, witness_cap=6)
    for p in range(1, struct.n):
        expected = _project_first_reference(struct, p, budget).to_json()
        assert find_pkahler(struct, p, budget).to_json() == expected


def _check_obstruction_dominated(struct, p) -> bool:
    """If obstruction_search finds a certificate, the monomial-witness LP is
    already infeasible, so find_pkahler refutes in witness round 1 before its
    own obstruction search could; returns whether a certificate was found."""
    if obstruction_search(struct, p) is None:
        return False
    report = find_pkahler(struct, p, SearchBudget(restarts=20, steps=100, witness_cap=6))
    assert report.verdict == PKVerdict.REFUTED
    closed = closed_pp_space(struct, p)
    if not closed.coords:
        assert report.refutation.to_json()["kind"] == "empty_cone"
        return True
    rows = _gram_diagonal_rows([gram_matrix(f)[1] for f in closed.forms])
    assert not feasibility(rows, [Fraction(1)] * len(rows)).feasible
    assert report.refutation.to_json()["kind"] == "witness_family"
    assert report.stats["witness_rounds"] == 1
    return True


@settings(max_examples=60, deadline=None)
@given(structures())
def test_obstruction_certificate_implies_infeasible_monomial_lp(case):
    _check_obstruction_dominated(*case)


_SNN8_FAMILY = [
    (1, (0, 0, 0, 1), 1),
    (1, (0, 0, 1, 0), 1),
    (1, (0, 0, 1, 1), -1),
    (1, (0, 1, 0, 1), 1),
    (1, (0, 1, 1, Fraction(1, 2)), 1),
    (1, (1, 0, 0, 1), 1),
    (1, (1, 1, 1, 1), 1),
    (2, (1, 1, 0, 0, 0), 1),
    (2, (1, 0, 1, 1, 1), 1),
    (2, (1, 0, 0, 0, 2), 1),
    (2, (1, 0, 0, 1, -1), 1),
    (2, (0, 1, 0, 1, 0), 1),
]


def test_obstruction_certificates_on_snn8_families_imply_infeasible_monomial_lp():
    structs = [build_snn8(*args) for args in _SNN8_FAMILY]
    structs += [named_example(name) for name in ("qn8a", "qn8b", "qn8c")]
    found = sum(_check_obstruction_dominated(s, p) for s in structs for p in (1, 2, 3))
    assert found >= len(structs) * 2  # every instance has certificates at p = 1 and 2


def _dense_feasibility_reference(a_ge, b_ge, a_eq=(), b_eq=()):
    """Phase-one simplex with Bland's rule on a dense tableau: every pivot
    updates every column of every row and of the objective."""
    a_ge = [[Fraction(x) for x in row] for row in a_ge]
    a_eq = [[Fraction(x) for x in row] for row in a_eq]
    b_ge = [Fraction(x) for x in b_ge]
    b_eq = [Fraction(x) for x in b_eq]
    rows = a_ge + a_eq
    if not rows:
        return LPResult(True, [])
    nv, n_ge, m = len(rows[0]), len(a_ge), len(rows)
    rhs = b_ge + b_eq
    n_cols = 2 * nv + n_ge + m
    tableau = []
    flips = []
    for i in range(m):
        flip = -1 if rhs[i] < 0 else 1
        flips.append(flip)
        row = [flip * c for c in rows[i]] + [-flip * c for c in rows[i]]
        slack = [Fraction(0)] * n_ge
        if i < n_ge:
            slack[i] = Fraction(-flip)
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(row + slack + art + [flip * rhs[i]])
    obj = [Fraction(0)] * (n_cols + 1)
    for i in range(m):
        for j in range(n_cols + 1):
            obj[j] += tableau[i][j]
    for j in range(2 * nv + n_ge, n_cols):
        obj[j] -= Fraction(1)
    basis = [2 * nv + n_ge + i for i in range(m)]
    while True:
        enter = next((j for j in range(n_cols) if obj[j] > 0), None)
        if enter is None:
            break
        best_row = best_ratio = None
        for r in range(m):
            coeff = tableau[r][enter]
            if coeff > 0:
                ratio = tableau[r][n_cols] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_ratio, best_row = ratio, r
        inv = Fraction(1) / tableau[best_row][enter]
        prow = tableau[best_row] = [x * inv for x in tableau[best_row]]
        for r in range(m):
            if r != best_row and tableau[r][enter]:
                factor = tableau[r][enter]
                tableau[r] = [x - factor * y for x, y in zip(tableau[r], prow)]
        factor = obj[enter]
        obj = [x - factor * y for x, y in zip(obj, prow)]
        basis[best_row] = enter
    if obj[n_cols] == 0:
        x = [Fraction(0)] * (2 * nv)
        for r, b in enumerate(basis):
            if b < 2 * nv:
                x[b] = tableau[r][n_cols]
        return LPResult(True, [x[j] - x[nv + j] for j in range(nv)])
    y = [flips[i] * (obj[2 * nv + n_ge + i] + 1) for i in range(m)]
    assert _dense_farkas_reference(a_ge, b_ge, y[:n_ge], a_eq, b_eq, y[n_ge:])
    return LPResult(False, None, y[:n_ge], y[n_ge:])


def _dense_farkas_reference(a_ge, b_ge, y_ge, a_eq=(), b_eq=(), y_eq=()):
    """Farkas check that multiplies every multiplier into every entry."""
    if any(y < 0 for y in y_ge):
        return False
    nv = len(a_ge[0]) if a_ge else (len(a_eq[0]) if a_eq else 0)
    combo = [Fraction(0)] * nv
    for yi, row in list(zip(y_ge, a_ge)) + list(zip(y_eq, a_eq)):
        for j in range(nv):
            combo[j] += Fraction(yi) * Fraction(row[j])
    if any(combo):
        return False
    pairs = list(zip(y_ge, b_ge)) + list(zip(y_eq, b_eq))
    return sum(Fraction(yi) * Fraction(bi) for yi, bi in pairs) > 0


@st.composite
def lp_systems(draw):
    """Sparse >= and = systems with right-hand sides of both signs; some have an
    all-zero row, and some a row -x_k >= t > 0 that only a negative free
    variable meets."""
    nv = draw(st.integers(1, 5))
    row = st.lists(entries, min_size=nv, max_size=nv)
    a_ge = draw(st.lists(row, max_size=5))
    a_eq = draw(st.lists(row, max_size=3))
    if draw(st.booleans()):
        a_ge.append([Fraction(0)] * nv)
    if draw(st.booleans()):
        k = draw(st.integers(0, nv - 1))
        a_ge.append([Fraction(-1 if j == k else 0) for j in range(nv)])
    b_ge = draw(st.lists(rationals, min_size=len(a_ge), max_size=len(a_ge)))
    b_eq = draw(st.lists(rationals, min_size=len(a_eq), max_size=len(a_eq)))
    if draw(st.booleans()) and a_ge:
        b_ge[-1] = draw(rationals.filter(lambda t: t > 0))
    return a_ge, b_ge, a_eq, b_eq


@settings(max_examples=300, deadline=None)
@given(lp_systems(), st.data())
def test_sparse_simplex_matches_dense_reference(system, data):
    """Skipping zero entries changes no rational of the tableau, so Bland's rule
    makes the same pivots: the point and the Farkas vector are equal."""
    a_ge, b_ge, a_eq, b_eq = system
    res = feasibility(a_ge, b_ge, a_eq, b_eq)
    assert res == _dense_feasibility_reference(a_ge, b_ge, a_eq, b_eq)
    multipliers = st.lists(entries, min_size=len(a_ge), max_size=len(a_ge))
    y_ge = data.draw(multipliers)
    y_eq = data.draw(st.lists(entries, min_size=len(a_eq), max_size=len(a_eq)))
    cases = [(y_ge, y_eq)]
    if not res.feasible:
        cases.append((res.farkas_ge, res.farkas_eq))
        cases.append(([y + abs(z) for y, z in zip(res.farkas_ge, y_ge)], res.farkas_eq))
    for y_ge, y_eq in cases:
        assert verify_farkas(a_ge, b_ge, y_ge, a_eq, b_eq, y_eq) == _dense_farkas_reference(
            a_ge, b_ge, y_ge, a_eq, b_eq, y_eq
        )


def _fraction_simplex_reference(a_ge, b_ge, a_eq=(), b_eq=()):
    """Phase-one simplex with Bland's rule on a Fraction tableau, each pivot
    scaling the pivot row and subtracting its nonzero entries from the rows
    (and the objective) that meet its column."""
    a_ge = [[Fraction(x) for x in row] for row in a_ge]
    a_eq = [[Fraction(x) for x in row] for row in a_eq]
    b_ge = [Fraction(x) for x in b_ge]
    b_eq = [Fraction(x) for x in b_eq]
    rows = a_ge + a_eq
    if not rows:
        return LPResult(True, [])
    nv, n_ge, m = len(rows[0]), len(a_ge), len(rows)
    rhs = b_ge + b_eq
    n_cols = 2 * nv + n_ge + m
    zero = Fraction(0)
    tableau = []
    for i in range(m):
        flip = rhs[i] < 0
        row = [zero] * (n_cols + 1)
        for j, c in enumerate(rows[i]):
            if c:
                row[j], row[nv + j] = (-c, c) if flip else (c, -c)
        if i < n_ge:
            row[2 * nv + i] = Fraction(1 if flip else -1)
        row[2 * nv + n_ge + i] = Fraction(1)
        row[n_cols] = -rhs[i] if flip else rhs[i]
        tableau.append(row)
    obj = [zero] * (n_cols + 1)
    for row in tableau:
        for j, c in enumerate(row):
            if c:
                obj[j] += c
    for j in range(2 * nv + n_ge, n_cols):
        obj[j] -= Fraction(1)
    basis = [2 * nv + n_ge + i for i in range(m)]
    while True:
        enter = next((j for j in range(n_cols) if obj[j] > 0), None)
        if enter is None:
            break
        best_row = best_ratio = None
        for r in range(m):
            coeff = tableau[r][enter]
            if coeff > 0:
                ratio = tableau[r][n_cols] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_ratio, best_row = ratio, r
        inv = Fraction(1) / tableau[best_row][enter]
        prow = tableau[best_row] = [x * inv if x else x for x in tableau[best_row]]
        nonzero = [(j, y) for j, y in enumerate(prow) if y]
        for row in tableau + [obj]:
            factor = row[enter]
            if factor and row is not prow:
                for j, y in nonzero:
                    row[j] -= factor * y
        basis[best_row] = enter
    if obj[n_cols] == 0:
        x = [zero] * (2 * nv)
        for r, b in enumerate(basis):
            if b < 2 * nv:
                x[b] = tableau[r][n_cols]
        return LPResult(True, [x[j] - x[nv + j] for j in range(nv)])
    y = [obj[2 * nv + n_ge + i] + 1 for i in range(m)]
    y = [-v if b < 0 else v for v, b in zip(y, rhs)]
    assert _dense_farkas_reference(a_ge, b_ge, y[:n_ge], a_eq, b_eq, y[n_ge:])
    return LPResult(False, None, y[:n_ge], y[n_ge:])


# entries over several denominators, so that rows get different common ones
mixed_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 5, 6, 7]))


@st.composite
def tied_lp_systems(draw):
    """>= and = systems with mixed denominators and right-hand sides of both
    signs; some have zero rows, and some repeat a row times a positive
    factor, rhs included, so that two rows tie in the ratio test."""
    nv = draw(st.integers(1, 5))
    row = st.lists(st.one_of(st.just(Fraction(0)), mixed_rationals), min_size=nv, max_size=nv)
    a_ge = draw(st.lists(row, min_size=1, max_size=5))
    a_eq = draw(st.lists(row, max_size=3))
    b_ge = draw(st.lists(mixed_rationals, min_size=len(a_ge), max_size=len(a_ge)))
    b_eq = draw(st.lists(mixed_rationals, min_size=len(a_eq), max_size=len(a_eq)))
    if draw(st.booleans()):
        a_ge.append([Fraction(0)] * nv)
        b_ge.append(draw(mixed_rationals))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(a_ge) - 1))
        c = draw(mixed_rationals.filter(lambda t: t > 0))
        a_ge.append([c * x for x in a_ge[i]])
        b_ge.append(c * b_ge[i])
    return a_ge, b_ge, a_eq, b_eq


@settings(max_examples=300, deadline=None)
@given(tied_lp_systems())
def test_integer_simplex_matches_fraction_reference(system):
    """Rows of ints over a positive denominator hold the Fraction tableau's
    rationals, so Bland's rule makes the same pivots: the flag, the point
    and both Farkas vectors are equal."""
    assert feasibility(*system) == _fraction_simplex_reference(*system)


def test_integer_simplex_matches_fraction_reference_on_aab_obstruction_lp(monkeypatch):
    """The obstruction_search LP of the INCONCLUSIVE almost-abelian item of
    the benchmark set (3 >= rows, 14 = rows, 36 variables)."""
    data = AlmostAbelianData(
        3, -2, [-1, -2, 0, 1], [[2, 0, 2, 0], [-2, -1, -2, 1], [-1, 2, -1, -2], [0, -2, 0, 2]]
    )
    systems = []

    def recording(*system):
        systems.append(system)
        return feasibility(*system)

    monkeypatch.setattr(pkahler, "feasibility", recording)
    assert obstruction_search(build_almost_abelian(data), 1) is None
    (system,) = systems
    res = feasibility(*system)
    assert not res.feasible
    assert res == _fraction_simplex_reference(*system)


def _dense_nijenhuis_reference(g, J):
    """N(e_i, e_j) with J applied as a dense Fraction matrix and dense brackets."""
    dim = g.dim
    jf = [[entry.re for entry in row] for row in J]

    def jcol(i):
        return [jf[k][i - 1] for k in range(dim)]

    def japply(v):
        return [sum((jf[k][m] * v[m] for m in range(dim)), Fraction(0)) for k in range(dim)]

    basis = [[Fraction(1) if m == i else Fraction(0) for m in range(dim)] for i in range(dim)]
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            x, y = basis[i - 1], basis[j - 1]
            jx, jy = jcol(i), jcol(j)
            term = g.bracket(jx, jy)
            term = [a - b for a, b in zip(term, japply(g.bracket(jx, y)))]
            term = [a - b for a, b in zip(term, japply(g.bracket(x, jy)))]
            term = [a - b for a, b in zip(term, g.bracket(x, y))]
            if any(term):
                return False, (i, j), term
    return True, None, None


def _dense_j_square_reference(J):
    sq = matmul(J, J)
    return all(sq[i][j] == (-ONE if i == j else ZERO) for i in range(len(J)) for j in range(len(J)))


def _dense_commutes_reference(data):
    a = mat_from_rows(data.A)
    j1 = mat_from_rows(data.j1_matrix())
    return matmul(a, j1) == matmul(j1, a)


# J on h3 + R that mixes the center with the derived algebra: J^2 = -Id, N != 0
_H3R_BAD_J = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]


@st.composite
def nijenhuis_cases(draw):
    """(g, J) in a random rational basis, so that J is dense with non-unit
    rationals: kt, the Iwasawa structure and the torus (integrable), the
    non-integrable J on h3 + R, and almost-abelian data whose A is perturbed
    half of the time, so that it mostly stops commuting with J."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["named", "h3r_bad", "almost_abelian"]))
    if kind == "named":
        return _conjugated_pair(rng.choice([kodaira_thurston(), iwasawa(), torus(2)]), rng), None
    data = None
    if kind == "h3r_bad":
        g, J = from_bracket_list(4, [(1, 2, 3, 1)]), mat_from_rows(_H3R_BAD_J)
    else:
        n = draw(st.integers(2, 3))
        data = _random_integrable_data(n, rng, rng.random() < 0.5)
        if draw(st.booleans()):
            r, c = draw(st.integers(0, 2 * n - 3)), draw(st.integers(0, 2 * n - 3))
            data.A[r][c] += draw(rationals.filter(bool))
        g, J = almost_abelian_algebra(data)
    s = _random_invertible(g.dim, rng)
    return (change_basis(g, s), matmul(matmul(inverse(s), J), s)), data


@settings(max_examples=80, deadline=None)
@given(nijenhuis_cases())
def test_sparse_nijenhuis_matches_dense_reference(case):
    """Skipping zero terms changes no rational of N, so the first witness pair
    and its residual are the same."""
    (g, J), data = case
    res = nijenhuis_tensor(g, J)
    assert (res.ok, res.witness, res.nijenhuis_value) == _dense_nijenhuis_reference(g, J)
    if data is not None:
        assert data.integrable() == _dense_commutes_reference(data)


@settings(max_examples=80, deadline=None)
@given(nijenhuis_cases(), st.data())
def test_sparse_j_square_matches_dense_reference(case, data):
    (g, J), _ = case
    J = [list(row) for row in J]
    if data.draw(st.booleans()):
        r, c = data.draw(st.integers(0, g.dim - 1)), data.draw(st.integers(0, g.dim - 1))
        J[r][c] += data.draw(rationals.filter(bool))
    try:
        _check_j_square(J, g.dim)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _dense_j_square_reference(J)


def _fraction_char_poly_reference(m):
    """det(xI - M) by the trace recursion on the Fraction matrix."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    work = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            work[i][i] += coeffs[n - k + 1]
        work = [
            [sum(a[i][t] * work[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        coeffs[n - k] = -sum(work[i][i] for i in range(n)) / k
    return coeffs


def _fraction_minimal_poly_reference(m):
    """The first d whose Fraction kernel of [vec M^0 .. vec M^d] meets x^d."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    powers = [[[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]]
    for _ in range(n):
        last = powers[-1]
        powers.append(
            [[sum(a[i][t] * last[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        )
    for d in range(1, n + 1):
        rows = [[powers[k][i][j] for k in range(d + 1)] for i in range(n) for j in range(n)]
        for vec in kernel(rows, d + 1):
            if vec[d]:
                return trim([c / vec[d] for c in vec])
    raise AssertionError("no annihilating polynomial")


def _fraction_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _poly_at_matrix(p, m):
    """p(M) by Horner's rule over Fraction matrices."""
    n = len(m)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        out = _fraction_matmul(out, m)
        for i in range(n):
            out[i][i] += c
    return out


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def _jordan_block(c, size):
    return [[c if i == j else Fraction(int(j == i + 1)) for j in range(size)] for i in range(size)]


@st.composite
def square_matrices(draw):
    """Rational n x n matrices, n = 1..7: dense draws over mixed denominators,
    and the zero, scalar, nilpotent Jordan and derogatory block-diagonal
    kinds (two Jordan blocks share an eigenvalue); the structured kinds are
    sometimes conjugated by a unit triangular matrix with rational entries,
    which changes neither polynomial."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["dense", "zero", "scalar", "jordan", "derogatory"]))
    entry = st.one_of(st.just(Fraction(0)), mixed_rationals)
    if kind == "dense":
        return [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "zero":
        m = _block_diagonal([[[Fraction(0)]]] * n)
    elif kind == "scalar":
        m = _block_diagonal([[[draw(mixed_rationals)]]] * n)
    elif kind == "jordan":
        m = _jordan_block(Fraction(0), n)
    else:
        n = max(n, 2)
        sizes = [draw(st.integers(1, n - 1))]
        while sum(sizes) < n:
            sizes.append(draw(st.integers(1, n - sum(sizes))))
        shared = draw(mixed_rationals)
        eigen = [shared, shared] + [draw(mixed_rationals) for _ in sizes[2:]]
        m = _block_diagonal([_jordan_block(c, size) for c, size in zip(eigen, sizes)])
    if draw(st.booleans()):
        u = [[Fraction(int(i == j)) if j <= i else draw(entry) for j in range(n)] for i in range(n)]
        m = _fraction_matmul(_fraction_matmul(inverse(u), m), u)
    return m


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_integer_polynomials_match_fraction_references(m):
    """N = D M has int powers and an int trace recursion; scaling back by
    powers of D gives the Fraction coefficients, string for string."""
    mp, cp = minimal_poly(m), char_poly(m)
    assert mp == _fraction_minimal_poly_reference(m)
    assert cp == _fraction_char_poly_reference(m)
    assert all(type(c) is Fraction for c in mp + cp)
    n = len(m)
    zero = [[Fraction(0)] * n for _ in range(n)]
    assert mp[-1] == cp[-1] == 1 and len(cp) == n + 1
    assert _poly_at_matrix(mp, m) == zero
    assert _poly_at_matrix(cp, m) == zero  # Cayley-Hamilton
    assert not divmod_poly(cp, mp)[1]


def _poly_product(factors):
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def test_polynomials_of_structured_matrices():
    third, half, zero = Fraction(1, 3), Fraction(1, 2), Fraction(0)
    assert minimal_poly([[zero] * 3] * 3) == [0, 1]
    assert char_poly([[zero] * 3] * 3) == [0, 0, 0, 1]
    scalar = _block_diagonal([[[third]]] * 3)
    assert minimal_poly(scalar) == [-third, 1]
    assert char_poly(scalar) == _poly_product([[-third, 1]] * 3)
    assert minimal_poly(_jordan_block(zero, 4)) == [0, 0, 0, 0, 1]
    assert char_poly(_jordan_block(zero, 4)) == [0, 0, 0, 0, 1]
    # J_2(1/2) + J_2(1/2) + (1/2) + (2) is derogatory: mp = (x - 1/2)^2 (x - 2)
    m = _block_diagonal([_jordan_block(half, 2), _jordan_block(half, 2), [[half]], [[Fraction(2)]]])
    assert minimal_poly(m) == _poly_product([[-half, 1]] * 2 + [[-2, 1]])
    assert char_poly(m) == _poly_product([[-half, 1]] * 5 + [[-2, 1]])


# -- Gaussian rationals: the int triple against a pair of Fractions -----------------


class _fraction_pair_reference:
    """The former GaussianRational: a real and an imaginary Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def coerce(value):
        if isinstance(value, _fraction_pair_reference):
            return value
        return _fraction_pair_reference(value)

    def is_real(self):
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = self.coerce(other)
        return _fraction_pair_reference(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.coerce(other)
        return _fraction_pair_reference(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __mul__(self, other):
        other = self.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _fraction_pair_reference(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(other)
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero")
        return _fraction_pair_reference(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return self.coerce(other) / self

    def __neg__(self):
        return _fraction_pair_reference(-self.re, -self.im)

    def __pow__(self, k):
        out = _fraction_pair_reference(1)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self):
        return _fraction_pair_reference(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        other = self.coerce(other)
        return self.re == other.re and self.im == other.im

    def to_complex(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        def imag(b):
            return "i" if b == 1 else "-i" if b == -1 else f"{b}i"

        if not self.im:
            return str(self.re)
        if not self.re:
            return imag(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag(abs(self.im))}"


def _canonical_and_equal(x, ref):
    assert type(x) is GaussianRational
    assert all(type(v) is int for v in (x.a, x.b, x.d))
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == (ref.re, ref.im)


_gr_rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-6, 6), st.integers(-(10**30), 10**30)),
    st.one_of(st.integers(1, 6), st.integers(1, 10**20)),
)
_gr_parts = st.one_of(
    st.just((Fraction(0), Fraction(0))),
    st.tuples(_gr_rationals, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), _gr_rationals),
    st.tuples(_gr_rationals, _gr_rationals),
    # negative real and complex divisors
    st.tuples(st.builds(Fraction, st.integers(-9, -1), st.integers(1, 4)), st.just(Fraction(0))),
    st.tuples(st.integers(-3, 3).map(Fraction), st.integers(-3, -1).map(Fraction)),
)
# a second operand: a Gaussian rational as (re, im), or an int, a Fraction or a str
_gr_others = st.one_of(
    _gr_parts,
    st.integers(-(10**12), 10**12),
    _gr_rationals,
    _gr_rationals.map(str),
)


@settings(max_examples=400, deadline=None)
@given(_gr_parts, _gr_others)
def test_gaussian_triple_matches_fraction_pair_reference(xs, other):
    x, xr = GaussianRational(*xs), _fraction_pair_reference(*xs)
    if isinstance(other, tuple):
        y, yr = GaussianRational(*other), _fraction_pair_reference(*other)
    else:
        y = yr = other
    _canonical_and_equal(x, xr)
    for got, want in [
        (x + y, xr + yr),
        (y + x, yr + xr),
        (x - y, xr - yr),
        (y - x, yr - xr),
        (x * y, xr * yr),
        (y * x, yr * xr),
        (-x, -xr),
        (x.conjugate(), xr.conjugate()),
    ] + [(x**k, xr**k) for k in range(4)]:
        _canonical_and_equal(got, want)
    for num, den, num_r, den_r in [(x, y, xr, yr), (y, x, yr, xr)]:
        if _fraction_pair_reference.coerce(den_r):
            _canonical_and_equal(num / den, num_r / den_r)
        else:
            with pytest.raises(ZeroDivisionError):
                num / den
    assert x.abs2() == xr.abs2()
    assert str(x) == str(xr) and parse_scalar(str(x)) == x
    assert bool(x) == bool(xr) and x.is_zero() == (not xr)
    assert x.is_real() == xr.is_real()
    assert x.to_complex() == xr.to_complex()
    if isinstance(other, str):
        # a str is a literal, not a number: unequal, never parsed
        assert x != other and (x == other) is False
    else:
        assert (x == y) == (xr == yr) == (y == x)
        if x == y:
            assert hash(x) == hash(y)
    if x.is_real():
        assert hash(x) == hash(x.re)


def test_gaussian_rational_equality_with_str_and_hash():
    assert (ZERO == "abc") is False and (ZERO == "1/0") is False and ONE != "1"
    assert {GaussianRational(1): "x"}.get(1) == "x"
    assert {Fraction(1, 2): "y"}.get(GaussianRational("1/2")) == "y"
    assert hash(GaussianRational(3)) == hash(3) and GaussianRational(3) == 3
    assert len({GaussianRational("2/4", "-3/6"), GaussianRational("1/2", "-1/2")}) == 1


# -- report I/O -------------------------------------------------------------------

_RATIONAL_LITERALS = [
    " 1", "+1", "-0", "007", "1_000", "٣", "1/0", "", "1.5", "-", "-7", "1/2", "-3/6",
    "²", "1e3", " -7 ", "0x1", "--1", "1__0", "-٣", "1" * 5000, "12345678901234567890123",
]


def _check_json_rational(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match="is not a rational"):
            json_rational(text, "x")
    else:
        value = json_rational(text, "x")
        assert value == expected
        assert type(value) in (int, Fraction)


@pytest.mark.parametrize("text", _RATIONAL_LITERALS)
def test_json_rational_accepts_exactly_what_fraction_accepts(text):
    _check_json_rational(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789-+/._ e\t٣²", max_size=6))
def test_json_rational_matches_fraction_on_drawn_strings(text):
    _check_json_rational(text)


parts = st.one_of(st.integers(-6, 6), st.integers(-(10**30), 10**30))


@settings(max_examples=200, deadline=None)
@given(parts, parts, st.one_of(st.integers(1, 12), st.integers(1, 10**30)))
def test_form_to_json_writes_str_of_fraction(a, b, d):
    z = GaussianRational(Fraction(a, d), Fraction(b, d))
    if not z:
        return
    form = ComplexForm(2, {MultiIndex((1,), (2,)): z})
    (term,) = form_to_json(form)
    assert term["re"] == str(Fraction(a, d))
    assert term["im"] == str(Fraction(b, d))
    assert form_from_json([term], 2) == form
