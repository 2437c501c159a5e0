"""Shape checks of the exact linear algebra: a matrix of the wrong shape is
a ValueError, never a truncated answer or an IndexError."""

from fractions import Fraction

import pytest

from pklie import linalg
from pklie.linalg import identity, inverse, kernel, rref, solve
from pklie.scalars import GaussianRational, I


def test_solve_rejects_fewer_right_hand_sides_than_equations():
    with pytest.raises(ValueError):
        solve([[1, 0], [0, 1]], [1])


def test_solve_rejects_more_right_hand_sides_than_equations():
    with pytest.raises(ValueError):
        solve([[1, 0]], [1, 2])


def test_kernel_rejects_a_column_count_that_is_not_the_matrix_width():
    with pytest.raises(ValueError):
        kernel([[1, 2, 3]], 2)


def test_inverse_rejects_a_non_square_matrix():
    with pytest.raises(ValueError):
        inverse([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize(
    "m",
    [[[1, 2], [3]], [[Fraction(1)], [Fraction(2), Fraction(3)]], [[I, GaussianRational(2)], [I]]],
)
def test_rref_rejects_ragged_rows(m):
    with pytest.raises(ValueError):
        rref(m)


@pytest.mark.parametrize(
    "m",
    [[[1, 2], [3]], [[Fraction(1), Fraction(2)], [Fraction(3)]], [[I], [GaussianRational(2), I]]],
)
def test_kernel_rejects_ragged_rows(m):
    with pytest.raises(ValueError):
        kernel(m)


def test_well_shaped_calls_still_answer():
    assert solve([[1, 0], [0, 1]], [1, 2]) == [1, 2]
    assert kernel([[1, 2, 3]], 3) == [[-2, 1, 0], [-3, 0, 1]]
    assert inverse([[2, 0], [0, 4]]) == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]


def test_a_gaussian_entry_after_an_int_gives_gaussian_results():
    m = [[1, I, 0], [2, 0, 1]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red == [[1, 0, Fraction(1, 2)], [0, 1, GaussianRational(0, Fraction(1, 2))]]
    assert all(type(x) is GaussianRational for row in red for x in row)
    (vec,) = kernel(m)
    assert vec == [Fraction(-1, 2), GaussianRational(0, Fraction(-1, 2)), 1]
    assert all(type(x) is GaussianRational for x in vec)


@pytest.mark.parametrize(
    "m",
    [
        [[2, 1, 0], [1, 3, -1], [0, -1, 4]],
        [[Fraction(1, 2), 1], [3, Fraction(-2, 3)]],
        [[I, 1], [GaussianRational(2, 1), Fraction(1, 3)]],
    ],
    ids=["int", "fraction", "gaussian"],
)
def test_inverse_equals_the_reduction_against_an_identity_in_the_field(m):
    n = len(m)
    unit = identity(n, linalg._one_like(m))
    red, _ = rref([row + unit[i] for i, row in enumerate(m)])
    expected = [row[n:] for row in red]
    inv = inverse(m)
    assert inv == expected
    assert [list(map(type, row)) for row in inv] == [list(map(type, row)) for row in expected]


def test_inverse_of_an_int_matrix_clears_only_int_rows(monkeypatch):
    kinds = []
    clear = linalg._integers

    def spy(row):
        kinds.append(set(map(type, row.values())))
        return clear(row)

    monkeypatch.setattr(linalg, "_integers", spy)
    assert inverse([[2, 1], [1, 3]]) == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]
    assert kinds and all(k == {int} for k in kinds)
