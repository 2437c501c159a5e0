import random
from fractions import Fraction

import pytest

from pklie.simplex import LPError, LPResult, feasibility, verify_farkas


def test_feasible_simple():
    # x >= 1, -x >= -3  (1 <= x <= 3)
    res = feasibility([[1], [-1]], [1, -3])
    assert res.feasible
    assert Fraction(1) <= res.point[0] <= Fraction(3)


def test_infeasible_interval():
    # x >= 2 and -x >= -1 cannot hold
    res = feasibility([[1], [-1]], [2, -1])
    assert not res.feasible
    assert verify_farkas([[1], [-1]], [2, -1], res.farkas_ge)


def test_zero_row_infeasible():
    # 0 * x >= 1
    res = feasibility([[0, 0]], [1])
    assert not res.feasible
    assert res.farkas_ge == [Fraction(1)]


def test_equalities():
    # x + y = 2 as the pair x + y >= 2, -x - y >= -2
    res = feasibility([[1, 0], [1, 1], [-1, -1]], [0, 2, -2])
    assert res.feasible
    x, y = res.point
    assert x + y == 2 and x >= 0
    rows = [[1, 0], [0, 1], [1, 1], [-1, -1]]
    res2 = feasibility(rows, [2, 2, 3, -3])
    assert not res2.feasible
    assert verify_farkas(rows, [2, 2, 3, -3], res2.farkas_ge)


def test_free_variables():
    # feasible only with a negative coordinate
    res = feasibility([[1, 1], [-1, 0]], [0, 5])
    assert res.feasible
    x, y = res.point
    assert x <= -5 and x + y >= 0


def test_random_systems_verified():
    rng = random.Random(0)
    feasible_count = infeasible_count = 0
    for _ in range(60):
        nv = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(nv)] for _ in range(rng.randint(1, 6))]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in rows]
        res = feasibility(rows, rhs)
        if res.feasible:
            feasible_count += 1
            for row, b in zip(rows, rhs):
                assert sum(c * v for c, v in zip(row, res.point)) >= b
        else:
            infeasible_count += 1
            assert verify_farkas(rows, rhs, res.farkas_ge)
    assert feasible_count and infeasible_count


def test_sum_to_zero_functionals():
    # three functionals summing to zero but all required >= 1: infeasible,
    # and the multipliers must expose the vanishing combination
    rows = [[1, 0], [0, 1], [-1, -1]]
    rhs = [1, 1, 1]
    res = feasibility(rows, rhs)
    assert not res.feasible
    y = res.farkas_ge
    assert all(v >= 0 for v in y) and sum(v * b for v, b in zip(y, rhs)) > 0


def test_empty_system():
    assert feasibility([], []).feasible


def test_infeasible_result_needs_an_accepted_farkas_check(monkeypatch):
    # feasibility hands out a Farkas vector only after verify_farkas accepts it
    import pklie.simplex as simplex

    monkeypatch.setattr(simplex, "verify_farkas", lambda *args: False)
    with pytest.raises(LPError):
        simplex.feasibility([[1], [-1]], [2, -1])
    assert simplex.feasibility([[1], [-1]], [1, -3]).feasible


def test_inputs_are_left_unchanged():
    # the pivots update the tableau in place; find_pkahler appends witness rows
    # to one list across rounds, so nothing may write through to the caller
    a_ge = [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(-1)],
        [Fraction(-1), Fraction(-1)],
        [Fraction(1), Fraction(-1)],
        [Fraction(-1), Fraction(1)],
    ]
    b_ge = [Fraction(1), Fraction(-2), Fraction(-3), Fraction(-1), Fraction(1)]
    copies = [[list(row) for row in a_ge], list(b_ge)]
    assert feasibility(a_ge, b_ge).feasible
    assert [a_ge, b_ge] == copies
    a_ge.append([Fraction(-1), Fraction(0)])
    b_ge.append(Fraction(0))
    copies = [[list(row) for row in a_ge], list(b_ge)]
    assert not feasibility(a_ge, b_ge).feasible
    assert [a_ge, b_ge] == copies


def test_ragged_rows_are_rejected():
    # the variable count is the common row length; a row of another length
    # used to be read as if it had the first row's length
    with pytest.raises(ValueError):
        feasibility([[1], [1, 1]], [1, 1])
    with pytest.raises(ValueError):
        feasibility([[1, 0], [1]], [1, 0])
    with pytest.raises(ValueError):
        feasibility([[1, 1], [1], [-1]], [0, 0, 0])


def test_verify_farkas_rejects_ragged_rows():
    # y = (1, 1) cancels the first coefficients only: the trailing 1 of the
    # longer row must not be dropped
    with pytest.raises(ValueError):
        verify_farkas([[1], [-1, 1]], [1, 0], [1, 1])
    with pytest.raises(ValueError):
        verify_farkas([[1, 0], [-1]], [1, 0], [1, 1])
    # the same certificate on equal-length rows is rejected for its nonzero
    # combination, and the padded-with-zero system has a valid one
    assert not verify_farkas([[1, 0], [-1, 1]], [1, 0], [1, 1])
    assert verify_farkas([[1, 0], [-1, 0]], [1, 0], [1, 1])
