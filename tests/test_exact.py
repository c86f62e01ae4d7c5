from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcplab import exact as ex
from lcplab.errors import SingularMatrix

small = st.fractions(max_denominator=4, min_value=-3, max_value=3)


def mat_strategy(n):
    return st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)


def test_rat_coercions():
    assert ex.rat(3) == F(3)
    assert ex.rat("3/4") == F(3, 4)
    with pytest.raises(TypeError):
        ex.rat(0.5)


def test_rref_and_rank():
    m = ex.rmat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = ex.rref(m)
    assert pivots == [0, 1]
    assert ex.rank(m) == 2


def test_nullspace_annihilates():
    m = ex.rmat([[1, 2, 3], [4, 5, 6]])
    ns = ex.nullspace(m)
    assert ns.shape[1] == 1
    assert ex.is_zero(m.dot(ns))


@settings(max_examples=30, deadline=None)
@given(mat_strategy(3))
def test_inv_roundtrip(rows):
    m = ex.rmat(rows)
    if ex.det(m) == 0:
        with pytest.raises(SingularMatrix):
            ex.inv(m)
    else:
        assert np.array_equal(m.dot(ex.inv(m)), ex.reye(3))


@settings(max_examples=30, deadline=None)
@given(mat_strategy(3), mat_strategy(3))
def test_det_multiplicative(r1, r2):
    a, b = ex.rmat(r1), ex.rmat(r2)
    assert ex.det(a.dot(b)) == ex.det(a) * ex.det(b)


def test_column_space_canonical():
    a = ex.rmat([[1, 2], [0, 0], [1, 2]])
    b = ex.rmat([[2], [0], [2]])
    assert np.array_equal(ex.column_space(a), ex.column_space(b))


def test_intersection():
    a = ex.rmat([[1, 0], [0, 1], [0, 0]])
    b = ex.rmat([[0, 0], [1, 0], [0, 1]])
    inter = ex.intersect_columns(a, b)
    assert inter.shape[1] == 1
    assert inter[1, 0] == 1


def test_pos_def():
    assert ex.is_pos_def(ex.rmat([[2, 1], [1, 2]]))
    assert not ex.is_pos_def(ex.rmat([[1, 2], [2, 1]]))
    assert not ex.is_pos_def(ex.rmat([[0, 0], [0, 1]]))


def test_charpoly_companion():
    m = ex.rmat([[0, -1], [1, 3]])
    assert ex.charpoly(m) == [F(1), F(-3), F(1)]


@settings(max_examples=20, deadline=None)
@given(mat_strategy(3))
def test_charpoly_det_consistency(rows):
    m = ex.rmat(rows)
    coeffs = ex.charpoly(m)
    # constant term is (-1)^n det
    assert coeffs[-1] == -ex.det(m) if m.shape[0] % 2 else coeffs[-1] == ex.det(m)


def test_rational_roots():
    # (x - 1/2)(x + 2) x = x^3 + 3/2 x^2 - x
    assert ex.rational_roots([1, F(3, 2), -1, 0]) == [F(-2), F(0), F(1, 2)]
    # x^2 + 1 has none
    assert ex.rational_roots([1, 0, 1]) == []
    # a large prime constant term: no search over its divisors
    p = 1000000007
    assert ex.rational_roots([1, 0, -p * p]) == [F(-p), F(p)]


def test_solve_inconsistent():
    a = ex.rmat([[1, 0], [1, 0]])
    assert ex.solve(a, ex.rvec([1, 2])) is None
    x = ex.solve(a, ex.rvec([1, 1]))
    assert x[0] == 1
