import numpy as np
import pytest

from lcplab.errors import DimensionMismatch
from lcplab.intpoly import (
    IntPoly,
    companion,
    int_charpoly,
    int_det,
    smith_normal_form,
)


def test_intpoly_basics():
    p = IntPoly((0, 1, -3, 1))  # leading zero stripped
    assert p.coeffs == (1, -3, 1) and p.monic and p.degree == 2
    assert p(0) == 1 and p(3) == 1
    assert str(IntPoly((1, -3, 1))) == "x^2 - 3x + 1"


def test_companion():
    p = IntPoly((1, -3, 1))
    c = companion(p)
    assert [[int(x) for x in row] for row in c] == [[0, -1], [1, 3]]
    assert int_charpoly(c).coeffs == p.coeffs
    assert int_det(c) == 1
    with pytest.raises(DimensionMismatch):
        companion(IntPoly((2, 1)))


def test_smith_normal_form():
    for m in range(3, 11):
        em_minus_i = np.array([[-1, -1], [1, m - 1]])
        diag = smith_normal_form(em_minus_i)
        assert diag == [1, m - 2] or (m == 3 and diag == [1, 1])
    d = smith_normal_form(np.array([[2, 0], [0, 3]]))
    assert d == [1, 6]
    # divisibility chain
    d2 = smith_normal_form(np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    for a, b in zip(d2, d2[1:]):
        assert b % a == 0
