"""Integer polynomials and the integer characteristic polynomial.

``int_charpoly`` and ``int_det`` run Faddeev-LeVerrier on Python ints;
they must agree with the ``Fraction`` Faddeev-LeVerrier and elimination
kept below as references, and so must ``exact.charpoly`` on rationals.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcplab import exact as ex
from lcplab.errors import DimensionMismatch
from lcplab.intpoly import (
    IntPoly,
    companion,
    int_charpoly,
    int_det,
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


def test_non_integral_entries_are_rejected():
    # truncating them would give x^2 - 2x and det 0 for diag(1/2, 5/2)
    for a in (
        np.array([[F(1, 2), 0], [0, F(5, 2)]], dtype=object),
        np.diag([1.7, 2.2]),
    ):
        with pytest.raises(TypeError):
            int_charpoly(a)
        with pytest.raises(TypeError):
            int_det(a)
    # integral values of any number type are integers
    for a in (
        np.array([[F(2), F(1)], [F(0), F(3)]], dtype=object),
        np.array([[2, 1], [0, 3]], dtype=np.int64),
    ):
        assert int_charpoly(a).coeffs == (1, -5, 6)
        assert int_det(a) == 6



def test_intpoly_rejects_non_integral_coefficients():
    # truncating would turn 1 + 2.5x - 0.9x^2 into (1, 2, 0)
    for coeffs in ((1, 2.5, -0.9), (1, F(1, 2)), (1, 0.5)):
        with pytest.raises(TypeError):
            IntPoly(coeffs)
    # integral values of any number type are integers, and stay Python ints
    p = IntPoly((np.int64(0), np.int64(1), 2.0, F(-3)))
    assert p.coeffs == (1, 2, -3) and all(type(c) is int for c in p.coeffs)

def ref_charpoly(rows):
    """Faddeev-LeVerrier with a ``Fraction`` per entry operation."""
    n = len(rows)
    a = [[F(x) for x in row] for row in rows]
    m = [row[:] for row in a]
    coeffs = [F(1)]
    for k in range(1, n + 1):
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        if k < n:
            shifted = [[m[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
            m = [[sum(a[i][l] * shifted[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    return coeffs


def ref_det(rows):
    """Gaussian elimination in ``Fraction`` arithmetic."""
    m = [[F(x) for x in row] for row in rows]
    n = len(m)
    det = F(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


@st.composite
def int_matrices(draw):
    """Random integer matrices, n <= 8: plain, singular (a repeated row)
    or of determinant -1 (elementary operations and one row swap)."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["plain", "singular", "det-1"]))
    if kind == "det-1":
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 3 * n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i != j:
                k = draw(st.integers(-3, 3))
                m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        if n == 1:
            return [[-1]]
        m[0], m[1] = m[1], m[0]
        return m
    big = st.integers(-(10**12), 10**12)
    m = [[draw(st.one_of(st.integers(-5, 5), big)) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        m[-1] = list(m[0]) if n > 1 else [0]
    return m


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_int_charpoly_and_det_match_fraction_references(rows):
    a = np.array(rows, dtype=object)
    ref = ref_charpoly(rows)
    assert list(int_charpoly(a).coeffs) == ref
    assert int_det(a) == ref_det(rows)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=8))
def test_charpoly_of_companion_is_the_polynomial(tail):
    p = IntPoly((1, *tail))
    assert int_charpoly(companion(p)) == p


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(max_denominator=12, min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_exact_charpoly_matches_fraction_reference(rows):
    assert ex.charpoly(ex.rmat(rows)) == ref_charpoly(rows)
