"""Exact linear algebra.  ``rref`` and ``det`` must agree with the
``Fraction`` Gaussian eliminations kept below as references, the span
test of ``Subspace`` (on the ``int_`` kernels) with the ``solve``-based
one it replaced, and ``int_is_pos_def`` with Sylvester's criterion evaluated
one determinant per leading minor.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcplab import exact as ex
from lcplab.algebra import Subspace
from lcplab.errors import SingularMatrix
from lcplab.intpoly import int_spectrum
from support import dot, reye

small = st.fractions(max_denominator=4, min_value=-3, max_value=3)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]

entries = st.one_of(
    st.just(F(0)),
    small,
    st.integers(-(10**6), 10**6),
    st.builds(F, st.integers(-(10**30), 10**30), st.sampled_from(PRIMES)),
)


def ref_rref(m):
    """Gauss-Jordan elimination in ``Fraction`` arithmetic."""
    r = m.copy()
    rows, cols = r.shape
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot = None
        for i in range(pr, rows):
            if r[i, pc] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != pr:
            r[[pivot, pr]] = r[[pr, pivot]]
        r[pr] = r[pr] / r[pr, pc]
        for i in range(rows):
            if i != pr and r[i, pc] != 0:
                r[i] = r[i] - r[i, pc] * r[pr]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return r, pivots


def ref_det(a):
    """Gaussian elimination in ``Fraction`` arithmetic, product of pivots."""
    n = a.shape[0]
    m = a.copy()
    d = F(1)
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i, c] != 0:
                pivot = i
                break
        if pivot is None:
            return F(0)
        if pivot != c:
            m[[pivot, c]] = m[[c, pivot]]
            d = -d
        d *= m[c, c]
        m[c] = m[c] / m[c, c]
        for i in range(c + 1, n):
            if m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[c]
    return d


@st.composite
def rational_matrices(draw):
    """Shapes 0..12 x 0..14 with mixed entries, some rows combinations of
    others and some columns zero; the reference runs on ``Fraction``s, so
    ``int`` entries are kept only in the matrix handed to lcplab."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 14))
    vals = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    m = np.empty((rows, cols), dtype=object)
    m.ravel()[:] = vals
    for i in range(1, rows):
        if draw(st.booleans()):
            a, b = draw(small), draw(small)
            m[i] = [a * x + b * y for x, y in zip(m[draw(st.integers(0, i - 1))], m[0])]
    if cols:
        for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            m[:, j] = 0
    return m


@st.composite
def tall_mostly_zero_matrices(draw):
    """Up to 30 rows over 0..6 columns, most rows zero, as bracket
    matrices and curvature tables are when they are eliminated."""
    rows, cols = draw(st.integers(0, 30)), draw(st.integers(0, 6))
    m = np.empty((rows, cols), dtype=object)
    m[...] = 0
    for i in range(rows):
        if draw(st.integers(0, 9)) < 3:
            m[i] = draw(st.lists(entries, min_size=cols, max_size=cols))
    return m


def as_fractions(m):
    return np.vectorize(F, otypes=[object])(m) if m.size else m.copy()


def same_form(form, want) -> bool:
    """Integer forms agree: the same Python ints over the same denominator."""
    (ints, den), (want_ints, want_den) = form, want
    return (
        den == want_den
        and ints.shape == want_ints.shape
        and all(type(x) is int for x in ints.flat)
        and np.array_equal(ints, want_ints)
    )


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_matrices(), tall_mostly_zero_matrices()))
def test_elimination_matches_fraction_reference(m):
    ref = as_fractions(m)
    r, pivots = ex.rref(m)
    want, want_pivots = ref_rref(ref)
    assert pivots == want_pivots
    assert r.shape == m.shape
    assert all(isinstance(x, F) for x in r.flat)
    assert np.array_equal(r, want)
    # the canonical kernel basis: identity on the free columns
    ns = ex.nullspace(m)
    free = [j for j in range(m.shape[1]) if j not in want_pivots]
    assert np.array_equal(ns[free], reye(len(free)))
    assert ex.is_zero(dot(ref, ns))
    k = min(m.shape)
    assert ex.det(m[:k, :k]) == ref_det(ref[:k, :k])
    half = m.shape[1] // 2
    inside = len(ref_rref(ref)[1]) == len(ref_rref(ref[:, :half])[1])
    span = Subspace(m[:, :half])
    assert span.contains_space(Subspace(m[:, half:])) == inside
    assert span.contains_space(Subspace(ref[:, :half] + ref[:, :half][:, ::-1]))
    # the integer kernels hand on the form scaled() gives for the result;
    # the canonical column basis is the RREF of the transpose, transposed
    ints, _ = ex.scaled(m)
    assert same_form(ex.int_nullspace(ints), ex.scaled(ns))
    rt, pt = ref_rref(as_fractions(m.T))
    assert same_form(ex.int_column_space(ints), ex.scaled(rt[: len(pt)].T))


def ref_span_contains(basis, other):
    """The span test as it was: a full ``Fraction`` RREF of
    [basis | other] and a solution, of which only existence is read."""
    if basis.shape[1] == 0:
        return ex.is_zero(other)
    return ex.solve(basis, other) is not None


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_matrices(), tall_mostly_zero_matrices()), st.data())
def test_span_contains_matches_solve_reference(m, data):
    half = data.draw(st.integers(0, m.shape[1]))
    basis, other = m[:, :half], m[:, half:]
    span = Subspace(basis)
    assert span.contains_space(Subspace(other)) == ref_span_contains(basis, other)
    assert all(span.contains(v) == ref_span_contains(basis, v.reshape(-1, 1)) for v in other.T)
    # combinations of the basis columns always lie inside
    inside = dot(basis, ex.rmat([[1] * 2] * half)) if half else ex.rzeros((m.shape[0], 2))
    assert span.contains_space(Subspace(inside)) and ref_span_contains(basis, inside)


def ref_is_pos_def(g):
    """Sylvester's criterion with one ``Fraction`` determinant per
    leading principal minor."""
    return all(ref_det(as_fractions(g[: k + 1, : k + 1])) > 0 for k in range(g.shape[0]))


@st.composite
def symmetric_matrices(draw):
    """B^T B (positive semi-definite, definite iff B is invertible), a
    shifted one, or B + B^T, at n = 0..7."""
    n = draw(st.integers(0, 7))
    b = ex.rzeros((n, n))
    b.ravel()[:] = draw(st.lists(small, min_size=n * n, max_size=n * n))
    kind = draw(st.sampled_from(["gram", "shifted", "sum"]))
    if kind == "sum":
        return b + b.T
    g = b.T.dot(b)
    if kind == "shifted":
        g = g + draw(small) * reye(n)
    return g


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_pos_def_matches_sylvester_reference(g):
    assert ex.int_is_pos_def(ex.scaled(g)[0]) == ref_is_pos_def(g)


def test_elimination_rejects_floats():
    m = ex.rmat([[1, 2], [3, 4]])
    m[1, 0] = 0.5
    for fn in (ex.rref, ex.det, ex.nullspace, ex.charpoly):
        with pytest.raises(TypeError):
            fn(m)


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
    # rank 2: a kernel of dimension 1 on the integers
    assert ex.int_nullspace(ex.scaled(m)[0])[0].shape[1] == 1


def test_nullspace_annihilates():
    m = ex.rmat([[1, 2, 3], [4, 5, 6]])
    ns = ex.nullspace(m)
    assert ns.shape[1] == 1
    assert ex.is_zero(m.dot(ns))


@settings(max_examples=30, deadline=None)
@given(mat_strategy(3))
def test_inv_roundtrip(rows):
    ints, _ = ex.scaled(ex.rmat(rows))
    if ex.det(ex.rmat(rows)) == 0:
        with pytest.raises(SingularMatrix):
            ex.int_inv(ints)
    else:
        inv_ints, d = ex.int_inv(ints)
        assert np.array_equal(ints.dot(inv_ints), d * np.eye(3, dtype=object))


@settings(max_examples=30, deadline=None)
@given(mat_strategy(3), mat_strategy(3))
def test_det_multiplicative(r1, r2):
    a, b = ex.rmat(r1), ex.rmat(r2)
    assert ex.det(a.dot(b)) == ex.det(a) * ex.det(b)


def test_column_space_canonical():
    a = ex.rmat([[1, 2], [0, 0], [1, 2]])
    b = ex.rmat([[2], [0], [2]])
    assert np.array_equal(Subspace(a).basis, Subspace(b).basis)
    assert np.array_equal(Subspace(b).basis, ex.rmat([[1], [0], [1]]))


def test_intersection():
    a = ex.rmat([[1, 0], [0, 1], [0, 0]])
    b = ex.rmat([[0, 0], [1, 0], [0, 1]])
    inter = Subspace(a).intersect(Subspace(b))
    assert inter.dim == 1
    assert inter.basis[1, 0] == 1
    assert inter == Subspace(inter.basis)


def test_pos_def():
    def pos_def(rows):
        return ex.int_is_pos_def(np.array(rows, dtype=object))

    assert pos_def([[2, 1], [1, 2]])
    assert not pos_def([[1, 2], [2, 1]])
    assert not pos_def([[0, 0], [0, 1]])
    # pivots 1, 1 after a row swap, but the determinant is -1
    assert not pos_def([[0, 1], [1, 0]])


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


def rational_roots(coeffs):
    """Rational roots, with multiplicity, of a monic polynomial with
    ``Fraction`` coefficients: with d the lcm of their denominators, the
    integer polynomial with coefficients c_k d^k has the roots d r."""
    d = math.lcm(*(F(c).denominator for c in coeffs))
    spec = int_spectrum([F(c) * d**k for k, c in enumerate(coeffs)])
    return [F(k, d) for k, m in spec.integer_roots for _ in range(m)]


def test_rational_roots():
    # (x - 1/2)(x + 2) x = x^3 + 3/2 x^2 - x
    assert rational_roots([1, F(3, 2), -1, 0]) == [F(-2), F(0), F(1, 2)]
    # x^2 + 1 has none
    assert rational_roots([1, 0, 1]) == []
    # a large prime constant term: no search over its divisors
    p = 1000000007
    assert rational_roots([1, 0, -p * p]) == [F(-p), F(p)]


def test_solve_inconsistent():
    a = ex.rmat([[1, 0], [1, 0]])
    assert ex.solve(a, ex.rvec([1, 2])) is None
    x = ex.solve(a, ex.rvec([1, 1]))
    assert x[0] == 1


def ref_block_diag(a, b):
    """``a`` and ``b`` on the diagonal of a zero array, entry by entry."""
    out = ex.rzeros(tuple(i + j for i, j in zip(a.shape, b.shape)))
    for idx in np.ndindex(a.shape):
        out[idx] = a[idx]
    for idx in np.ndindex(b.shape):
        out[tuple(i + k for i, k in zip(idx, a.shape))] = b[idx]
    return out


def test_block_diag_matches_entry_by_entry_reference():
    rng = np.random.default_rng(5)
    for ndim in (1, 2, 3):
        for _ in range(8):
            a, b = (ex.rzeros(tuple(int(k) for k in rng.integers(0, 4, ndim))) for _ in range(2))
            for m in (a, b):
                nums = rng.integers((-3, 1), (4, 4), (m.size, 2))
                m.ravel()[:] = [F(int(x), int(d)) for x, d in nums]
            got = ex.block_diag(a, b)
            want = ref_block_diag(a, b)
            assert got.shape == want.shape and got.tolist() == want.tolist()
            assert all(type(x) is F for x in got.flat)
    # a zero-width block adds rows (or columns) of zeros only
    assert ex.block_diag(reye(2), ex.rzeros((1, 0))).tolist() == [[1, 0], [0, 1], [0, 0]]
