"""The public Fraction methods on integer forms, and the integer passes.

``LieAlgebra.bracket``, ``Metric.inner``, ``Metric.sharp``,
``OneForm.__call__`` and ``OneForm`` arithmetic compute on the integer
forms the objects hold; each must return what its ``Fraction``-product
version returns (``support.dot``, the common-denominator product kernel,
kept as the reference).  ``ex.int_dot`` must agree with the object
product of the same Python ints, on both sides of its int64 bound;
curvature, ad, bracket spans and the Jacobi test must agree with the
``Fraction`` loops kept below as references.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcplab import exact as ex
from lcplab.algebra import LieAlgebra, OneForm, Subspace
from support import (
    dot,
    random_algebra,
    random_closed_form,
    random_metric,
    reye,
    rng,
    small_fraction,
)
from lcplab.weyl import curvature, levi_civita, weyl_connection

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]

entries = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.integers(-(10**6), 10**6),
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**6)),
    st.builds(F, st.integers(-50, 50), st.sampled_from(PRIMES)),
)


def arrays(shape):
    size = int(np.prod(shape))

    def build(vals):
        a = np.empty(shape, dtype=object)
        a.ravel()[:] = vals
        return a

    return st.lists(entries, min_size=size, max_size=size).map(build)


def same(got, want):
    """Equal shapes and values, and a ``Fraction`` in every entry."""
    assert np.shape(got) == np.shape(want)
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert all(type(x) is F for x in got.flat)
    assert got.tolist() == want.tolist()


@st.composite
def metric_algebras(draw):
    """A random algebra and metric of dimension 1..8, the metric scaled by
    a rational with a large denominator now and then, and a vector and
    a vector or matrix of ``entries`` for their arguments."""
    n, seed = draw(st.integers(1, 8)), draw(st.integers(0, 10**6))
    r = rng(seed)
    L, G = random_algebra(r, n), random_metric(r, n)
    G = G.scaled(draw(st.sampled_from([F(1), F(7, 3), F(10**30 + 1, 10**20 + 3)])))
    x = draw(arrays((n,)))
    y = draw(st.one_of(arrays((n,)), arrays((n, draw(st.integers(0, 3))))))
    return L, G, x, y


@settings(max_examples=60, deadline=None)
@given(metric_algebras(), arrays((8,)), entries)
def test_fraction_methods_match_the_fraction_products(case, t, s):
    L, G, x, y = case
    n = L.dim
    theta, other = OneForm(t[:n]), OneForm(t[::-1][:n])
    same(L.bracket(x, y), dot(L.ad(x), y))
    same(G.inner(x, y), dot(dot(x, G.gram), y))
    same(G.sharp(theta), dot(G.inverse, theta.coeffs))
    same(theta(y), dot(theta.coeffs, y))
    for got, want in (
        (theta + other, theta.coeffs + other.coeffs),
        (theta - other, theta.coeffs - other.coeffs),
        (theta * s, ex.rat(s) * theta.coeffs),
        (s * theta, ex.rat(s) * theta.coeffs),
    ):
        assert got == OneForm(want)
        same(got.coeffs, want)


def test_dot_rejects_floats():
    # the products of the Fraction methods take Fractions and ints only
    L, G = random_algebra(rng(1), 3), random_metric(rng(1), 3)
    theta, v = OneForm([1, 2, 3]), np.array([F(1), 0.5, 0], dtype=object)
    w = ex.rvec([1, 2, 3])
    for call in (
        lambda: L.bracket(v, w),
        lambda: L.bracket(w, v),
        lambda: G.inner(v, w),
        lambda: G.inner(w, v),
        lambda: theta(v),
        lambda: theta * 0.5,
    ):
        with pytest.raises(TypeError):
            call()


def test_scaled_round_trip():
    a = ex.rmat([["1/6", 4], ["-3/10", "7/15"]])
    ints, den = ex.scaled(a)
    assert den == 30 and all(type(x) is int for x in ints.flat)
    assert np.array_equal(ex.unscaled(ints, den), a)


# ---------------------------------------------------------------------------
# int_dot: int64 below the bound, the object product above it
# ---------------------------------------------------------------------------

# the edges of int64 and just past them
EDGES = [2**31, -(2**31), 2**62 - 1, -(2**62 - 1), -(2**63), 2**63 - 1, 2**63, -(2**63) - 1, 2**64]

int_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**31), 2**31),
    st.sampled_from(EDGES),
    st.integers(-(2**70), 2**70),
)


@st.composite
def int_operands(draw):
    """A pair of object arrays of Python ints whose product is defined,
    inner length 1..64; each array draws its entries from one pool, so
    that small, edge and oversized arrays all meet."""
    k = draw(st.integers(1, 64))
    m, p = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    shape_a, shape_b = draw(
        st.sampled_from([((m, k), (k, p)), ((k,), (k, p)), ((m, k), (k,)), ((k,), (k,))])
    )

    def array(shape):
        pool = draw(st.sampled_from([st.integers(-3, 3), st.integers(-(2**31), 2**31), int_entries]))
        size = int(np.prod(shape))
        a = np.empty(shape, dtype=object)
        a.ravel()[:] = draw(st.lists(pool, min_size=size, max_size=size))
        return a

    return array(shape_a), array(shape_b)


@settings(max_examples=200, deadline=None)
@given(int_operands())
def test_int_dot_matches_object_product(ab):
    a, b = ab
    got, want = ex.int_dot(a, b), a.dot(b)
    if np.ndim(want) == 0:
        assert type(got) is int and got == want
    else:
        assert got.dtype == object and got.shape == want.shape
        assert all(type(x) is int for x in got.flat)
        assert got.tolist() == want.tolist()


def test_int_dot_bound_edges():
    ints = lambda *xs: np.array(xs, dtype=object)  # noqa: E731
    # max|a| max|b| k = 2^63 - 2^32: int64 holds every partial sum
    a = ints(2**31 - 1, 2**31 - 1)
    assert ex.int_dot(a, ints(2**31, 2**31)) == 2**63 - 2**32
    # max|a| max|b| k = 2^63: just over the bound, so the object product
    # answers, and exactly; an int64 product would wrap to -2^63
    a = ints(2**31, 2**31)
    assert ex.int_dot(a, a) == 2**63
    m = np.full((3, 2), 2**31, dtype=object)
    assert ex.int_dot(m, m.T).tolist() == [[2**63] * 3] * 3
    # negative entries count by their absolute value: -2^64 would wrap to 0
    assert ex.int_dot(ints(-(2**32), -(2**32)), ints(2**31, 2**31)) == -(2**64)
    # -2^63 fits int64 but its absolute value does not: object product
    assert ex.int_dot(ints(-(2**63)), ints(1)) == -(2**63)
    assert ex.int_dot(ints(-(2**63)), ints(0)) == 0
    assert ex.int_dot(ints(2**64), ints(0)) == 0


@pytest.mark.parametrize(
    "bad", [F(7, 2), F(4, 1), 3.5, 2.0, np.int64(3)], ids=["half", "whole", "float", "whole-float", "np.int64"]
)
def test_int_dot_rejects_what_is_not_a_python_int(bad):
    # the int64 cast would truncate F(7, 2) to 3 without a word
    v = np.array([1, bad], dtype=object)
    w = np.array([1, 1], dtype=object)
    for a, b in ((v, w), (w, v), (v.reshape(1, 2), w.reshape(2, 1))):
        with pytest.raises(TypeError):
            ex.int_dot(a, b)


# ---------------------------------------------------------------------------
# Fraction references: the loops the integer passes replaced
# ---------------------------------------------------------------------------


def ref_ad(L, x):
    m = ex.rzeros((L.dim, L.dim))
    for i in range(L.dim):
        if x[i] != 0:
            m = m + x[i] * L.c[i, :, :].T
    return m


def ref_bracket_span(L, u_basis, v_basis):
    """The Subspace spanned by the ``Fraction`` brackets of the columns."""
    vecs = [
        ref_ad(L, u_basis[:, a]).dot(v_basis[:, b])
        for a in range(u_basis.shape[1])
        for b in range(v_basis.shape[1])
    ]
    return Subspace.spanned_by(vecs, L.dim)


def ref_jacobi_defect(L):
    n = L.dim
    ad = [L.c[i, :, :].T for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = ad[i].dot(L.c[j, k, :]) + ad[j].dot(L.c[k, i, :]) + ad[k].dot(L.c[i, j, :])
                if not ex.is_zero(s):
                    return (i, j, k)
    return None


def ref_curvature(L, conn):
    n = L.dim
    table = [[ex.rzeros((n, n)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gi, gj = conn.gamma[i], conn.gamma[j]
            m = gi.dot(gj) - gj.dot(gi)
            for k in range(n):
                if L.c[i, j, k] != 0:
                    m = m - L.c[i, j, k] * conn.gamma[k]
            table[i][j], table[j][i] = m, -m
    return table


def _random_matrix(r, rows, cols):
    return ex.rmat([[small_fraction(r) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("n", range(3, 11))
def test_ad_and_bracket_span_match_references(n):
    r = rng(100 + n)
    L = random_algebra(r, n)
    for _ in range(3):
        x = _random_matrix(r, n, 1)[:, 0]
        assert np.array_equal(L.ad(x), ref_ad(L, x))
        u = _random_matrix(r, n, r.randint(0, 3))
        v = _random_matrix(r, n, r.randint(1, 3))
        want = ref_bracket_span(L, u, v)
        got = L.bracket_span(Subspace(u, n), Subspace(v))
        assert got == want and np.array_equal(got.basis, want.basis)
    full = Subspace.full(n)
    assert L.bracket_span(full, full) == ref_bracket_span(L, reye(n), reye(n))


@pytest.mark.parametrize("n", range(3, 11))
def test_curvature_matches_reference(n):
    r = rng(200 + n)
    L = random_algebra(r, n)
    G = random_metric(r, n)
    theta = random_closed_form(r, L)
    conn = levi_civita(L, G) if theta is None else weyl_connection(L, G, theta)
    want = ref_curvature(L, conn)
    got = curvature(L, conn)
    assert all(np.array_equal(got.r[i][j], want[i][j]) for i in range(n) for j in range(n))


def test_jacobi_defect_matches_reference_on_perturbed_constants():
    found = []
    for n in range(3, 11):
        r = rng(300 + n)
        L = random_algebra(r, n)
        assert L.jacobi_defect() is None
        for _ in range(4):
            c = L.c.copy()
            for _ in range(3):
                i, j, k = (r.randrange(n) for _ in range(3))
                c[i, j, k] += small_fraction(r) or 1
                if r.random() < 0.5:
                    c[j, i, k] = -c[i, j, k]  # antisymmetric for about half
            bad = LieAlgebra(c, check=False)
            found.append(bad.jacobi_defect())
            assert found[-1] == ref_jacobi_defect(bad)
    # the draws reach failing triples, some of them past e_1
    assert any(t is not None and t[0] > 0 for t in found)
