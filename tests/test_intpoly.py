"""Integer polynomials, the integer characteristic polynomial and its
exact spectrum.

``int_charpoly`` and ``int_det`` run Berkowitz's division-free
recurrence on Python ints; they must agree with the ``Fraction``
Faddeev-LeVerrier and elimination kept below as references, up to
``MAX_DIM`` and entries of the size of the lattice search's integer
forms, and so must ``exact.charpoly`` on rationals.  ``int_spectrum``
must agree with sympy's real-root count, and with its integer roots
where every root is real (elsewhere it lists none), also for clusters
of large integer roots next to irrational ones.  ``intpoly`` computes
no float.
"""

import ast
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from lcplab import exact as ex
from lcplab.algebra import MAX_DIM
from lcplab.errors import DimensionMismatch
from lcplab.intpoly import (
    IntPoly,
    companion,
    int_charpoly,
    int_det,
    int_spectrum,
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
def int_matrices(draw, max_n=8, big=10**12):
    """Random integer matrices, n <= ``max_n``: plain (entries up to
    ``big``), singular (a repeated row) or of determinant -1 (elementary
    operations and one row swap)."""
    n = draw(st.integers(1, max_n))
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
    m = [[draw(st.one_of(st.integers(-5, 5), st.integers(-big, big))) for _ in range(n)] for _ in range(n)]
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


# the lattice search's integer forms d C have entries of up to 310 bits;
# a 16 x 16 reference takes about 0.7 s, so the examples are few, and one
# of them is always a full MAX_DIM x MAX_DIM matrix of such entries
_R = random.Random(MAX_DIM)
_FULL = [[_R.randrange(-(2**310), 2**310) for _ in range(MAX_DIM)] for _ in range(MAX_DIM)]


@settings(max_examples=12, deadline=None)
@given(int_matrices(max_n=MAX_DIM, big=2**310))
@example(_FULL)
def test_int_charpoly_and_det_match_fraction_references_up_to_max_dim(rows):
    a = np.array(rows, dtype=object)
    assert list(int_charpoly(a).coeffs) == ref_charpoly(rows)
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


X = sympy.Symbol("x")


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def from_roots(roots, cofactor=(1,)):
    p = list(cofactor)
    for k in roots:
        p = poly_mul(p, [1, -k])
    return p


def assert_matches_sympy(p):
    spec = int_spectrum(p)
    poly = sympy.Poly(p, X)
    # the rational roots of p; for monic p they are all integers.  They are
    # listed only when every root is real
    all_real = len(poly.real_roots()) == poly.degree()
    want = sorted((int(k), m) for k, m in poly.ground_roots().items() if k.is_integer)
    assert list(spec.integer_roots) == (want if all_real else [])
    assert spec.real_roots == len(sympy.Poly(poly.sqf_part(), X).real_roots())
    _, gcd = sympy.Poly(sympy.gcd(poly, poly.diff(X)), X).primitive()  # sympy: lead > 0
    assert list(spec.repeated) == [int(c) for c in gcd.all_coeffs()]
    assert spec.all_real == all_real
    ks = [k for k, m in want for _ in range(m)]
    assert spec.integer_eigenvalues() == (ks if len(ks) == poly.degree() else None)


@st.composite
def planted_polynomials(draw):
    """Monic integer polynomials of degree <= 16: planted integer roots
    |k| <= 10^6, some repeated, times small random monic cofactors (mostly
    irrational or complex roots)."""
    roots = draw(st.lists(st.integers(-(10**6), 10**6), max_size=8))
    if roots:
        roots += draw(st.lists(st.sampled_from(roots), max_size=4))
    cofactor = [1]
    for _ in range(draw(st.integers(0, 3))):
        cofactor = poly_mul(cofactor, [1] + draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3)))
    if len(roots) + len(cofactor) - 1 > 16:
        roots = roots[:4]
    return from_roots(roots, cofactor)


@settings(max_examples=80, deadline=None)
@given(planted_polynomials())
def test_int_spectrum_matches_sympy(p):
    assert_matches_sympy(p)


@pytest.mark.parametrize(
    "roots",
    [
        # 16 distinct roots near +-10^20: the coefficients pass the float range
        [(-1) ** j * (10**20 + j * 10**18 + j * j) for j in range(16)],
        # 8 double roots near 10^20: p passes the float range, s does not
        [10**20 + j * 10**18 + 7 * j for j in range(8)] * 2,
        # roots past the float range themselves (three, as a rest of
        # degree <= 2 takes the shortcut)
        [3 * 2**1100, -(2**1100) - 5, 5 * 2**1099 + 3],
    ],
    ids=["simple", "double", "huge-roots"],
)
def test_int_spectrum_past_the_float_range(roots):
    p = from_roots(roots)
    with pytest.raises(OverflowError):
        [float(c) for c in p]
    assert_matches_sympy(p)
    assert int_spectrum(p).integer_eigenvalues() == sorted(roots)


def test_int_spectrum_two_clusters_far_apart():
    # 10^6..10^6+7 and -10^6-7..-10^6: the Sturm counts split the range
    # between the clusters, then within each down to unit intervals
    roots = [10**6 + j for j in range(8)] + [-(10**6) - j for j in range(8)]
    p = from_roots(roots)
    assert_matches_sympy(p)
    assert int_spectrum(p).integer_eigenvalues() == sorted(roots)


@pytest.mark.parametrize(
    "p",
    [
        from_roots([0, 7, -7]),  # x (x^2 - 49): the root 0, then a quadratic
        from_roots([-5, 0, 0, 5, 5, 5]),  # repeated roots, 0 among them
        [1, 0, -2],  # x^2 - 2: no integer root
        [1, 0, 1],  # x^2 + 1: no real root
        from_roots([0], [1, 0, -2]),  # x (x^2 - 2)
        [-1, 0, 4],  # -x^2 + 4: negative lead
        [-3, 6],  # -3x + 6: the root 2 of a linear rest
        [2, -3, -2],  # (2x + 1)(x - 2): non-monic, one integer root
        [6, -5, -6, 0],  # x (2x - 3)(3x + 2): non-monic, the root 0 only
        poly_mul([2, -3, -2], [2, -3, -2]),  # non-monic and repeated
        from_roots([0, 0, 0], [3, 0, -1]),  # x^3 (3x^2 - 1): non-monic, repeated 0
    ],
    ids=["0+-k", "repeated", "x2-2", "x2+1", "0-and-x2-2", "negative-lead", "linear",
         "non-monic", "non-monic-0", "non-monic-repeated", "non-monic-repeated-0"],
)
def test_int_spectrum_of_a_low_degree_rest_needs_no_float(p):
    # the square-free part deflates to degree <= 2 by the root 0 alone, so
    # the shortcuts find every integer root
    assert_matches_sympy(p)


@pytest.mark.parametrize(
    "p",
    [
        # the integer forms of the benchmark's c3 and c5 spectra:
        # 2 (1/2 +- i, -1) and 6 (1/3 +- i, 1/6 +- 3i/2, -1)
        poly_mul([1, -2, 5], [1, 2]),
        poly_mul(poly_mul([1, -4, 40], [1, -2, 82]), [1, 6]),
        [1, 0, 0, -1],  # x^3 - 1: the integer root 1 next to complex ones
    ],
    ids=["c3", "c5", "x3-1"],
)
def test_int_spectrum_off_the_real_axis_looks_for_no_integer_root(p):
    # integer roots are read only where every root is real; with a root
    # off the real axis none is looked for
    spec = int_spectrum(p)
    assert spec.integer_roots == () and spec.integer_eigenvalues() is None
    assert spec.real_roots == 1 and spec.square_free == tuple(p)
    assert spec.off_axis() and not spec.all_real


def test_int_spectrum_cases():
    # x^2 + 1: no real root; (x - 1)^2 (x + 2): gcd x - 1; constants
    spec = int_spectrum([1, 0, 1])
    assert (spec.real_roots, spec.integer_roots, spec.all_real) == (0, (), False)
    spec = int_spectrum(from_roots([1, 1, -2]))
    assert spec.repeated == (1, -1) and spec.integer_roots == ((-2, 1), (1, 2))
    assert int_spectrum([1]).integer_eigenvalues() == []
    assert int_spectrum(from_roots([0, 0, 0])).integer_roots == ((0, 3),)


@st.composite
def clustered_roots_and_a_square_root(draw):
    """prod (x - k) over integers k clustered near a large centre, some
    repeated, times x^2 - a with a not a square (roots +-sqrt(a))."""
    centre = draw(st.one_of(st.integers(-(10**12), 10**12), st.integers(-(2**100), 2**100)))
    offsets = draw(st.lists(st.integers(0, 12), min_size=1, max_size=10))
    offsets += draw(st.lists(st.sampled_from(offsets), max_size=2))
    a = draw(st.integers(2, 10**6).filter(lambda a: math.isqrt(a) ** 2 != a))
    return sorted(centre + k for k in offsets), a


@settings(max_examples=40, deadline=None)
@given(clustered_roots_and_a_square_root())
@example(([10**9 + j for j in range(1, 11)], 2))
@example(([10**9 + 1] + [10**9 + j for j in range(1, 11)], 2))
def test_int_spectrum_lists_every_integer_root_of_a_cluster(case):
    # every root is real, so every integer root is listed: the cluster,
    # with its multiplicities, and neither of +-sqrt(a)
    roots, a = case
    p = from_roots(roots, [1, 0, -a])
    assert_matches_sympy(p)
    assert [k for k, m in int_spectrum(p).integer_roots for _ in range(m)] == roots


def test_intpoly_computes_no_float():
    # neither a float conversion nor numpy's float root-finder
    tree = ast.parse((Path(__file__).parent.parent / "src" / "lcplab" / "intpoly.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "float" not in names and "roots" not in attrs
