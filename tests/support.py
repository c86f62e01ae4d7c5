"""Test helpers: seeded random exact inputs and Fraction-array references.

Random Lie algebras are drawn from families where the Jacobi identity
holds by construction (almost abelian, semidirect sums, nilpotent
two-step), since arbitrary random structure constants are essentially
never Lie algebras.  Metrics are A^T A + I for a random small-entry A,
which is positive definite by construction; Lee forms are random
covectors annihilating the derived algebra.

The references compute on ``Fraction`` arrays, apart from the integer
forms lcplab itself computes on: ranks, inverses, annihilators,
definiteness, ad-matrices, skewness and torsion as the tests read them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from lcplab import exact as ex
from lcplab.algebra import LieAlgebra, Metric, OneForm


# ---------------------------------------------------------------------------
# Fraction-array references
# ---------------------------------------------------------------------------


def dot(a, b):
    """Exact product of 1-d or 2-d rational arrays, as ``a.dot(b)``: one
    integer product over the two common denominators, then one
    ``Fraction`` per result entry; a 1-d by 1-d product is a scalar."""
    ia, da = ex.scaled(a)
    ib, db = ex.scaled(b)
    return ex.unscaled(ia.dot(ib), da * db)


def reye(n: int) -> np.ndarray:
    m = ex.rzeros((n, n))
    for i in range(n):
        m[i, i] = ex.ONE
    return m


def rank(m) -> int:
    return len(ex.rref(m)[1])


def left_nullspace(m) -> np.ndarray:
    """Matrix Q (rows) with Q m = 0 and rank(Q) = rows - rank(m)."""
    return ex.nullspace(m.T).T


def inv(a) -> np.ndarray:
    ints, den = ex.scaled(a)
    inv_ints, d = ex.int_inv(ints)
    return ex.unscaled(inv_ints * den, d)


def to_float(a) -> np.ndarray:
    return np.asarray(a, dtype=object).astype(np.float64)


def trace_free_float(a, bits: int = 40) -> np.ndarray:
    """A float twin whose held trace is exactly 0: ``to_float(a)`` with its
    diagonal rounded to multiples of 2^-bits and the last diagonal entry
    minus the sum of the others (sums on that grid are exact floats)."""
    f = to_float(a)
    n = len(f)
    diag = np.round(f.diagonal() * 2.0**bits) / 2.0**bits
    diag[-1] = -diag[:-1].sum()
    f[range(n), range(n)] = diag
    assert sum(Fraction(x) for x in f.diagonal()) == 0
    return f


def is_pos_def(g) -> bool:
    """Sylvester's criterion for a symmetric rational matrix, on its
    integer numerators."""
    return ex.int_is_pos_def(ex.scaled(g)[0])


def ad_basis(L: LieAlgebra) -> tuple:
    """ad_{e_i} as views of c; column j is [e_i, e_j]."""
    return tuple(L.c[i, :, :].T for i in range(L.dim))


def norm_sq(G: Metric, x) -> Fraction:
    return G.inner(x, x)


def skew_defect(G: Metric, m: np.ndarray):
    """G m + m^T G, the obstruction to m being G-skew-symmetric."""
    gm = dot(G.gram, m)
    return gm + gm.T


def is_g_skew(G: Metric, m: np.ndarray) -> bool:
    return ex.is_zero(skew_defect(G, m))


def torsion_defect(conn, L: LieAlgebra):
    """First basis pair where nabla_x y - nabla_y x != [x, y], or None."""
    n = conn.dim
    for i in range(n):
        for j in range(i + 1, n):
            d = conn.gamma[i][:, j] - conn.gamma[j][:, i] - L.c[i, j, :]
            if not ex.is_zero(d):
                return (i, j)
    return None


# ---------------------------------------------------------------------------
# seeded random inputs
# ---------------------------------------------------------------------------


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def small_fraction(r: random.Random, max_num: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(r.randint(-max_num, max_num), r.randint(1, max_den))


def random_metric(r: random.Random, n: int) -> Metric:
    a = ex.rzeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = Fraction(r.randint(-1, 1), r.randint(1, 2))
    return Metric(a.T.dot(a) + reye(n))


def random_almost_abelian(r: random.Random, n: int, trace_free: bool = False) -> LieAlgebra:
    """R b |x R^{n-1} with a random rational action matrix."""
    k = n - 1
    c = [[small_fraction(r) for _ in range(k)] for _ in range(k)]
    if trace_free:
        s = sum(c[i][i] for i in range(k))
        c[k - 1][k - 1] -= s
    brackets = {}
    for j in range(k):
        col = [ex.ZERO] + [c[i][j] for i in range(k)]
        brackets[(0, 1 + j)] = col
    return LieAlgebra.from_brackets(n, brackets)


def random_two_step_nilpotent(r: random.Random, n: int) -> LieAlgebra:
    """[x, y] lands in a central tail of dimension n - m."""
    m = max(2, n - r.randint(1, max(1, n - 2)))
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            col = ex.rzeros(n)
            for k in range(m, n):
                col[k] = small_fraction(r, 2, 2)
            if not ex.is_zero(col):
                brackets[(i, j)] = col
    if not brackets:
        return LieAlgebra.abelian(n)
    return LieAlgebra.from_brackets(n, brackets)


def random_algebra(r: random.Random, n: int) -> LieAlgebra:
    kind = r.randrange(4)
    if kind == 0:
        return LieAlgebra.abelian(n)
    if kind == 1 and n >= 3:
        return random_two_step_nilpotent(r, n)
    if kind == 2 and n >= 4:
        split = r.randint(2, n - 2)
        return random_almost_abelian(r, split).direct_sum(
            random_algebra(r, n - split)
        )
    return random_almost_abelian(r, n)


def random_closed_form(r: random.Random, L: LieAlgebra) -> OneForm:
    """Random nonzero 1-form vanishing on g' (hence closed); None when g'
    is the whole algebra."""
    ann = left_nullspace(L.derived_algebra.basis)
    if ann.shape[0] == 0:
        return None
    for _ in range(64):
        coeffs = ex.rvec([small_fraction(r, 2, 2) for _ in range(ann.shape[0])])
        theta = OneForm(coeffs.dot(ann))
        if not theta.is_zero():
            return theta
    return OneForm(ann[0, :])


def random_skew(r: random.Random, q: int) -> np.ndarray:
    m = ex.rzeros((q, q))
    for i in range(q):
        for j in range(i + 1, q):
            v = small_fraction(r, 2, 2)
            m[i, j] = v
            m[j, i] = -v
    return m
