"""Seeded random generators of exact rational test inputs.

Random Lie algebras are drawn from families where the Jacobi identity
holds by construction (almost abelian, semidirect sums, nilpotent
two-step), since arbitrary random structure constants are essentially
never Lie algebras.  Metrics are A^T A + I for a random small-entry A,
which is positive definite by construction; Lee forms are random
covectors annihilating the derived algebra.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import exact as ex
from .algebra import LieAlgebra, Metric, OneForm


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def small_fraction(r: random.Random, max_num: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(r.randint(-max_num, max_num), r.randint(1, max_den))


def random_metric(r: random.Random, n: int) -> Metric:
    a = ex.rzeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = Fraction(r.randint(-1, 1), r.randint(1, 2))
    return Metric(a.T.dot(a) + ex.reye(n))


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
    ann = ex.left_nullspace(L.derived_algebra.basis)
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
