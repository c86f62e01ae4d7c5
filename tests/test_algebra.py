import math
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from lcplab import exact as ex
from lcplab.algebra import (
    LieAlgebra,
    _primitive,
    Metric,
    OneForm,
    Subspace,
    almost_abelian_presentation,
    audit_algebra,
    is_closed,
    subspace_predicates,
    trace_form,
)
from lcplab.errors import InvalidStructure, NotPositiveDefinite
from lcplab.lowdim import table_algebra
from lcplab.randgen import random_algebra, random_metric, rng


def e11():
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, -1]})


def sympy_span_dim(vectors, n):
    # independent rank oracle for series computations
    if not vectors:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in v] for v in vectors]).rank()


def test_bracket_examples():
    L = e11()
    assert np.array_equal(L.bracket(ex.rvec([0, 1, 0]), ex.rvec([0, 0, 1])), ex.rzeros(3))
    e1, e2 = ex.rvec([1, 0, 0]), ex.rvec([0, 1, 0])
    assert np.array_equal(L.bracket(e1, e2), e2)
    x = ex.rvec([1, F(1, 2), -2])
    assert ex.is_zero(L.bracket(x, x))


def test_antisymmetry_enforced():
    c = ex.rzeros((2, 2, 2))
    c[0, 1, 0] = F(1)
    with pytest.raises(InvalidStructure):
        LieAlgebra(c)


def test_jacobi_enforced():
    # [e1,e2]=e3, [e1,e3]=e1 fails Jacobi
    with pytest.raises(InvalidStructure):
        LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})


def test_audit_e11():
    rep = audit_algebra(e11())
    assert rep.jacobi_ok and rep.solvable and not rep.nilpotent and rep.unimodular
    assert rep.derived_series_dims == (3, 2, 0)


def test_audit_abelian():
    rep = audit_algebra(LieAlgebra.abelian(3))
    assert rep.nilpotent and rep.unimodular and rep.solvable


def test_audit_g42_against_rank_oracle():
    L = table_algebra("g_{4.2}^{-2}")
    rep = audit_algebra(L)
    assert rep.solvable and rep.unimodular
    # derived algebra dim via a brute-force oracle over all basis brackets
    vecs = [list(L.c[i, j, :]) for i in range(4) for j in range(4)]
    assert sympy_span_dim(vecs, 4) == 3
    assert rep.derived_series_dims[1] == 3


def test_trace_form():
    assert trace_form(e11()).is_zero()
    h = LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})
    H = trace_form(h)
    assert H(ex.rvec([1, 0])) == 1 and H(ex.rvec([0, 1])) == 0
    # rr_{3,lam}: brackets [x1,x2]=x2, [x1,x3]=lam x3 on dim 4
    lam = F(1, 3)
    r3 = LieAlgebra.from_brackets(
        4, {(0, 1): [0, 1, 0, 0], (0, 2): [0, 0, lam, 0]}
    )
    H3 = trace_form(r3)
    assert H3.coeffs[0] == 1 + lam and ex.is_zero(H3.coeffs[1:])


def test_trace_form_vanishes_on_brackets():
    r = rng(7)
    for _ in range(10):
        L = random_algebra(r, 4)
        H = trace_form(L)
        for i in range(4):
            for j in range(4):
                assert H(L.c[i, j, :]) == 0


def test_is_closed():
    L = e11()
    assert is_closed(L, OneForm.dual(3, 0))
    assert not is_closed(L, OneForm.dual(3, 1))
    assert is_closed(LieAlgebra.abelian(3), OneForm.dual(3, 2))


def test_subspace_canonical_equality():
    a = Subspace.spanned_by([[1, 1, 0], [0, 0, 1]])
    b = Subspace.spanned_by([[2, 2, 0], [1, 1, 3]])
    assert a == b and hash(a) == hash(b)
    assert a != Subspace.spanned_by([[1, 0, 0]])


def test_subspace_predicates_e11():
    L, G = e11(), Metric.identity(3)
    rep = subspace_predicates(L, G, Subspace.spanned_by([[0, 0, 1]]))
    assert rep.is_ideal and rep.is_abelian and rep.in_centre_of_derived
    assert rep.orthogonal_complement == Subspace.spanned_by([[1, 0, 0], [0, 1, 0]])
    rep2 = subspace_predicates(L, G, Subspace.spanned_by([[1, 0, 0]]))
    assert rep2.is_subalgebra and not rep2.is_ideal
    rep3 = subspace_predicates(L, G, Subspace.full(3))
    assert rep3.is_ideal and rep3.orthogonal_complement.dim == 0


def test_orthocomplement_involution():
    r = rng(3)
    for _ in range(10):
        G = random_metric(r, 4)
        U = Subspace.spanned_by([[1, 0, 2, 0], [0, 1, 0, F(1, 2)]])
        assert U.orthogonal_complement(G).orthogonal_complement(G) == U
        assert U.dim + U.orthogonal_complement(G).dim == 4
        assert U.intersect(U.orthogonal_complement(G)).dim == 0


def test_almost_abelian_e11():
    p = almost_abelian_presentation(e11(), Metric.identity(3))
    assert np.array_equal(p.b, ex.rvec([1, 0, 0]))
    assert p.unit and p.b_norm_sq == 1
    assert p.ideal == Subspace.spanned_by([[0, 1, 0], [0, 0, 1]])
    assert np.array_equal(p.matrix, ex.rmat([[1, 0], [0, -1]]))


def test_almost_abelian_absent_for_g535():
    # the 4-dim ideal is not abelian, and no other candidate exists
    L = table_algebra("g_{5.35}^{-2,0}")
    assert almost_abelian_presentation(L, Metric.identity(5)) is None


def test_almost_abelian_abelian_case():
    G = Metric.identity(3)
    p = almost_abelian_presentation(LieAlgebra.abelian(3), G)
    assert np.array_equal(p.b, ex.rvec([1, 0, 0]))
    assert ex.is_zero(p.matrix)


def test_almost_abelian_heisenberg():
    L = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})
    p = almost_abelian_presentation(L, Metric.identity(3))
    assert p is not None and p.ideal.dim == 2
    # the found ideal is abelian and an ideal
    rep = subspace_predicates(L, Metric.identity(3), p.ideal)
    assert rep.is_ideal and rep.is_abelian


def test_primitive_big_denominators():
    v = ex.rvec([F(3, 10**40 + 7), F(-6, 10**39 + 1), 0, F(9, 7 * (10**40 + 7))])
    # Fraction reference: clear denominators, divide by the content, and
    # make the first nonzero entry positive
    den = 1
    for x in v:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    want = [F(x // g) for x in ints]
    assert list(_primitive(v)) == want
    assert list(_primitive(-v)) == want
    assert list(_primitive(ex.rvec([0, 0]))) == [0, 0]


def test_metric_validation():
    with pytest.raises(NotPositiveDefinite):
        Metric(ex.rmat([[1, 2], [2, 1]]))
    g = Metric(ex.rmat([[2, 1], [1, 2]]))
    assert g.norm_sq(ex.rvec([1, 0])) == 2
    th = OneForm.dual(2, 0)
    assert th(g.sharp(th)) == g.inverse[0, 0]


def test_derived_series_decreasing():
    r = rng(11)
    for _ in range(15):
        L = random_algebra(r, 5)
        dims = [t.dim for t in L.derived_series()]
        assert all(a > b for a, b in zip(dims, dims[1:]))
        assert L.is_solvable() == (dims[-1] == 0)
