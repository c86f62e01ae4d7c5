import math
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lcplab import exact as ex
from lcplab.algebra import (
    LieAlgebra,
    Metric,
    OneForm,
    Subspace,
    almost_abelian_presentation,
    audit_algebra,
    is_closed,
    subspace_predicates,
    trace_form,
)
from lcplab.errors import DimensionMismatch, InvalidStructure, NotPositiveDefinite
from lcplab.lowdim import SAMPLES, table_algebra
from support import (
    dot,
    drawn_algebra,
    e11,
    inv,
    norm_sq,
    random_algebra,
    random_metric,
    reye,
    rng,
)


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


def test_subspace_refuses_vectors_of_another_length():
    with pytest.raises(DimensionMismatch):
        Subspace.spanned_by([[1, 0, 0]], ambient_dim=4)
    with pytest.raises(DimensionMismatch):
        Subspace.spanned_by([[1, 0, 0], [0, 1]])
    assert Subspace.spanned_by([[1, 0, 0]], ambient_dim=3) == Subspace.spanned_by([[2, 0, 0]])
    assert Subspace.spanned_by([], ambient_dim=4).ambient_dim == 4


def test_subspace_contains_refuses_vectors_of_another_length():
    u = Subspace.spanned_by([[1, 1, 0]])
    for v in ([1, 1], [1, 1, 0, 0], ex.rvec([1, 1, 0, 0])):
        with pytest.raises(DimensionMismatch):
            u.contains(v)
    assert u.contains([2, 2, 0]) and not u.contains(ex.rvec([1, 0, 0]))


def test_subspace_refuses_a_basis_of_another_length():
    with pytest.raises(DimensionMismatch):
        Subspace(np.eye(3, dtype=object), ambient_dim=4)
    with pytest.raises(DimensionMismatch):
        Subspace(ex.rmat([[1], [0]]), ambient_dim=3)
    assert Subspace(np.eye(3, dtype=object), ambient_dim=3) == Subspace.full(3)
    assert Subspace(ex.rzeros((4, 0)), ambient_dim=4) == Subspace.zero(4)
    # no vectors at all span the zero space of any ambient dimension
    assert Subspace(np.zeros((0,), dtype=object), ambient_dim=3) == Subspace.zero(3)


def test_subspace_refuses_an_empty_basis_of_another_length():
    # an empty 2-d basis still has a row count, which must be ambient_dim
    for rows in (3, 4):
        with pytest.raises(DimensionMismatch):
            Subspace(np.zeros((rows + 1, 0), dtype=object), ambient_dim=rows)


def test_one_form_arithmetic_refuses_another_dimension():
    a, b = OneForm([1, 2, 3]), OneForm([5])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(DimensionMismatch):
            x + y
        with pytest.raises(DimensionMismatch):
            x - y
    assert a + OneForm([1, 1, 1]) == OneForm([2, 3, 4])
    assert a - OneForm([1, 1, 1]) == OneForm([0, 1, 2])


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


def reference_primitive(v):
    """The primitive integer vector on the line of v, first nonzero entry
    positive, in Fractions: clear denominators, divide by the content."""
    den = 1
    for x in v:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    if next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return ex.rvec(ints)


def reference_presentation(L, G, ideal):
    """The presentation from its ideal, all in Fractions."""
    b = reference_primitive(ideal.orthogonal_complement(G).basis[:, 0])
    nsq = norm_sq(G, b)
    root = F(math.isqrt(nsq.numerator), math.isqrt(nsq.denominator))
    unit = root * root == nsq
    if unit and nsq != 1:
        b = b / root
        nsq = ex.ONE
    mat = ex.solve(ideal.basis, dot(L.ad(b), ideal.basis))
    return SimpleNamespace(b=b, b_norm_sq=nsq, unit=unit, ideal=ideal, matrix=mat)


def check_against_reference(L, G):
    """The presentation of (L, G) equals the Fraction reference made from
    its ideal, which is a codimension-1 abelian ideal (for abelian L, the
    G-orthocomplement of e1)."""
    p = almost_abelian_presentation(L, G)
    if p is None:
        return None
    ideal = p.ideal
    if L.derived_algebra.dim == 0:
        e1 = ex.rzeros(L.dim)
        e1[0] = ex.ONE
        ideal = Subspace.spanned_by([e1], L.dim).orthogonal_complement(G)
    rep = subspace_predicates(L, G, ideal)
    assert ideal.dim == L.dim - 1 and rep.is_ideal and rep.is_abelian
    q = reference_presentation(L, G, ideal)
    assert list(p.b) == list(q.b)
    assert p.b_norm_sq == q.b_norm_sq and type(p.b_norm_sq) is type(q.b_norm_sq)
    assert p.unit == q.unit
    assert p.ideal == q.ideal
    assert p.matrix.shape == q.matrix.shape and list(p.matrix.flat) == list(q.matrix.flat)
    return p


def test_primitive_big_denominators():
    v = ex.rvec([F(3, 10**40 + 7), F(-6, 10**39 + 1), 0, F(9, 7 * (10**40 + 7))])
    want = reference_primitive(v)
    # e(1,1)+R has the ideal span(e2, e3, e4); under G = P^-T D P^-1 with
    # P = [v e2 e3 e4] and D = diag(d, 1, 1, 1), its G-orthogonal line is
    # that of v, and b.G.b = d (b / v)^2
    L = table_algebra("e(1,1)+R")
    for d, unit, b in ((2, False, want), (F(4, 9), True, F(3, 2) * v), (1, True, v)):
        D = reye(4)
        D[0, 0] = ex.rat(d)
        for w in (v, -v):
            P = reye(4)
            P[:, 0] = w
            Pi = inv(P)
            p = check_against_reference(L, Metric(dot(dot(Pi.T, D), Pi)))
            assert p.unit == unit and list(p.b) == list(b)


def test_presentation_matches_reference_on_catalog():
    for sample in SAMPLES:
        L = table_algebra(sample.name, sample.params)
        for G in (Metric.identity(L.dim), random_metric(rng(L.dim), L.dim)):
            check_against_reference(L, G)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 5),
    kind=st.sampled_from(["abelian", "almab", "almab-basis", "nilpotent", "nilpotent-basis"]),
    square=st.fractions(min_value=F(1, 5), max_value=9, max_denominator=5),
)
def test_presentation_matches_fraction_reference(seed, n, kind, square):
    L = drawn_algebra(seed, n, kind)
    G = random_metric(rng(seed + 1), n)
    p = check_against_reference(L, G)
    if p is None:
        return
    # rescale G so that the primitive b has norm square square^2: the
    # complement, so b, does not change with the scale of G
    b0 = reference_primitive(p.ideal.orthogonal_complement(G).basis[:, 0])
    G2 = G.scaled(square * square / norm_sq(G, b0))
    p2 = check_against_reference(L, G2)
    assert p2.unit and p2.b_norm_sq == 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 5),
    kind=st.sampled_from(["abelian", "almab-basis", "nilpotent-basis", "random"]),
)
def test_almost_abelian_does_not_depend_on_metric(seed, n, kind):
    L = random_algebra(rng(seed), n) if kind == "random" else drawn_algebra(seed, n, kind)
    G1, G2 = random_metric(rng(seed + 1), n), random_metric(rng(seed + 2), n)
    assert (almost_abelian_presentation(L, G1) is None) == (
        almost_abelian_presentation(L, G2) is None
    )


def test_metric_coerces_every_entry():
    # a string entry is coerced wherever it stands, not only when the first
    # entry is not a Fraction
    half = F(1, 2)
    a = Metric(np.array([[F(1), "1/2"], ["1/2", 1]], dtype=object))
    b = Metric(np.array([[1, "1/2"], ["1/2", F(1)]], dtype=object))
    assert a == b == Metric(ex.rmat([[1, half], [half, 1]]))


def test_metric_of_integer_entries_makes_no_fractions(monkeypatch):
    calls = []
    rmat = ex.rmat
    monkeypatch.setattr(ex, "rmat", lambda rows: calls.append(1) or rmat(rows))
    g = Metric(np.eye(2, dtype=object))
    assert calls == [] and g == Metric.identity(2)
    assert Metric(np.eye(2, dtype=int)) == Metric.identity(2)
    assert Metric(np.eye(2, dtype=int)).scaled_gram[1] == 1


def test_metric_validation():
    with pytest.raises(NotPositiveDefinite):
        Metric(ex.rmat([[1, 2], [2, 1]]))
    g = Metric(ex.rmat([[2, 1], [1, 2]]))
    assert norm_sq(g, ex.rvec([1, 0])) == 2
    th = OneForm.dual(2, 0)
    assert th(g.sharp(th)) == g.inverse[0, 0]


def test_derived_series_decreasing():
    r = rng(11)
    for _ in range(15):
        L = random_algebra(r, 5)
        dims = [t.dim for t in L.derived_series()]
        assert all(a > b for a, b in zip(dims, dims[1:]))
        assert L.is_solvable() == (dims[-1] == 0)
