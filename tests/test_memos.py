"""Values computed once per immutable object.

Bracket spans are kept with the algebra, keyed by the content keys of
their spans; orthogonal complements with the metric,
keyed by the span; the Jacobi defect with the algebra.  Equal contents
built separately must find one entry, other contents must not collide,
what is shared must be read-only, and the pipeline classify -> verify
-> audit must compute each span once.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from lcplab import exact as ex
from lcplab.algebra import (
    LieAlgebra,
    Metric,
    OneForm,
    Subspace,
    audit_algebra,
)
from lcplab.construct import almab_lcp
from lcplab.detect import LCPStructure, classify, structural_audit, verify_lcp
from lcplab.errors import InvalidStructure
from support import dot, random_algebra, random_metric, rng, small_fraction
from test_exact_dot import ref_bracket_span, ref_jacobi_defect
from test_integer_kernels import _counting, _invertible, _matrix, ref_centraliser, same_span


def _same_span_twice(r, n, k):
    """Two Subspace objects of one span, from unrelated bases."""
    b = _matrix(r, n, k)
    return Subspace(b), Subspace(dot(b, _invertible(r, k)))


def _read_only(s: Subspace) -> bool:
    return not s.scaled_basis[0].flags.writeable and not s.basis.flags.writeable


def test_span_memos_share_equal_contents_and_keep_others_apart():
    r = rng(11)
    n = 6
    L = random_algebra(r, n)
    while L.derived_algebra.dim == 0:
        L = random_algebra(r, n)
    G = random_metric(r, n)
    U1, U2 = _same_span_twice(r, n, 2)
    V1, V2 = _same_span_twice(r, n, 3)
    assert U1 is not U2 and U1 == U2

    spans = vars(L)["_bracket_span"]  # g' is in it already
    before = len(spans)
    span = L.bracket_span(U1, V1)
    assert L.bracket_span(U2, V2) is span and len(spans) == before + 1
    assert same_span(span, ref_bracket_span(L, U1.basis, V1.basis))
    # (V, U) and (U, U) are other keys with their own values
    assert same_span(L.bracket_span(V2, U2), ref_bracket_span(L, V1.basis, U1.basis))
    assert same_span(L.bracket_span(U2, U1), ref_bracket_span(L, U1.basis, U1.basis))
    assert len(spans) == before + 3

    cent = L.centraliser(U1)
    assert same_span(cent, ref_centraliser(L, U1.basis))
    assert same_span(L.centraliser(V2), ref_centraliser(L, V1.basis))

    perp = U1.orthogonal_complement(G)
    assert U2.orthogonal_complement(G) is perp
    assert perp == Subspace(ex.nullspace(dot(U1.basis.T, G.gram)), n)
    assert V1.orthogonal_complement(G) == Subspace(ex.nullspace(dot(V1.basis.T, G.gram)), n)
    assert len(vars(G)["_orthogonal_complement"]) == 2
    # another metric keeps its own table and its own answer
    G2 = G.scaled(2)
    assert U1.orthogonal_complement(G2) is not perp and U1.orthogonal_complement(G2) == perp
    H = Metric(G.gram + np.outer(U1.basis[:, 0], U1.basis[:, 0]))
    assert U1.orthogonal_complement(H) == Subspace(ex.nullspace(dot(U1.basis.T, H.gram)), n)

    for s in (span, cent, perp):
        assert _read_only(s)


def _broken_jacobi(r, n):
    """Antisymmetric structure constants that fail the Jacobi identity."""
    while True:
        c = random_algebra(r, n).c.copy()
        for _ in range(2):
            i, j, k = r.sample(range(n), 3)
            c[i, j, k] += small_fraction(r) or 1
            c[j, i, k] = -c[i, j, k]
        L = LieAlgebra(c, check=False)
        if ref_jacobi_defect(L) is not None:
            return c


@pytest.mark.parametrize("n", [3, 5, 7])
def test_unchecked_algebra_reports_the_witness_of_the_check(n):
    c = _broken_jacobi(rng(40 + n), n)
    with pytest.raises(InvalidStructure) as err:
        LieAlgebra(c)
    L = LieAlgebra(c, check=False)
    want = ref_jacobi_defect(L)
    assert str(want) in str(err.value)
    report = audit_algebra(L)
    assert report.jacobi_witness == want and not report.jacobi_ok
    # read again after the audit, and by a second audit: the same answer
    assert L.jacobi_defect() == want and audit_algebra(L) == report
    # a checked algebra hands its construction-time result to the audit
    ok = random_algebra(rng(n), n)
    assert audit_algebra(ok).jacobi_witness is None and audit_algebra(ok).jacobi_ok


def _almab8():
    """An almost abelian structure of dimension 8: p = 3, q = 4."""
    A = ex.rmat([[2, F(1, 2), 0], [0, -1, 1], [1, 0, 1]])
    B = ex.rmat([[0, 1, 0, 0], [-1, 0, F(1, 3), 0], [0, F(-1, 3), 0, 2], [0, 0, -2, 0]])
    h_gram = ex.rmat([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])
    return almab_lcp(A, B, Metric(h_gram))


def test_pipeline_computes_each_span_once(monkeypatch):
    s = _almab8()
    assert s.algebra.dim == 8
    # fresh objects, no memo filled yet; the metric is doubled (an LCP
    # structure still), so that flat^T G is not flat^T, whose kernel the
    # flat search takes
    L = LieAlgebra(s.algebra.c)
    G = Metric(2 * s.metric.gram)
    theta = OneForm(s.theta.coeffs)
    eliminated = _counting(monkeypatch, "_eliminate")
    kernels = _counting(monkeypatch, "int_nullspace")

    flat = classify(L, G, theta).flat
    assert verify_lcp(L, G, theta, flat).passed
    assert structural_audit(LCPStructure(L, G, theta, flat)).passed

    def times(calls, *args):
        keys = [ex.content_key(m, 1) for m in args]
        return sum([ex.content_key(m, 1) for m in a] == keys for a in calls)

    n = L.dim
    eye = Subspace.full(n).scaled_basis[0]
    # g' is eliminated as the transpose of its bracket matrix
    assert L.derived_algebra.dim > 0
    assert times(eliminated, L.int_brackets(eye, eye).T) == 1
    # the complement of the flat space, read by verification and audit,
    # is one kernel of its basis times the Gram matrix
    perp = flat.orthogonal_complement(G)
    assert 0 < flat.dim < n and perp.dim == n - flat.dim
    assert times(kernels, flat.scaled_basis[0].T.dot(G.scaled_gram[0])) == 1
    # the flat space a constructor verified is the span the search found:
    # its complement under the constructor's metric is one entry as well
    assert s.flat == flat
    assert s.flat.orthogonal_complement(s.metric) is flat.orthogonal_complement(s.metric)
