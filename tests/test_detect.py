from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lcplab import exact as ex
from lcplab import detect, weyl
from lcplab.algebra import LieAlgebra, Metric, OneForm, Subspace, is_closed, trace_form
from lcplab.construct import almab_lcp, direct_product, metric_modification, semidirect_lcp, OrthoRep
from lcplab.detect import (
    ADAPTED,
    DEGENERATE,
    LCPStructure,
    classify,
    maximal_flat_parallel,
    structural_audit,
    verify_lcp,
)
from lcplab.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidStructure,
    NonClosedLeeForm,
    PreconditionViolated,
    ZeroLeeForm,
)
from lcplab.lowdim import nonunimodular_4d
from support import (
    e11,
    is_pos_def,
    left_nullspace,
    random_algebra,
    random_closed_form,
    random_metric,
    random_triple,
    reye,
    rng,
    small_fraction,
)


def theta_e11():
    return OneForm.dual(3, 0, -1)


MISMATCHED = {
    "verify-metric": lambda L, G, th, U: verify_lcp(L, Metric.identity(4), th, U),
    "classify-metric": lambda L, G, th, U: classify(L, Metric.identity(2), th),
    "classify-theta": lambda L, G, th, U: classify(L, G, OneForm.dual(4, 0, -1)),
    "structure-flat": lambda L, G, th, U: LCPStructure(L, G, th, Subspace.spanned_by([[0, 0, 0, 1]])).verify(),
    "is-closed": lambda L, G, th, U: is_closed(L, OneForm.dual(4, 0, -1)),
    "weyl-connection": lambda L, G, th, U: weyl.weyl_connection(L, Metric.identity(4), th),
    "direct-product": lambda L, G, th, U: direct_product(
        LCPStructure(L, G, th, U), LieAlgebra.abelian(1), Metric.identity(2)
    ),
    "semidirect": lambda L, G, th, U: semidirect_lcp(
        nonunimodular_4d("r2r2"), Metric.identity(3), OrthoRep.zero(2, 4)
    ),
    "almab": lambda L, G, th, U: almab_lcp([[1]], [[0]], Metric.identity(5)),
}


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_mismatched_dimensions_raise_dimension_mismatch(call):
    # e(1,1) with theta = -e^1 and its flat line; each call hands one
    # object of another dimension to an entry point
    L, G, th = e11(), Metric.identity(3), theta_e11()
    with pytest.raises(DimensionMismatch):
        call(L, G, th, Subspace.spanned_by([[0, 0, 1]]))


def test_verify_e11_passes_on_flat_line():
    rep = verify_lcp(e11(), Metric.identity(3), theta_e11(), Subspace.spanned_by([[0, 0, 1]]))
    assert rep.passed


def test_verify_e11_fails_with_witness():
    rep = verify_lcp(e11(), Metric.identity(3), theta_e11(), Subspace.spanned_by([[0, 1, 0]]))
    assert not rep.passed and not rep.bilinear_ok
    # the bilinear defect at (x=e1, u=e2): 2*g([e1,e2],e2) - 2*theta(e1) = 4
    w = [w for w in rep.witnesses if w.condition == 2][0]
    assert w.defect == 4


def test_verify_zero_subspace_vacuous():
    rep = verify_lcp(e11(), Metric.identity(3), theta_e11(), Subspace.zero(3))
    assert rep.passed


def test_verify_guards():
    with pytest.raises(ZeroLeeForm):
        verify_lcp(e11(), Metric.identity(3), OneForm.zero(3), Subspace.zero(3))
    with pytest.raises(NonClosedLeeForm):
        verify_lcp(e11(), Metric.identity(3), OneForm.dual(3, 1), Subspace.zero(3))
    with pytest.raises(DimensionTooSmall):
        classify(LieAlgebra.abelian(2), Metric.identity(2), OneForm.dual(2, 0))


def test_refusals_fire_once_a_memo_holds_an_entry_for_that_algebra():
    # the input checks run on a memo miss only; after a closed theta
    # verified on L, every other input is a miss and is checked
    L, G, th = e11(), Metric.identity(3), theta_e11()
    U = maximal_flat_parallel(L, G, th)
    assert U.dim == 1 and verify_lcp(L, G, th, U).passed
    assert verify_lcp(L, G, th, Subspace.zero(3)).passed
    refused = [
        (NonClosedLeeForm, lambda: verify_lcp(L, G, OneForm.dual(3, 1), U)),
        (NonClosedLeeForm, lambda: maximal_flat_parallel(L, G, OneForm.dual(3, 1))),
        (ZeroLeeForm, lambda: verify_lcp(L, G, OneForm.zero(3), U)),
        (ZeroLeeForm, lambda: verify_lcp(L, G, OneForm.zero(3), Subspace.zero(3))),
        (ZeroLeeForm, lambda: maximal_flat_parallel(L, G, OneForm.zero(3))),
        (DimensionMismatch, lambda: verify_lcp(L, G, th, Subspace.spanned_by([[0, 0, 0, 1]]))),
        (DimensionMismatch, lambda: verify_lcp(L, G, th, Subspace.zero(4))),
    ]
    # twice each: a refusal leaves no entry behind
    for err, call in refused + refused:
        with pytest.raises(err):
            call()


def test_maximal_flat_abelian_degenerate():
    L = LieAlgebra.abelian(3)
    assert maximal_flat_parallel(L, Metric.identity(3), OneForm.dual(3, 0)).dim == 0
    assert classify(L, Metric.identity(3), OneForm.dual(3, 0)).kind == DEGENERATE


def test_maximal_flat_e11():
    u = maximal_flat_parallel(e11(), Metric.identity(3), theta_e11())
    assert u == Subspace.spanned_by([[0, 0, 1]])
    cls = classify(e11(), Metric.identity(3), theta_e11())
    assert cls.kind == ADAPTED and cls.flat_dim == 1


def test_maximal_flat_semidirect_factor():
    s = almab_lcp([[1]], [[0, -1], [1, 0]])
    u = maximal_flat_parallel(s.algebra, s.metric, s.theta)
    assert u == s.flat and u.dim == 2


def test_nilpotent_degenerate():
    heis5 = LieAlgebra.from_brackets(5, {(0, 1): [0, 0, 1, 0, 0]})
    r = rng(13)
    for _ in range(10):
        theta = random_closed_form(r, heis5)
        assert classify(heis5, Metric.identity(5), theta).kind == DEGENERATE


def test_maximal_invariant_under_rescaling():
    L, th = e11(), theta_e11()
    u1 = maximal_flat_parallel(L, Metric.identity(3), th)
    u2 = maximal_flat_parallel(L, Metric.identity(3).scaled(F(5, 3)), th)
    assert u1 == u2


def test_monotonicity_coordinate_subspaces():
    # every coordinate subspace passing verification sits inside the maximum
    cases = [
        (e11(), Metric.identity(3), theta_e11()),
    ]
    s = almab_lcp([[1]], [[0, -1], [1, 0]])
    cases.append((s.algebra, s.metric, s.theta))
    for L, G, theta in cases:
        mx = maximal_flat_parallel(L, G, theta)
        n = L.dim
        for k in range(1, n + 1):
            for idx in combinations(range(n), k):
                basis = reye(n)[:, list(idx)]
                if verify_lcp(L, G, theta, Subspace(basis)).passed:
                    assert mx.contains_space(Subspace(basis))


def test_structural_audit_e11():
    L, G, th = e11(), Metric.identity(3), theta_e11()
    s = LCPStructure(L, G, th, maximal_flat_parallel(L, G, th))
    rep = structural_audit(s)
    assert rep.passed
    # trace relation at q = 1: H^{u-perp}(e1) = 1 = -q theta(e1)
    assert rep.trace_relations


def test_structural_audit_semidirect_q2():
    s = almab_lcp([[1]], [[0, -1], [1, 0]])
    rep = structural_audit(s)
    assert rep.passed and rep.codim2_almost_abelian


def test_structural_audit_preconditions():
    # non-unimodular input must be rejected
    h = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0]})
    th = OneForm.dual(3, 0, -1)
    u = maximal_flat_parallel(h, Metric.identity(3), th)
    with pytest.raises(PreconditionViolated):
        structural_audit(LCPStructure(h, Metric.identity(3), th, u))


def test_metric_modification_preserves_flat():
    L, G, th = e11(), Metric.identity(3), theta_e11()
    s = LCPStructure(L, G, th, maximal_flat_parallel(L, G, th))
    r = rng(17)
    for _ in range(10):
        lam = F(r.randint(0, 6), r.randint(1, 4))
        s2 = metric_modification(s, lam)
        assert s2.flat == s.flat and s2.verify().passed


def test_metric_agreeing_on_flat_preserves_verification():
    # any metric agreeing with g on pairings against u keeps u verified
    L, G, th = e11(), Metric.identity(3), theta_e11()
    u = maximal_flat_parallel(L, G, th)
    q = left_nullspace(u.basis)  # rows annihilating u
    r = rng(19)
    for _ in range(10):
        s = ex.rzeros((q.shape[0], q.shape[0]))
        for i in range(q.shape[0]):
            for j in range(i, q.shape[0]):
                v = F(r.randint(-1, 1), r.randint(1, 3))
                s[i, j] = v
                s[j, i] = v
        gram = G.gram + q.T.dot(s).dot(q)
        if not is_pos_def(gram):
            continue
        assert verify_lcp(L, Metric(gram), th, u).passed


def test_random_solvable_unimodular_detection_consistency():
    # random almost abelian algebras engineered to carry a flat factor
    # (eigenvalue block matching theta(b), any metric on the complement):
    # the detector must find it and the structural theory must hold.
    # inputs are built by hand here, independently of the constructors.
    from support import random_metric, random_skew, small_fraction

    r = rng(71)
    nonzero = 0
    for _ in range(25):
        p, q = r.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        n = 1 + p + q
        a = ex.rzeros((p, p))
        for i in range(p):
            for j in range(p):
                a[i, j] = small_fraction(r, 2, 2)
        tr = sum(a[i, i] for i in range(p))
        if tr == 0:
            a[0, 0] = a[0, 0] + 1
            tr = tr + 1
        lam = -tr / q
        block = lam * reye(q) + random_skew(r, q)
        brackets = {}
        for j in range(p):
            brackets[(0, 1 + j)] = np.concatenate([ex.rzeros(1), a[:, j], ex.rzeros(q)])
        for j in range(q):
            brackets[(0, 1 + p + j)] = np.concatenate(
                [ex.rzeros(1 + p), block[:, j]]
            )
        L = LieAlgebra.from_brackets(n, brackets)
        gram = ex.rzeros((n, n))
        gram[: 1 + p, : 1 + p] = random_metric(r, 1 + p).gram
        gram[1 + p:, 1 + p:] = reye(q)
        G = Metric(gram)
        # theta = lam * (dual of b): closed since brackets land in the ideal
        theta = OneForm.dual(n, 0, lam)
        u = maximal_flat_parallel(L, G, theta)
        assert u.dim >= q
        if u.dim == 0:
            continue
        nonzero += 1
        assert verify_lcp(L, G, theta, u).passed
        s = LCPStructure(L, G, theta, u)
        rep = structural_audit(s)
        assert rep.abelian_ideal_in_centre
        assert rep.nabla_equals_ad_on_flat
        assert rep.theta_vanishes_on_flat
        assert rep.nabla_vanishes_on_derived
        assert rep.trace_relations
        assert rep.codim_at_least_two
    assert nonzero == 25


def test_randomised_constructions_verify_and_audit():
    r = rng(101)
    for _ in range(8):
        lam = F(r.randint(1, 4), r.randint(1, 3))
        h = LieAlgebra.from_brackets(2, {(0, 1): [0, lam]})
        q = r.choice([1, 2])
        beta = OrthoRep.zero(q, 2)
        s = semidirect_lcp(h, Metric.identity(2), beta)
        mx = maximal_flat_parallel(s.algebra, s.metric, s.theta)
        assert mx.contains_space(s.flat)
        assert verify_lcp(s.algebra, s.metric, s.theta, mx).passed
        assert structural_audit(LCPStructure(s.algebra, s.metric, s.theta, mx)).passed


def test_one_weyl_connection_per_structure(monkeypatch):
    # construction, classification, the flat search, verification and the
    # audit of one (L, G, theta) all read a single connection
    calls = []
    build = weyl.weyl_connection

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(weyl, "weyl_connection", counted)
    s = almab_lcp([[1]], [[0, -1], [1, 0]])
    L, G, theta = s.algebra, s.metric, s.theta
    cls = classify(L, G, theta)
    flat = maximal_flat_parallel(L, G, theta)
    assert cls.flat == flat and flat.contains_space(s.flat)
    assert verify_lcp(L, G, theta, flat).passed
    assert structural_audit(LCPStructure(L, G, theta, flat)).passed
    assert len(calls) == 1


def test_one_flat_search_per_structure(monkeypatch):
    # classify and the flat search of one (L, G, theta) share one search,
    # also through an equal metric and form built separately
    calls = []
    search = detect._flat_search
    monkeypatch.setattr(detect, "_flat_search", lambda *args: calls.append(args) or search(*args))
    s = almab_lcp([[1]], [[0, -1], [1, 0]])
    L, G, theta = s.algebra, s.metric, s.theta
    cls = classify(L, G, theta)
    flat = maximal_flat_parallel(L, G, theta)
    G2 = Metric(ex.rmat([[str(x) for x in row] for row in G.gram]))
    theta2 = OneForm([str(x) for x in theta.coeffs])
    assert cls.flat is flat is maximal_flat_parallel(L, G2, theta2)
    assert flat.contains_space(s.flat) and len(calls) == 1
    # another metric is another search
    maximal_flat_parallel(L, G.scaled(2), theta)
    assert len(calls) == 2


def reference_verify(L, G, theta, U):
    """Conditions (1)-(3) pairwise on basis vectors, with R_ij u from a
    fresh connection: the witness list verify_lcp has to reproduce."""
    if U.dim == 0:
        return {"subalgebras_ok": True, "bilinear_ok": True, "curvature_ok": True,
                "passed": True, "witnesses": []}
    perp = U.orthogonal_complement(G)
    ub, pb = U.basis, perp.basis
    witnesses = []
    cond1 = U.contains_space(L.bracket_span(U, U)) and perp.contains_space(
        L.bracket_span(perp, perp)
    )
    if not cond1:
        witnesses.append({"condition": 1, "indices": [], "defect": "1"})
    cond2 = True
    for vl, vb, wl, wb in (("u", ub, "x", pb), ("x", pb, "u", ub)):
        for a in range(vb.shape[1]):
            ad = L.ad(vb[:, a])
            tv = theta(vb[:, a])
            for i in range(wb.shape[1]):
                for j in range(i, wb.shape[1]):
                    x, y = wb[:, i], wb[:, j]
                    d = G.inner(ad.dot(x), y) + G.inner(ad.dot(y), x) - 2 * tv * G.inner(x, y)
                    if d != 0:
                        cond2 = False
                        witnesses.append(
                            {"condition": 2, "indices": [vl, a, wl, i, wl, j], "defect": str(d)}
                        )
    gamma = weyl.weyl_connection(L, G, theta).gamma
    cond3 = True
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for a in range(ub.shape[1]):
                u = ub[:, a]
                w = gamma[i].dot(gamma[j].dot(u)) - gamma[j].dot(gamma[i].dot(u))
                for k in range(L.dim):
                    w = w - L.c[i, j, k] * gamma[k].dot(u)
                if not ex.is_zero(w):
                    cond3 = False
                    witnesses.append(
                        {"condition": 3, "indices": [i, j, "u", a], "defect": str(tuple(w))}
                    )
    return {"subalgebras_ok": cond1, "bilinear_ok": cond2, "curvature_ok": cond3,
            "passed": cond1 and cond2 and cond3, "witnesses": witnesses}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 6), k=st.integers(0, 2))
def test_verify_matches_pairwise_reference(seed, n, k):
    # k = 0 checks the maximal flat parallel subspace, k = 1, 2 a random one
    r = rng(seed)
    L, G, theta = random_triple(r, n)
    assume(theta is not None)
    if k == 0:
        U = maximal_flat_parallel(L, G, theta)
    else:
        U = Subspace(ex.rmat([[small_fraction(r) for _ in range(k)] for _ in range(n)]))
    assert verify_lcp(L, G, theta, U).as_dict() == reference_verify(L, G, theta, U)


def restricted_trace_form(L, U):
    """Reference: the trace form of the subalgebra ``L.restrict(U.basis)``,
    built as a new LieAlgebra on Fraction coordinates."""
    return list(trace_form(L.restrict(U.basis)).coeffs)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_subalgebra_trace_form_matches_restrict_reference(seed):
    # L is a random algebra of dimension m plus an abelian R^(n-m), in a
    # unipotent rational basis so that c and the subspace bases have
    # denominators.  A subspace containing g' is an ideal, often proper
    # with a nonzero trace form; a span of random vectors may not be a
    # subalgebra, and then both must refuse it.  theta is solved for so
    # that c theta(u_a) is the reference trace of u_a, and then moved
    # off it on one column about half the time
    r = rng(seed)
    n = r.randint(2, 6)
    m, extra, ideal = r.randint(2, n), r.randint(0, 2), r.random() < 0.8
    p = reye(n)
    for i in range(n):
        for j in range(i + 1, n):
            p[i, j] = small_fraction(r, 2, 3)
    L = random_algebra(r, m)
    if m < n:
        L = L.direct_sum(LieAlgebra.abelian(n - m))
    L = L.restrict(p)
    cols = [L.derived_algebra.basis] if ideal else []
    if extra:
        cols.append(ex.rmat([[small_fraction(r) for _ in range(n)] for _ in range(extra)]).T)
    U = Subspace(np.concatenate(cols, axis=1) if cols else ex.rzeros((n, 0)), n)
    c = r.choice([-3, -2, -1, 1, 2, 5])
    try:
        expected = restricted_trace_form(L, U)
    except InvalidStructure:
        with pytest.raises(InvalidStructure):
            detect._trace_relation(L, U, np.ones(n, dtype=object), 1, c)
        return
    target = ex.rvec([h / c for h in expected])
    off = U.dim > 0 and r.random() < 0.5
    if off:
        target[r.randrange(U.dim)] += small_fraction(r) or 1
    theta = ex.solve(U.basis.T, target) if U.dim else ex.rzeros(n)
    t, dt = ex.scaled(theta)
    assert detect._trace_relation(L, U, t, dt, c) is not off
