"""The integer forms between kernels against plain ``Fraction`` code.

Brackets, ad stacks, the Koszul solve, the conformal correction and the
curvature pass run on integers over one common denominator.  The
references below are the same formulas evaluated entry by entry in
``Fraction`` arithmetic (numpy object products, no ``exact`` kernel), on
random algebras, metrics and closed forms at n = 3..10.  Every returned
entry must be a ``Fraction``, also where an elimination was handed an
integer array.  The value objects keep integer forms of their arrays and
content keys built from them: each form must be the one ``ex.scaled``
gives for the ``Fraction`` array, and equal values built separately must
give equal keys.  Spans are ``Subspace``s: each span of the algebra must
equal the ``Subspace`` of its ``Fraction`` reference, and a ``Subspace``
wrapped straight from a kernel must be the one its basis gives.
"""

from fractions import Fraction as F
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from lcplab import detect
from lcplab import exact as ex
from lcplab.algebra import LieAlgebra, Metric, OneForm, Subspace
from lcplab.construct import almab_lcp, metric_modification
from lcplab.detect import LCPStructure, maximal_flat_parallel, structural_audit, verify_lcp
from lcplab.errors import InvalidStructure
from lcplab.weyl import Connection, curvature, levi_civita, weyl_connection, weyl_geometry
from support import (
    dot,
    random_algebra,
    random_closed_form,
    random_metric,
    rank,
    reye,
    rng,
    small_fraction,
)
from test_exact_dot import ref_bracket_span, ref_jacobi_defect
from test_weyl import koszul_oracle


def ref_ad_stack(L, u):
    n, p = L.dim, u.shape[1]
    return u.T.dot(L.c.reshape(n, n * n)).reshape(p, n, n).transpose(0, 2, 1)


def ref_brackets(L, u, v):
    n, p, q = L.dim, u.shape[1], v.shape[1]
    w = ref_ad_stack(L, u).reshape(p * n, n).dot(v)
    return w.reshape(p, n, q).transpose(1, 0, 2).reshape(n, p * q)


def ref_levi_civita(L, G):
    n = L.dim
    gc = L.c.reshape(n * n, n).dot(G.gram).reshape(n, n, n)
    k = (gc - gc.transpose(0, 2, 1) - gc.transpose(2, 0, 1)) / 2
    gam = G.inverse.dot(k.transpose(2, 0, 1).reshape(n, n * n)).reshape(n, n, n)
    return list(gam.transpose(1, 0, 2))


def ref_weyl_connection(L, G, theta):
    t = theta.coeffs
    sharp = G.inverse.dot(t)
    eye = reye(L.dim)
    return [
        g + t[i] * eye + np.outer(eye[:, i], t) - np.outer(sharp, G.gram[i])
        for i, g in enumerate(ref_levi_civita(L, G))
    ]


def ref_curvature(L, gamma):
    n = L.dim
    r = {}
    for i in range(n):
        for j in range(n):
            m = gamma[i].dot(gamma[j]) - gamma[j].dot(gamma[i])
            for k in range(n):
                m = m - L.c[i, j, k] * gamma[k]
            r[i, j] = m
    return r


def all_fractions(a) -> bool:
    return all(type(x) is F for x in np.asarray(a, dtype=object).flat)


def same(a, b) -> bool:
    return all_fractions(a) and np.array_equal(a, b)


def _matrix(r, rows, cols):
    return ex.rmat([[small_fraction(r) for _ in range(cols)] for _ in range(rows)])


def ref_centraliser(L, u):
    """The Subspace of x with [x, u_a] = 0 for every column u_a."""
    n, p = L.dim, u.shape[1]
    return Subspace(ex.nullspace(ref_ad_stack(L, u).reshape(p * n, n)), n)


def ref_series(L, step):
    terms = [reye(L.dim)]
    while terms[-1].shape[1] > 0:
        nxt = step(terms[-1]).basis
        if nxt.shape[1] == terms[-1].shape[1]:
            break
        terms.append(nxt)
    return [Subspace(t, L.dim) for t in terms]


def ref_centre_of_derived(L):
    """z(g') as d y with sum_j [d_j, d y] = 0: the kernel of the ad stack
    of the derived basis d, restricted to d."""
    n = L.dim
    d = ref_bracket_span(L, reye(n), reye(n)).basis
    k = d.shape[1]
    if k == 0:
        return Subspace.zero(n)
    return Subspace(d.dot(ex.nullspace(ref_ad_stack(L, d).reshape(k * n, n).dot(d))), n)


def same_span(got, want) -> bool:
    return got == want and same(got.basis, want.basis)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 6))
def test_brackets_and_spans_match_fraction_code(seed, n):
    r = rng(seed)
    L = random_algebra(r, n)
    u = _matrix(r, n, r.randint(1, 3))
    v = _matrix(r, n, r.randint(1, 3))
    want = ref_brackets(L, u, v)
    assert same(L.brackets(u, v), want)
    U, V, eye = Subspace(u), Subspace(v), reye(n)
    assert same_span(L.bracket_span(U, V), ref_bracket_span(L, u, v))
    assert same_span(L.centraliser(U), ref_centraliser(L, u))
    assert same_span(L.centre(), ref_centraliser(L, eye))
    assert same_span(L.derived_algebra, ref_bracket_span(L, eye, eye))
    assert same_span(L.centre_of_derived, ref_centre_of_derived(L))
    for series, ref in (
        (L.derived_series(), ref_series(L, lambda t: ref_bracket_span(L, t, t))),
        (L.lower_central_series(), ref_series(L, lambda t: ref_bracket_span(L, eye, t))),
    ):
        assert len(series) == len(ref) and all(map(same_span, series, ref))
    x = u[:, 0]
    assert same(L.ad(x), ref_ad_stack(L, u[:, :1])[0])
    assert same(L.bracket(x, v[:, 0]), want[:, 0])
    # restrictions to a line, to g' and to the centraliser of U (all
    # subalgebras), and to the columns of u and v, which may not be one
    for basis in (u[:, :1], L.derived_algebra.basis, L.centraliser(U).basis, u, v):
        k = basis.shape[1]
        coords = ex.solve(basis, ref_brackets(L, basis, basis))
        if coords is None:
            with pytest.raises(InvalidStructure):
                L.restrict(basis)
        else:
            assert same(L.restrict(basis).c, coords.T.reshape(k, k, k))


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 10))
def test_connections_and_curvature_match_fraction_code(seed, n):
    r = rng(seed)
    L = random_algebra(r, n)
    G = random_metric(r, n)
    theta = random_closed_form(r, L)
    lc = levi_civita(L, G)
    assert all(same(a, b) for a, b in zip(lc.gamma, ref_levi_civita(L, G)))
    conn = lc
    if theta is not None:
        conn = weyl_connection(L, G, theta)
        assert all(same(a, b) for a, b in zip(conn.gamma, ref_weyl_connection(L, G, theta)))
    want = ref_curvature(L, conn.gamma)
    curv = curvature(L, conn)
    assert all(same(curv.r[i][j], want[i, j]) for i in range(n) for j in range(n))
    x, y = _matrix(r, n, 2).T
    at = sum((x[i] * y[j] * want[i, j] for i in range(n) for j in range(n)), ex.rzeros((n, n)))
    assert same(curv.at(x, y), at)
    assert same(conn.of(x), sum((x[i] * conn.gamma[i] for i in range(n)), ex.rzeros((n, n))))


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(0, 6),
    cols=st.integers(1, 6),
    data=st.data(),
)
def test_eliminations_of_integer_arrays_return_fractions(rows, cols, data):
    vals = data.draw(st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols))
    ints = np.empty((rows, cols), dtype=object)
    ints.ravel()[:] = vals
    fracs = ex.unscaled(ints, 6)
    r, pivots = ex.rref(ints)
    rf, pf = ex.rref(fracs)
    assert pivots == pf and same(r, rf)
    assert same(ex.nullspace(ints), ex.nullspace(fracs))
    assert same_span(Subspace(ints), Subspace(fracs))


def test_unscaled_shares_zero():
    out = ex.unscaled(np.array([0, 3, 0], dtype=object), 6)
    assert out[0] is ex.ZERO and out[2] is ex.ZERO and out[1] == F(1, 2)
    assert ex.unscaled(0, 5) is ex.ZERO


def test_verification_body_runs_once_per_flat(monkeypatch):
    # constructing verifies the recipe's flat space, the pipeline verifies
    # the maximal one and the audit verifies again: one body run per flat
    ran = []
    body = detect._verify
    monkeypatch.setattr(detect, "_verify", lambda L, G, theta, U: ran.append(U) or body(L, G, theta, U))
    A = ex.rmat([[2, F(1, 2)], [0, -1]])
    B = ex.rmat([[0, 1, 0], [-1, 0, F(1, 3)], [0, F(-1, 3), 0]])
    s = almab_lcp(A, B, Metric(ex.rmat([[2, 1, 0], [1, 2, 0], [0, 0, 1]])))
    L, G, theta = s.algebra, s.metric, s.theta
    flat = maximal_flat_parallel(L, G, theta)
    report = verify_lcp(L, G, theta, flat)
    assert structural_audit(LCPStructure(L, G, theta, flat)).passed
    assert s.verify() is verify_lcp(L, G, theta, s.flat)
    assert report.passed and len(ran) == len(set(ran)) == len({s.flat, flat})
    # another metric on the same algebra is another verification
    metric_modification(s, 2)
    line = Subspace.spanned_by([[1] + [0] * (L.dim - 1)])
    assert not verify_lcp(L, G, theta, line).passed
    verify_lcp(L, G, theta, line)
    assert len(ran) == len(set(ran)) + 1 == len({s.flat, flat}) + 2


def same_form(form, arr) -> bool:
    """``form`` is the integer form ``ex.scaled`` gives for the
    ``Fraction`` array ``arr``: Python ints over the same denominator."""
    ints, den = form
    want_ints, want_den = ex.scaled(arr)
    return (
        all_fractions(arr)
        and den == want_den
        and ints.shape == want_ints.shape
        and all(type(x) is int for x in ints.flat)
        and np.array_equal(ints, want_ints)
    )


def _invertible(r, k):
    """A random invertible k x k rational matrix."""
    while True:
        t = _matrix(r, k, k)
        if rank(t) == k:
            return t


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 9))
def test_value_objects_hold_the_scaled_forms_of_their_arrays(seed, n):
    r = rng(seed)
    L = random_algebra(r, n)
    G = random_metric(r, n)
    assert same_form(G.scaled_gram, G.gram)
    assert same_form(G.scaled_inverse, G.inverse)
    assert np.array_equal(G.gram.dot(G.inverse), reye(n))
    U = Subspace(_matrix(r, n, r.randint(0, n)))
    for V in (U, U.orthogonal_complement(G)):
        assert same_form(V.scaled_basis, V.basis)
    theta = random_closed_form(r, L)
    if theta is not None:
        assert same_form(theta.scaled_coeffs, theta.coeffs)
        if n >= 3:
            flat = maximal_flat_parallel(L, G, theta)
            assert same_form(flat.scaled_basis, flat.basis)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 9))
def test_equal_values_built_separately_give_equal_keys(seed, n):
    r = rng(seed)
    L = random_algebra(r, n)
    G = random_metric(r, n)
    # the same Gram matrix from strings, and through a rescaling
    G2 = Metric(ex.rmat([[str(x) for x in row] for row in G.gram]))
    G3 = G.scaled(3).scaled(F(1, 3))
    assert G.key == G2.key == G3.key and G == G2 == G3
    assert G.scaled(2).key != G.key and G.scaled(2) != G
    # the same span from another basis
    k = r.randint(0, n)
    b = _matrix(r, n, k)
    U = Subspace(b)
    V = Subspace(dot(b, _invertible(r, k)) if k else b)
    assert U.key == V.key and U == V and hash(U) == hash(V)
    theta = random_closed_form(r, L)
    if theta is None:
        return
    theta2 = OneForm([str(x) for x in theta.coeffs])
    theta3 = (theta * 2) * F(1, 2)
    assert theta.key == theta2.key == theta3.key and theta == theta2 == theta3
    assert (theta * 2).key != theta.key
    # so the memo tables find the connection and the flat space again
    assert weyl_geometry(L, G2, theta2) is weyl_geometry(L, G, theta)
    assert maximal_flat_parallel(L, G3, theta3) is maximal_flat_parallel(L, G, theta)


def _kernel_made_spans(r, n):
    """Every way the package makes a Subspace without the public
    constructor, on one random algebra, metric and closed form."""
    L = random_algebra(r, n)
    G = random_metric(r, n)
    U = Subspace(_matrix(r, n, r.randint(0, n)))
    V = Subspace(_matrix(r, n, r.randint(0, n)))
    g = Subspace.full(n)
    spans = [g, Subspace.zero(n), L.derived_algebra, L.centre(), L.centre_of_derived]
    spans += L.derived_series() + L.lower_central_series()
    spans += [L.bracket_span(U, V), L.bracket_span(g, U), L.centraliser(U)]
    spans += [U.intersect(V), U.add(V), U.orthogonal_complement(G)]
    theta = random_closed_form(r, L)
    if theta is not None:
        spans.append(maximal_flat_parallel(L, G, theta))
    return spans


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 7))
def test_kernel_made_subspaces_equal_the_subspace_of_their_basis(seed, n):
    # Subspace._canonical skips the elimination: what it wraps must be
    # the canonical form the public constructor makes of the same basis
    for s in _kernel_made_spans(rng(seed), n):
        again = Subspace(s.basis, n)
        assert s.key == again.key and s == again and hash(s) == hash(again)
        assert same_form(s.scaled_basis, s.basis)


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(ex, name)
    monkeypatch.setattr(ex, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_spans_eliminate_once_and_never_rescale(monkeypatch):
    r = rng(5)
    L, G = random_algebra(r, 6), random_metric(r, 6)
    while (theta := random_closed_form(r, L)) is None:
        L = random_algebra(r, 6)
    U, V = Subspace(_matrix(r, 6, 2)), Subspace(_matrix(r, 6, 3))
    weyl_geometry(L, G, theta)  # the connection and curvature tables
    G.scaled_gram
    eliminations = _counting(monkeypatch, "_eliminate")
    L.bracket_span(U, V)
    assert len(eliminations) == 1
    scalings = _counting(monkeypatch, "scaled")
    U.orthogonal_complement(G)
    detect._flat_search(L, G, theta)
    assert scalings == []


# ---------------------------------------------------------------------------
# the int64 tables at and past their bounds, and the value views
# ---------------------------------------------------------------------------


def _int64_runs(monkeypatch) -> list:
    """Whether each ``ex.int64_within`` expression ran on int64, in order."""
    runs = []
    within = ex.int64_within

    def spy(bound, *arrays):
        out = within(bound, *arrays)
        runs.append(out[0].dtype == np.int64)
        return out

    monkeypatch.setattr(ex, "int64_within", spy)
    return runs


def _e11_sum_line(m):
    """e(1,1) + R with its constants times m, and a copy whose [e2, e4]
    = m e1 breaks the Jacobi identity; every entry is 0 or +-m."""
    good = LieAlgebra.from_brackets(4, {(0, 1): [0, m, 0, 0], (0, 2): [0, 0, -m, 0]})
    c = good.c.copy()
    c[1, 3, 0], c[3, 1, 0] = m, -m
    return good, LieAlgebra(c, check=False)


# 3 n m^2 < 2^63 at n = 4 exactly up to this m
JACOBI_EDGE = isqrt((2**63 - 1) // 12)


@pytest.mark.parametrize(
    "m, on_int64", [(JACOBI_EDGE, True), (JACOBI_EDGE + 1, False), (2**40, False), (3, True)]
)
def test_jacobi_defect_at_and_past_the_int64_bound(monkeypatch, m, on_int64):
    runs = _int64_runs(monkeypatch)
    good, bad = _e11_sum_line(m)
    assert good.jacobi_defect() is None is ref_jacobi_defect(good)
    assert bad.jacobi_defect() == ref_jacobi_defect(bad) is not None
    assert runs == [on_int64, on_int64]


# 3 n^2 m < 2^63 at n = 3 exactly up to this m: the Koszul bound for the
# identity metric (max|gg| = max|gi| = 1)
KOSZUL_EDGE = (2**63 - 1) // 27


@pytest.mark.parametrize(
    "m, gram, on_int64",
    [
        (KOSZUL_EDGE, None, True),
        (KOSZUL_EDGE + 1, None, False),
        (2**40, [[2**40, 1, 0], [1, 2, 0], [0, 0, 1]], False),
        (2**20, [[3, 1, 0], [1, 2, 0], [0, 0, 5]], True),
    ],
)
def test_koszul_solve_at_and_past_the_int64_bound(monkeypatch, m, gram, on_int64):
    L = LieAlgebra.from_brackets(3, {(0, 1): [0, m, 0], (0, 2): [0, 0, -m]})
    G = Metric.identity(3) if gram is None else Metric(ex.rmat(gram))
    G.scaled_inverse
    runs = _int64_runs(monkeypatch)
    lc = levi_civita(L, G)
    assert runs == [on_int64]
    for got, want in zip(lc.gamma, koszul_oracle(L, G)):
        assert all_fractions(got)
        assert sympy.Matrix(got.tolist()) == want
    theta = OneForm.dual(3, 0, m)
    for got, want in zip(weyl_connection(L, G, theta).gamma, ref_weyl_connection(L, G, theta)):
        assert same(got, want)


# the Weyl connection of theta = s e1* on that algebra, constants m = 2^20,
# identity metric: its one bound is 3 n^2 m + 10 s at n = 3 (2 s = max|u|,
# u = 2 e t, enters n max|u| + 2 max|u|), below 2^63 exactly up to this s
WEYL_M = 2**20
WEYL_EDGE = (2**63 - 1 - 27 * WEYL_M) // 10


@pytest.mark.parametrize(
    "s, gram, on_int64",
    [
        (WEYL_EDGE, None, True),
        (WEYL_EDGE + 1, None, False),
        (2**80, None, False),
        (F(7, 3), [[3, 1, 0], [1, 2, 0], [0, 0, 5]], True),
    ],
    ids=["at", "just-past", "well-past", "small"],
)
def test_weyl_connection_at_and_past_its_int64_bound(monkeypatch, s, gram, on_int64):
    L = LieAlgebra.from_brackets(3, {(0, 1): [0, WEYL_M, 0], (0, 2): [0, 0, -WEYL_M]})
    G = Metric.identity(3) if gram is None else Metric(ex.rmat(gram))
    G.scaled_inverse
    theta = OneForm.dual(3, 0, s)
    runs = _int64_runs(monkeypatch)
    conn = weyl_connection(L, G, theta)
    assert runs == [on_int64]
    assert all(same(got, want) for got, want in zip(conn.gamma, ref_weyl_connection(L, G, theta)))


def _curvature_edge(n, e, d, mc) -> int:
    """The largest max|g| with n max|g| (2 e max|g| + d mc) < 2^63."""
    lo, hi = 1, 2**32
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if n * mid * (2 * e * mid + d * mc) < 2**63:
            lo = mid
        else:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("shift, on_int64", [(0, True), (1, False), (2**40, False)])
def test_curvature_at_and_past_the_int64_bound(monkeypatch, shift, on_int64):
    L = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, -1]})
    m = _curvature_edge(3, 1, 1, 1) + shift
    r = rng(9)
    g = np.array([r.randint(-m, m) for _ in range(27)], dtype=object).reshape(3, 3, 3)
    g[0, 0, 0], g[2, 1, 0] = m, -m
    conn = Connection(g, 1)
    runs = _int64_runs(monkeypatch)
    got = curvature(L, conn)
    assert runs == [on_int64]
    want = ref_curvature(L, conn.gamma)
    assert all(same(got.r[i][j], want[i, j]) for i in range(3) for j in range(3))


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
def test_views_are_read_only_and_unscale_the_held_forms(seed, n):
    r = rng(seed)
    L, G = random_algebra(r, n), random_metric(r, n)
    theta = OneForm(_matrix(r, 1, n)[0])
    views = ((L.c, L.scaled_c), (G.gram, G.scaled_gram), (theta.coeffs, theta.scaled_coeffs))
    for view, form in views:
        assert not view.flags.writeable and not form[0].flags.writeable
        assert same(view, ex.unscaled(*form)) and same_form(form, view)
        with pytest.raises(ValueError):
            view[(0,) * view.ndim] = 1
    # built from an unreduced integer form, from ints, or from Fractions:
    # one value, with one reduced form
    cc, e = L.scaled_c
    assert LieAlgebra((cc * 6, e * 6)) == L == LieAlgebra(L.c)
    assert LieAlgebra(cc) == LieAlgebra(ex.unscaled(cc, 1))
    assert same_form(LieAlgebra((cc * 6, e * 6)).scaled_c, L.c)
    gg, dg = G.scaled_gram
    assert Metric((gg * 5, dg * 5)) == G == Metric(G.gram)
    t, dt = theta.scaled_coeffs
    assert OneForm((-t, -dt)) == theta == OneForm(theta.coeffs)


def test_integer_forms_given_from_outside_hold_python_ints():
    # an int64 array would wrap in the object products, and a Fraction
    # would be truncated by an int64 cast
    with pytest.raises(TypeError):
        Metric((np.eye(2, dtype=np.int64), 1))
    with pytest.raises(TypeError):
        OneForm((np.array([F(1, 2), 1], dtype=object), 1))
    with pytest.raises(TypeError):
        LieAlgebra.abelian(2).restrict((np.array([[1.0], [0.0]], dtype=object), 1))
    with pytest.raises(ZeroDivisionError):
        Metric((np.eye(2, dtype=object), 0))
    # a negative denominator is reduced away: -I / -2 is I / 2
    assert Metric((-np.eye(2, dtype=object), -2)).scaled_gram[1] == 2


# ---------------------------------------------------------------------------
# held bounds: taken once when a form is made, read by every int64 decision
# ---------------------------------------------------------------------------


def abs_max(a) -> int:
    return max((abs(x) for x in np.asarray(a).flat), default=0)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8), scale=st.sampled_from([1, 3**40]))
def test_held_bounds_are_the_largest_entries_of_the_held_ints(seed, n, scale):
    # scale 3^40 > 2^63 puts the connection and curvature tables past
    # int64, so both ways a table is made are covered
    r = rng(seed)
    cc, e = random_algebra(r, n).scaled_c
    L, G = LieAlgebra((cc * scale, e)), random_metric(r, n)
    theta = random_closed_form(r, L) or OneForm.zero(n)
    U = Subspace(_matrix(r, n, r.randint(0, n)))
    conn = weyl_connection(L, G, theta)
    curv = curvature(L, conn)
    held = [
        (L.c_max, L.scaled_c[0]),
        (G.gram_max, G.scaled_gram[0]),
        (G.inverse_max, G.scaled_inverse[0]),
        (theta.coeffs_max, theta.scaled_coeffs[0]),
        (U.basis_max, U.scaled_basis[0]),
        (L.derived_algebra.basis_max, L.derived_algebra.scaled_basis[0]),
        (conn.g_max, conn.g),
        (curv.num_max, curv.num),
    ]
    for bound, ints in held:
        assert type(bound) is int and bound == abs_max(ints)
        assert all(type(x) is int for x in ints.flat)
    # a form given unreduced carries the bound of its reduced ints
    assert LieAlgebra((cc * 6, e * 6)).c_max == abs_max(cc)


def _int_columns(r, n, k):
    a = np.empty((n, k), dtype=object)
    a.ravel()[:] = [r.randint(-3, 3) for _ in range(n * k)]
    a[0, 0] = 3
    return a


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 6), past=st.booleans())
def test_brackets_just_below_and_just_above_their_int64_bound(seed, n, past):
    r = rng(seed)
    cc, _ = random_algebra(r, n).scaled_c
    assume(any(cc.flat))
    u, v = _int_columns(r, n, r.randint(1, 3)), _int_columns(r, n, r.randint(1, 3))
    # the brackets are at most c_max max|u| n max|v| n, the largest m = s
    # max|cc| with that below 2^63 is at s below, and s + 1 is past it
    s = (2**63 - 1) // (abs_max(cc) * 9 * n * n) + past
    L = LieAlgebra((cc * s, 1))
    with pytest.MonkeyPatch.context() as mp:
        runs = _int64_runs(mp)
        got = L.int_brackets(u, v)
    assert runs == [not past]
    assert all(type(x) is int for x in got.flat)
    assert got.tolist() == ref_brackets(L, ex.unscaled(u, 1), ex.unscaled(v, 1)).tolist()


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 6), past=st.booleans())
def test_weyl_connection_just_below_and_just_above_its_int64_bound(seed, n, past):
    r = rng(seed)
    L0, G = random_algebra(r, n), random_metric(r, n)
    cc, _ = L0.scaled_c
    assume(any(cc.flat))
    theta = random_closed_form(r, L0) or OneForm.zero(n)
    t, dt = theta.scaled_coeffs
    # the one bound of weyl_connection is a s + b for the integer
    # constants s cc, whose algebra has the derived algebra of L0
    mg, mi, mu, k = G.gram_max, G.inverse_max, 2 * abs_max(t), G.scaled_gram[1] * G.scaled_inverse[1]
    a = 3 * n * n * dt * abs_max(cc) * mg * mi
    b = n * mi * mu * mg + 2 * k * mu
    s = (2**63 - 1 - b) // a + past
    L = LieAlgebra((cc * s, 1))
    with pytest.MonkeyPatch.context() as mp:
        runs = _int64_runs(mp)
        conn = weyl_connection(L, G, theta)
    assert runs == [not past]
    assert all(same(got, want) for got, want in zip(conn.gamma, ref_weyl_connection(L, G, theta)))


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 6), past=st.booleans())
def test_curvature_just_below_and_just_above_its_int64_bound(seed, n, past):
    r = rng(seed)
    L = random_algebra(r, n)
    g = np.empty((n, n, n), dtype=object)
    g.ravel()[:] = [r.randint(-4, 4) for _ in range(n**3)]
    g[0, 0, 0] = 4
    # the table s g over 1 is at most s max|g| = 4 s, and the pass is
    # on int64 while 4 s is at most the edge of _curvature_edge
    s = _curvature_edge(n, L.scaled_c[1], 1, L.c_max) // 4 + past
    conn = Connection(g * s, 1)
    assert conn.d == 1 and conn.g_max == 4 * s
    with pytest.MonkeyPatch.context() as mp:
        runs = _int64_runs(mp)
        curv = curvature(L, conn)
    assert runs == [not past]
    want = ref_curvature(L, conn.gamma)
    assert all(same(curv.r[i][j], want[i, j]) for i in range(n) for j in range(n))
