from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lcplab import exact as ex
from lcplab import lowdim
from lcplab.algebra import (
    LieAlgebra,
    Metric,
    almost_abelian_presentation,
    audit_algebra,
    trace_form,
)
from lcplab.construct import OrthoRep, semidirect_lcp
from lcplab.errors import DimensionMismatch, ParamOutOfRange, SingularMatrix, UnknownName
from lcplab.fixtures import witness_specs_from_fixtures
from lcplab.lowdim import (
    NONUNIMODULAR_4D,
    ROWS,
    SAMPLES,
    check_isomorphism_witness,
    fingerprint,
    nonunimodular_4d,
    sample_lattice_verdict,
    table_algebra,
    verify_table,
)
from support import ad_basis, dot, inv, random_algebra, reye, rng, small_fraction


def test_table_algebra_basic_rows():
    e11 = table_algebra("e(1,1)")
    assert np.array_equal(e11.c[0, 1, :], ex.rvec([0, 1, 0]))
    assert np.array_equal(e11.c[0, 2, :], ex.rvec([0, 0, -1]))
    g535 = table_algebra("g_{5.35}^{-2,0}")
    # [e5, e4] = -2 e4
    assert np.array_equal(ad_basis(g535)[4][:, 3], ex.rvec([0, 0, 0, -2, 0]))


def test_table_algebra_errors():
    with pytest.raises(UnknownName):
        table_algebra("nope")
    with pytest.raises(UnknownName):
        verify_table("nope")
    with pytest.raises(ParamOutOfRange):
        table_algebra("g_{4.6}^{-2p,p}", {"p": 0})
    with pytest.raises(ParamOutOfRange):
        table_algebra("g_{5.7}^{p,q,r}", {"p": F(1, 2), "q": F(1, 4), "r": F(1, 4)})
    with pytest.raises(ParamOutOfRange):
        table_algebra("e(1,1)", {"p": 1})


def test_table_algebra_shared_per_row_and_params():
    row = "g_{4.6}^{-2p,p}"
    L = table_algebra(row, {"p": 1})
    assert table_algebra(row, {"p": F(1)}) is L
    assert table_algebra(row, {"p": "1"}) is L
    assert table_algebra(row, {"p": 2}) is not L
    # validation is not memoised: a bad value raises on every call
    for _ in range(2):
        with pytest.raises(ParamOutOfRange):
            table_algebra(row, {"p": 0})
        with pytest.raises(ParamOutOfRange):
            table_algebra(row, {"p": 1, "q": 1})
        with pytest.raises(UnknownName):
            table_algebra("nope")


def test_catalog_pass_builds_one_algebra_per_row(monkeypatch):
    built = []
    original = LieAlgebra.from_brackets.__func__

    def counting(cls, *args, **kwargs):
        built.append(args[0])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(LieAlgebra, "from_brackets", classmethod(counting))
    lowdim._row_algebra.cache_clear()
    for sample in SAMPLES:
        verify_table(sample.name, sample.params, witnesses=witness_specs_from_fixtures(sample))
        sample_lattice_verdict(sample)
    assert len(built) == len(SAMPLES)


def test_all_rows_unimodular_solvable_at_random_params():
    # 20 random rational parameter draws per family, denominators <= 12
    r = rng(53)
    for name, row in ROWS.items():
        draws = 20 if row.param_names else 1
        for _ in range(draws):
            params = _draw_params(r, name)
            if params is None:
                continue
            L = table_algebra(name, params)
            rep = audit_algebra(L)
            assert rep.jacobi_ok and rep.solvable and rep.unimodular, (name, params)


def _draw_params(r, name):
    row = ROWS[name]
    if not row.param_names:
        return {}
    for _ in range(200):
        if name.startswith("g_{5.7}"):
            p = small_fraction(r, 6, 12)
            q = small_fraction(r, 6, 12)
            vals = sorted([p, q, 1 - p - q])
            params = dict(zip(("p", "q", "r"), vals))
        else:
            params = {k: small_fraction(r, 6, 12) for k in row.param_names}
        try:
            row.validate({k: ex.rat(v) for k, v in params.items()})
            return params
        except ParamOutOfRange:
            continue
    return None


def test_fingerprint_separates():
    assert fingerprint(table_algebra("e(1,1)")) != fingerprint(LieAlgebra.abelian(3))
    # same algebra from the construction and the catalog: equal prints
    s = semidirect_lcp(
        LieAlgebra.from_brackets(2, {(0, 1): [0, 1]}),
        Metric.identity(2),
        OrthoRep.zero(1, 2),
    )
    assert fingerprint(s.algebra) == fingerprint(table_algebra("e(1,1)"))


def test_fingerprint_eigen_ratios():
    L = table_algebra("g_{4.5}^{p,-p-1}", {"p": F(-1, 2)})
    fp = fingerprint(L)
    assert fp.ad_eigen_ratios == (F(-1, 2), F(-1, 2), F(1))
    assert fp.almost_abelian


def reference_eigen_ratios(mat):
    """The eigenvalue ratios of ``_eigen_ratios`` from sympy's rational
    roots of the characteristic polynomial."""
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat])
    x = sympy.Symbol("x")
    poly = sympy.Poly(m.charpoly(x).as_expr(), x, domain=sympy.QQ)
    roots = sorted(F(int(r.p), int(r.q)) for r, k in poly.ground_roots().items() for _ in range(k))
    if len(roots) != mat.shape[0]:
        return None
    nonzero = [r for r in roots if r != 0]
    if not nonzero:
        return tuple(roots)
    ref = max(nonzero, key=lambda r: (abs(r), r))
    return tuple(sorted(r / ref for r in roots))


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rational_presentations(draw):
    """P B P^-1 for a random rational P and B block diagonal: Jordan blocks
    at rational eigenvalues, rotation blocks (complex pairs) and
    [[0, a], [1, 0]] (+-sqrt(a), irrational unless a is a square)."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["jordan", "jordan", "rotation", "root"]))
        if kind == "jordan":
            lam, k = draw(fractions), draw(st.integers(1, 2))
            blocks.append([[lam if i == j else F(int(j == i + 1)) for j in range(k)] for i in range(k)])
        elif kind == "rotation":
            p, w = draw(fractions), draw(fractions.filter(bool))
            blocks.append([[p, -w], [w, p]])
        else:
            blocks.append([[F(0), draw(st.sampled_from([F(2), F(3), F(4), F(1, 4), F(-1)]))], [F(1), F(0)]])
    n = sum(len(b) for b in blocks)
    b = ex.rzeros((n, n))
    at = 0
    for blk in blocks:
        k = len(blk)
        b[at : at + k, at : at + k] = ex.rmat(blk)
        at += k
    p = ex.rmat([[draw(fractions) for _ in range(n)] for _ in range(n)])
    if ex.det(p) == 0:
        return b
    return dot(dot(p, b), inv(p))


@settings(max_examples=60, deadline=None)
@given(rational_presentations())
def test_eigen_ratios_match_sympy(mat):
    # _eigen_ratios reads an integer multiple of the matrix
    assert lowdim._eigen_ratios(ex.scaled(mat)[0]) == reference_eigen_ratios(mat)


def test_isomorphism_witness():
    e11 = table_algebra("e(1,1)")
    # construction at lambda = 2: renaming e1 = b/2 means b maps to 2 e1
    s = semidirect_lcp(
        LieAlgebra.from_brackets(2, {(0, 1): [0, 2]}),
        Metric.identity(2),
        OrthoRep.zero(1, 2),
    )
    p = ex.rmat([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert check_isomorphism_witness(s.algebra, e11, p)
    assert check_isomorphism_witness(e11, e11, reye(3))
    # a random invertible map is (essentially never) an isomorphism to abelian
    assert not check_isomorphism_witness(e11, LieAlgebra.abelian(3), reye(3))
    with pytest.raises(SingularMatrix):
        check_isomorphism_witness(e11, e11, ex.rzeros((3, 3)))


def test_isomorphism_witness_of_the_wrong_shape():
    # a shape error, not a singular matrix
    e11 = table_algebra("e(1,1)")
    for L2, p in ((e11, reye(2)), (e11, ex.rzeros((3, 2))), (LieAlgebra.abelian(4), reye(3))):
        with pytest.raises(DimensionMismatch):
            check_isomorphism_witness(e11, L2, p)


def _isomorphism_by_pairs(L1, L2, P):
    """The per-pair loop that check_isomorphism_witness replaced."""
    n = L1.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = P.dot(L1.c[i, j, :])
            rhs = L2.ad(P[:, i]).dot(P[:, j])
            if not ex.is_zero(lhs - rhs):
                return False
    return True


@st.composite
def transported(draw):
    """(L1, L2, P): a random algebra L1, a unimodular integer P, and L2
    with [u, v]_2 = P [P^-1 u, P^-1 v]_1, so that P is an isomorphism."""
    n = draw(st.integers(2, 5))
    L1 = random_algebra(rng(draw(st.integers(0, 10**6))), n)
    p = reye(n)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        p[i] = p[i] + draw(st.sampled_from([-1, 1])) * p[j]
    pinv = inv(p)
    c = ex.rzeros((n, n, n))
    for i in range(n):
        for j in range(n):
            c[i, j, :] = p.dot(L1.bracket(pinv[:, i], pinv[:, j]))
    return L1, LieAlgebra(c), p


@settings(max_examples=40, deadline=None)
@given(transported(), st.data())
def test_isomorphism_witness_matches_the_pairwise_check(case, data):
    L1, L2, p = case
    n = L1.dim
    assert check_isomorphism_witness(L1, L2, p) and _isomorphism_by_pairs(L1, L2, p)
    # 2P doubles the right side against the left: it fails unless L1 is
    # abelian
    abelian = ex.is_zero(L1.c)
    assert check_isomorphism_witness(L1, L2, 2 * p) == abelian == _isomorphism_by_pairs(
        L1, L2, 2 * p
    )
    # one entry moved by 1: the two checks agree
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    q = p.copy()
    q[i, j] += 1
    if ex.det(q) != 0:
        assert check_isomorphism_witness(L1, L2, q) == _isomorphism_by_pairs(L1, L2, q)


def test_verify_table_rows():
    tv = verify_table("e(1,1)", {})
    assert tv.passed and tv.dims_found == frozenset({1})
    tv = verify_table("g_{4.6}^{-2p,p}", {"p": 1})
    assert tv.passed and tv.dims_found == frozenset({1, 2})
    tv = verify_table("g_{5.7}^{p,q,r}", {"p": F(1, 3), "q": F(1, 3), "r": F(1, 3)})
    assert tv.passed and 3 in tv.dims_found


@pytest.fixture(scope="module")
def catalog():
    """(sample, its algebra, verify_table result) for every sampled row."""
    return [
        (s, table_algebra(s.name, s.params), verify_table(s.name, s.params))
        for s in SAMPLES
    ]


def test_whole_corpus_passes(catalog):
    for sample, _, tv in catalog:
        assert tv.passed, (sample.name, sample.params)


def test_codim_bounds_across_corpus(catalog):
    # flat_dim <= n-2 everywhere; flat_dim == n-2 forces almost abelian
    for sample, L, tv in catalog:
        for d in tv.dims_found:
            assert d <= L.dim - 2
        if (L.dim - 2) in tv.dims_found:
            assert almost_abelian_presentation(L, Metric.identity(L.dim)) is not None


def test_dim3_witnesses_only_for_two_rows(catalog):
    allowed = {"g_{5.13}^{-1-2q,q,r}", "g_{5.7}^{p,q,r}"}
    for sample, L, tv in catalog:
        if L.dim != 5:
            continue
        if 3 in tv.dims_found:
            assert sample.name in allowed
            if sample.name == "g_{5.7}^{p,q,r}":
                assert len(set(sample.params.values())) == 1  # p = q = r
            else:
                assert sample.params["q"] == F(-1, 3)


def test_cited_yes_rows_build_no_presentation(monkeypatch):
    # every cited row, "yes" or "no", is answered from its citation
    # before anything builds a presentation or a verdict
    for name in ("almost_abelian_presentation", "lattice_verdict"):
        monkeypatch.setattr(lowdim, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
    cited = [s for s in SAMPLES if s.cited]
    assert [(s.name, ROWS[s.name].lattice_status) for s in cited] == [
        ("g_{5.9}^{p,-2-p}", "no"), ("g_{5.16}^{-1,q}", "no"), ("g_{5.19}^{p,-2p-2}", "no"),
        ("g_{5.23}^{-4}", "no"), ("g_{5.25}^{p,4p}", "no"), ("g_{5.33}^{-1,-1}", "yes"),
        ("g_{5.35}^{-2,0}", "yes"),
    ]
    for sample in cited:
        assert sample_lattice_verdict(sample) == {
            "status": ROWS[sample.name].lattice_status, "evidence": f"cited[{sample.cited}]",
            "witnesses": 0,
        }


def test_every_cited_row_has_a_decided_table_status():
    # the status of a cited row is read from its table row, so that row
    # must decide the lattice for every parameter value
    cited = {s.name for s in SAMPLES if s.cited}
    assert cited and all(ROWS[name].lattice_status in ("yes", "no") for name in cited)


def test_lattice_verdicts_match_catalog():
    for sample in SAMPLES:
        row = ROWS[sample.name]
        lat = sample_lattice_verdict(sample)
        if row.lattice_status == "yes":
            assert lat["status"] == "yes", sample.name
        elif row.lattice_status == "no":
            assert lat["status"] == "no", sample.name
        else:
            assert lat["status"] in ("yes", "no", "inconclusive")
        v = lat.get("verdict")
        if v is not None:
            assert not (v.witnesses and v.certificates)


def test_jordan_asymmetry_answers_only_some_parameters_rows():
    # the rule's "no" falls on rows whose lattice column the paper gives
    # as some_parameters: g_{4.5}^{p,-p-1} at p = -1/4 (spectrum 1, -1/4,
    # -3/4, with a zero for +R) and g_{5.7}^{p,q,r} at (1/6, 1/3, 1/2)
    # (spectrum p, q, r, -1), where no eigenvalue has its opposite
    found = []
    for sample in SAMPLES:
        v = sample_lattice_verdict(sample).get("verdict")
        if v is not None and v.rule == "jordan_asymmetry":
            assert ROWS[sample.name].lattice_status == "some_parameters", sample.name
            assert v.status == "no" and [c.rule for c in v.certificates] == ["jordan_asymmetry"]
            found.append((sample.name, sample.params))
    assert found == [
        ("g_{4.5}^{p,-p-1}", {"p": F(-1, 4)}),
        ("g_{4.5}^{p,-p-1}+R", {"p": F(-1, 4)}),
        ("g_{5.7}^{p,q,r}", {"p": F(1, 6), "q": F(1, 3), "r": F(1, 2)}),
    ]


def test_nonunimodular_4d_catalog():
    r = rng(59)
    for name, (_, checks) in NONUNIMODULAR_4D.items():
        params = {}
        for k in checks:
            for _ in range(50):
                v = small_fraction(r, 3, 4)
                if checks[k](v):
                    params[k] = v
                    break
        h = nonunimodular_4d(name, params)
        rep = audit_algebra(h)
        assert rep.jacobi_ok and rep.solvable, name
        assert not trace_form(h).is_zero(), name
    with pytest.raises(UnknownName):
        nonunimodular_4d("zzz")
    with pytest.raises(ParamOutOfRange):
        nonunimodular_4d("r4_mu", {"mu": F(-1, 2)})


def test_prop71_shape_of_almost_abelian_dim3():
    # the catalog's 3-dimensional row has the diag(1, -1) presentation
    p = almost_abelian_presentation(table_algebra("e(1,1)"), Metric.identity(3))
    assert np.array_equal(p.matrix, ex.rmat([[1, 0], [0, -1]]))


# Each 4-dimensional non-unimodular family, extended by its trace-form
# line, lands on a specific catalog row; the map below sends the
# construction basis (x1, x2, x3, x4, u) to explicit multiples of the
# row basis.  Checking all of them cross-validates both bracket tables.
FAMILY_TO_ROW = [
    ("rr3", {}, "g_{4.2}^{-2}+R", {},
     [(0, 1), (1, 1), (2, 1), (4, 1), (3, 1)]),
    ("rr3_lam", {"lam": 0}, "e(1,1)+R2", {},
     [(0, 1), (1, 1), (3, 1), (4, 1), (2, 1)]),
    ("rr3_lam", {"lam": F(-1, 4)}, "g_{4.5}^{p,-p-1}+R", {"p": F(-1, 4)},
     [(0, 1), (1, 1), (2, 1), (4, 1), (3, 1)]),
    ("rr3p_gam", {"gam": 1}, "g_{4.6}^{-2p,p}+R", {"p": 1},
     [(0, 1), (2, 1), (3, 1), (4, 1), (1, 1)]),
    ("r2r2", {}, "g_{5.33}^{-1,-1}", {},
     [(0, 1), (1, 1), (4, -1), (3, 1), (2, 1)]),
    ("r2p", {}, "g_{5.35}^{-2,0}", {},
     [(4, 1), (0, 1), (1, 1), (2, 1), (3, 1)]),
    ("r4", {}, "g_{5.11}^{-3}", {},
     [(0, 1), (1, 1), (2, 1), (4, 1), (3, 1)]),
    ("r4_mu", {"mu": 0}, "g_{5.8}^{-1}", {},
     [(0, 1), (1, 1), (2, 1), (4, 1), (3, 1)]),
    ("r4_mu", {"mu": 1}, "g_{5.9}^{p,-2-p}", {"p": 1},
     [(0, 1), (1, 1), (2, 1), (4, 1), (3, 1)]),
    ("r4_ab", {"alpha": F(1, 2), "beta": F(1, 2)}, "g_{5.7}^{p,q,r}",
     {"p": F(1, 4), "q": F(1, 4), "r": F(1, 2)},
     [(2, 1), (0, 1), (1, 1), (4, 2), (3, 1)]),
    ("r4p_gd", {"gam": F(-1, 4), "delta": 1}, "g_{5.13}^{-1-2q,q,r}",
     {"q": F(-1, 4), "r": 1},
     [(0, 1), (1, 1), (2, 1), (4, 1), (3, 1)]),
    ("d4_lam", {"lam": F(1, 2)}, "g_{5.19}^{p,-2p-2}", {"p": 1},
     [(0, 1), (1, 1), (2, 1), (4, F(1, 2)), (3, 1)]),
    ("d4p_del", {"delta": 2}, "g_{5.25}^{p,4p}", {"p": 1},
     [(0, 1), (1, -1), (2, -1), (4, 1), (3, 1)]),
    ("h4", {}, "g_{5.23}^{-4}", {},
     [(0, F(1, 2)), (1, 1), (2, F(1, 2)), (4, F(1, 2)), (3, 1)]),
]


@pytest.mark.parametrize("family,hparams,row,rparams,mapping", FAMILY_TO_ROW)
def test_semidirect_family_reaches_catalog_row(family, hparams, row, rparams, mapping):
    h = nonunimodular_4d(family, hparams)
    s = semidirect_lcp(h, Metric.identity(4), OrthoRep.zero(1, 4))
    target = table_algebra(row, rparams)
    p = ex.rzeros((5, 5))
    for col, (tgt, coeff) in enumerate(mapping):
        p[tgt, col] = ex.rat(coeff)
    assert check_isomorphism_witness(s.algebra, target, p), (family, row)


def test_fingerprint_invariant_under_basis_change():
    r = rng(97)
    for name, params in [
        ("e(1,1)", {}),
        ("g_{4.2}^{-2}", {}),
        ("g_{5.13}^{-1-2q,q,r}", {"q": F(-1, 4), "r": 1}),
    ]:
        L = table_algebra(name, params)
        n = L.dim
        # random invertible rational change of basis
        while True:
            p = ex.rzeros((n, n))
            for i in range(n):
                for j in range(n):
                    p[i, j] = small_fraction(r, 2, 2)
            if ex.det(p) != 0:
                break
        pinv = inv(p)
        c = ex.rzeros((n, n, n))
        for i in range(n):
            for j in range(n):
                c[i, j, :] = pinv.dot(L.bracket(p[:, i], p[:, j]))
        moved = LieAlgebra(c)
        assert check_isomorphism_witness(moved, L, p)
        assert fingerprint(moved) == fingerprint(L), name
