from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcplab import construct, exact as ex
from lcplab.algebra import (
    LieAlgebra,
    Metric,
    OneForm,
    Subspace,
    almost_abelian_presentation,
    audit_algebra,
    is_unimodular,
    trace_form,
)
from lcplab.construct import (
    OrthoRep,
    almab_lcp,
    amalgamated_product,
    decompose,
    direct_product,
    flag_lcp,
    metric_modification,
    semidirect_lcp,
)
from lcplab.detect import classify, structural_audit
from lcplab.errors import (
    B2Zero,
    DimensionMismatch,
    EnvelopeExceeded,
    NonCommutingPair,
    NotAdapted,
    NotPositiveDefinite,
    NotSkew,
    RepNotSkew,
    RepNotVanishingOnDerived,
    TraceZero,
    UnimodularInput,
)
from lcplab.lowdim import check_isomorphism_witness, table_algebra
from support import (
    RECIPES,
    ad_basis,
    inv,
    random_almost_abelian,
    random_metric,
    random_skew,
    reye,
    random_structure,
    rng,
    same,
    small_fraction,
)


def h_line(lam=1):
    return LieAlgebra.from_brackets(2, {(0, 1): [0, lam]})


def e11_structure():
    return semidirect_lcp(h_line(), Metric.identity(2), OrthoRep.zero(1, 2))


def test_semidirect_gives_e11():
    s = e11_structure()
    assert s.algebra.dim == 3
    assert s.theta.coeffs[0] == -1
    assert s.flat == Subspace.spanned_by([[0, 0, 1]])
    assert is_unimodular(s.algebra)
    assert audit_algebra(s.algebra).solvable
    # matches the catalog row on the nose
    assert check_isomorphism_witness(s.algebra, table_algebra("e(1,1)"), reye(3))


def test_semidirect_rejects_unimodular():
    with pytest.raises(UnimodularInput):
        semidirect_lcp(LieAlgebra.abelian(2), Metric.identity(2), OrthoRep.zero(1, 2))


def test_semidirect_rejects_empty_target():
    # R^0 has no flat space, and theta = -(1/q) H divides by q
    with pytest.raises(DimensionMismatch):
        semidirect_lcp(h_line(), Metric.identity(2), OrthoRep.zero(0, 2))


def test_semidirect_rr30_bracket():
    # h = rr_{3,0}: [x1,x2]=x2 on dim 3; adds [x1,u] = -u
    h = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0]})
    s = semidirect_lcp(h, Metric.identity(3), OrthoRep.zero(1, 3))
    assert np.array_equal(s.algebra.c[0, 3, :], ex.rvec([0, 0, 0, -1]))


def test_orthorep_validation():
    h = h_line()
    with pytest.raises(RepNotSkew):
        OrthoRep.from_matrices(2, [ex.rmat([[1, 0], [0, 1]]), ex.rzeros((2, 2))]).validate(h)
    # nonzero on h' = span(x2)
    with pytest.raises(RepNotVanishingOnDerived):
        OrthoRep.from_matrices(
            2, [ex.rzeros((2, 2)), ex.rmat([[0, -1], [1, 0]])]
        ).validate(h)
    h2 = LieAlgebra.abelian(2)
    a = ex.rmat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    b = ex.rmat([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    with pytest.raises(NonCommutingPair):
        OrthoRep.from_matrices(3, [a, b]).validate(h2)


def ref_validate(beta, h, gram=None):
    """The error :meth:`OrthoRep.validate` must raise, or None, from
    ``Fraction`` products image by image and pair by pair."""
    g = reye(beta.dim_target) if gram is None else gram
    for m in beta.images:
        gm = g.dot(m)
        if not ex.is_zero(gm + gm.T):
            return RepNotSkew
    der = h.derived_algebra.basis
    for j in range(der.shape[1]):
        if not ex.is_zero(sum(x * m for x, m in zip(der[:, j], beta.images))):
            return RepNotVanishingOnDerived
    for i, a in enumerate(beta.images):
        for b in beta.images[i + 1 :]:
            if not ex.is_zero(a.dot(b) - b.dot(a)):
                return NonCommutingPair
    return None


def _random_rep(r, k, q, gram):
    """k images on R^q: zero, multiples of one G-skew matrix (they
    commute), other G-skew matrices, or matrices with no symmetry."""
    ginv = inv(gram)
    base = ginv.dot(random_skew(r, q))
    images = []
    for _ in range(k):
        kind = r.choice(["zero", "multiple", "multiple", "skew", "any"])
        if kind == "zero":
            images.append(ex.rzeros((q, q)))
        elif kind == "multiple":
            images.append(small_fraction(r) * base)
        elif kind == "skew":
            images.append(ginv.dot(random_skew(r, q)))
        else:
            images.append(ex.rmat([[small_fraction(r) for _ in range(q)] for _ in range(q)]))
    return OrthoRep(q, tuple(images))


def test_orthorep_validation_matches_image_by_image_checks():
    seen = set()
    for seed in range(120):
        r = rng(seed)
        k, q = r.randint(2, 5), r.randint(1, 4)
        # h' lies in span(e_2, ..); with images past e_1 zero, beta vanishes on it
        h = random_almost_abelian(r, k) if r.random() < 0.7 else LieAlgebra.abelian(k)
        G = random_metric(r, q) if r.random() < 0.5 else None
        beta = _random_rep(r, k, q, reye(q) if G is None else G.gram)
        if r.random() < 0.5:
            beta = OrthoRep(q, beta.images[:1] + tuple(ex.rzeros((q, q)) for _ in range(k - 1)))
        gram = None if G is None else G.gram
        want = ref_validate(beta, h, gram)
        seen.add(want)
        if want is None:
            beta.validate(h, gram=gram)
        else:
            with pytest.raises(want):
                beta.validate(h, gram=gram)
    assert seen == {None, RepNotSkew, RepNotVanishingOnDerived, NonCommutingPair}


def test_almab_examples():
    s = almab_lcp([[1]], [[0, -1], [1, 0]])
    assert s.algebra.dim == 4 and s.flat.dim == 2
    # ad_b on the flat factor is B - (tr A / q) Id
    block = ex.solve(s.flat.basis, ad_basis(s.algebra)[0].dot(s.flat.basis))
    assert np.array_equal(block, ex.rmat([[F(-1, 2), -1], [1, F(-1, 2)]]))
    assert s.theta.coeffs[0] == F(-1, 2)
    s2 = almab_lcp([[1]], ex.rzeros((3, 3)))
    assert s2.algebra.dim == 5 and s2.flat.dim == 3
    with pytest.raises(TraceZero):
        almab_lcp([[0]], [[0]])
    with pytest.raises(NotSkew):
        almab_lcp([[1]], [[1]])


def test_almab_matches_g46_family():
    # A = [-2], q = 2, B = [[0,1],[-1,0]] lands on the catalog row at p = 1
    s = almab_lcp([[-2]], [[0, 1], [-1, 0]])
    L2 = table_algebra("g_{4.6}^{-2p,p}", {"p": 1})
    assert check_isomorphism_witness(s.algebra, L2, reye(4))
    # A = [1], q = 2, B = J reaches the same family at p = 1/2 through the
    # sign flip b -> -e1
    s2 = almab_lcp([[1]], [[0, -1], [1, 0]])
    L3 = table_algebra("g_{4.6}^{-2p,p}", {"p": F(1, 2)})
    p = ex.rzeros((4, 4))
    p[0, 0] = -1
    p[1, 1] = p[2, 2] = p[3, 3] = 1
    assert check_isomorphism_witness(s2.algebra, L3, p)


def test_almab_q3_matches_g57_equal_params():
    # A = [1], q = 3, B = 0: isomorphic to the dim-5 row with p = q = r = 1/3
    s = almab_lcp([[1]], ex.rzeros((3, 3)))
    target = table_algebra(
        "g_{5.7}^{p,q,r}", {"p": F(1, 3), "q": F(1, 3), "r": F(1, 3)}
    )
    # constructed basis (b, x, u1, u2, u3) -> (-e5, e4, e1, e2, e3)
    p = ex.rzeros((5, 5))
    p[4, 0] = -1
    p[3, 1] = 1
    p[0, 2] = 1
    p[1, 3] = 1
    p[2, 4] = 1
    assert check_isomorphism_witness(s.algebra, target, p)


def test_flag_example():
    s = flag_lcp([[2]], ex.rzeros((2, 2)), [[0, -1], [1, 0]], [0])
    assert s.algebra.dim == 5 and s.flat.dim == 2
    assert almost_abelian_presentation(s.algebra, s.metric) is None
    assert audit_algebra(s.algebra).unimodular
    rep = structural_audit(s)
    assert rep.passed and rep.codim3_normal_form
    with pytest.raises(B2Zero):
        flag_lcp([[2]], ex.rzeros((2, 2)), ex.rzeros((2, 2)), [0])
    nc1 = ex.rmat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    nc2 = ex.rmat([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    with pytest.raises(NonCommutingPair):
        flag_lcp([[2]], nc1, nc2, [0])


def test_flag_matches_g535():
    s = flag_lcp([[2]], ex.rzeros((2, 2)), [[0, -1], [1, 0]], [0])
    # constructed basis (b, y, x, u1, u2) -> (−e5, e1, e4, e2, e3)
    p = ex.rzeros((5, 5))
    p[4, 0] = -1  # b -> -e5
    p[0, 1] = 1   # y -> e1
    p[3, 2] = 1   # x -> e4
    p[1, 3] = 1   # u1 -> e2
    p[2, 4] = 1   # u2 -> e3
    assert check_isomorphism_witness(s.algebra, table_algebra("g_{5.35}^{-2,0}"), p)


def test_direct_product():
    s = e11_structure()
    d = direct_product(s, LieAlgebra.abelian(1), Metric.identity(1))
    assert d.algebra.dim == 4 and d.flat.dim == 1
    assert classify(d.algebra, d.metric, d.theta).flat_dim == 1
    k_metric = Metric(ex.rmat([[2, 1], [1, 3]]))
    d2 = direct_product(s, LieAlgebra.abelian(2), k_metric)
    assert d2.algebra.dim == 5 and d2.verify().passed
    # a zero-dimensional factor is the identity
    assert direct_product(s, LieAlgebra.abelian(0), Metric.identity(0)) is s


def test_amalgam_block_structure():
    s = e11_structure()
    a = amalgamated_product(s, s)
    assert a.algebra.dim == 5 and a.flat.dim == 2
    pres = almost_abelian_presentation(a.algebra, a.metric)
    assert pres is not None
    assert pres.b_norm_sq == 2 and not pres.unit
    # ad_b on the ideal is blockdiag(C1, C2) with the factors' matrices
    c1 = ex.rmat([[-1, 0], [0, 1]])
    expected = ex.rzeros((4, 4))
    expected[:2, :2] = c1
    expected[2:, 2:] = c1
    assert np.array_equal(pres.matrix, expected)
    assert audit_algebra(a.algebra).unimodular
    assert audit_algebra(a.algebra).solvable


def test_amalgam_dimension_law():
    s = e11_structure()
    s2 = almab_lcp([[1]], [[0, -1], [1, 0]])
    a = amalgamated_product(s, s2)
    assert a.algebra.dim == s.algebra.dim + s2.algebra.dim - 1
    assert a.flat.dim == s.flat.dim + s2.flat.dim
    assert a.verify().passed


def test_amalgam_with_degenerate_factor_is_direct_product():
    # a degenerate adapted factor R b + R^2 amalgamates to the direct
    # product with R^2, up to the theta (x) theta metric correction
    s = e11_structure()
    plane = LieAlgebra.abelian(3)
    deg = type(s)(plane, Metric.identity(3), OneForm.dual(3, 0), Subspace.zero(3))
    a = amalgamated_product(s, deg)
    assert a.algebra.dim == 5 and a.flat.dim == 1
    d = direct_product(s, LieAlgebra.abelian(2), Metric.identity(2))
    assert a.verify().passed and d.verify().passed
    # the identification x -> x + theta1(x) b is an isomorphism but not an
    # isometry (metrics differ by theta (x) theta); compare the algebras
    # through invariants and both classifications
    assert classify(a.algebra, a.metric, a.theta).flat_dim == 1
    assert classify(d.algebra, d.metric, d.theta).flat_dim == 1
    from lcplab.lowdim import fingerprint

    assert fingerprint(a.algebra) == fingerprint(d.algebra)


def test_amalgam_rejects_nonadapted():
    L = LieAlgebra.abelian(3)
    th = OneForm.dual(3, 0)
    s = type(e11_structure())(L, Metric.identity(3), th, Subspace.spanned_by([[1, 0, 0]]))
    with pytest.raises(NotAdapted):
        amalgamated_product(s, s)


def test_metric_modification():
    s = e11_structure()
    assert metric_modification(s, 0) is s
    s2 = metric_modification(s, 1)
    assert s2.verify().passed and s2.flat == s.flat
    with pytest.raises(NotPositiveDefinite):
        metric_modification(s, -1)


def test_decompose_roundtrip_exact():
    r = rng(43)
    for _ in range(6):
        lam = F(r.randint(1, 3), r.randint(1, 2))
        h = LieAlgebra.from_brackets(
            3, {(0, 1): [0, lam, 0], (0, 2): [0, 0, 1]}
        )
        q = r.choice([1, 2, 3])
        if q == 1:
            beta = OrthoRep.zero(1, 3)
        else:
            skew = random_skew(r, q)
            beta = OrthoRep.from_matrices(
                q, [skew, ex.rzeros((q, q)), ex.rzeros((q, q))]
            )
        s = semidirect_lcp(h, Metric.identity(3), beta)
        dec = decompose(s)
        # h comes back on the nose (u-perp is the original h block)
        assert dec.h == h
        assert dec.h_metric == Metric.identity(3)
        for got, want in zip(dec.beta.images, beta.images):
            assert np.array_equal(got, want)


def test_semidirect_unimodular_trace():
    s = almab_lcp([[1, 1], [0, 2]], [[0, -2], [2, 0]])
    H = trace_form(s.algebra)
    assert H.is_zero()


def test_rebuild_from_decomposition_any_metric():
    # the recovered (h, beta) assemble back into a verified structure for
    # every scalar product on h, not just the original one
    s = almab_lcp([[1]], [[0, -1], [1, 0]])
    dec = decompose(s)
    r = rng(61)
    for _ in range(5):
        a = ex.rzeros((2, 2))
        for i in range(2):
            for j in range(2):
                a[i, j] = F(r.randint(-1, 1), r.randint(1, 2))
        new_metric = Metric(a.T.dot(a) + reye(2))
        rebuilt = semidirect_lcp(dec.h, new_metric, dec.beta)
        assert rebuilt.verify().passed
        assert is_unimodular(rebuilt.algebra)


def test_flag_rejects_non_square_blocks():
    rot = [[0, -1], [1, 0]]
    for A, B1, v in (
        ([[1, 0], [0, 1], [0, 0]], ex.rzeros((2, 2)), [0, 0, 0]),  # 3 x 2 A
        ([[1, 0, 0], [0, 1, 0]], ex.rzeros((2, 2)), [0, 0]),  # 2 x 3 A
        ([[2]], ex.rzeros((2, 3)), [0]),  # 2 x 3 B1
    ):
        with pytest.raises(DimensionMismatch, match="must be square"):
            flag_lcp(A, B1, rot, v)


def test_block_checks_keep_their_messages():
    rot = [[0, -1], [1, 0]]
    with pytest.raises(DimensionMismatch, match="^A and B must be square$"):
        almab_lcp([[1, 0]], rot)
    with pytest.raises(TraceZero, match=r"^tr\(A\) must be nonzero$"):
        almab_lcp([[1, 0], [0, -1]], rot)
    with pytest.raises(NotSkew, match="^B must be skew-symmetric$"):
        almab_lcp([[1]], [[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatch, match="^B1 and B2 must have the same size$"):
        flag_lcp([[1]], ex.rzeros((3, 3)), rot, [0])
    with pytest.raises(DimensionMismatch, match=r"^v must lie in R\^p$"):
        flag_lcp([[1]], ex.rzeros((2, 2)), rot, [0, 0])
    with pytest.raises(NotSkew, match="^B1, B2 must be skew-symmetric$"):
        flag_lcp([[1]], reye(2), rot, [0])


def test_structures_past_the_envelope_are_refused_before_assembly(monkeypatch):
    # 1 + 9 + 9 = 19 > MAX_DIM: refused by the block check, so no structure
    # constants are assembled
    def no_assembly(*args):
        raise AssertionError("assembled past the envelope")

    monkeypatch.setattr(construct, "_semidirect_c", no_assembly)
    A, B = reye(9), ex.rzeros((9, 9))
    with pytest.raises(EnvelopeExceeded, match="dim <= 16, got 19"):
        almab_lcp(A, B)
    with pytest.raises(EnvelopeExceeded, match="got 20"):
        flag_lcp(A, B, B, [0] * 9)
    h = LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})
    with pytest.raises(EnvelopeExceeded, match="got 17"):
        semidirect_lcp(h, Metric.identity(2), OrthoRep.zero(15, 2))
    # every algebra is refused past the envelope, unchecked ones too,
    # before its Jacobi table
    monkeypatch.setattr(LieAlgebra, "_jacobi_defect", property(no_assembly))
    with pytest.raises(EnvelopeExceeded, match="got 17"):
        LieAlgebra.abelian(17)
    with pytest.raises(EnvelopeExceeded, match="got 17"):
        LieAlgebra(ex.rzeros((17, 17, 17)))


# ---------------------------------------------------------------------------
# the constructors against entry-by-entry assemblies of the same recipes
# ---------------------------------------------------------------------------

def _assert_matches_assembly(s, want, recipe):
    c, gram, theta, flat = want
    for got, want in (
        (s.algebra.c, c),
        (s.metric.gram, gram),
        (s.theta.coeffs, theta),
        (s.flat.basis, Subspace(flat).basis),
    ):
        assert same(got, want), recipe


@pytest.mark.parametrize("recipe", RECIPES)
def test_constructors_match_entry_by_entry_assembly(recipe):
    for seed in range(8):
        s, want = random_structure(rng(1000 * len(recipe) + seed), recipe)
        _assert_matches_assembly(s, want, recipe)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), recipe=st.sampled_from(RECIPES))
def test_integer_constructors_match_the_fraction_recipe_formulas(seed, recipe):
    # the constructors compute on integer forms; the references of
    # support.random_structure evaluate each recipe's formulas in Fractions
    s, want = random_structure(rng(seed), recipe)
    _assert_matches_assembly(s, want, recipe)
