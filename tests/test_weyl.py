from fractions import Fraction as F

import numpy as np
import pytest

from lcplab import exact as ex
from lcplab.algebra import LieAlgebra, Metric, OneForm
from lcplab.errors import NonClosedLeeForm
from lcplab.weyl import curvature, levi_civita, weyl_connection, weyl_geometry
from support import (
    ad_basis,
    e11,
    is_g_skew,
    random_algebra,
    random_metric,
    random_triple,
    ref_levi_civita,
    reye,
    rng,
    same,
    skew_defect,
    torsion_defect,
)


def assert_matches_reference(L, G):
    lc = levi_civita(L, G)
    assert all(same(got, want) for got, want in zip(lc.gamma, ref_levi_civita(L, G)))


def test_levi_civita_abelian():
    L = LieAlgebra.abelian(3)
    lc = levi_civita(L, Metric.identity(3))
    assert all(ex.is_zero(gm) for gm in lc.gamma)


def test_levi_civita_e11_frozen_values():
    # Koszul-derived values: nabla_{e2} e2 = +e1 and nabla_{e2} e1 = -e2
    lc = levi_civita(e11(), Metric.identity(3))
    assert np.array_equal(lc.gamma[1][:, 1], ex.rvec([1, 0, 0]))
    assert np.array_equal(lc.gamma[1][:, 0], ex.rvec([0, -1, 0]))
    assert ex.is_zero(lc.gamma[0])
    assert_matches_reference(e11(), Metric.identity(3))


def test_levi_civita_random_against_oracle():
    r = rng(5)
    for _ in range(4):
        L = random_algebra(r, 3)
        G = random_metric(r, 3)
        assert_matches_reference(L, G)


def test_levi_civita_skew_ad_case():
    # so(3) with the round metric: nabla_x y = [x, y] / 2
    L = LieAlgebra.from_brackets(
        3, {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0], (1, 2): [1, 0, 0]}
    )
    lc = levi_civita(L, Metric.identity(3))
    for i in range(3):
        assert np.array_equal(lc.gamma[i], ad_basis(L)[i] / F(2))


def test_weyl_zero_theta_is_levi_civita():
    L, G = e11(), Metric.identity(3)
    w = weyl_connection(L, G, OneForm.zero(3))
    lc = levi_civita(L, G)
    assert all(np.array_equal(a, b) for a, b in zip(w.gamma, lc.gamma))


def test_weyl_abelian_frozen_values():
    L, G = LieAlgebra.abelian(3), Metric.identity(3)
    w = weyl_connection(L, G, OneForm.dual(3, 0))
    assert np.array_equal(w.gamma[1][:, 0], ex.rvec([0, 1, 0]))
    assert np.array_equal(w.gamma[1][:, 1], ex.rvec([-1, 0, 0]))
    assert np.array_equal(w.gamma[0], reye(3))


def test_weyl_rejects_nonclosed():
    with pytest.raises(NonClosedLeeForm):
        weyl_connection(e11(), Metric.identity(3), OneForm.dual(3, 1))


def test_curvature_abelian_frozen():
    L, G = LieAlgebra.abelian(3), Metric.identity(3)
    cv = curvature(L, weyl_connection(L, G, OneForm.dual(3, 0)))
    assert np.array_equal(cv.r[1][2].dot(ex.rvec([0, 1, 0])), ex.rvec([0, 0, 1]))
    # zero theta on abelian: flat
    cv0 = curvature(L, weyl_connection(L, G, OneForm.zero(3)))
    assert all(ex.is_zero(cv0.r[i][j]) for i in range(3) for j in range(3))


def test_curvature_kills_flat_line_of_e11():
    L, G = e11(), Metric.identity(3)
    cv = curvature(L, weyl_connection(L, G, OneForm.dual(3, 0, -1)))
    e3 = ex.rvec([0, 0, 1])
    for i in range(3):
        for j in range(3):
            assert ex.is_zero(cv.r[i][j].dot(e3))
    # bilinear accessor agrees with the table
    x = ex.rvec([1, 2, 0])
    y = ex.rvec([0, 1, 1])
    expected = sum(
        x[i] * y[j] * cv.r[i][j] for i in range(3) for j in range(3)
    )
    assert np.array_equal(cv.at(x, y), expected)


def test_torsion_identity_randomised():
    r = rng(23)
    for _ in range(12):
        L, G, theta = random_triple(r, 4)
        if theta is None:
            continue
        w = weyl_connection(L, G, theta)
        assert torsion_defect(w, L) is None


def test_skew_identity_randomised():
    r = rng(29)
    for _ in range(12):
        L, G, theta = random_triple(r, 3)
        if theta is None:
            continue
        w = weyl_connection(L, G, theta)
        for i in range(L.dim):
            m = w.gamma[i] - theta.coeffs[i] * reye(L.dim)
            assert is_g_skew(G, m)


def test_conformal_invariance_randomised():
    r = rng(31)
    for _ in range(8):
        L, G, theta = random_triple(r, 3)
        if theta is None:
            continue
        w1 = weyl_connection(L, G, theta)
        w2 = weyl_connection(L, G.scaled(F(7, 3)), theta)
        assert all(np.array_equal(a, b) for a, b in zip(w1.gamma, w2.gamma))


def test_first_bianchi_randomised():
    r = rng(37)
    for _ in range(6):
        L, G, theta = random_triple(r, 3)
        if theta is None:
            continue
        cv = curvature(L, weyl_connection(L, G, theta))
        n = L.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ei = reye(n)[:, i]
                    ej = reye(n)[:, j]
                    ek = reye(n)[:, k]
                    s = cv.r[i][j].dot(ek) + cv.r[j][k].dot(ei) + cv.r[k][i].dot(ej)
                    assert ex.is_zero(s)


def test_levi_civita_metric_compatible():
    r = rng(41)
    for _ in range(6):
        L = random_algebra(r, 3)
        G = random_metric(r, 3)
        lc = levi_civita(L, G)
        for i in range(3):
            assert ex.is_zero(skew_defect(G, lc.gamma[i]))


def test_weyl_geometry_is_keyed_by_content():
    # two non-proportional metrics on one algebra get their own entries,
    # and an equal metric built separately reads the first one
    L, theta = e11(), OneForm.dual(3, 0, -1)
    metrics = [Metric.identity(3), Metric(ex.rmat([[2, 1, 0], [1, 2, 0], [0, 0, 1]]))]
    shared = [weyl_geometry(L, G, theta) for G in metrics]
    for G, (conn, curv) in zip(metrics, shared):
        fresh = weyl_connection(L, G, theta)
        assert all(np.array_equal(a, b) for a, b in zip(conn.gamma, fresh.gamma))
        assert all(
            np.array_equal(a, b)
            for ra, rb in zip(curv.r, curvature(L, fresh).r)
            for a, b in zip(ra, rb)
        )
    assert not np.array_equal(shared[0][0].gamma[0], shared[1][0].gamma[0])
    assert weyl_geometry(L, Metric.identity(3), OneForm.dual(3, 0, -1)) is shared[0]
    with pytest.raises(ValueError):
        shared[0][0].gamma[0][0, 0] = F(1)
