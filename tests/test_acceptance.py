"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from lcplab import exact as ex
from lcplab.algebra import (
    LieAlgebra,
    Metric,
    OneForm,
    Subspace,
    almost_abelian_presentation,
)
from lcplab.construct import (
    OrthoRep,
    amalgamated_product,
    decompose,
    flag_lcp,
    metric_modification,
    semidirect_lcp,
)
from lcplab.detect import (
    ADAPTED,
    LCPStructure,
    classify,
    maximal_flat_parallel,
    structural_audit,
    verify_lcp,
)
from lcplab.intpoly import int_charpoly, int_det
from lcplab.lattice import (
    e11_lattice,
    lattice_verdict,
    no_lattice_codim2,
    no_lattice_double_root,
)
from lcplab.lowdim import (
    NONUNIMODULAR_4D,
    SAMPLES,
    nonunimodular_4d,
    reproduce_tables,
    render_tables_text,
    table_algebra,
    verify_table,
)
from lcplab.weyl import weyl_connection
from support import (
    is_g_skew,
    is_pos_def,
    left_nullspace,
    norm_sq,
    random_algebra,
    random_closed_form,
    random_metric,
    random_skew,
    reye,
    rng,
    torsion_defect,
)

GOLDEN = Path(__file__).parent / "data" / "golden_tables.txt"


def _report(num, label, ok):
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _e11():
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, -1]})


# -- shared randomized construction pool (criteria 4 and 5) -----------------

_FAMILY_PARAMS = {
    "rr3": lambda r: {},
    "rr3_lam": lambda r: {"lam": F(r.randint(0, 2), r.randint(2, 3))},
    "rr3p_gam": lambda r: {"gam": F(r.randint(1, 3), r.randint(1, 3))},
    "r2r2": lambda r: {},
    "r2p": lambda r: {},
    "r4": lambda r: {},
    "r4_mu": lambda r: {"mu": F(r.randint(1, 3), r.randint(1, 3))},
    "r4_ab": lambda r: {
        "alpha": F(r.randint(1, 2), r.randint(2, 3)),
        "beta": F(r.randint(1, 2), r.randint(2, 3)),
    },
    "r4p_gd": lambda r: {
        "gam": F(r.randint(0, 2), r.randint(1, 3)),
        "delta": F(r.randint(1, 3), r.randint(1, 2)),
    },
    "d4_lam": lambda r: {"lam": F(r.randint(1, 3), 2)},
    "d4p_del": lambda r: {"delta": F(r.randint(1, 3), r.randint(1, 2))},
    "h4": lambda r: {},
}


def _random_beta(r, h, q):
    if q == 1:
        return OrthoRep.zero(1, h.dim)
    der = h.derived_algebra
    skew = random_skew(r, q)
    while ex.is_zero(skew):
        skew = random_skew(r, q)
    images = []
    e = reye(h.dim)
    for i in range(h.dim):
        if der.contains(e[:, i]):
            images.append(ex.rzeros((q, q)))
        else:
            images.append(F(r.randint(-2, 2), r.randint(1, 2)) * skew)
    return OrthoRep.from_matrices(q, images)


@pytest.fixture(scope="module")
def construction_pool():
    r = rng(2024)
    names = [n for n in NONUNIMODULAR_4D]
    out = []
    for k in range(100):
        name = names[k % len(names)]
        for _ in range(30):
            try:
                h = nonunimodular_4d(name, _FAMILY_PARAMS[name](r))
                break
            except Exception:
                continue
        q = (1, 2, 3)[k % 3]
        beta = _random_beta(r, h, q)
        s = semidirect_lcp(h, Metric.identity(4), beta)
        out.append((h, beta, s))
    return out


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_connection_laws():
    r = rng(1)
    checked = 0
    ok = True
    while checked < 1000:
        n = 3 if checked % 10 < 8 else (4 if checked % 10 < 9 else 5)
        L = random_algebra(r, n)
        G = random_metric(r, n)
        theta = random_closed_form(r, L)
        if theta is None:
            continue
        w = weyl_connection(L, G, theta)
        ok = ok and torsion_defect(w, L) is None
        ok = ok and all(
            is_g_skew(G, w.gamma[i] - theta.coeffs[i] * reye(n)) for i in range(n)
        )
        w2 = weyl_connection(L, G.scaled(F(5, 2)), theta)
        ok = ok and all(np.array_equal(a, b) for a, b in zip(w.gamma, w2.gamma))
        checked += 1
        if not ok:
            break
    _report(1, "connection laws on 1000 random inputs", ok and checked == 1000)


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_e11_detection():
    L, G = _e11(), Metric.identity(3)
    theta = OneForm.dual(3, 0, -1)
    cls = classify(L, G, theta)
    ok = cls.kind == ADAPTED and cls.flat_dim == 1
    ok = ok and verify_lcp(L, G, theta, Subspace.spanned_by([[0, 0, 1]])).passed
    _report(2, "flat line of the dim-3 hyperbolic row", ok)


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_degeneracy():
    r = rng(3)
    ok = True
    cases = [LieAlgebra.abelian(3), LieAlgebra.abelian(4), LieAlgebra.abelian(5)]
    cases.append(LieAlgebra.from_brackets(5, {(0, 1): [0, 0, 1, 0, 0]}))
    for L in cases:
        G = Metric.identity(L.dim)
        for _ in range(50):
            theta = random_closed_form(r, L)
            ok = ok and maximal_flat_parallel(L, G, theta).dim == 0
            if not ok:
                break
    _report(3, "abelian and nilpotent inputs are degenerate", ok)


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_construction_roundtrip(construction_pool):
    ok = True
    for h, beta, s in construction_pool:
        rep = s.verify()
        aud = structural_audit(s)
        ok = ok and rep.passed and aud.passed
        dec = decompose(s)
        ok = ok and dec.h == h and dec.h_metric == Metric.identity(4)
        ok = ok and all(
            np.array_equal(a, b) for a, b in zip(dec.beta.images, beta.images)
        )
        if not ok:
            break
    _report(4, "100 semidirect constructions verify and decompose", ok)


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_codim_bounds(construction_pool):
    ok = True
    flats = []
    for sample in SAMPLES:
        L = table_algebra(sample.name, sample.params)
        tv = verify_table(sample.name, sample.params)
        for d in tv.dims_found:
            flats.append((L, Metric.identity(L.dim), d))
    for _, _, s in construction_pool:
        flats.append((s.algebra, s.metric, s.flat.dim))
    flag_cases = [
        flag_lcp([[2]], ex.rzeros((2, 2)), [[0, -1], [1, 0]], [0]),
        flag_lcp([[1]], random_skew(rng(7), 2), [[0, 1], [-1, 0]], [F(1, 2)]),
    ]
    for s in flag_cases:
        flats.append((s.algebra, s.metric, s.flat.dim))
    for L, G, d in flats:
        n = L.dim
        ok = ok and d <= n - 2
        if d == n - 2:
            ok = ok and almost_abelian_presentation(L, G) is not None
    for s in flag_cases:
        # codim-3 non-almost-abelian instances match the normal form
        ok = ok and almost_abelian_presentation(s.algebra, s.metric) is None
        aud = structural_audit(s)
        ok = ok and s.algebra.dim >= 5 and aud.codim3_normal_form is True
    _report(5, "codimension bounds across fixtures and constructions", ok)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_tables_reproduction():
    rows = reproduce_tables()
    ok = all(r["witnesses_ok"] and r["dims_found"] == r["dims_expected"] for r in rows)
    text = render_tables_text(rows)
    ok = ok and text == GOLDEN.read_text(encoding="utf-8")
    _report(6, "catalog reproduction matches the golden file", ok)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_lattice_witness_family():
    ok = True
    torsions = set()
    for m in range(3, 11):
        w, ab = e11_lattice(m)
        z = [[int(x) for x in row] for row in w.integral_matrix]
        ok = ok and z == [[0, -1], [1, m]]
        ok = ok and w.poly.coeffs == (1, -m, 1)
        ok = ok and w.exact
        # t_m is right: exp(t_m diag(1, -1)) has trace 2 cosh(t_m) = m (and det 1)
        ok = ok and abs(2 * math.cosh(w.t0) - m) <= 1e-12 * m
        ok = ok and int_det(w.integral_matrix) == 1
        ok = ok and int_charpoly(w.integral_matrix).coeffs == w.poly.coeffs
        ok = ok and ab.torsion == (m - 2 if m > 3 else 1)
        torsions.add(ab.torsion)
    ok = ok and len(torsions) == 8
    _report(7, "closed-form lattice family with distinct torsion", ok)


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_no_lattice_certificates():
    ok = no_lattice_double_root(np.diag([1.0, -0.5, -0.5])) is not None
    for p, q, r in [(0.25, 0.25, 0.5), (1 / 3, 1 / 3, 1 / 3)]:
        c = np.diag([p, q, r, -1.0])
        ok = ok and no_lattice_double_root(c) is not None
    for r in (F(1), F(2), F(1, 2)):
        L = table_algebra("g_{5.13}^{-1-2q,q,r}", {"q": F(-1, 3), "r": r})
        cert = no_lattice_codim2(almost_abelian_presentation(L, Metric.identity(5)).matrix)
        ok = ok and cert is not None and cert.rule == "codim2_highdim"
    # exclusivity over the whole catalog: no sample gets both
    from lcplab.lowdim import sample_lattice_verdict

    for sample in SAMPLES:
        lat = sample_lattice_verdict(sample)
        v = lat.get("verdict")
        if v is not None:
            ok = ok and not (v.witnesses and v.certificates)
    _report(8, "no-lattice certificates and exclusivity", ok)


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_amalgam_pipeline():
    h = LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})
    s = semidirect_lcp(h, Metric.identity(2), OrthoRep.zero(1, 2))
    a = amalgamated_product(s, s)
    ok = a.verify().passed and a.flat.dim == 2
    pres = almost_abelian_presentation(a.algebra, a.metric)
    ok = ok and pres is not None and pres.b_norm_sq == 2
    c1 = ex.rmat([[-1, 0], [0, 1]])
    expected = ex.rzeros((4, 4))
    expected[:2, :2] = c1
    expected[2:, 2:] = c1
    ok = ok and np.array_equal(pres.matrix, expected)
    # the exact verdict on the presentation: its first witness, at trace
    # level 3, is t0 = arccosh(3/2) for C, and sqrt(2) t0 for the unit b
    v = lattice_verdict(pres.matrix, t_range=(0.0, 3.0))
    ok = ok and (v.status, v.rule) == ("yes", "trace_levels")
    ok = ok and all(w.exact for w in v.witnesses)
    w = v.witnesses[0]
    t = w.t0 * math.sqrt(pres.b_norm_sq)
    ok = ok and abs(t - math.sqrt(2) * math.acosh(1.5)) <= 1e-12
    ok = ok and all(type(x) is int for x in w.integral_matrix.ravel().tolist())
    ok = ok and int_det(w.integral_matrix) == 1 and int_charpoly(w.integral_matrix) == w.poly
    _report(9, "amalgamated product and the exact verdict on its presentation", ok)


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_metric_families():
    L, G = _e11(), Metric.identity(3)
    theta = OneForm.dual(3, 0, -1)
    u = maximal_flat_parallel(L, G, theta)
    s = LCPStructure(L, G, theta, u)
    r = rng(10)
    ok = True
    done = 0
    while done < 50:
        lam = F(r.randint(-3, 12), r.randint(1, 4))
        if 1 + lam * norm_sq(G, G.sharp(theta)) <= 0:
            continue
        s2 = metric_modification(s, lam)
        ok = ok and s2.flat == u and s2.verify().passed
        done += 1
    annihilator = left_nullspace(u.basis)
    done = 0
    while done < 50:
        k = annihilator.shape[0]
        sym = ex.rzeros((k, k))
        for i in range(k):
            for j in range(i, k):
                v = F(r.randint(-1, 1), r.randint(1, 3))
                sym[i, j] = v
                sym[j, i] = v
        gram = G.gram + annihilator.T.dot(sym).dot(annihilator)
        if not is_pos_def(gram):
            continue
        ok = ok and verify_lcp(L, Metric(gram), theta, u).passed
        done += 1
    _report(10, "metric modifications preserve verification", ok)
