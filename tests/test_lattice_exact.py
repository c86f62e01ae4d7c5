"""The Jordan rules of ``lattice_verdict``: a rational C whose spectrum is
rational and real has witnesses exactly at t = +-arccosh(m/2) / lam0,
m >= 3, when its Jordan types at lam and -lam agree (trace_levels), and
a jordan_asymmetry certificate otherwise."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from lcplab import exact as ex
from lcplab import kernels
from lcplab.errors import NonTraceFree
from lcplab import intpoly
from lcplab import lattice
from lcplab.intpoly import IntPoly, companion, int_charpoly, int_det
from lcplab.lattice import (
    MAX_LISTED_WITNESSES,
    MAX_SPECTRAL,
    _exact_witnesses,
    _jordan_types,
    _Plan,
    _scanned_range,
    _trace_levels,
    certify_witness,
    integer_charpoly_scan,
    lattice_verdict,
)
from support import (
    COMPLEX_SPECTRA,
    complex_spectrum,
    conjugate,
    conjugated,
    direct_sum,
    dot,
    golden_lattice_case,
    golden_lattice_cases,
    jordan,
    poly_mul,
    rank,
    rank_types,
    rational_basis,
    reye,
    to_float,
    trace_free_float,
    unimodular_basis,
)

F = Fraction


@st.composite
def symmetric_jordan_data(draw):
    """(C, lam_eff, exps): pairs J_k(e lam0) + J_k(-e lam0), an exponent e
    possibly repeated (J_2(a) + J_1(a) + J_2(-a) + J_1(-a) is derogatory),
    and up to two J_k(0) under a unimodular basis change; the smallest
    positive eigenvalue ratio lam_eff = gcd(e) lam0; and the distinct
    exponents e / gcd(e) of the positive eigenvalues."""
    lam0 = draw(st.sampled_from([1, F(1, 2), 3]))
    pair = st.tuples(st.sampled_from([1, 2, 3]), st.integers(1, 2))
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    blocks = []
    for e, k in pairs:
        blocks += [jordan(k, e * lam0), jordan(k, -e * lam0)]
    blocks += [jordan(z, 0) for z in draw(st.lists(st.integers(1, 2), max_size=2))]
    blocks = draw(st.permutations(blocks))
    c = draw(conjugated(direct_sum(blocks), unimodular_basis))
    g = math.gcd(*(e for e, _ in pairs))
    return c, F(lam0) * g, sorted({e // g for e, _ in pairs})


@st.composite
def broken_jordan_data(draw):
    """A rational real trace-free spectrum whose Jordan types at lam and
    -lam differ, with no single multiple root (so double_root does not
    fire):
    J_2(a) + J_1(-a) + J_1(-a), or the simple spectrum (e1 + e2, -e1, -e2)."""
    lam0 = draw(st.sampled_from([1, F(1, 2), 3]))
    if draw(st.booleans()):
        a = draw(st.sampled_from([1, 2, 3])) * lam0
        blocks = [jordan(2, a), jordan(1, -a), jordan(1, -a)]
    else:
        e1, e2 = draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
        blocks = [jordan(1, (e1 + e2) * lam0), jordan(1, -e1 * lam0), jordan(1, -e2 * lam0)]
    return draw(conjugated(direct_sum(draw(st.permutations(blocks))), unimodular_basis))


def closed_form(lam_eff, hi):
    lam = float(lam_eff)
    return [math.acosh(m / 2) / lam for m in range(3, math.floor(2 * math.cosh(lam * hi)) + 1)]


def z_rows(w):
    return [[int(x) for x in row] for row in w.integral_matrix]


def lucas(m, e):
    """The trace of A^e for A = companion(x^2 - m x + 1)."""
    a, b = 2, m
    for _ in range(e):
        a, b = b, m * b - a
    return a


def assert_jordan_profile(c, z, lam_eff, exps, m, top=3):
    """Z has the Jordan types of exp(t0 C) at 2 cosh(lam_eff t0) = m, by
    exact ranks for j = 1..top (blocks of C have size <= 2, so the ranks
    are constant from j = 2 on): rank (Z - I)^j = rank C^j, and with
    q_e = x^2 - L_e(m) x + 1 and k = e lam_eff,
    rank q_e(Z)^j = rank (C - k)^j + rank (C + k)^j - n."""
    n = len(c)
    eye, z = reye(n), ex.rmat(z)

    def ranks(a):
        out, power = [], eye
        for _ in range(top):
            power = dot(a, power)
            out.append(rank(power))
        return out

    assert ranks(z - eye) == ranks(c)
    for e in exps:
        k = e * lam_eff
        q = dot(z, z) - lucas(m, e) * z + eye
        expected = [a + b - n for a, b in zip(ranks(c - k * eye), ranks(c + k * eye))]
        assert ranks(q) == expected


@settings(max_examples=30, deadline=None)
@given(symmetric_jordan_data(), st.floats(1.0, 3.5))
def test_witnesses_are_the_trace_levels(data, reach):
    c, lam_eff, exps = data
    t_range = (0.0, reach / float(lam_eff))
    v = lattice_verdict(c, t_range=t_range)
    assert v.status == "yes" and all(w.exact for w in v.witnesses)
    expected = closed_form(lam_eff, t_range[1])
    assert len(v.witnesses) == len(expected)
    assert all(abs(w.t0 - t) <= 1e-12 for w, t in zip(v.witnesses, expected))
    cf = to_float(c)
    for m, w in enumerate(v.witnesses, start=3):
        assert w.residual is None
        assert int_det(w.integral_matrix) == 1
        assert_jordan_profile(c, w.integral_matrix, lam_eff, exps, m)
        exact = int_charpoly(w.integral_matrix).coeffs
        assert exact == w.poly.coeffs
        # relative to the largest coefficient: the float eigenvalues of a
        # Jordan block are only good to about the square root of eps
        approx = np.real(np.poly(np.linalg.eigvals(kernels.expm(w.t0 * cf))))
        err = max(abs(e - a) for e, a in zip(exact, approx))
        assert err <= 1e-6 * max(abs(e) for e in exact)


@settings(max_examples=30, deadline=None)
@given(symmetric_jordan_data(), st.floats(1.0, 3.5))
def test_scan_witnesses_of_the_float_twin_are_exact_witnesses(data, reach):
    # the verdict reads the float twin exactly, so the scan and the
    # certification are called on it directly: each witness they give is
    # one that the exact step lists
    c, lam_eff, exps = data
    t_range = (0.0, reach / float(lam_eff))
    exact = lattice_verdict(c, t_range=t_range).witnesses
    cf = to_float(c)
    for cand in integer_charpoly_scan(cf, t_range=t_range):
        wf = certify_witness(cf, cand.t0, cand.poly)
        if wf is None:
            continue
        assert not wf.exact
        match = [(m, w) for m, w in enumerate(exact, start=3) if abs(w.t0 - wf.t0) <= 1e-9]
        assert len(match) == 1
        m, w = match[0]
        assert w.poly == wf.poly
        # the twin's Jordan data may differ from C's, and with them Z
        assert int_charpoly(wf.integral_matrix) == wf.poly
        assert_jordan_profile(c, w.integral_matrix, lam_eff, exps, m)


@settings(max_examples=30, deadline=None)
@given(broken_jordan_data())
def test_broken_symmetry_is_a_jordan_asymmetry_without_a_scan(c):
    import lcplab.lattice as lattice

    calls = []
    scan = lattice.integer_charpoly_scan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "integer_charpoly_scan", lambda *a, **k: calls.append(1) or scan(*a, **k))
        v = lattice_verdict(c, t_range=(0.0, 3.0))
    assert v.status == "no" and v.rule == "jordan_asymmetry" and v.inconclusive_ranges == ()
    (cert,) = v.certificates
    assert cert.rule == "jordan_asymmetry" and cert.data["asymmetric"]
    for pair in cert.data["asymmetric"]:
        assert pair["eigenvalue"] > 0 and pair["at"] != pair["at_minus"]
    assert calls == []


def diag(*xs):
    return ex.rmat([[xs[i] if i == j else 0 for j in range(len(xs))] for i in range(len(xs))])


# a dense unimodular basis: U4 diag(1, 1, -1, -1) U4^-1 is derogatory with
# no invariant coordinate blocks
U4 = ex.rmat([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])


@pytest.mark.parametrize(
    "c, t_hi, count",
    [(diag(1, -1), 4.5, 88), (diag(1, -1), 5.9, 363), (diag(1, -1, 0, 0, 0), 4.0, 52)],
)
def test_no_trace_level_is_lost(c, t_hi, count):
    # the grid scan lost m = 90 at 0:4.5, 126 witnesses at 0:5.9 and five
    # of diag(1, -1, 0, 0, 0) at 0:4
    v = lattice_verdict(c, t_range=(0.0, t_hi))
    assert len(v.witnesses) == count and all(w.exact for w in v.witnesses)
    assert all(abs(w.t0 - t) <= 1e-12 for w, t in zip(v.witnesses, closed_form(1, t_hi)))


def test_negative_t_range():
    # t in (lo, hi]: -t_m for m = 4..7 on (-2, -1], t_m mirrored on (-2, 2)
    v = lattice_verdict(diag(1, -1), t_range=(-2.0, -1.0))
    assert [-w.poly.coeffs[1] for w in v.witnesses] == [7, 6, 5, 4]
    assert [w.t0 for w in v.witnesses] == [-math.acosh(m / 2) for m in (7, 6, 5, 4)]
    v = lattice_verdict(diag(1, -1), t_range=(-2.0, 2.0))
    assert [-w.poly.coeffs[1] for w in v.witnesses] == [7, 6, 5, 4, 3, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("k", [10**4, 2**100], ids=["1e4", "2^100"])
def test_the_lower_end_is_clamped_too(k):
    # |t| rho <= MAX_SPECTRAL at both ends: -1:0.5 becomes -50/k:50/k,
    # where 2 cosh(t) < 3 gives no level, so no exact witness lies past
    # the envelope and no Lucas number is built
    c = diag(1, -1, k, -k)
    v = lattice_verdict(c, t_range=(-1.0, 0.5))
    assert v.rule == "trace_levels" and v.status == "inconclusive"
    assert v.inconclusive_ranges == ((-MAX_SPECTRAL / k, MAX_SPECTRAL / k),)


@pytest.mark.parametrize("t_range, edge", [((60.0, 100.0), 50.0), ((-100.0, -60.0), -50.0)])
def test_a_range_past_the_envelope_is_empty_not_reversed(t_range, edge):
    # rho(diag(1, -1)) = 1: a range wholly past the envelope |t| <= 50
    # is reported empty, (edge, edge], at its near edge
    v = lattice_verdict(diag(1, -1), t_range=t_range)
    assert (v.rule, v.status) == ("trace_levels", "inconclusive")
    assert v.inconclusive_ranges == ((edge, edge),)


def rho_clamp(plan, t_range):
    """Each end t of ``t_range`` past the envelope |t| rho <= MAX_SPECTRAL,
    on either side, moved to the edge on that side, rho read from the
    plan."""
    rho = plan.rho

    def moved(t):
        if t * rho > MAX_SPECTRAL:
            return MAX_SPECTRAL / rho
        if -t * rho > MAX_SPECTRAL:
            return -MAX_SPECTRAL / rho
        return t

    return tuple(moved(float(t)) for t in t_range)


@st.composite
def integer_spectra(draw):
    """(C, rho(C)) for C = M / 2^j with integer eigenvalues, not all 0, so
    that rho(C) is a float exactly.  M is U D U^-1 for an integer D (a
    diagonal, possibly with ones above it) and a unimodular U, or u v^T
    (eigenvalues v.u and 0), whose entries can all be below rho."""
    n = draw(st.integers(1, 5))
    scale = 2 ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        u, v = (draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(2))
        k = sum(a * b for a, b in zip(u, v))
        assume(k != 0)
        return ex.rmat([[a * b for b in v] for a in u]) / F(scale), abs(k) / scale
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = draw(st.integers(-60, 60))
        if i + 1 < n and draw(st.booleans()):
            d[i][i + 1] = 1
    d[0][0] = d[0][0] or 1
    return draw(conjugated(d, unimodular_basis)) / F(scale), max(abs(d[i][i]) for i in range(n)) / scale


@settings(max_examples=300, deadline=None)
@given(integer_spectra(), st.lists(st.one_of(st.floats(-1.5, 1.5), st.sampled_from([-1.0, 1.0])),
                                   min_size=2, max_size=2))
def test_the_norm_bound_only_skips_the_clamp_where_rho_needs_none(c_rho, ends):
    # rho(C) <= ||C||_inf: where the exact norm bound keeps the range as
    # given, the clamp on rho keeps it too.  The ends are drawn around the
    # envelope's edge +-MAX_SPECTRAL / rho, in order (a reversed range is
    # refused)
    c, rho = c_rho
    t_range = tuple(sorted(x * MAX_SPECTRAL / rho for x in ends))
    assert _Plan(c).rho == rho
    assert _scanned_range(_Plan(c), t_range) == rho_clamp(_Plan(c), t_range)


def test_listing_limit():
    # 2 cosh(9.2) ~ 9897: 9895 witnesses are listed; 2 cosh(9.22) ~ 10096 is past the limit
    assert len(_exact_witnesses(diag(1, -1), (0.0, 9.2))) == 9895 <= MAX_LISTED_WITNESSES
    assert _exact_witnesses(diag(1, -1), (0.0, 9.22)) is None


@pytest.mark.parametrize(
    "c, listed",
    [
        (ex.rmat([[F(1, 2), -1, 0], [1, F(1, 2), 0], [0, 0, -1]]), None),  # complex spectrum
        (ex.rmat([[0, 1], [2, 0]]), None),  # +-sqrt(2)
        # the one input the step decides without a scan: (x - 1)^3 at
        # every t, listed once at t0 = 1
        (ex.rmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), [1.0]),  # nilpotent
        (diag(1, 2), None),  # not trace-free: lattice_verdict raises NonTraceFree first
    ],
    ids=["complex", "irrational", "nilpotent", "trace"],
)
def test_step_declines_where_the_scan_decides(c, listed):
    ws = _exact_witnesses(c, (0.0, 3.0))
    assert (None if ws is None else [w.t0 for w in ws]) == listed


def test_nilpotent_c_takes_the_exact_step(monkeypatch):
    # (x - 1)^3 at every t: the exact step lists t0 = 1 with
    # Z = companion((x - 1)^3), and the scan, asked directly, gets no
    # candidate and evaluates no grid
    monkeypatch.setattr(kernels, "scan_defects", _refuse_scan)
    c = ex.rmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    (w,) = _exact_witnesses(c, (0.0, 3.0))
    assert (w.t0, w.poly, w.residual) == (1.0, IntPoly((1, -3, 3, -1)), None)
    assert z_rows(w) == [[0, 0, 1], [1, 0, -3], [0, 1, 3]]
    v = lattice_verdict(c, t_range=(0.0, 3.0))
    assert (v.rule, v.status) == ("trace_levels", "yes")
    assert [x.as_dict() for x in v.witnesses] == [w.as_dict()]
    assert integer_charpoly_scan(c, t_range=(0.0, 3.0)) == []


@st.composite
def nilpotent_matrices(draw):
    """J_k(0) blocks of sizes summing to n <= 6, under a random rational
    basis."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    while sum(sizes) > 6:
        sizes.pop()
    d = ex.rmat(direct_sum([jordan(k, 0) for k in sizes]))
    return draw(conjugated(d, rational_basis))


@settings(max_examples=40, deadline=None)
@given(nilpotent_matrices())
def test_nilpotent_c_has_one_exact_witness(c):
    # exp(t0 C) is unipotent, of the Jordan type of C: Z is integral of
    # det 1 and charpoly (x - 1)^n, and rank (Z - I)^j = rank C^j
    n = len(c)
    v = lattice_verdict(c, t_range=(0.0, 3.0))
    assert (v.status, v.rule) == ("yes", "trace_levels")
    (w,) = v.witnesses
    assert w.exact and w.t0 == 1.0
    assert all(isinstance(x, int) for x in w.integral_matrix.ravel().tolist())
    assert int_det(w.integral_matrix) == 1
    binomial = IntPoly(tuple(math.comb(n, k) * (-1) ** k for k in range(n + 1)))
    assert int_charpoly(w.integral_matrix) == w.poly == binomial
    eye = reye(n)
    z_power, c_power = eye, eye
    for _ in range(n):
        z_power, c_power = dot(ex.rmat(z_rows(w)) - eye, z_power), dot(c, c_power)
        assert rank(z_power) == rank(c_power)


def reference_spectrum(ints):
    """sympy's exact reading of an integer matrix: (the eigenvalues with
    multiplicity when all are integers, else None; whether some root is
    off both axes).  lam is real or imaginary exactly when lam^2 is real,
    so a root is off both axes exactly when ints^2 has fewer real
    eigenvalues, counted with multiplicity, than its size."""
    x = sympy.Symbol("x")
    m = sympy.Matrix(ints.tolist())
    poly = m.charpoly(x)
    ks = sorted(int(k) for k, mult in poly.ground_roots().items() for _ in range(mult))
    off_axis = len((m * m).charpoly(x).real_roots()) < poly.degree()
    return ks if len(ks) == poly.degree() else None, off_axis


@st.composite
def integer_matrices(draw):
    """Small random integer matrices (mostly irrational or complex
    spectra), and integer spectra under a unimodular basis change."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        rows = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
        return np.array(rows, dtype=object)
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = draw(st.integers(-3, 3))
        if i + 1 < n and draw(st.booleans()):
            d[i][i + 1] = 1
    return ex.scaled(draw(conjugated(d, unimodular_basis)))[0]


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_exact_spectrum_matches_sympy(ints):
    # the integer eigenvalues and the off-axis reading of the exact
    # spectrum are sympy's
    ks, off_axis = reference_spectrum(ints)
    spec = _Plan(ints).int_spectrum
    assert spec.integer_eigenvalues() == ks
    assert spec.off_axis() == off_axis


@st.composite
def integer_matrices_with_root_0(draw):
    """An integer matrix with charpoly x^j r: a random integer block whose
    charpoly is r (r(0) = 0 too now and then) beside a Jordan block of
    size j at 0, split in one or two blocks, under a unimodular basis
    change."""
    n = draw(st.integers(1, 4))
    rows = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
    sizes = draw(st.sampled_from([[1], [2], [3], [1, 1], [2, 1]]))
    d = direct_sum([rows] + [jordan(k, 0) for k in sizes])
    return ex.scaled(draw(conjugated(d, unimodular_basis)))[0]


@settings(max_examples=200, deadline=None)
@given(integer_matrices_with_root_0())
def test_exact_spectrum_with_root_0_matches_sympy(ints):
    # the root 0 taken out before the Sturm chain: the integer
    # eigenvalues, the off-axis reading and the gcd, square-free part and
    # real root count of charpoly(ints) are sympy's
    ks, off_axis = reference_spectrum(ints)
    spec = _Plan(ints).int_spectrum
    assert spec.integer_eigenvalues() == ks
    assert spec.off_axis() == off_axis
    x = sympy.Symbol("x")
    p = sympy.Poly(sympy.Matrix(ints.tolist()).charpoly(x).as_expr(), x)
    g = sympy.Poly(sympy.gcd(p, p.diff(x)), x).primitive()[1]
    g = g if g.LC() > 0 else -g
    assert spec.repeated == tuple(g.all_coeffs())
    assert spec.square_free == tuple(sympy.quo(p, g).all_coeffs())
    assert spec.real_roots == sympy.quo(p, g).count_roots()


@st.composite
def spectra_by_construction(draw):
    """(C, whether C has a root off both axes): rotation blocks p +- iw
    with p = 0 or p != 0, possibly one repeated, possibly a complex Jordan
    pair [[R, I], [0, R]], real eigenvalues (0 among them), possibly
    J_2(a), closed to trace zero by one more real eigenvalue, under a
    unimodular or a dense rational basis."""
    q = st.integers(-4, 4).map(lambda k: F(k, 2))
    rotations = draw(st.lists(st.tuples(q, q.filter(bool)), max_size=2))
    if rotations and draw(st.booleans()):
        rotations.append(rotations[0])
    blocks = [[[p, -w], [w, p]] for p, w in rotations]
    if draw(st.booleans()):
        p, w = draw(q), draw(q.filter(bool))
        blocks.append([[p, -w, 1, 0], [w, p, 0, 1], [0, 0, p, -w], [0, 0, w, p]])
        rotations.append((p, w))
    blocks += [[[x]] for x in draw(st.lists(q, max_size=2))]
    if draw(st.booleans()):
        blocks.append(jordan(2, draw(q)))
    blocks.append([[-sum(b[i][i] for b in blocks for i in range(len(b)))]])
    d = direct_sum(blocks)
    basis = unimodular_basis if draw(st.booleans()) else rational_basis
    return draw(conjugated(d, basis)), any(p for p, _ in rotations)


@settings(max_examples=60, deadline=None)
@given(spectra_by_construction())
def test_off_axis_reading_matches_the_construction(case):
    c, off_axis = case
    assert _Plan(c).int_spectrum.off_axis() == off_axis


class Scanned(Exception):
    pass


def _refuse_scan(*args):
    raise Scanned


def test_complex_spectra_never_run_the_scan(monkeypatch):
    # every spectrum of COMPLEX_SPECTRA has a root off both axes: no
    # lattice, so no grid; the verdict stays inconclusive over the range,
    # without a certificate.  A trace-free float twin, read as the
    # rationals it holds, still has such a root
    monkeypatch.setattr(kernels, "scan_defects", _refuse_scan)
    for blocks, reals in COMPLEX_SPECTRA.values():
        c = complex_spectrum(blocks, reals)
        u = U6[: len(c), : len(c)]
        for m in (c, conjugate(u, c), trace_free_float(c)):
            assert integer_charpoly_scan(m, t_range=(0.0, 2.0)) == []
            v = lattice_verdict(m, t_range=(0.0, 2.0))
            assert v.status == "inconclusive" and not v.certificates
            assert v.inconclusive_ranges == (_scanned_range(m, (0.0, 2.0)),)


@pytest.mark.parametrize(
    "c, t_range, grid",
    [
        (*golden_lattice_case("rotations-4"), True),  # +-i twice: on the imaginary axis
        (*golden_lattice_case("irrational-derogatory-4"), True),
        # (x - 1)^3 at every t: the exact step decides it, and no grid is
        # evaluated
        (ex.rmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), (0.0, 3.0), False),  # nilpotent
        # float input is read as its rationals: the twin of an on-axis
        # spectrum goes to the scan like the spectrum itself
        (to_float(golden_lattice_case("rotations-4")[0]), (0.0, 20.0), True),  # float
        (ex.rmat([[1, 0], [0, -1]]), (0.0, 20.0), True),  # past the listing limit
    ],
    ids=["rotations", "irrational", "nilpotent", "float", "e11-20"],
)
def test_other_inputs_still_reach_the_scan(monkeypatch, c, t_range, grid):
    grids, scan_defects = [], kernels.scan_defects
    monkeypatch.setattr(kernels, "scan_defects", lambda *a: grids.append(1) or scan_defects(*a))
    assert lattice_verdict(c, t_range=t_range).rule == ("scan" if grid else "trace_levels")
    assert bool(grids) == grid


def test_float_rounding_off_the_axis_is_read_as_held():
    # a rotation block whose diagonal was summed in floats: 0.1 + 0.2 is
    # not 0.3, so the floats hold trace 2^-54, and those values define a
    # non-unimodular group: the verdict and the scan refuse them, with no
    # characteristic polynomial built.  With exact entries the block is on
    # the imaginary axis and the scan certifies its witnesses
    c = np.array([[0.1 + 0.2, -1.0], [1.0, -0.3]])
    assert np.trace(c) == 2.0**-54
    exact = lattice_verdict(ex.rmat([[F(3, 10), -1], [1, F(-3, 10)]]), t_range=(0.0, 7.0))
    assert exact.status == "yes"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "int_charpoly_coeffs", lambda ints: pytest.fail("charpoly built"))
        for call in (lattice_verdict, integer_charpoly_scan):
            with pytest.raises(NonTraceFree):
                call(c, t_range=(0.0, 7.0))


def test_exact_trace_is_judged_exactly():
    # diag(1, -1 + 10^-12) is not unimodular, so it has no lattice: exact
    # or float, its trace is not 0, and both raise, where the scan's
    # relative tolerance once gave the float one 18 numerical witnesses
    for c in (ex.rmat([[1, 0], [0, F(-1) + F(1, 10**12)]]), np.diag([1.0, -1.0 + 1e-12])):
        with pytest.raises(NonTraceFree):
            integer_charpoly_scan(c, t_range=(0.0, 3.0))
        with pytest.raises(NonTraceFree):
            lattice_verdict(c, t_range=(0.0, 3.0))
    # trace-free input, numpy ints, Fractions or floats, still reaches the
    # scan: the rotation by pi/2 is a candidate
    for c in (np.array([[0, -1], [1, 0]]), ex.rmat([[0, -1], [1, 0]]), np.array([[0.0, -1.0], [1.0, 0.0]])):
        assert [x.poly.coeffs for x in integer_charpoly_scan(c, t_range=(0.0, 2.0))] == [(1, -1, 1), (1, 0, 1)]


def test_off_axis_without_trace_zero_still_raises():
    c = ex.rmat([[1, -1, 0], [1, 1, 0], [0, 0, 1]])  # 1 +- i, 1
    assert _Plan(c).int_spectrum.off_axis()
    with pytest.raises(NonTraceFree):
        integer_charpoly_scan(c)
    with pytest.raises(NonTraceFree):
        lattice_verdict(c)


# a dense unimodular basis of R^6, det U6 = 1
U6 = ex.rmat(
    [[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 1, 1, 0, 0],
     [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1], [1, 0, 0, 0, 0, 2]]
)
J2J1 = ex.rmat(direct_sum([jordan(2, 1), jordan(1, 1), jordan(2, -1), jordan(1, -1)]))


@pytest.mark.parametrize(
    "c",
    [
        conjugate(U4, diag(1, 1, -1, -1)),
        conjugate(U6, J2J1),
    ],
    ids=["derogatory-group", "jordan-group"],
)
def test_derogatory_groups_are_decided_exactly(c):
    # dense derogatory input: the invariant factors of exp(t0 C) give an
    # integer Z for each of m = 3..20
    v = lattice_verdict(c, t_range=(0.0, 3.0))
    assert v.status == "yes" and len(v.witnesses) == 18
    for m, w in enumerate(v.witnesses, start=3):
        assert w.exact and int_det(w.integral_matrix) == 1
        assert int_charpoly(w.integral_matrix) == w.poly
        assert_jordan_profile(c, w.integral_matrix, 1, [1], m)


def _golden_hyperbolic():
    return [case for case in golden_lattice_cases() if case[0].startswith("hyperbolic")]


@pytest.mark.parametrize("label, c, t_range", _golden_hyperbolic(), ids=lambda x: str(x)[:14])
def test_golden_hyperbolic_matches_the_float_twin(label, c, t_range):
    # the twin's diagonal is snapped so that the values it holds are
    # trace-free; their spectrum is irrational, so the scan decides them
    exact = lattice_verdict(c, t_range=t_range)
    scan = lattice_verdict(trace_free_float(c), t_range=t_range)
    assert all(w.exact for w in exact.witnesses) and not any(w.exact for w in scan.witnesses)
    assert [(z_rows(w), w.poly) for w in exact.witnesses] == [
        (z_rows(w), w.poly) for w in scan.witnesses
    ]


def _run_limited(code: str, max_bytes: int = 4 << 30) -> str:
    """Run ``code`` in a child Python whose address space is capped at
    ``max_bytes``, so that an allocation past it fails instead of
    swapping; returns its stdout."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, preexec_fn=limit
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_past_the_listing_limit_the_scan_decides():
    # 2 cosh(20 * 2.5) ~ 5e21 and 2 cosh(20) ~ 4.85e8 traces: the step
    # counts before it enumerates, and the scan gives its verdicts
    code = (
        "from lcplab import exact as ex\n"
        "from lcplab.lattice import lattice_verdict\n"
        "for a, hi in ((20, 3.0), (1, 20.0)):\n"
        "    v = lattice_verdict(ex.rmat([[a, 0], [0, -a]]), t_range=(0.0, hi))\n"
        "    print(v.status, len(v.witnesses), any(w.exact for w in v.witnesses))\n"
    )
    assert _run_limited(code).split("\n")[:2] == ["yes 112 False", "yes 985 False"]


def test_exact_step_imports_no_sympy():
    code = (
        "import sys\n"
        "from lcplab import exact as ex\n"
        "from lcplab.lattice import lattice_verdict\n"
        "v = lattice_verdict(ex.rmat([[1, 0, 0], [0, -1, 0], [0, 0, 0]]), t_range=(0.0, 3.0))\n"
        "print(len(v.witnesses), v.witnesses[0].exact, 'sympy' in sys.modules)\n"
    )
    assert _run_limited(code).strip() == "18 True False"


def _dense_rational(r, n, den):
    """An invertible n x n matrix of entries (-9..9)/(1..den), all nonzero."""
    while True:
        p = ex.rmat(
            [[F(r.choice([k for k in range(-9, 10) if k]), r.randint(1, den)) for _ in range(n)]
             for _ in range(n)]
        )
        if ex.det(p) != 0:
            return p


def _integer_basis(r, n):
    """An invertible integer matrix I + E, |E_ij| <= 9."""
    while True:
        p = ex.rmat([[int(i == j) + r.randint(-9, 9) for j in range(n)] for i in range(n)])
        if ex.det(p) != 0:
            return p


def test_dense_double_roots_are_certified():
    # P (J_2(lam) + (-2 lam)) P^-1 under dense rational P: the rule reads
    # the exact spectrum, so no float clustering can miss the double root
    for seed in range(60):
        r = random.Random(seed)
        lam = r.choice([-1, 1]) * F(r.randint(1, 4), r.randint(1, 3))
        d = ex.rmat([[lam, 1, 0], [0, lam, 0], [0, 0, -2 * lam]])
        v = lattice_verdict(conjugate(_dense_rational(r, 3, 9), d), t_range=(0.0, 3.0))
        assert v.status == "no", seed
        (cert,) = v.certificates
        assert cert.rule == "double_root" and cert.data["multiplicity"] == 2
        assert cert.data["multiple_root"] == float(lam)


@pytest.mark.parametrize(
    "d, basis",
    [
        (ex.rmat(direct_sum([jordan(3, 1), jordan(3, -1)])), _integer_basis),
        (diag(1, 1, -1, -1, 0), lambda r, n: _dense_rational(r, n, 30)),
    ],
    ids=["jordan-integer-basis", "diagonal-rational-basis"],
)
def test_dense_rational_spectra_list_every_witness(d, basis):
    # J_3(1) + J_3(-1) under P = I + E, and diag(1, 1, -1, -1, 0) under a
    # rational P: rounding float eigenvalues of the integer form lost
    # these integer spectra, the exact spectrum does not
    for seed in range(20):
        c = conjugate(basis(random.Random(seed), len(d)), d)
        v = lattice_verdict(c, t_range=(0.0, 3.0))
        assert len(v.witnesses) == 18 and all(w.exact for w in v.witnesses), seed
        for m, w in enumerate(v.witnesses, start=3):
            assert int_charpoly(w.integral_matrix) == w.poly
            assert abs(2 * math.cosh(w.t0) - m) <= 1e-9 * m


@pytest.mark.parametrize(
    "c, status",
    [
        (ex.rmat([[1, 1, 0], [0, 1, 0], [0, 0, -2]]), "no"),  # double root
        (conjugate(U6, J2J1), "yes"),  # hyperbolic
    ],
    ids=["double-root", "hyperbolic"],
)
def test_one_characteristic_polynomial_per_verdict(monkeypatch, c, status):
    calls = []
    charpoly = ex.int_charpoly_coeffs
    monkeypatch.setattr(ex, "int_charpoly_coeffs", lambda a: calls.append(1) or charpoly(a))
    assert lattice_verdict(c, t_range=(0.0, 3.0)).status == status
    assert len(calls) == 1


# dyadic trace-free blocks, so that their float twins hold the same values:
# hyperbolic and Jordan pairs, rotations p +- iw with p = 0 (closed by
# nothing) and p != 0 (closed to trace zero by -2p), and zero blocks
_DYADIC = [1, 2, F(1, 2), F(3, 4)]
_FLOAT_TWIN_BLOCKS = st.one_of(
    st.sampled_from(_DYADIC).map(lambda a: [jordan(1, a), jordan(1, -a)]),
    st.tuples(st.sampled_from(_DYADIC), st.integers(2, 3)).map(
        lambda ak: [jordan(ak[1], ak[0]), jordan(ak[1], -ak[0])]
    ),
    st.tuples(st.sampled_from([0, F(1, 2), F(-1, 4)]), st.sampled_from([1, 2, F(1, 2)])).map(
        lambda pw: [[[pw[0], -pw[1]], [pw[1], pw[0]]]] + ([[[-2 * pw[0]]]] if pw[0] else [])
    ),
    st.integers(1, 2).map(lambda k: [jordan(k, 0)]),
)


@st.composite
def float_twins(draw):
    """(C on Fractions, its float twin) for a direct sum of the blocks
    above, n <= 6, under a unimodular integer basis: every entry is a
    dyadic rational of a few bits, so the twin holds C exactly."""
    blocks = []
    for group in draw(st.lists(_FLOAT_TWIN_BLOCKS, min_size=1, max_size=3)):
        if sum(len(b) for b in blocks + group) <= 6:
            blocks += group
    c = draw(conjugated(direct_sum(draw(st.permutations(blocks))), unimodular_basis))
    twin = to_float(c)
    assert all(F(x) == y for x, y in zip(twin.flat, c.flat))
    return c, twin


@settings(max_examples=40, deadline=None)
@given(float_twins(), st.sampled_from([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.5, 2.5)]))
def test_float_twins_answer_as_their_rationals(twins, t_range):
    # a float is the rational it holds: the verdict on the twin is the
    # verdict on C, byte for byte, on every path
    c, twin = twins
    exact = lattice_verdict(c, t_range=t_range).as_dict()
    assert lattice_verdict(twin, t_range=t_range).as_dict() == exact


J2 = direct_sum([jordan(2, 1), jordan(2, -1)])
J2_HALF = direct_sum([jordan(2, F(1, 2)), jordan(2, F(-1, 2)), [[0]]])


@pytest.mark.parametrize(
    "c, t_hi, count",
    [
        (J2, 3.0, 18),
        (J2_HALF, 7.0, 31),
        (conjugate(U4, diag(1, 1, -1, -1)), 3.0, 18),
    ],
    ids=["jordan", "jordan-half", "derogatory-group"],
)
def test_float_input_lists_every_witness(c, t_hi, count):
    # the scan found 8 of 18, 14 of 31 and none of 18 of these float
    # inputs; read as the rationals they hold, the exact step lists all
    exact = lattice_verdict(ex.rmat(c), t_range=(0.0, t_hi))
    twin = to_float(ex.rmat(c))
    # in memory order C or Fortran (a transpose, say) alike
    for a in (twin, np.asfortranarray(twin)):
        v = lattice_verdict(a, t_range=(0.0, t_hi))
        assert len(v.witnesses) == count and all(w.exact for w in v.witnesses)
        assert [w.as_dict() for w in v.witnesses] == [w.as_dict() for w in exact.witnesses]


def per_level_witnesses(c, t_range):
    """The exact witnesses built level by level: at each trace level m,
    the invariant factors of exp(t0 C) from the Lucas numbers L_e(m), and
    companion(IntPoly(p)) of each on consecutive diagonal blocks; as
    (t0, Z rows, poly coefficients, exact)."""
    plan = _Plan(c)
    spec = plan.int_spectrum
    ks = spec.integer_eigenvalues()
    ints, d = plan.scaled
    g = math.gcd(*ks)
    types = rank_types(ints, spec.integer_roots)
    out = []
    for t0, m in _trace_levels(float(F(g, d)), *_scanned_range(plan, t_range)):
        z = np.zeros((len(ks), len(ks)), dtype=object)
        poly, at = [1], 0
        for i in range(max(len(sizes) for sizes in types.values())):
            p = [1]
            for k, sizes in types.items():
                if k >= 0 and i < len(sizes):
                    q = [1, -1] if k == 0 else [1, -lucas(m, k // g), 1]
                    for _ in range(sizes[i]):
                        p = poly_mul(p, q)
            end = at + len(p) - 1
            z[at:end, at:end] = companion(IntPoly(tuple(p)))
            poly, at = poly_mul(poly, p), end
        out.append((t0, z.tolist(), tuple(poly), True))
    return out


def one_pass_witnesses(c, t_range):
    return [
        (w.t0, w.integral_matrix.tolist(), w.poly.coeffs, w.exact)
        for w in _exact_witnesses(c, t_range)
    ]


@settings(max_examples=40, deadline=None)
@given(symmetric_jordan_data(), st.floats(1.0, 3.5), st.sampled_from([0.0, -0.5]))
def test_one_pass_matches_the_per_level_construction(data, reach, below):
    # every witness of the one pass is the one the per-level loop builds:
    # t0, Z, its characteristic polynomial and the exact flag, in order
    c, lam_eff, _ = data
    t_range = (below * reach / float(lam_eff), reach / float(lam_eff))
    expected = per_level_witnesses(c, t_range)
    assert expected and one_pass_witnesses(c, t_range) == expected


@pytest.mark.parametrize(
    "c, t_range, count",
    [
        (diag(1, -1), (1.0, 1.3), 0),  # between the levels m = 3 and 4
        (diag(1, -1), (0.0, 3.0), 18),  # n = 2: no zero root
        (conjugate(U4, diag(1, 1, -1, -1)), (0.0, 3.0), 18),
        (conjugate(U6, J2J1), (-2.0, 2.0), 10),
        (diag(1, -1), (0.0, 9.2), 9895),  # the listing limit's range
    ],
    ids=["no-level", "n2", "derogatory-group", "jordan-group", "listing-limit"],
)
def test_one_pass_edge_cases(c, t_range, count):
    got = one_pass_witnesses(c, t_range)
    assert len(got) == count and got == per_level_witnesses(c, t_range)


@st.composite
def integer_jordan_matrices(draw):
    """(ints, its Jordan types): Jordan blocks at small integer
    eigenvalues, simple and repeated roots mixed, under a unimodular
    basis change (so the matrix stays integer)."""
    block = st.tuples(st.integers(-3, 3), st.integers(1, 3))
    blocks = draw(st.lists(block, min_size=1, max_size=4))
    d = direct_sum([jordan(k, a) for a, k in blocks])
    ints = ex.scaled(draw(conjugated(d, unimodular_basis)))[0]
    types = {}
    for a, k in blocks:
        types.setdefault(a, []).append(k)
    return ints, {a: sorted(sizes, reverse=True) for a, sizes in types.items()}


@settings(max_examples=100, deadline=None)
@given(integer_jordan_matrices())
def test_jordan_types_match_the_ranks(data):
    # and the plan's, which reads a diagonalizable ints off s(ints) = 0
    ints, types = data
    plan = _Plan(ints)
    roots = plan.int_spectrum.integer_roots
    assert _jordan_types(ints, roots) == rank_types(ints, roots) == plan.jordan_types == types


def test_witness_matrices_are_read_only():
    # the witnesses' Z are slices of one array: none can change another
    first, second = _exact_witnesses(diag(1, -1), (0.0, 1.4))
    with pytest.raises(ValueError):
        first.integral_matrix[1, 1] = 4
    assert z_rows(first) == [[0, -1], [1, 3]] and z_rows(second) == [[0, -1], [1, 4]]


def test_one_rank_and_no_companion_matrix(monkeypatch):
    # diag(1, -1, 0, 0) is diagonalizable, s(C) = 0 for the square-free
    # part s of charpoly(C): its Jordan types take no rank.  With J_2(0)
    # for the double root 0, the simple roots +-1 take no rank and the
    # root 0 two, and no companion matrix is built level by level.  The
    # Jordan types read each rank as the nullity of one integer kernel;
    # the Jordan layers take kernels too, and are not counted.
    calls = {"companion": 0, "rank": 0}

    def counted(name, f, caller=None):
        def g(*args):
            if caller is None or sys._getframe(1).f_code.co_name == caller:
                calls[name] += 1
            return f(*args)

        return g

    monkeypatch.setattr(lattice, "companion", counted("companion", companion))
    monkeypatch.setattr(intpoly, "companion", counted("companion", companion))
    monkeypatch.setattr(ex, "int_nullspace", counted("rank", ex.int_nullspace, "_jordan_types"))
    v = lattice_verdict(diag(1, -1, 0, 0), t_range=(0.0, 3.0))
    assert len(v.witnesses) == 18 and all(w.exact for w in v.witnesses)
    assert calls == {"companion": 0, "rank": 0}
    v = lattice_verdict(ex.rmat(direct_sum([[[1]], [[-1]], jordan(2, 0)])), t_range=(0.0, 3.0))
    assert len(v.witnesses) == 18 and all(w.exact for w in v.witnesses)
    assert calls == {"companion": 0, "rank": 2}
