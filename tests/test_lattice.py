import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from lcplab import exact as ex
from lcplab import kernels
from lcplab.algebra import MAX_DIM, Metric, almost_abelian_presentation
from lcplab.construct import almab_lcp, amalgamated_product
from lcplab.errors import (
    DimensionMismatch,
    EnvelopeExceeded,
    MTooSmall,
    NonTraceFree,
)
from lcplab.intpoly import IntPoly, int_charpoly, int_det
from lcplab.lattice import (
    MAX_INT_FORM_SIZE,
    MAX_SPECTRAL,
    RULES,
    SCAN_TOL,
    _exact_witnesses,
    _far_apart,
    _Plan,
    _scanned_range,
    certify_witness,
    certify_witness_blocked,
    e11_lattice,
    integer_charpoly_scan,
    lattice_verdict,
    no_lattice_codim2,
    no_lattice_double_root,
)
from lcplab.lowdim import table_algebra
from support import dot, inv, reye, to_float, trace_free_float

C_E11 = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_scan_finds_all_tm():
    cands = integer_charpoly_scan(C_E11, t_range=(0, 3))
    ms = [-c.poly.coeffs[1] for c in cands]
    assert ms == list(range(3, 21))
    for c in cands:
        m = -c.poly.coeffs[1]
        t_m = math.log((m + math.sqrt(m * m - 4)) / 2)
        assert abs(c.t0 - t_m) < 1e-9
        assert c.poly.coeffs == (1, -m, 1)
        assert c.defect <= 1e-9


def test_scan_rejects_nonzero_trace():
    with pytest.raises(NonTraceFree):
        integer_charpoly_scan(np.array([[1.0]]), t_range=(0, 1))


def test_scan_double_root_case_empty():
    c = np.diag([1.0, -0.5, -0.5])
    assert integer_charpoly_scan(c, t_range=(0, 10)) == []
    cert = no_lattice_double_root(c)
    assert cert is not None and cert.rule == "double_root"
    assert abs(cert.data["multiple_root"] + 0.5) < 1e-12


def test_scan_degenerate_zero_matrix():
    # a nilpotent C gets no candidate from the scan: the exact step lists
    # its witness, t0 = 1 with Z = I and charpoly (x - 1)^3
    assert integer_charpoly_scan(np.zeros((3, 3))) == []
    v = lattice_verdict(np.zeros((3, 3)))
    assert (v.status, v.rule) == ("yes", "trace_levels")
    (w,) = v.witnesses
    assert w.exact and w.residual is None and w.t0 == 1.0
    assert w.poly.coeffs == (1, -3, 3, -1)
    assert w.integral_matrix.tolist() == np.eye(3, dtype=int).tolist()


def test_nilpotent_witness_stays_in_the_range():
    # t = 1 when 1 is in (lo, hi], otherwise hi
    j3 = ex.rmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    for t_range, t0 in (((0.0, 0.5), 0.5), ((0.0, 3.0), 1.0), ((-2.0, -1.0), -1.0)):
        v = lattice_verdict(j3, t_range=t_range)
        assert [w.t0 for w in v.witnesses] == [t0]
        assert v.witnesses[0].poly.coeffs == (1, -3, 3, -1)


def test_nilpotent_witness_is_never_t0_zero():
    # exp(0 C) = I gives no lattice: with 1 outside (-1, 0] and hi = 0
    # the exact step reports a t inside the range instead
    v = lattice_verdict(ex.rzeros((2, 2)), t_range=(-1.0, 0.0))
    assert v.status == "yes" and [w.t0 for w in v.witnesses] == [-0.5]


def test_a_range_shorter_than_a_grid_step_keeps_the_nilpotent_witness():
    # no grid point fits in 0:0.0005, but every t != 0 is a witness; an
    # empty range lists none
    j2 = ex.rmat([[0, 1], [0, 0]])
    assert [w.t0 for w in lattice_verdict(j2, t_range=(0.0, 0.0005)).witnesses] == [0.0005]
    v = lattice_verdict(j2, t_range=(2.0, 2.0))
    assert (v.status, v.rule, v.inconclusive_ranges) == ("inconclusive", "trace_levels", ((2.0, 2.0),))


@pytest.mark.parametrize(
    "c, t_range",
    [
        (ex.rmat([[0, 1], [0, 0]]), (0.0, math.inf)),  # nilpotent: rho = 0
        (ex.rmat([[0, 1], [0, 0]]), (-math.inf, 0.0)),
        # rho = 2^-1100 reads 0.0 in floats; 2^-1060 is subnormal, and
        # MAX_SPECTRAL / rho overflows
        (np.diag([Fraction(1, 2**1100), Fraction(-1, 2**1100)]), (0.0, math.inf)),
        (np.diag([Fraction(1, 2**1060), Fraction(-1, 2**1060)]), (0.0, math.inf)),
    ],
    ids=["nilpotent-hi", "nilpotent-lo", "rho-zero", "rho-subnormal"],
)
def test_a_range_end_the_clamp_leaves_infinite_is_refused(c, t_range):
    with pytest.raises(EnvelopeExceeded, match="does not bound"):
        lattice_verdict(c, t_range=t_range)


def test_a_grid_past_max_scan_points_is_refused():
    # a rotation of frequency 1/100: 0:1e4 is clamped to 0:5000, a grid
    # of 5 * 10^6 points, refused before it is allocated
    c = ex.rmat([[0, Fraction(-1, 100)], [Fraction(1, 100), 0]])
    for scan in (integer_charpoly_scan, lattice_verdict):
        with pytest.raises(EnvelopeExceeded, match="scan points"):
            scan(c, t_range=(0.0, 1e4))


def test_the_exact_exits_come_before_the_grid_size_refusal():
    # 1/100 +- i/100 is off both axes: 0:3000 is clamped to 0:2500, which
    # would need 2.5 * 10^6 grid points, but the off-axis exit builds no
    # grid; nor does the nilpotent one, whose range is not clamped
    c = ex.rmat([[Fraction(1, 100), Fraction(-1, 100), 0], [Fraction(1, 100), Fraction(1, 100), 0],
                 [0, 0, Fraction(-2, 100)]])
    assert integer_charpoly_scan(c, t_range=(0.0, 3000.0)) == []
    v = lattice_verdict(c, t_range=(0.0, 3000.0))
    assert (v.status, v.rule, v.inconclusive_ranges) == ("inconclusive", "scan", ((0.0, 2500.0),))
    assert integer_charpoly_scan(ex.rmat([[0, 1], [0, 0]]), t_range=(0.0, 1e7)) == []


def test_certification_refuses_t0_zero():
    # at t0 = 0 every exponential is I, which certification would
    # conjugate to an integer matrix
    assert certify_witness_blocked(np.diag([1.0, -1.0]), 0.0, IntPoly((1, -2, 1))) is None
    assert certify_witness(np.zeros((1, 1)), 0.0, IntPoly((1, -1))) is None
    assert certify_witness(np.zeros((1, 1)), 0.5, IntPoly((1, -1))) is not None


@pytest.mark.parametrize(
    "call",
    [
        lattice_verdict,
        no_lattice_double_root,
        integer_charpoly_scan,
        lambda c: certify_witness(c, 1.0, IntPoly((1, -3, 1))),
    ],
    ids=["verdict", "double-root", "scan", "certify"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entries_are_an_envelope_error(call, bad):
    c = np.array([[bad, 0.0], [0.0, -1.0]])
    with pytest.raises(EnvelopeExceeded, match="finite"):
        call(c)


def test_entries_past_the_float_range_are_an_envelope_error():
    # exact entries the floats cannot hold are refused, not an OverflowError
    c = np.array([[2**1100, 0], [0, -(2**1100)]], dtype=object)
    for call in (lattice_verdict, no_lattice_double_root, integer_charpoly_scan):
        with pytest.raises(EnvelopeExceeded, match="float range"):
            call(c)


def test_entries_across_the_float_range_are_read_exactly():
    # with a subnormal entry next to 1e300, the integer form d C has
    # eigenvalues past the float range (d = 2^1074); its exact spectrum
    # still finds the double root 1e300
    c = np.array([[1e300, 0.0, 5e-324], [0.0, 1e300, 0.0], [0.0, 0.0, -2e300]])
    cert = no_lattice_double_root(c)
    assert cert is not None and cert.data["multiple_root"] == 1e300
    v = lattice_verdict(np.array([[1e308, 5e-324], [2.2e-310, -1e308]]))
    assert v.status == "inconclusive" and v.inconclusive_ranges == ((0.0, 5e-307),)


@pytest.mark.parametrize(
    "call",
    [lattice_verdict, no_lattice_double_root, integer_charpoly_scan],
    ids=["verdict", "double-root", "scan"],
)
@pytest.mark.parametrize(
    "c", [np.zeros((0, 0)), [[1, 0, 0], [0, -1, 0]], [[1, 0], [0]]], ids=["0x0", "2x3", "ragged"]
)
def test_empty_or_non_square_input_is_a_dimension_error(call, c):
    with pytest.raises(DimensionMismatch, match="nonempty square"):
        call(c)


def test_integer_form_bit_envelope():
    # n^2 b, b the largest bit length of d and the entries of d C: at the
    # limit a 16 x 16 C takes 128-bit entries, one bit more is refused
    c = ex.rzeros((16, 16))
    c[0, 0] = 2**127
    assert 16**2 * 128 == MAX_INT_FORM_SIZE and _Plan(c).scaled[0][0, 0] == 2**127
    c[0, 0] = 2**128
    with pytest.raises(EnvelopeExceeded, match="integer form"):
        _Plan(c).scaled
    # a 16 x 16 standard-normal float C has b = 61
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16))
    assert max(abs(x).bit_length() for x in _Plan(a).scaled[0].flat) <= 61
    assert no_lattice_double_root(a) is None


def test_huge_float_entries_are_refused_before_the_charpoly(monkeypatch):
    # trace-free up to rounding and scaled by 1e300, each entry of d C has
    # about 1000 bits: every call is refused before a characteristic
    # polynomial is built
    def refuse(ints):
        raise AssertionError("characteristic polynomial built")

    monkeypatch.setattr(ex, "int_charpoly_coeffs", refuse)
    a = np.random.default_rng(0).standard_normal((16, 16))
    a = (a - np.trace(a) / 16 * np.eye(16)) * 1e300
    for call in (lattice_verdict, no_lattice_double_root, integer_charpoly_scan):
        with pytest.raises(EnvelopeExceeded, match="integer form"):
            call(a)


@pytest.mark.parametrize(
    "make",
    [
        # one double root 2 among real simple ones: past MAX_DIM this is
        # refused, not answered "no" by the double-root rule
        lambda: np.diag([2, 2, -1, -3, 0] + [s * k for k in range(10, 16) for s in (1, -1)]),
        lambda: _conjugated_hyperbolic(17),
    ],
    ids=["double-root-17", "hyperbolic-17"],
)
def test_past_max_dim_every_step_is_refused_before_a_spectrum(monkeypatch, make):
    def refuse(ints):
        raise AssertionError("characteristic polynomial built")

    monkeypatch.setattr(ex, "int_charpoly_coeffs", refuse)
    c = make()
    assert c.shape == (MAX_DIM + 1, MAX_DIM + 1)
    calls = [
        lattice_verdict,
        no_lattice_double_root,
        integer_charpoly_scan,
        lambda c: certify_witness(c, 1.0, IntPoly((1,) + (0,) * 16 + (-1,))),
    ]
    for call in calls:
        with pytest.raises(EnvelopeExceeded, match=f"n <= {MAX_DIM}"):
            call(c)


def test_certify_e11():
    cands = integer_charpoly_scan(C_E11, t_range=(0, 1.4))
    w = certify_witness(C_E11, cands[0].t0, cands[0].poly)
    assert [[int(x) for x in r] for r in w.integral_matrix] == [[0, -1], [1, 3]]
    assert w.residual <= SCAN_TOL and not w.exact
    assert int_det(w.integral_matrix) == 1
    assert int_charpoly(w.integral_matrix).coeffs == w.poly.coeffs


def test_certify_rejects_nonunit_constant():
    assert certify_witness(C_E11, 0.96, IntPoly((1, -3, 2))) is None


def test_certify_rejects_a_polynomial_off_the_exponential():
    # x^2 - 4x + 1 is integral with det 1, but at the m = 3 level of
    # diag(1, -1) charpoly(exp(t0 C)) is x^2 - 3x + 1
    t3 = math.acosh(1.5)
    assert certify_witness(C_E11, t3, IntPoly((1, -3, 1))) is not None
    assert certify_witness(C_E11, t3, IntPoly((1, -4, 1))) is None
    assert certify_witness(C_E11, t3, IntPoly((1, -3, 1, 0))) is None  # degree
    assert certify_witness(np.diag([1.0, -1.0, 0.0]), t3, IntPoly((1, -4, 4, -1))) is not None
    # det Z = -1: (x + 1)(x - 1) is not the polynomial of a det-1 matrix
    assert certify_witness(np.zeros((2, 2)), 1.0, IntPoly((1, 0, -1))) is None


def test_blocked_certification_for_amalgam_matrix():
    # exp(t C) of the amalgam is derogatory, with E_3 twice: its Frobenius
    # form has two companion blocks, and the name kept for the blockwise
    # step gives the same witness
    t3 = math.log((3 + math.sqrt(5)) / 2)
    c = np.diag([1.0, -1.0, 1.0, -1.0]) / math.sqrt(2)
    t = math.sqrt(2) * t3
    w = certify_witness(c, t, IntPoly((1, -6, 11, -6, 1)))
    assert w is not None and w.residual <= SCAN_TOL
    z = [[int(x) for x in row] for row in w.integral_matrix]
    assert z == [[0, -1, 0, 0], [1, 3, 0, 0], [0, 0, 0, -1], [0, 0, 1, 3]]
    assert int_det(w.integral_matrix) == 1
    assert certify_witness_blocked(c, t, w.poly).as_dict() == w.as_dict()


def test_e11_lattice_family():
    seen = set()
    for m in range(3, 61):
        w, ab = e11_lattice(m)
        assert [[int(x) for x in r] for r in w.integral_matrix] == [[0, -1], [1, m]]
        assert w.poly.coeffs == (1, -m, 1)
        assert w.exact and w.residual is None
        assert int_det(w.integral_matrix) == 1
        # t_m is right: 2 cosh(t_m) = m, and certification at t_m gives E_m
        assert math.isclose(2 * math.cosh(w.t0), m, rel_tol=1e-13)
        z = certify_witness(C_E11, w.t0, w.poly).integral_matrix
        assert z.tolist() == w.integral_matrix.tolist()
        # E_m - I = [[-1, -1], [1, m - 1]]: entries of gcd 1, determinant 2 - m
        assert ab.snf_diagonal == (1, m - 2)
        assert ab.torsion == m - 2
        seen.add(ab.torsion)
    assert len(seen) == 58  # pairwise distinct abelianisations
    with pytest.raises(MTooSmall):
        e11_lattice(2)


def test_double_root_certificates():
    assert no_lattice_double_root(np.diag([1.0, -1.0])) is None
    # triple root away from zero
    cert = no_lattice_double_root(np.diag([0.25, 0.25, 0.5, -1.0]))
    assert cert is not None
    # two distinct multiple roots: rule does not apply
    assert no_lattice_double_root(np.diag([1.0, 1.0, -1.0, -1.0])) is None
    # complex eigenvalues: rule does not apply
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert no_lattice_double_root(rot) is None


def test_verdict_tol_does_not_loosen_double_root():
    # eigenvalues 1e-9 apart are distinct floats, hence distinct rationals:
    # the double-root rule reads them exactly and does not fire.  Those
    # floats sum to exactly 0, and their rational real spectrum has a type
    # at 1 and none at -1: jordan_asymmetry says "no".  The floats of the
    # 1e-6 gap sum to -2^-52: the values held are not trace-free, and the
    # verdict refuses them before any rule is asked
    v = lattice_verdict(np.diag([1.0, 1 + 1e-9, -2 - 1e-9]), t_range=(0, 3))
    assert (v.rule, v.status) == ("jordan_asymmetry", "no")
    assert "double_root" not in [cert.rule for cert in v.certificates]
    with pytest.raises(NonTraceFree):
        lattice_verdict(np.diag([1.0, 1 + 1e-6, -2 - 1e-6]), t_range=(0, 3))


class CharpolyBuilt(Exception):
    pass


def _refuse_charpoly(ints):
    raise CharpolyBuilt


@st.composite
def trace_rule_inputs(draw):
    """An n x n matrix, n = 2..6, of floats (dyadic ones, or any of
    modulus 0 or at least 2^-20) or of Fractions; half of them have the
    last diagonal entry set to minus the sum of the others, in the
    entries' own arithmetic (a float sum may round)."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        entry = st.one_of(
            st.integers(-64, 64).map(lambda k: k / 8),
            st.tuples(st.sampled_from([1.0, -1.0]), st.floats(2.0**-20, 8)).map(lambda sx: sx[0] * sx[1]),
        )
        dtype = np.float64
    else:
        entry = st.fractions(-8, 8, max_denominator=12)
        dtype = object
    c = np.array([[draw(entry) for _ in range(n)] for _ in range(n)], dtype=dtype)
    if draw(st.booleans()):
        c[n - 1, n - 1] = -sum(c[i, i] for i in range(n - 1))
    return c


@settings(max_examples=100, deadline=None)
@given(trace_rule_inputs())
def test_the_trace_rule_comes_before_any_characteristic_polynomial(c):
    # one trace rule for every input type: NonTraceFree exactly when the
    # rationals held have a nonzero trace, and before a characteristic
    # polynomial is built; trace-free input goes on to build one
    trace_free = sum(Fraction(c[i, i]) for i in range(len(c))) == 0
    event(f"trace free: {trace_free}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "int_charpoly_coeffs", _refuse_charpoly)
        for call in (lattice_verdict, integer_charpoly_scan):
            with pytest.raises(CharpolyBuilt if trace_free else NonTraceFree):
                call(c, t_range=(0.0, 1.0))


def _presented(s):
    """C of the almost abelian presentation of a structure's algebra under its metric."""
    return almost_abelian_presentation(s.algebra, s.metric).matrix


def test_codim2_certificate():
    s3 = almab_lcp([[1]], ex.rzeros((3, 3)))  # dim 5, flat 3 = n - 2
    cert = no_lattice_codim2(_presented(s3))
    assert cert.rule == "codim2_highdim" and cert.data == {"dim": 5, "flat_dim": 3}
    # dimension 3 is exempt: diag(1, -1) presents e(1,1)
    assert no_lattice_codim2(C_E11) is None
    # dim-5 with flat 2 is exempt
    s2 = almab_lcp([[1, 0], [0, 2]], ex.rzeros((2, 2)))
    assert no_lattice_codim2(_presented(s2)) is None


def _first_rule_cases():
    """(C, the rule that decides) for inputs that each entry of RULES
    decides."""
    s = almab_lcp([[1]], [[0, -1, 0], [1, 0, 0], [0, 0, 0]])  # dim 5, flat 3
    yield ex.rmat([[1, 0, 0], [0, 1, 0], [0, 0, -2]]), "double_root"
    yield ex.rmat([[1, 0, 0], [0, Fraction(-1, 4), 0], [0, 0, Fraction(-3, 4)]]), "jordan_asymmetry"
    yield ex.rmat([[1, 0], [0, -1]]), "trace_levels"
    yield ex.rmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), "trace_levels"  # nilpotent
    # 1, -1/3 +- i, -1/3: no double root, not all real, and the codim-2 shape
    yield _presented(s), "codim2_highdim"
    yield ex.rmat([[0, -1], [1, 0]]), "scan"


def test_the_first_rule_that_decides_names_the_verdict():
    # each entry of RULES decides one input; the entries before it were
    # asked and did not apply, and the verdict names the entry
    names = [name for name, _ in RULES]
    assert names == ["double_root", "jordan_asymmetry", "trace_levels", "codim2_highdim", "scan"]
    for c, rule in _first_rule_cases():
        v = lattice_verdict(c, t_range=(0.0, 3.0))
        assert v.rule == rule and v.as_dict()["rule"] == rule
        assert v.status != "inconclusive"
        plan = _Plan(c)
        for name, decide in RULES[: names.index(rule)]:
            assert decide(plan, (0.0, 3.0)) is None, (rule, name)
        assert [cert.rule for cert in v.certificates] in ([], [rule])


def test_only_double_root_decides_a_spectrum_not_all_rational():
    # diag(2, 2) + companion(x^2 + 4x + 1): spectrum 2, 2, -2 +- sqrt(3),
    # trace 0.  Not every eigenvalue is rational, so the Jordan rules do
    # not apply, and the scan finds nothing on 0:3: without double_root
    # the verdict would be inconclusive
    c = ex.rmat([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, -1], [0, 0, 1, -4]])
    v = lattice_verdict(c, t_range=(0.0, 3.0))
    assert (v.rule, v.status) == ("double_root", "no")
    assert v.certificates[0].data["multiple_root"] == 2.0
    plan = _Plan(c)
    later = {name: decide(plan, (0.0, 3.0)) for name, decide in RULES[1:]}
    assert later == {"jordan_asymmetry": None, "trace_levels": None, "codim2_highdim": None, "scan": []}


nonzero_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=9).filter(bool)


@settings(max_examples=25, deadline=None)
@given(nonzero_rationals, nonzero_rationals)
def test_an_amalgam_is_decided_by_the_verdict_on_its_presentation(a1, a2):
    # the amalgam of two almost abelian factors is almost abelian, with
    # C = blockdiag(C1, s C2): here every eigenvalue is +-rho(C), so on
    # 0:3/rho the verdict lists the 18 trace levels m = 3..20 exactly,
    # each Z integral, of det 1 and charpoly (x^2 - m x + 1)^2
    s = amalgamated_product(almab_lcp([[a1]], [[0]]), almab_lcp([[a2]], [[0]]))
    c = almost_abelian_presentation(s.algebra, s.metric).matrix
    rho = _Plan(c).rho
    v = lattice_verdict(c, t_range=(0.0, 3 / rho))
    assert (v.status, v.rule, len(v.witnesses)) == ("yes", "trace_levels", 18)
    assert abs(v.witnesses[0].t0 * rho - math.acosh(1.5)) <= 1e-12
    for m, w in enumerate(v.witnesses, start=3):
        assert w.exact and all(type(x) is int for x in w.integral_matrix.ravel().tolist())
        assert int_det(w.integral_matrix) == 1 and int_charpoly(w.integral_matrix) == w.poly
        assert w.poly.coeffs == (1, -2 * m, m * m + 2, -2 * m, 1)


def test_verdict_exclusivity():
    # a certificate suppresses the witness search entirely
    v = lattice_verdict(np.diag([1.0, -0.5, -0.5]), t_range=(0, 3))
    assert v.status == "no" and not v.witnesses
    v2 = lattice_verdict(C_E11, t_range=(0, 3))
    assert v2.status == "yes" and not v2.certificates
    assert not (v.witnesses and v.certificates)


def test_far_basis_float_twin_certifies_every_candidate():
    # B + 0 with B a rational orthogonal conjugate of diag(1, -1, 0), a
    # basis far from the eigenbasis: the float twin goes through the scan,
    # and every candidate certifies
    d, d3 = 34959639475, 1398385579
    b11, b12, b13 = Fraction(4568368896, d), Fraction(-4493798172, d), Fraction(450054396, d3)
    b22, b23, b33 = Fraction(-32191838371, d), Fraction(-514227672, d3), Fraction(1104938779, d3)
    c = np.array(
        [[b11, b12, b13, 0], [b12, b22, b23, 0], [b13, b23, b33, 0], [0, 0, 0, 0]],
        dtype=object,
    )
    assert sum(c[i, i] for i in range(4)) == 0
    # the exact step decides the rational input; its float twin, with the
    # diagonal snapped so that the values held are trace-free, has an
    # irrational spectrum and goes through the scan and certification
    c = trace_free_float(c)
    assert len(integer_charpoly_scan(c, t_range=(0, 3))) == 18
    v = lattice_verdict(c, t_range=(0, 3))
    # trace of exp(t C) is m + 2 for the 2x2 witness E_m, m = 3..20
    assert sorted(-w.poly.coeffs[1] - 2 for w in v.witnesses) == list(range(3, 21))


def test_verdict_reports_clamped_range():
    # spectral radius sqrt(37)/2, so the scan stops at t = 50 / rho
    c = np.array([[0.5, -3.0, 0.0], [3.0, 0.5, 0.0], [0.0, 0.0, -1.0]])
    v = lattice_verdict(c, t_range=(0, 40))
    assert v.status == "inconclusive"
    ((lo, hi),) = v.inconclusive_ranges
    assert lo == 0.0
    assert abs(hi - 100 / math.sqrt(37)) < 1e-9


def test_double_root_on_rationals_needs_an_exact_multiple_root():
    # distinct eigenvalues 1e-9 apart: the rule reads the exact spectrum,
    # so neither the rationals nor the floats nearest them get a
    # certificate
    e = Fraction(1, 10**9)
    c = ex.rmat([[1, 0, 0], [0, 1 + e, 0], [0, 0, -2 - e]])
    assert no_lattice_double_root(c.astype(np.float64)) is None
    assert no_lattice_double_root(c) is None
    # the rationals have no lattice by the Jordan types, which differ at 1
    # and -1, and get no double_root certificate
    (cert,) = lattice_verdict(c, t_range=(0, 3)).certificates
    assert cert.rule == "jordan_asymmetry"
    # an exact double root (diagonal or a Jordan block) keeps its certificate
    for rows in ([[Fraction(1, 4), 0, 0, 0], [0, Fraction(1, 4), 0, 0],
                  [0, 0, Fraction(1, 2), 0], [0, 0, 0, -1]],
                 [[1, 1, 0], [0, 1, 0], [0, 0, -2]]):
        for c in (ex.rmat(rows), np.array(rows, dtype=object).astype(np.float64)):
            cert = no_lattice_double_root(c)
            assert cert is not None and cert.rule == "double_root"


def test_double_root_on_rationals_needs_real_eigenvalues():
    # eigenvalues 1, 1, 1 +- 1e-10 i, -4: gcd(p, p') = x - 1, but two roots
    # are not real, which the exact Sturm count sees, for the rationals
    # and for the floats nearest them
    e = Fraction(1, 10**10)
    c = ex.rmat([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, -e, 0],
                 [0, 0, e, 1, 0], [0, 0, 0, 0, -4]])
    assert no_lattice_double_root(c.astype(np.float64)) is None
    assert no_lattice_double_root(c) is None


def _conjugated_hyperbolic(n):
    """P diag(1, -1, 0, ...) P^-1 on Fractions, P a near-identity basis."""
    d = ex.rzeros((n, n))
    d[0, 0], d[1, 1] = ex.ONE, -ex.ONE
    p = reye(n)
    p[0, 1], p[1, 2], p[2, 0] = Fraction(1, 4), Fraction(1, 8), Fraction(-1, 16)
    return dot(dot(p, d), inv(p))


def _conjugated_irrational(n, b=2):
    """P ([[0, 1], [b, 0]] + 0) P^-1 on Fractions, P as above: eigenvalues
    +-sqrt(b) and zeros, a rational C that the exact step leaves to the
    scan when sqrt(b) is irrational."""
    d = ex.rzeros((n, n))
    d[0, 1], d[1, 0] = ex.ONE, ex.rat(b)
    p = reye(n)
    p[0, 1], p[1, 2], p[2, 0] = Fraction(1, 4), Fraction(1, 8), Fraction(-1, 16)
    return dot(dot(p, d), inv(p))


def test_derogatory_irrational_input_certifies_every_candidate(monkeypatch):
    # every exp(t C) of a derogatory C is derogatory; its Frobenius form
    # comes from C's exact Jordan data, with no matrix exponential, for
    # the rationals and for their float twin (read as the rationals it
    # holds) alike
    monkeypatch.setattr(kernels, "expm", lambda *a: pytest.fail("matrix exponential taken"))
    c = _conjugated_irrational(4)
    exact = lattice_verdict(c, t_range=(0.0, 3.0))
    floats = lattice_verdict(to_float(c), t_range=(0.0, 3.0))
    assert exact.status == "yes" and not any(w.exact for w in exact.witnesses)
    assert len(exact.witnesses) == len(integer_charpoly_scan(c, t_range=(0.0, 3.0)))
    assert [(w.t0, w.poly) for w in floats.witnesses] == [(w.t0, w.poly) for w in exact.witnesses]
    for w in exact.witnesses + floats.witnesses:
        assert int_charpoly(w.integral_matrix) == w.poly and int_det(w.integral_matrix) == 1


# trace-free diagonal blocks: diag(a, -a), rotations by w, zero
# singletons, J_2(0) and J_3(0), a rotation Jordan block [[R, I], [0, R]]
# and [[0, 1], [2, 0]] (eigenvalues +-sqrt(2))
_BLOCKS = st.one_of(
    st.sampled_from([1, 2, Fraction(1, 2)]).map(lambda a: [[a, 0], [0, -a]]),
    st.sampled_from([1, 2]).map(lambda w: [[0, -w], [w, 0]]),
    st.just([[0]]),
    st.just([[0, 1], [0, 0]]),
    st.just([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    st.sampled_from([1, 2]).map(
        lambda w: [[0, -w, 1, 0], [w, 0, 0, 1], [0, 0, 0, -w], [0, 0, w, 0]]
    ),
    st.just([[0, 1], [2, 0]]),
)


def rational_basis(draw, n):
    """A random rational basis P = L U of Q^n: unitriangular L and U with
    entries in (-3..3)/(1..3)."""
    q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    low, up = reye(n), reye(n)
    for i in range(n):
        for j in range(i):
            low[i, j], up[j, i] = draw(q), draw(q)
    return dot(low, up)


@st.composite
def permuted_block_diagonal(draw, max_size=3):
    """(D, P D P^-1): 2 to ``max_size`` blocks above on a permuted
    diagonal, n <= 7, and D under a random rational basis P
    (``rational_basis``)."""
    blocks = draw(st.lists(_BLOCKS, min_size=2, max_size=max_size))
    while sum(len(b) for b in blocks) > 7:
        blocks.pop()
    n = sum(len(b) for b in blocks)
    d = [[0] * n for _ in range(n)]
    i = 0
    for b in blocks:
        for r, row in enumerate(b):
            d[i + r][i : i + len(b)] = row
        i += len(b)
    perm = draw(st.permutations(range(n)))
    d = ex.rmat([[d[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    p = rational_basis(draw, n)
    return d, dot(dot(p, d), inv(p))


@settings(max_examples=40, deadline=None)
@given(permuted_block_diagonal(), st.booleans())
def test_verdict_plan_matches_one_shot_certification(cases, dense):
    # one plan serves every candidate of a verdict; each witness must be
    # the one a fresh one-shot certification of its candidate gives, an
    # integer Z of det 1 with the candidate's polynomial
    c = cases[dense]
    t_range = (0.0, 3.0)
    if _exact_witnesses(c, t_range) is not None:
        return  # the exact step decides it without candidates
    v = lattice_verdict(c, t_range=t_range)
    if v.certificates:
        return
    expected = []
    for cand in integer_charpoly_scan(c, t_range=t_range):
        w = certify_witness(c, cand.t0, cand.poly)
        if w is not None:
            expected.append(w.as_dict())
    assert [w.as_dict() for w in v.witnesses] == expected
    for w in v.witnesses:
        assert int_charpoly(w.integral_matrix) == w.poly and int_det(w.integral_matrix) == 1


@settings(max_examples=40, deadline=None)
@given(permuted_block_diagonal())
def test_certification_does_not_depend_on_the_basis(cases):
    # certification reads the exact Jordan layers of C, which a basis
    # change keeps:
    # a candidate that both scans return (the same polynomial, t0 apart by
    # the refinement's error, about 1e-6 where a defective float spectrum
    # is off by a root of eps) is certified in both bases or in neither,
    # with the same Z.  Which candidates the float scan returns may still
    # depend on the basis.
    d, c = cases
    assert _Plan(d).layers == _Plan(c).layers
    t_range = (0.0, 3.0)
    if _exact_witnesses(d, t_range) is not None or no_lattice_double_root(d) is not None:
        return
    dense = integer_charpoly_scan(c, t_range=t_range)
    for x in integer_charpoly_scan(d, t_range=t_range):
        for y in dense:
            if y.poly == x.poly and abs(y.t0 - x.t0) <= 1e-5:
                a, b = certify_witness(d, x.t0, x.poly), certify_witness(c, y.t0, y.poly)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.integral_matrix.tolist() == b.integral_matrix.tolist()
                    assert int_charpoly(b.integral_matrix) == b.poly
                    assert int_det(b.integral_matrix) == 1


def test_one_plan_per_verdict(monkeypatch):
    # the spectra of C are taken once per verdict, and C is semisimple, so
    # certification builds no Jordan layers: no kernel is taken for the 18
    # candidates
    import lcplab.lattice as lattice

    # eigenvalues +-1/sqrt(2), so that the exact step leaves C to the
    # scan; 2 cosh(4.24 / sqrt 2) ~ 20.03 gives the traces 3..20
    c = _conjugated_irrational(6, Fraction(1, 2))
    t_range = (0.0, 4.24)
    candidates = integer_charpoly_scan(c, t_range=t_range)
    assert len(candidates) == 18
    counts = {"eigvals": 0, "certify": 0, "kernel": 0}

    def counted(name, f):
        def g(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return g

    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(lattice, "certify_witness", counted("certify", lattice.certify_witness))
    monkeypatch.setattr(ex, "int_nullspace", counted("kernel", ex.int_nullspace))
    v = lattice_verdict(c, t_range=t_range)
    assert len(v.witnesses) == 18
    assert counts["eigvals"] <= 10
    assert counts["certify"] == len(candidates) and counts["kernel"] == 0


def test_verdict_certifies_through_the_public_step(monkeypatch):
    # the irrational spectrum +-sqrt(2), 0, 0 goes to the scan, and every
    # candidate goes to certify_witness by its module name, on the
    # verdict's plan
    import lcplab.lattice as lattice
    from test_golden_lattice import cases

    c, t_range = next((c, t) for name, c, t in cases() if name == "irrational-derogatory-4")
    candidates = integer_charpoly_scan(c, t_range=t_range)
    plans = []
    certify = lattice.certify_witness

    def counted(c, *args, **kwargs):
        plans.append(c)
        return certify(c, *args, **kwargs)

    monkeypatch.setattr(lattice, "certify_witness", counted)
    v = lattice_verdict(c, t_range=t_range)
    assert v.status == "yes" and len(v.witnesses) == len(candidates) == 54
    assert len(plans) == len(candidates)
    assert all(p is plans[0] and isinstance(p, lattice._Plan) for p in plans)


def test_rotations_one_to_two():
    # frequencies 1 : 2 on 0:7: at t0 = pi/2, pi, 3 pi/2 and 2 pi the
    # exponential merges eigenvalues (exp(2 pi C) = I), and certification
    # still gives its Frobenius form; 12 witnesses in all
    c = ex.rmat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]])
    v = lattice_verdict(c, t_range=(0.0, 7.0))
    assert len(v.witnesses) == 12
    assert all(w.residual <= SCAN_TOL and not w.exact for w in v.witnesses)
    # exp(k pi C / 2) has order 4 / gcd(k, 4): so has its Frobenius form Z
    for k, order in ((1, 4), (2, 2), (3, 4), (4, 1)):
        (w,) = [w for w in v.witnesses if abs(w.t0 - k * math.pi / 2) <= 1e-6]
        z = ex.rmat(w.integral_matrix)
        powers = [reye(4)]
        for _ in range(4):
            powers.append(dot(powers[-1], z))
        assert [j for j in range(1, 5) if (powers[j] == reye(4)).all()][0] == order
    for w in v.witnesses:
        assert int_charpoly(w.integral_matrix) == w.poly and int_det(w.integral_matrix) == 1


def _rotation(w):
    return ex.rmat([[0, -w], [w, 0]])


def _rotation_jordan(w):
    return ex.rmat([[0, -w, 1, 0], [w, 0, 0, 1], [0, 0, 0, -w], [0, 0, w, 0]])


@pytest.mark.parametrize(
    "blocks",
    [
        # +-i of multiplicity 4, of type (2, 1, 1)
        (_rotation_jordan(1), _rotation(1), _rotation(1)),
        # type (2) at +-i and (1, 1) at +-2i: both of multiplicity 2
        (_rotation_jordan(1), _rotation(2), _rotation(2)),
        # at t0 = pi/2, type (2) at +-i and (1, 1) at -1, all three roots
        # of multiplicity 2 in charpoly(exp(t0 C)) = ((x + 1)(x^2 + 1))^2
        (_rotation_jordan(1), _rotation(2)),
    ],
    ids=["RJ1+R1+R1", "RJ1+R2+R2", "RJ1+R2"],
)
def test_rotation_jordan_block_next_to_rotations(blocks):
    # Jordan types that differ within one square-free factor, of charpoly(C)
    # or of charpoly(exp(t0 C)), are read root by root from the layers: on
    # 0:7 the witnesses are t0 = k pi / 3 and k pi / 2 up to 2 pi, also
    # where the float spectrum of the defective C moves the scan's t0
    c = blocks[0]
    for b in blocks[1:]:
        c = ex.block_diag(c, b)
    v = lattice_verdict(c, t_range=(0.0, 7.0))
    expected = sorted({k * math.pi / 3 for k in range(1, 7)} | {k * math.pi / 2 for k in (1, 3)})
    assert len(v.witnesses) == 8
    assert all(abs(w.t0 - t) <= 1e-6 for w, t in zip(v.witnesses, expected))
    for w in v.witnesses:
        assert int_charpoly(w.integral_matrix) == w.poly and int_det(w.integral_matrix) == 1


def test_only_a_defective_c_builds_the_jordan_layers(monkeypatch):
    # certification reads s(ints) = 0 exactly and takes a semisimple C's
    # one layer from its spectrum; only a defective C builds the layers
    from test_golden_lattice import cases

    built, layers = [], _Plan.layers.func
    monkeypatch.setattr(_Plan, "layers", property(lambda plan: built.append(plan) or layers(plan)))
    c, t_range = next((c, t) for name, c, t in cases() if name == "rotations-4")
    v = lattice_verdict(c, t_range=t_range)
    assert (v.status, v.rule, built) == ("yes", "scan", [])
    v = lattice_verdict(_rotation_jordan(1), t_range=(0.0, 7.0))
    assert (v.status, v.rule) == ("yes", "scan") and built


def test_types_that_differ_on_conjugate_roots_are_no_witness():
    # RJ(1) + R(2) + R(2) at t0 = 2 k pi / 5, four candidates of the scan:
    # charpoly(exp(t0 C)) is the square of the fifth cyclotomic polynomial,
    # with type (2) at two of its roots and (1, 1) at the other two, so
    # exp(t0 C) is conjugate to no rational matrix
    c = ex.block_diag(ex.block_diag(_rotation_jordan(1), _rotation(2)), _rotation(2))
    phi5_squared = IntPoly((1, 2, 3, 4, 5, 4, 3, 2, 1))
    candidates = [cand for cand in integer_charpoly_scan(c, t_range=(0.0, 7.0))
                  if cand.poly == phi5_squared]
    assert [round(cand.t0 * 5 / (2 * math.pi), 6) for cand in candidates] == [1, 2, 3, 4]
    for cand in candidates:
        assert certify_witness(c, cand.t0, cand.poly) is None


def test_every_diag_20_candidate_is_certified():
    # diag(20, -20) + 0 on 0:3: the 112 scan candidates below 2^53 have
    # traces up to about 9e15, and each is certified
    c = np.diag([20.0, -20.0, 0.0])
    candidates = integer_charpoly_scan(c, t_range=(0.0, 3.0))
    v = lattice_verdict(c, t_range=(0.0, 3.0))
    assert len(candidates) == len(v.witnesses) == 112
    assert [w.poly for w in v.witnesses] == [cand.poly for cand in candidates]
    for w in v.witnesses:
        assert int_charpoly(w.integral_matrix) == w.poly and int_det(w.integral_matrix) == 1


def _conjugated_blocks(blocks, reals=()):
    """Rotation blocks p +- iw for the pairs (p, w) of ``blocks``, then the
    real eigenvalues ``reals``, under a rational basis change."""
    n = 2 * len(blocks) + len(reals)
    d = ex.rzeros((n, n))
    for i, (p, w) in enumerate(blocks):
        d[2 * i, 2 * i] = d[2 * i + 1, 2 * i + 1] = p
        d[2 * i, 2 * i + 1], d[2 * i + 1, 2 * i] = -ex.rat(w), ex.rat(w)
    for i, x in enumerate(reals, start=2 * len(blocks)):
        d[i, i] = ex.rat(x)
    p = reye(n)
    p[0, 2], p[3, 1], p[4, 0], p[n - 1, 3] = Fraction(1, 2), Fraction(-1, 3), ex.ONE, Fraction(1, 4)
    return dot(dot(p, d), inv(p))


def _conjugated_complex6():
    """The spectrum 1/2 +- i, -1/4 +- 2i, -1/4 +- i/2: a complex spectrum
    the exact step declines, with no integer polynomial on 0:2."""
    return _conjugated_blocks([(Fraction(1, 2), 1), (Fraction(-1, 4), 2),
                               (Fraction(-1, 4), Fraction(1, 2))])


def _conjugated_complex5():
    """The spectrum 1/3 +- i, 1/6 +- 3i/2 and the real root -1."""
    return _conjugated_blocks([(Fraction(1, 3), 1), (Fraction(1, 6), Fraction(3, 2))], [-1])


@pytest.mark.parametrize(
    "make, t_range, status, spectra",
    [
        # no float: 2 ||C||_inf <= MAX_SPECTRAL settles the t-range clamp;
        # the exact spectrum has a root off the real axis, so no integer
        # root is looked for, and a root off both axes keeps the verdict
        # off the scan
        (_conjugated_complex6, (0.0, 2.0), "inconclusive", 0),
        # decided exactly, with no float: the root 0 of its integer form
        # comes out before the Sturm chain, which runs on the quadratic
        # x^2 - d^2, solved on integers; a t-range clamp the norm bound
        # leaves open reads the spectral radius from those eigenvalues
        (lambda: _conjugated_hyperbolic(6), (0.0, 3.0), "yes", 0),
        # one real root among complex ones: no float spectrum, and no
        # search for the integer roots no step reads
        (_conjugated_complex5, (0.0, 2.0), "inconclusive", 0),
        # the norm bound does not settle 0:20, so the clamp takes the
        # float spectral radius: the one eigen-solve
        (_conjugated_complex6, (0.0, 20.0), "inconclusive", 1),
    ],
)
def test_each_spectrum_once_per_verdict(monkeypatch, make, t_range, status, spectra):
    c = make()
    calls = []
    eigvals, roots = np.linalg.eigvals, np.roots
    monkeypatch.setattr(np.linalg, "eigvals", lambda *a, **k: calls.append("eigvals") or eigvals(*a, **k))
    monkeypatch.setattr(np, "roots", lambda *a, **k: calls.append("roots") or roots(*a, **k))
    assert lattice_verdict(c, t_range=t_range).status == status
    assert calls == ["eigvals"] * spectra


def test_clamped_range_keeps_candidates_in_the_envelope():
    # rho(C) = 20 clamps 0:3 to 0:2.5; no candidate leaves the envelope,
    # so the verdict's envelope check never raises EnvelopeExceeded
    for c in (np.diag([20.0, -20.0]), np.diag([20.0, -20.0, 0.0])):
        lo, hi = _scanned_range(c, (0.0, 3.0))
        assert hi == MAX_SPECTRAL / 20.0
        candidates = integer_charpoly_scan(c, t_range=(0.0, 3.0))
        assert candidates and all(abs(x.t0) * 20.0 <= MAX_SPECTRAL for x in candidates)
        v = lattice_verdict(c, t_range=(0.0, 3.0))
        assert v.status == "yes"


def test_scan_drops_candidates_past_two_to_the_53(monkeypatch):
    # past 2^53 the float spacing is >= 1, so a coefficient's integer
    # defect is meaningless: such minima are not candidates, and the
    # witnesses below it are all kept.  Every flag is refined in one
    # batch
    import lcplab.lattice as lattice

    brackets = []
    refine = lattice._refine

    def counted_refine(ev, lo, *rest):
        brackets.append(lo.size)
        return refine(ev, lo, *rest)

    monkeypatch.setattr(lattice, "_refine", counted_refine)
    c = np.diag([20.0, -20.0])
    candidates = integer_charpoly_scan(c, t_range=(0.0, 3.0))
    assert len(brackets) == 1
    assert len(candidates) == 112
    assert all(abs(x) < 2**53 for cand in candidates for x in cand.poly.coeffs)
    assert len(lattice_verdict(c, t_range=(0.0, 3.0)).witnesses) == 112


def test_small_spectra_give_no_false_witness():
    # +-sqrt(2) 10^-6 and +-i 10^-6: charpoly(exp(t C)) is within SCAN_TOL
    # of x^2 - 2x + 1 on the whole grid, but e^(t0 lam) = 1 needs
    # t0 lam in 2 pi i Z, so with |t0 lam| < pi neither gives the root 1
    for c in (np.array([[0.0, 1.0], [2e-12, 0.0]]), np.array([[0.0, -1.0], [1e-12, 0.0]])):
        v = lattice_verdict(c, t_range=(0.0, 20.0))
        assert (v.status, v.rule) == ("inconclusive", "scan")
        assert certify_witness(c, 1.0, IntPoly((1, -2, 1))) is None
    # a nilpotent C, decided on its exact characteristic polynomial x^3,
    # keeps its witness at t0 = 1: its eigenvalues are exactly 0
    v = lattice_verdict(ex.rmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), t_range=(0.0, 20.0))
    assert [(w.t0, w.poly.coeffs) for w in v.witnesses] == [(1.0, (1, -3, 3, -1))]


def test_a_flat_grid_is_refined_nowhere(monkeypatch):
    # +-1e-10 is not nilpotent, but its defect is within SCAN_TOL on the
    # whole 10^6-point grid of 0:1000: no grid point is refined, and the
    # verdict is inconclusive
    import lcplab.lattice as lattice

    monkeypatch.setattr(lattice, "_refine", lambda *a: pytest.fail("flat grid refined"))
    c = np.array([[0.0, 1.0], [1e-20, 0.0]])
    assert integer_charpoly_scan(c, t_range=(0.0, 1000.0)) == []
    v = lattice_verdict(c, t_range=(0.0, 1000.0))
    assert (v.status, v.rule) == ("inconclusive", "scan")


@given(st.lists(st.integers(0, 40), max_size=60))
def test_the_scan_dedupe_keeps_what_the_pairwise_rule_keeps(steps):
    # t0s on a 0.4e-6 grid, so that near ones fall on both sides of a kept one
    ts = [k * 0.4e-6 for k in steps]
    kept = []
    for i, t in enumerate(ts):
        if all(abs(t - ts[j]) >= 1e-6 for j in kept):
            kept.append(i)
    assert _far_apart(ts) == kept


def test_an_eigenvalue_near_zero_gives_the_root_1_only_in_floats():
    # diag(1, -1) + [[0, 1], [1e-20, 0]]: +-1e-10 is within SCAN_TOL rho(C)
    # of 0.  In floats it counts as 0, and the scan's witnesses have the
    # root 1 twice; the exact input has e^(t0 lam) != 1 there, and none
    c = np.zeros((4, 4))
    c[0, 0], c[1, 1], c[2, 3], c[3, 2] = 1.0, -1.0, 1.0, 1e-20
    v = lattice_verdict(c, t_range=(0.0, 3.0))
    assert v.status == "yes" and len(v.witnesses) == 18
    for w in v.witnesses:  # p(1) = p'(1) = 0
        p = w.poly.coeffs
        assert not w.exact and sum(p) == 0 and sum((len(p) - 1 - i) * x for i, x in enumerate(p)) == 0
    exact_c = np.array([[Fraction(x) for x in row] for row in c.tolist()], dtype=object)
    v_exact = lattice_verdict(exact_c, t_range=(0.0, 3.0))
    assert (v_exact.status, v_exact.rule) == ("inconclusive", "scan")
    assert all(certify_witness(exact_c, w.t0, w.poly) is None for w in v.witnesses)


def test_a_verdict_reads_its_own_c():
    # diag(1, -1, 0, 0) presents e(1,1) + R^2, which has lattices: it has
    # no codim-2 shape, and trace_levels finds them; the catalog's g_{5.13}
    # at q = -1/3 has that shape under any metric, and no lattice
    c = ex.rmat([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert no_lattice_codim2(c) is None
    v = lattice_verdict(c, t_range=(0.0, 3.0))
    assert (v.rule, v.status) == ("trace_levels", "yes")
    L = table_algebra("g_{5.13}^{-1-2q,q,r}", {"q": Fraction(-1, 3), "r": 1})
    tridiagonal = [[2 if i == j else int(abs(i - j) == 1) for j in range(5)] for i in range(5)]
    for metric in (Metric.identity(5), Metric(tridiagonal)):
        v = lattice_verdict(almost_abelian_presentation(L, metric).matrix, t_range=(0.0, 3.0))
        assert (v.rule, v.status) == ("codim2_highdim", "no")


def test_clustered_integer_roots_next_to_irrational_ones():
    # 14 x 14: 10^9 + 1 (double), 10^9 + 2, ..., 10^9 + 10, minus their
    # sum, and +-sqrt(2).  Every integer root is found, so the one double
    # root decides exactly
    ks = [10**9 + 1] + [10**9 + j for j in range(1, 11)]
    d = ex.rzeros((14, 14))
    for i, k in enumerate(ks + [-sum(ks)]):
        d[i, i] = ex.rat(k)
    d[12, 13], d[13, 12] = ex.ONE, ex.rat(2)
    p = reye(14)
    for i in range(13):
        p[i, i + 1] = ex.ONE
    v = lattice_verdict(dot(dot(p, d), inv(p)), t_range=(0.0, 3.0))
    assert (v.status, v.rule) == ("no", "double_root")
    assert v.certificates[0].data["multiple_root"] == 10**9 + 1


def _refuse_spectrum(*args):
    raise AssertionError("a float spectrum was computed")


@pytest.mark.parametrize(
    "make, rule",
    [
        (lambda: _conjugated_hyperbolic(6), "trace_levels"),
        (lambda: ex.rmat([[1, 0, 0], [0, Fraction(-1, 4), 0], [0, 0, Fraction(-3, 4)]]), "jordan_asymmetry"),
        # 2, 2, -2 +- sqrt(3): not all rational
        (lambda: ex.rmat([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, -1], [0, 0, 1, -4]]), "double_root"),
        (lambda: ex.rmat([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]), "trace_levels"),
    ],
    ids=["hyperbolic", "jordan_asymmetry", "double_root", "nilpotent"],
)
def test_an_exact_verdict_computes_no_float_spectrum(monkeypatch, make, rule):
    monkeypatch.setattr(kernels, "spectrum", _refuse_spectrum)
    v = lattice_verdict(make(), t_range=(0.0, 3.0))
    assert v.rule == rule and v.status != "inconclusive"
    if rule == "double_root":
        # its data is exact: charpoly(C) = (x - 2)^2 (x^2 + 4x + 1)
        assert v.certificates[0].data["charpoly"] == ["1", "0", "-11", "12", "4"]
