"""Batched golden-section refinement of the lattice scan.

``lattice._refine`` refines every flagged grid point of a scan in one
loop over arrays.  Every bracket must come out, bit for bit, as the
scalar golden-section loop kept below returns it, and
``integer_charpoly_scan`` must return the candidates of the scalar scan
kept below (flag selection included).  A C with a root off both axes
never reaches the scan's grid, float or not, so for such rotation
inputs ``_refine`` is checked on the flags of the scalar scan, which
finds no candidate either.
"""

import math
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

from lcplab import exact as ex
from lcplab import kernels
from lcplab.intpoly import IntPoly
from lcplab.lattice import (
    GOLDEN_ITERS,
    SCAN_FLAG_TOL,
    SCAN_STEP,
    SCAN_TOL,
    _refine,
    _scanned_range,
    integer_charpoly_scan,
)
from support import dot, inv


def ref_golden_min(f, lo, hi):
    """Golden-section minimisation of f on [lo, hi], one point at a time."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < 1e-15 * max(1.0, abs(a)):
            break
    x = (a + b) / 2.0
    return x, f(x)


def ref_scan(c, t_range):
    """The scan with a flag loop and one scalar refinement per flag:
    returns the grid, the flagged indices, the refined (t0, defect) of
    every flag and the candidates as (t0, poly coefficients, defect)."""
    a = np.asarray(c, dtype=object).astype(np.float64)
    lo, hi = _scanned_range(a, t_range)
    ts = np.arange(lo + SCAN_STEP, hi + SCAN_STEP / 2, SCAN_STEP)
    defects = kernels.scan_defects(a, ts)
    ev = kernels.spectrum(a)

    def defect_at(t):
        return float(kernels.integer_defect(kernels.exp_charpoly(ev, t)))

    flagged = [
        i
        for i in range(1, len(ts) - 1)
        if defects[i] <= defects[i - 1]
        and defects[i] <= defects[i + 1]
        and defects[i] < SCAN_FLAG_TOL
    ]
    refined = [ref_golden_min(defect_at, ts[i - 1], ts[i + 1]) for i in flagged]
    out = []
    for t0, d0 in refined:
        if d0 > SCAN_TOL:
            continue
        poly = IntPoly(tuple(int(round(x)) for x in kernels.exp_charpoly(ev, t0)))
        if abs(poly.constant_term()) != 1:
            continue
        if any(abs(t0 - prev[0]) < 1e-6 for prev in out):
            continue
        out.append((float(t0), poly.coeffs, d0))
    return ts, ev, flagged, refined, sorted(out)


def check_against_reference(c, t_range):
    ts, ev, flagged, refined, cands = ref_scan(c, t_range)
    if flagged:
        idx = np.array(flagged)
        def defect(t):
            return kernels.integer_defect(kernels.exp_charpoly(ev, t))

        t0s, d0s = _refine(defect, ts[idx - 1], ts[idx + 1])
        assert list(zip(t0s.tolist(), d0s.tolist())) == [(float(t), d) for t, d in refined]
    got = [(c.t0, c.poly.coeffs, c.defect) for c in integer_charpoly_scan(c, t_range=t_range)]
    assert got == cands
    return len(flagged)


def conjugate(d, u):
    """u d u^-1 on exact rationals."""
    u = ex.rmat(u)
    return dot(dot(u, ex.rmat(d)), inv(u))


@st.composite
def unimodular(draw, n):
    """A product of elementary integer row operations (determinant 1)."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 2))
        j += j >= i
        k = draw(st.integers(-2, 2))
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    return u


@st.composite
def hyperbolic_inputs(draw):
    n = draw(st.integers(2, 5))
    a = F(draw(st.integers(1, 6)), 4)
    d = [[0] * n for _ in range(n)]
    d[0][0], d[1][1] = a, -a
    return conjugate(d, draw(unimodular(n)))


@st.composite
def rotation_inputs(draw):
    half = st.integers(-4, 4).map(lambda k: F(k, 2))
    blocks = draw(st.lists(st.tuples(half, half.filter(bool)), min_size=1, max_size=2))
    reals = draw(st.lists(half, max_size=2))
    reals.append(-2 * sum(p for p, _ in blocks) - sum(reals))
    n = 2 * len(blocks) + len(reals)
    d = [[0] * n for _ in range(n)]
    for b, (p, w) in enumerate(blocks):
        i = 2 * b
        d[i][i], d[i][i + 1], d[i + 1][i], d[i + 1][i + 1] = p, -w, w, p
    for k, x in enumerate(reals):
        d[2 * len(blocks) + k][2 * len(blocks) + k] = x
    return conjugate(d, draw(unimodular(n)))


@settings(max_examples=15, deadline=None)
@given(hyperbolic_inputs())
def test_refine_matches_scalar_loop_hyperbolic(c):
    check_against_reference(c, (0.0, 2.0))


@settings(max_examples=15, deadline=None)
@given(rotation_inputs())
def test_refine_matches_scalar_loop_rotations(c):
    check_against_reference(c, (0.0, 2.0))


def test_refine_reference_sees_flags():
    # the fixed witness-rich case: 18 flags on diag(1, -1) at 0:3, each a
    # witness that runs to full precision
    assert check_against_reference(ex.rmat([[1, 0], [0, -1]]), (0.0, 3.0)) >= 18
    # the float spectrum 1 +- i, -1 +- i: six flags, none near an integer
    # polynomial
    c = np.array([[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, -1, -1], [0, 0, 1, -1]], dtype=float)
    assert check_against_reference(c, (0.0, 2.0)) == 6
