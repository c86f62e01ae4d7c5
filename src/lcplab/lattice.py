"""Lattice existence for simply connected almost abelian groups.

A unimodular almost abelian group R |x_rho R^{n-1} has a lattice iff
some rho(t0) = exp(t0 ad_b) is conjugate to an integer unimodular
matrix.  One plan per verdict (``_Plan``) holds C once, as the exact
rationals its entries are (a float as the dyadic rational it holds),
checks the input once and computes each spectrum of C once, so every
rule that reads the spectrum reads it exactly, whatever the input type.
The t-range is clamped at both ends to the envelope |t| rho(C) <=
MAX_SPECTRAL (``_scanned_range``), settled where it can be by the exact
bound rho(C) <= ||C||_inf, so a verdict decided exactly makes no float
eigen-solve.

``lattice_verdict`` refuses C with NonTraceFree unless the rationals it
holds have trace exactly 0 (the one trace test, ``_require_trace_free``),
then asks the rules of ``RULES`` in order; the first that decides gives
the verdict and names itself in it.  Every rule reads C and the t-range
alone, through the plan.  A rule returns None where it does not apply, a
``NoLatticeCertificate`` for "no", or its witnesses for "yes"; an empty
list applies and finds none, and the verdict is inconclusive over the
scanned range:

* double_root: every eigenvalue real and exactly one multiple root,
  which is nonzero (``no_lattice_double_root``);
* jordan_asymmetry: a rational real spectrum whose Jordan types at some
  lam and -lam differ (Bock16 with Gelfond-Schneider);
* trace_levels: where those types agree, every witness up to
  MAX_LISTED_WITNESSES, by trace level and with no float tolerance, and
  for a nilpotent C, one witness (``_exact_witnesses``);
* codim2_highdim: n >= 5 and C semisimple with a simple real eigenvalue
  a != 0, every other eigenvalue of real part -a / (n - 2): the group
  then has an LCP structure of flat codimension 2, and no lattice
  (``no_lattice_codim2``);
* scan: everything else (imaginary or irrational spectra, longer lists):
  a float grid scan whose candidates ``certify_witness`` certifies.  A
  witness the grid does not flag is missing.  A C with a root off both
  axes has no lattice (Gelfond-Schneider / Baker) and gets no grid, and
  no certificate yet.

Every lattice question is a verdict: an amalgam of two almost abelian
factors is almost abelian, C = blockdiag(C1, s C2) with s rational, and
``lattice_verdict`` on its presentation answers it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from . import exact as ex
from . import kernels
from .algebra import MAX_DIM
from .errors import (
    DimensionMismatch,
    EnvelopeExceeded,
    MTooSmall,
    NonTraceFree,
)
from .intpoly import (
    IntPoly,
    IntSpectrum,
    _changes,
    _divmod,
    _gcd,
    _sturm,
    companion,
    int_spectrum,
    integer_roots,
    square_free_factors,
)

MAX_SPECTRAL = 50.0
# the witness scan (see integer_charpoly_scan)
SCAN_STEP = 1e-3
SCAN_FLAG_TOL = 0.05
SCAN_TOL = 1e-9
GOLDEN_ITERS = 130
# largest grid the scan allocates: (hi - lo) / SCAN_STEP points
MAX_SCAN_POINTS = 10**6
# most witnesses the exact step lists; past it the scan runs
MAX_LISTED_WITNESSES = 10**4
# largest n^2 b of the integer form d C the exact spectrum takes, b the
# largest bit length of d and the entries of d C: a MAX_DIM x MAX_DIM C
# with 128-bit entries
MAX_INT_FORM_SIZE = MAX_DIM**2 * 128


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _refine(defect, lo: np.ndarray, hi: np.ndarray):
    """Golden-section minimisation of ``defect``, a vectorised integer
    defect of t, on every bracket [lo_i, hi_i] at once; localises each
    (V-shaped) defect minimum to machine precision, which generic
    quadratic-interpolation minimisers cannot do on non-smooth objectives.

    Each of the ``GOLDEN_ITERS`` steps evaluates the defect of every live
    bracket in one call; a bracket stops once b - a < 1e-15 max(1, |a|).
    Returns the midpoints and their defects.
    """
    a, b = lo.astype(np.float64), hi.astype(np.float64)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = defect(c), defect(d)
    live = np.arange(a.size)
    for _ in range(GOLDEN_ITERS):
        if live.size == 0:
            break
        la, lb, lc, ld, lfc, lfd = a[live], b[live], c[live], d[live], fc[live], fd[live]
        left = lfc <= lfd
        # left: b, d, fd = d, c, fc and a new c; right: a, c, fc = c, d, fd and a new d
        na = np.where(left, la, lc)
        nb = np.where(left, ld, lb)
        nc = np.where(left, nb - _INVPHI * (nb - na), ld)
        nd = np.where(left, lc, na + _INVPHI * (nb - na))
        fx = defect(np.where(left, nc, nd))
        a[live], b[live], c[live], d[live] = na, nb, nc, nd
        fc[live] = np.where(left, fx, lfd)
        fd[live] = np.where(left, lfc, fx)
        live = live[~(nb - na < 1e-15 * np.maximum(1.0, np.abs(na)))]
    x = (a + b) / 2.0
    return x, defect(x)


@dataclass(frozen=True)
class ScanCandidate:
    t0: float
    poly: IntPoly
    defect: float


def _scanned_range(c, t_range) -> tuple:
    """The t-range the scan covers: ``t_range`` with each end t clamped
    so that the spectral radius |t| rho of t C stays within MAX_SPECTRAL,
    as ``certify_witness`` requires.  rho(C) <= ||C||_inf = ||ints||_inf / d
    (``_Plan.norm``), so when max(|lo|, |hi|) ||C||_inf <= MAX_SPECTRAL,
    compared exactly, neither end needs a clamp and rho is not read;
    otherwise each end past the envelope, on either side, becomes
    +-MAX_SPECTRAL / rho with its sign, rho from ``_Plan.rho``.  So a
    range wholly past the envelope comes back empty, (r, r] with r at its
    near edge, and never reversed.  An end the clamp leaves infinite (rho
    0, or so small that MAX_SPECTRAL / rho overflows) raises
    EnvelopeExceeded.  ``c`` is C or its plan."""
    lo, hi = float(t_range[0]), float(t_range[1])
    plan, far = _plan_of(c), max(abs(lo), abs(hi))
    if math.isfinite(far):  # far ||ints||_inf <= MAX_SPECTRAL d, on integers
        (p, q), (a, b) = far.as_integer_ratio(), MAX_SPECTRAL.as_integer_ratio()
        if p * b * plan.norm <= a * q * plan.scaled[1]:
            return lo, hi
    rho = plan.rho
    out = tuple(math.copysign(MAX_SPECTRAL / rho, t) if abs(t) * rho > MAX_SPECTRAL else t
                for t in (lo, hi))
    if not all(map(math.isfinite, out)):
        raise EnvelopeExceeded(f"t-range ({lo}, {hi}) has an end that the envelope does not bound")
    return out


def integer_charpoly_scan(c, t_range=(0.0, 20.0)) -> list:
    """Scan t for integer characteristic polynomials of exp(t C).

    Evaluates the coefficient integer-defect on a grid of step
    ``SCAN_STEP``, flags interior local minima below ``SCAN_FLAG_TOL``,
    refines the flags together by ``GOLDEN_ITERS`` golden-section steps
    (``_refine``), keeps minima down to ``SCAN_TOL``, and deduplicates
    candidates closer than 1e-6.  C must be trace-free as the rationals
    it holds (``_require_trace_free``), else NonTraceFree.
    A refined minimum with a coefficient of modulus 2^53 or more is
    dropped, and a C whose defect is within SCAN_TOL on the whole grid
    has no candidate.  After the clamp, a C with a root off both axes
    (``IntSpectrum.off_axis``) has no lattice (Gelfond-Schneider / Baker),
    and a nilpotent C (charpoly x^n, read exactly) has its witness from
    the exact step (``_exact_witnesses``): neither gets a candidate or a
    grid, on a range of any length.  Any other clamped range that needs
    more than ``MAX_SCAN_POINTS`` grid points raises EnvelopeExceeded.
    """
    plan = _plan_of(c)
    _require_trace_free(plan)
    lo, hi = _scanned_range(plan, t_range)
    if plan.int_spectrum.off_axis() or not any(plan.charpoly[1:]):
        return []
    if not hi - lo <= MAX_SCAN_POINTS * SCAN_STEP:
        raise EnvelopeExceeded(
            f"t-range ({lo}, {hi}) needs more than {MAX_SCAN_POINTS} scan points"
        )
    ts = np.arange(lo + SCAN_STEP, hi + SCAN_STEP / 2, SCAN_STEP)
    if ts.size == 0:
        return []
    ev = plan.spectrum
    defects = kernels.scan_defects(ev, ts)
    if defects.max() <= SCAN_TOL:
        # every exponential within tolerance of 1 on the whole grid:
        # certify_witness would refuse each candidate
        return []
    inner = defects[1:-1]
    flagged = 1 + np.flatnonzero(
        (inner <= defects[:-2]) & (inner <= defects[2:]) & (inner < SCAN_FLAG_TOL)
    )
    def defect(t):
        return kernels.integer_defect(kernels.exp_charpoly(ev, t))

    t0s, d0s = _refine(defect, ts[flagged - 1], ts[flagged + 1])
    kept = d0s <= SCAN_TOL
    t0s, d0s = t0s[kept], d0s[kept]
    coeffs = kernels.exp_charpoly(ev, t0s)
    out = []
    for t0, d0, row in zip(t0s.tolist(), d0s.tolist(), coeffs):
        if np.abs(row).max() >= 2.0**53:
            continue
        poly = IntPoly(tuple(int(round(x)) for x in row))
        if abs(poly.constant_term()) != 1:
            continue
        out.append(ScanCandidate(t0, poly, d0))
    out = [out[i] for i in _far_apart([cand.t0 for cand in out])]
    return sorted(out, key=lambda cand: cand.t0)


def _far_apart(ts: list) -> list:
    """The indices of ``ts`` kept in order, each unless it is within 1e-6
    of one kept before; only its nearest neighbours among the kept, held
    sorted, are looked at."""
    kept, out = [], []
    for i, t in enumerate(ts):
        j = bisect.bisect(kept, t)
        if all(abs(t - prev) >= 1e-6 for prev in kept[max(j - 1, 0):j + 1]):
            kept.insert(j, t)
            out.append(i)
    return out


@dataclass(frozen=True)
class LatticeWitness:
    """Witness: exp(t0 C) is conjugate to Z, the integer Frobenius form of
    its invariant factors, of determinant 1 and characteristic polynomial
    ``poly``.  An exact witness has ``residual`` None, and only t0 is a
    float; a scan witness (``exact`` false) rests on the float step of
    ``certify_witness``, and ``residual`` is the largest distance of a
    coefficient of a Jordan layer of exp(t0 C), in floats, from the
    integers (at most SCAN_TOL)."""

    t0: float
    integral_matrix: np.ndarray
    residual: Optional[float]
    poly: IntPoly

    @property
    def exact(self) -> bool:
        return self.residual is None

    def as_dict(self):
        return {
            "t0": self.t0,
            "integral_matrix": [[int(x) for x in row] for row in self.integral_matrix],
            "poly": list(self.poly.coeffs),
            "residual": self.residual,
            "exact": self.exact,
        }


def _jordan_types(ints, roots) -> dict:
    """The Jordan block sizes of the integer matrix at each eigenvalue k
    of ``roots`` (pairs ``(k, multiplicity)``), largest first: with N_j the
    nullity of (ints - k)^j (the size of its integer kernel), N_j - N_(j-1)
    blocks have size >= j.  A simple root is one block of size 1, read off
    with no kernel."""
    n = ints.shape[0]
    eye = np.eye(n, dtype=int).astype(object)
    out = {}
    for k, mult in roots:
        power, nullity = eye, [0] if mult > 1 else [0, 1]
        while nullity[-1] < mult:
            power = (ints - k * eye).dot(power)
            nullity.append(ex.int_nullspace(power)[0].shape[1])
        at_least = [b - a for a, b in zip(nullity, nullity[1:])]
        out[k] = [sum(1 for x in at_least if x >= i) for i in range(1, at_least[0] + 1)]
    return out


class _Plan:
    """What one verdict computes once about C.  C is held once, as the
    exact rationals its entries are (``c``): ints and ``Fraction``s as
    they are, each float x as ``Fraction(x)`` (a finite float is a dyadic
    rational, so nothing is rounded).  On first use come the integer form
    C = ints / d, the characteristic polynomial and exact spectrum of
    ints, the norm ||ints||_inf, s(ints), the spectral radius, the Jordan
    types and (for a defective C) layers of C, and ``spectrum``, the one
    float eigen-solve, which only the rules that read floats take.  Input
    is checked here, once: C must be a nonempty square matrix
    (else DimensionMismatch), with n <= MAX_DIM, finite entries within the
    float range and its integer form within MAX_INT_FORM_SIZE (else
    EnvelopeExceeded)."""

    def __init__(self, c):
        a = np.asarray(c, dtype=object)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
            raise DimensionMismatch(f"C must be a nonempty square matrix, not {a.shape}")
        if a.shape[0] > MAX_DIM:
            raise EnvelopeExceeded(f"supported envelope is n <= {MAX_DIM}")
        entries, self.floats = [], False  # some entry a float
        for x in a.ravel().tolist():
            if not hasattr(x, "denominator"):
                x, self.floats = float(x), True
                if not math.isfinite(x):
                    raise EnvelopeExceeded("matrix entries must be finite")
                x = Fraction(x)
            elif int(x.numerator).bit_length() - int(x.denominator).bit_length() > 1022:
                try:  # below that |x| < 2^1023, and float(x) cannot overflow
                    float(x)
                except OverflowError:
                    raise EnvelopeExceeded("matrix entries must be within the float range") from None
            entries.append(x)
        self.c = np.array(entries, dtype=object).reshape(a.shape)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The complex eigenvalues of C in floats: the one float
        eigen-solve, read by the scan's grid, by ``certify_witness`` and by
        ``rho`` when some eigenvalue of ints = d C is not an integer."""
        return kernels.spectrum(self.c.astype(np.float64))

    @cached_property
    def norm(self) -> int:
        """||ints||_inf, the largest row sum of moduli of ints = d C: d
        times a bound on the spectral radius of C that needs no spectrum."""
        return max(sum(map(abs, row)) for row in self.scaled[0].tolist())

    @cached_property
    def rho(self) -> float:
        """The spectral radius of C: max|k| / d when every eigenvalue k of
        ints = d C is an integer, else from ``spectrum``.  The t-range
        clamp reads it only where ``norm`` leaves the range in doubt."""
        ks = self.int_spectrum.integer_eigenvalues()
        if ks is None:
            return float(np.abs(self.spectrum).max())
        return float(Fraction(max(map(abs, ks)), self.scaled[1]))

    @cached_property
    def scaled(self) -> tuple:
        """``(ints, d)`` with C = ints / d, if n^2 b <= MAX_INT_FORM_SIZE
        for b the largest bit length of d and the entries of ints."""
        ints, d = ex.scaled(self.c)
        b = max(d.bit_length(), *(x.bit_length() for x in ints.ravel().tolist()))
        if ints.shape[0] ** 2 * b > MAX_INT_FORM_SIZE:
            raise EnvelopeExceeded(
                f"the integer form of C has {b}-bit entries; n^2 b = {ints.shape[0] ** 2 * b}"
                f" is past {MAX_INT_FORM_SIZE}"
            )
        return ints, d

    @cached_property
    def charpoly(self) -> list:
        """The characteristic polynomial of ints = d C."""
        return ex.int_charpoly_coeffs(self.scaled[0])

    @cached_property
    def int_spectrum(self) -> IntSpectrum:
        """The exact spectrum of ints = d C."""
        return int_spectrum(self.charpoly)

    @cached_property
    def s_ints(self) -> np.ndarray:
        """s(ints), s the square-free part of the characteristic polynomial
        of ints: 0 exactly when ints, and so C, is diagonalizable."""
        ints = self.scaled[0]
        eye = np.eye(ints.shape[0], dtype=int).astype(object)
        s = self.int_spectrum.square_free
        out = s[0] * ints + s[1] * eye
        for a in s[2:]:
            out = ints.dot(out) + a * eye
        return out

    @cached_property
    def jordan_types(self) -> dict:
        """``_jordan_types`` of ints at its integer roots, for both Jordan
        rules.  A diagonalizable ints (``s_ints`` 0) has one block of size
        1 per eigenvalue, read off with no kernel."""
        roots = self.int_spectrum.integer_roots
        if not any(self.s_ints.ravel().tolist()):
            return {k: [1] * m for k, m in roots}
        return _jordan_types(self.scaled[0], roots)

    @cached_property
    def layers(self) -> list:
        """The Jordan layers of C: the j-th is ``{b: q}``, q the monic
        product of x - lam over the eigenvalues lam of C with exactly b
        Jordan blocks of size >= j, as Fractions.  Their product L_j is
        the characteristic polynomial of C on ker s(C)^j over that on
        ker s(C)^(j-1), s the square-free part of charpoly(C): each kernel
        is invariant, and holds the first j columns of every block."""
        ints, d = self.scaled
        n = ints.shape[0]
        power, below, out = np.eye(n, dtype=int).astype(object), [1], []
        while len(below) <= n:  # until ker s(ints)^j is everything
            power = self.s_ints.dot(power)
            basis, _ = ex.int_nullspace(power)
            m, den = ex.int_solve(basis, ints.dot(basis))  # ints basis = basis m / den
            upto = [x // den**i for i, x in enumerate(ex.int_charpoly_coeffs(m))]
            out.append({b: [Fraction(x, d**i) for i, x in enumerate(q)]
                        for b, q in square_free_factors(_divmod(upto, below)[0]).items()})
            below = upto
        return out


def _plan_of(c) -> _Plan:
    """``c`` itself when it is a plan, else a new plan of C."""
    return c if isinstance(c, _Plan) else _Plan(c)


def _require_trace_free(plan) -> None:
    """NonTraceFree unless the rationals C holds have trace exactly 0, read
    on the integer form: after its bit envelope, before any charpoly."""
    if np.trace(plan.scaled[0]) != 0:
        raise NonTraceFree("Bock scan requires a trace-free matrix")


def _frobenius(parts, shape) -> tuple:
    """The Frobenius form Z (read-only, of ``shape``) and characteristic
    polynomial of the matrix whose i-th invariant factor is the product of
    b^sizes[i] over the ``parts`` pairs ``(b, sizes)`` (for coprime
    square-free b, one with Jordan type ``sizes``, largest first, at the
    roots of each b): Z has their companion matrices on consecutive
    diagonal blocks.  Coefficients are ints, or vectors over trace levels
    that make Z one array of every level's matrix.  The characteristic
    polynomial is multiplied from the last invariant factors, which
    divide the first and are most often scalar, so the level vectors
    enter as few products as they can."""
    z = np.zeros(shape, dtype=object)
    factors, at = [], 0
    for i in range(max(len(sizes) for _, sizes in parts)):
        p = [1]
        for b, sizes in parts:
            for _ in range(sizes[i] if i < len(sizes) else 0):
                p = _poly_mul(p, b)
        end = at + len(p) - 1
        z[..., range(at + 1, end), range(at, end - 1)] = 1
        for row, x in enumerate(reversed(p[1:]), start=at):
            z[..., row, end - 1] = -x
        factors.append(p)
        at = end
    poly = [1]
    for p in reversed(factors):
        poly = _poly_mul(p, poly)
    z.flags.writeable = False
    return z, poly


def certify_witness(c, t0: float, poly: IntPoly) -> Optional[LatticeWitness]:
    """Certify a scan candidate by the Frobenius form Z of exp(t0 C), from
    the Jordan layers of C (``_Plan.layers``).

    exp(t0 C), t0 != 0, has a block of size k at e^(t0 lam) for each one
    of C at lam, so its j-th layer P_j is the product of x - e^(t0 lam)
    over the roots lam of C's j-th layer; if exp(t0 C) is conjugate to an
    integer matrix, every P_j is integral.  In floats, each P_j must have
    every coefficient below 2^53 and within SCAN_TOL of an integer (the
    largest distance is the residual), and the integer P_j must multiply
    to ``poly``.  The roots of P_j with b blocks of size >= j go into the
    first b invariant factors of Z, so types that differ within one
    square-free factor, of charpoly(C) or of poly, are read root by root.

    A semisimple C (s(ints) = 0, read exactly) has one layer,
    charpoly(exp(t0 C)), taken from the plan's spectrum as the scan took
    it, and builds no ``_Plan.layers``.  A defective C's layers take the
    float roots of their exact square-free factors, and t = u t0 is first
    polished on their largest defect (``_refine`` within SCAN_STEP): the
    float spectrum of a defective C, off by a root of eps, moves the
    scan's t0, most where charpoly(exp(t C)) is flat in t.

    A root 1 of ``poly`` needs as many eigenvalues lam of C with
    e^(t0 lam) = 1, that is t0 lam in 2 pi i Z: lam = 0 (counted exactly,
    on charpoly(C), as the smallest moduli of the float spectrum) or
    |t0 lam| >= 2 pi (counted as |t0 lam| >= pi on the float spectrum).
    For a C with a float entry, a nonzero lam within SCAN_TOL rho(C) of 0
    counts too: against the spectral radius it is 0 to the scan's
    tolerance, as in the float twin of a singular matrix; so a float C
    with eigenvalues +-1 and +-1e-10 may get a witness with the root 1
    twice, which its exact twin does not.  A small spectrum, all of whose
    exponentials are near 1, gives no witness.

    None (inconclusive) for t0 = 0 (exp(0 C) = I), a polynomial of
    det -1, a root 1 of higher multiplicity than those eigenvalues allow,
    or a check that fails.  ``c`` is C or its plan; |t0| rho(C)
    past MAX_SPECTRAL raises EnvelopeExceeded, rho as the scan's t-range
    clamp takes it (``_Plan.rho``)."""
    plan = _plan_of(c)
    if abs(t0) * plan.rho > MAX_SPECTRAL:
        raise EnvelopeExceeded("spectral radius of t*C exceeds the envelope")
    n = plan.c.shape[0]
    if t0 == 0 or (-1) ** n * poly.constant_term() != 1:
        return None
    ones, q = 0, list(poly.coeffs)
    while sum(q) == 0:  # q(1) = 0
        q, ones = _divmod(q, [1, -1])[0], ones + 1
    zeros = next(i for i, x in enumerate(reversed(plan.charpoly)) if x)
    mods = np.sort(np.abs(plan.spectrum))[zeros:]  # the nonzero eigenvalues
    at_one = (plan.floats & (mods <= SCAN_TOL * mods.max(initial=0.0))) | (abs(t0) * mods >= math.pi)
    if ones > zeros + int(at_one.sum()):
        return None
    if not any(plan.s_ints.ravel().tolist()):  # C semisimple: one layer
        evs, u = [t0 * plan.spectrum], 1.0
    else:  # roots of t0 C, which the envelope bounds, and u near 1
        t = Fraction(t0)
        evs = [np.concatenate([np.repeat(np.roots([float(x * t**i) for i, x in enumerate(q)]), b)
                               for b, q in layer.items()]) for layer in plan.layers]
        h = min(SCAN_STEP / abs(t0), 0.5)

        def defect(us):
            return np.max([kernels.integer_defect(kernels.exp_charpoly(ev, us)) for ev in evs], 0)

        u = _refine(defect, np.array([1.0 - h]), np.array([1.0 + h]))[0][0]
    parts, residual = [], 0.0
    for ev in evs:
        coeffs = kernels.exp_charpoly(ev, u)
        residual = max(residual, float(kernels.integer_defect(coeffs)))
        if not np.abs(coeffs).max() < 2.0**53 or residual > SCAN_TOL:
            return None
        parts += [(q, [1] * b) for b, q in square_free_factors(np.rint(coeffs).tolist()).items()]
    z, product = _frobenius(parts, (n, n))
    if tuple(product) != poly.coeffs:
        return None
    return LatticeWitness(t0, z, residual, poly)


def certify_witness_blocked(c, t0: float, poly: IntPoly):
    """The blockwise step's name: ``certify_witness`` certifies every candidate."""
    return certify_witness(c, t0, poly)


def _trace_levels(lam0: float, lo: float, hi: float) -> Optional[list]:
    """``(t, m)`` for every t = +-arccosh(m/2) / lam0 in (lo, hi] with
    integer m >= 3, by increasing t; None when there are more than
    MAX_LISTED_WITNESSES.  The count comes first, from the traces
    2 cosh(lam0 t) at the ends of the range, so nothing is enumerated
    past the limit.  The range must be clamped (``_scanned_range``), so
    that lam0 |t| <= MAX_SPECTRAL and no trace overflows."""

    def trace(t):
        return 2.0 * math.cosh(lam0 * t)

    pos = (max(3, math.floor(trace(max(lo, 0.0))) + 1), math.floor(trace(hi)) + 1)
    neg = (max(3, math.ceil(trace(min(hi, 0.0)))), math.ceil(trace(lo)))
    if hi <= 0:
        pos = (3, 3)
    if lo >= 0:
        neg = (3, 3)
    if sum(max(0, b - a) for a, b in (pos, neg)) > MAX_LISTED_WITNESSES:
        return None
    return [(-math.acosh(m / 2) / lam0, m) for m in reversed(range(*neg))] + [
        (math.acosh(m / 2) / lam0, m) for m in range(*pos)
    ]


def _lucas(ms: np.ndarray, top: int) -> list:
    """L_e(m) = trace of A^e for A = companion(x^2 - m x + 1), e = 0..top,
    each one vector over the trace levels ``ms`` (Python ints):
    L_0 = 2, L_1 = m and L_e = m L_(e-1) - L_(e-2)."""
    out = [np.full(ms.shape, 2, dtype=object), ms]
    while len(out) <= top:
        out.append(ms * out[-1] - out[-2])
    return out


def _poly_mul(p: list, q: list) -> list:
    """The product of two coefficient lists whose entries are ints or
    vectors over the trace levels."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _asymmetric(plan) -> Optional[list]:
    """The k > 0 at which the Jordan types of ints = d C at k and -k
    differ, for a trace-free C whose eigenvalues k are integers; else
    None: the two Jordan rules do not apply."""
    ks = plan.int_spectrum.integer_eigenvalues()
    if ks is None:
        return None
    types = plan.jordan_types
    return sorted({abs(k) for k, sizes in types.items() if sizes != types.get(-k)})


def _exact_witnesses(c, t_range) -> Optional[list]:
    """Every witness in the clamped t-range, decided exactly, for a C
    whose spectrum is rational and real with the same Jordan types at lam
    and -lam for every lam; None where the rule does not apply.

    With C = ints / d, the eigenvalues k of ints are the integer roots of
    the plan's exact spectrum.  Put lam0 = gcd(k) / d.  The witnesses are
    exactly t = +-arccosh(m/2) / lam0, m >= 3 (Bock16 with
    Gelfond-Schneider).  exp(t0 C) has the Jordan types of C, at 1 for
    k = 0 and at the roots of q_e = x^2 - L_e(m) x + 1 for k = +-e gcd(k),
    and Z is their Frobenius form (``_frobenius``), built for every trace
    level in one pass: L_e(m) is one vector over the levels, and Z one
    (levels, n, n) array whose slices are the witnesses' Z.

    A nilpotent C (every k = 0) has exp(t C) unipotent, of the Jordan
    type of C, so every t != 0 is a witness, with Z the Frobenius form of
    (x - 1)^s over the block sizes s of C.  One is listed: t = 1 when 1
    is in (lo, hi], else hi, or lo / 2 when hi = 0; none when lo >= hi.

    Declines (None) where ``_asymmetric`` is not [] (a spectrum the scan
    judges, or types that differ) and past MAX_LISTED_WITNESSES.  ``c`` is
    C or its plan."""
    plan = _plan_of(c)
    if _asymmetric(plan) != []:
        return None
    types, d, n = plan.jordan_types, plan.scaled[1], plan.c.shape[0]
    lo, hi = _scanned_range(plan, t_range)
    if not any(types):
        if lo >= hi:
            return []
        z, poly = _frobenius([([1, -1], types[0])], (n, n))
        return [LatticeWitness(1.0 if lo < 1.0 <= hi else hi or lo / 2, z, None, IntPoly(tuple(poly)))]
    g = math.gcd(*types)
    levels = _trace_levels(float(Fraction(g, d)), lo, hi)
    if not levels:  # None past the listing limit; [] with no level in range
        return levels
    lucas = _lucas(np.array([m for _, m in levels], dtype=object), max(types) // g)
    # at 1 for k = 0, at the roots of q_e = x^2 - L_e(m) x + 1 for k = e gcd(k)
    parts = [([1, -1] if k == 0 else [1, -lucas[k // g], 1], sizes)
             for k, sizes in types.items() if k >= 0]
    z, poly = _frobenius(parts, (len(levels), n, n))
    coeffs = np.empty((n + 1, len(levels)), dtype=object)
    for j, x in enumerate(poly):
        coeffs[j] = x
    return [
        LatticeWitness(t0, zm, None, IntPoly(tuple(row)))
        for (t0, _), zm, row in zip(levels, z, coeffs.T.tolist())
    ]


@dataclass(frozen=True)
class NoLatticeCertificate:
    rule: str  # the name of the entry of RULES that made it
    data: dict = field(default_factory=dict)

    def as_dict(self):
        return {"rule": self.rule, "data": self.data}


def no_lattice_double_root(c) -> Optional[NoLatticeCertificate]:
    """Certificate when all eigenvalues of C are real and exactly one is
    multiple and nonzero: any integer characteristic polynomial of
    exp(t C) would then have exactly one double root away from +-1,
    which is impossible for a monic integer polynomial with unit
    constant term.

    Decided from the plan's exact spectrum alone, for any input type (a
    float entry is the rational it holds): every root real, and
    gcd(p, p') = (x - k)^j, k != 0, that is, k is a root of multiplicity
    j + 1 = deg gcd + 1.  No tolerance is involved, and ``data`` is exact:
    ``charpoly`` is charpoly(C), its coefficients as rationals (strings)
    by descending degree."""
    plan = _plan_of(c)
    spec = plan.int_spectrum
    if not spec.all_real:
        return None
    j, d = len(spec.repeated) - 1, plan.scaled[1]
    found = [(Fraction(k, d), m) for k, m in spec.integer_roots if k and m == j + 1 > 1]
    if len(found) != 1:
        return None
    root, mult = found[0]
    return NoLatticeCertificate(
        "double_root",
        data={
            "charpoly": [str(Fraction(x, d**i)) for i, x in enumerate(plan.charpoly)],
            "multiple_root": float(root),
            "multiplicity": int(mult),
        },
    )


def _jordan_asymmetry(plan) -> Optional[NoLatticeCertificate]:
    """Certificate when the Jordan types of C at some lam and -lam differ
    (``_asymmetric``): exp(t0 C) then has different types at e^(t0 lam) and
    e^(-t0 lam), Galois conjugates when it is integral (Bock16 with
    Gelfond-Schneider).  ``data`` lists each such lam > 0 with both types."""
    ks = _asymmetric(plan)
    if not ks:
        return None
    types, d = plan.jordan_types, plan.scaled[1]
    return NoLatticeCertificate("jordan_asymmetry", data={"asymmetric": [
        {"eigenvalue": float(Fraction(k, d)), "at": types.get(k, []), "at_minus": types.get(-k, [])}
        for k in ks
    ]})


def no_lattice_codim2(c) -> Optional[NoLatticeCertificate]:
    """Certificate when C, m x m with m = n - 1 >= 4, is semisimple with a
    simple real eigenvalue a != 0 and every other eigenvalue of real part
    -c, c = a / (m - 1).  Then B = C|_V + c I, V the sum of the other
    eigenspaces, is skew for some rational inner product, and
    ``almab_lcp([[a]], B)`` is an LCP structure of flat codimension 2 on an
    isomorphic algebra: by the paper's theorem, there is no lattice.

    Decided on p = charpoly(ints), ints = d C, with A = d a and
    g = A / (m - 1), after declining for m < 4, a root 0, or other than 1
    or 2 distinct real roots.  By Newton's identities g is a root of
    m (m^2 - 1) g^3 - 3 T_2 g - T_3, T_2 = -2 p_2 and T_3 = -3 p_3 the power
    sums; A has at most 3 < m conjugates, so it is rational, and an integer
    root of gcd(p, K), K(x) = m (m + 1) x^3 - 3 (m - 1) T_2 x - (m - 1)^2 T_3.
    For each, p = (x - A) q and h(w) = (m - 1)^(m-1) q((w - A) / (m - 1)),
    with roots (m - 1)(lam + g), must be w^j H(w^2) with H of real roots
    only and no positive one (no sign change), which also makes A simple;
    last, s(ints) = 0."""
    plan = _plan_of(c)
    p = plan.charpoly
    m = len(p) - 1
    if m < 4 or not 1 <= plan.int_spectrum.real_roots <= 2 or p[-1] == 0:
        return None
    u, t2, t3 = m - 1, -2 * p[2], -3 * p[3]
    for a in integer_roots(*_sturm(_gcd(p, [m * (m + 1), 0, -3 * u * t2, -u * u * t3]))[1:]):
        h = []
        for i, x in enumerate(_divmod(p, [1, -a])[0]):  # Horner at w - a
            h = _poly_mul(h, [1, -a])
            h[-1] += x * u**i
        shaped = not (any(h[1::2]) or _changes(h[::2])) and int_spectrum(h[::2]).all_real
        if shaped and not any(plan.s_ints.ravel().tolist()):
            return NoLatticeCertificate("codim2_highdim", data={"dim": m + 1, "flat_dim": m - 1})
    return None


def _scan(plan, t_range) -> list:
    """The scan's candidates that ``certify_witness`` certifies."""
    found = (certify_witness(plan, cand.t0, cand.poly)
             for cand in integer_charpoly_scan(plan, t_range=t_range))
    return [w for w in found if w is not None]


@dataclass(frozen=True)
class AbelianizationReport:
    snf_diagonal: tuple
    torsion: int  # order of the cyclic torsion part (1 = free)

    def as_dict(self):
        return {"snf_diagonal": list(self.snf_diagonal), "torsion": self.torsion}


def e11_lattice(m: int):
    """Closed-form lattice family for the hyperbolic 3-dimensional group:
    t_m = ln((m + sqrt(m^2-4))/2) makes exp(t_m diag(1,-1)) conjugate to
    E_m = [[0,-1],[1,m]] = companion(x^2 - m x + 1), its Frobenius form,
    returned as an exact witness.  The abelianisation Z + Z_{m-2}
    separates the lattices pairwise: E_m - I = [[-1,-1],[1,m-1]] has
    entries of gcd 1 and determinant 2 - m, so its Smith form is
    diag(1, m - 2)."""
    if m <= 2:
        raise MTooSmall("need m >= 3")
    t_m = math.log((m + math.sqrt(m * m - 4)) / 2)
    poly = IntPoly((1, -m, 1))
    witness = LatticeWitness(t_m, companion(poly), None, poly)
    return witness, AbelianizationReport((1, m - 2), m - 2)


@dataclass(frozen=True)
class LatticeVerdict:
    """A verdict and ``rule``, the name of the entry of RULES that gave it;
    the entries before it in RULES were asked and did not apply."""

    input_label: str
    witnesses: tuple
    certificates: tuple
    inconclusive_ranges: tuple
    rule: str

    @property
    def status(self) -> str:
        if self.witnesses:
            return "yes"
        if self.certificates:
            return "no"
        return "inconclusive"

    def as_dict(self):
        return {
            "input": self.input_label,
            "status": self.status,
            "rule": self.rule,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "certificates": [c.as_dict() for c in self.certificates],
            "inconclusive_ranges": [list(r) for r in self.inconclusive_ranges],
        }


# the rules of lattice_verdict, in the order it asks them (see the module docstring)
RULES = (
    ("double_root", lambda plan, t_range: no_lattice_double_root(plan)),
    ("jordan_asymmetry", lambda plan, t_range: _jordan_asymmetry(plan)),
    ("trace_levels", lambda plan, t_range: _exact_witnesses(plan, t_range)),
    ("codim2_highdim", lambda plan, t_range: no_lattice_codim2(plan)),
    ("scan", lambda plan, t_range: _scan(plan, t_range)),
)


def lattice_verdict(c, label: str = "", t_range=(0.0, 20.0), seed: int = 0) -> LatticeVerdict:
    """The verdict of the first rule of ``RULES`` that decides, named in
    its ``rule``.  Every rule reads C and ``t_range`` alone, through one
    plan of C (``_Plan``).  Before any rule, C must be trace-free (else
    NonTraceFree).  ``seed`` is unused."""
    plan = _Plan(c)
    _require_trace_free(plan)
    for rule, decide in RULES:
        found = decide(plan, t_range)
        if isinstance(found, NoLatticeCertificate):
            return LatticeVerdict(label, (), (found,), (), rule)
        if found is not None:
            inconclusive = () if found else (_scanned_range(plan, t_range),)
            return LatticeVerdict(label, tuple(found), (), inconclusive, rule)
