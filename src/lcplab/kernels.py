"""Float kernels for the lattice scan: characteristic polynomial
coefficients and the integer-defect scan over a t-grid.

No characteristic polynomial of exp(t C) needs a matrix exponential: the
spectrum of exp(t C) is exp(t spec C), and the characteristic polynomial
depends only on the spectrum (also for non-diagonalisable C), so one
eigenvalue decomposition of C serves every t (``exp_charpoly``).  No
package code calls ``expm`` or ``charpoly_coeffs``: they are the scan
tests' per-point reference, and the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import numpy as np


def expm(a):
    """Scaling-and-squaring matrix exponential with a Taylor core.

    The argument is scaled until its 1-norm is below 1/4, the series is
    summed to machine precision, and the result squared back; accurate to
    ~1e-13 relative on the supported envelope (n <= 16, norm <= ~60)."""
    n = a.shape[0]
    nrm = np.abs(a).sum(axis=0).max(initial=0.0)
    sq = 0
    while nrm > 0.25:
        nrm *= 0.5
        sq += 1
    b = a / (2.0 ** sq)
    e = np.eye(n) + b
    term = b.copy()
    for k in range(2, 40):
        term = term @ b / k
        e = e + term
        if np.abs(term).sum() < 1e-18:
            break
    for _ in range(sq):
        e = e @ e
    return e


def _poly_from_roots(roots):
    """Coefficients [1, e1, ..., en] (descending degree, signed) of
    prod_k (x - roots[..., k]), built column by column over the last axis."""
    n = roots.shape[-1]
    c = np.zeros(roots.shape[:-1] + (n + 1,), dtype=np.complex128)
    c[..., 0] = 1.0
    for k in range(n):
        c[..., 1 : k + 2] -= roots[..., k, None] * c[..., : k + 1]
    return c


def charpoly_coeffs(m):
    """Coefficients [1, c1, ..., cn] of det(xI - m) by descending degree,
    built from the (complex) eigenvalues so repeated squaring noise does
    not compound; the matrix is real so the result is real."""
    return _poly_from_roots(np.linalg.eigvals(m.astype(np.complex128))).real


def integer_defect(coeffs):
    """Max distance of the non-leading coefficients from integers (over
    the last axis)."""
    x = coeffs[..., 1:]
    return np.abs(x - np.rint(x)).max(axis=-1, initial=0.0)


def spectrum(c):
    """Complex eigenvalues of a real square matrix."""
    return np.linalg.eigvals(np.asarray(c, dtype=np.complex128))


def exp_charpoly(ev, t):
    """Coefficients [1, c1, ..., cn] of charpoly(exp(t C)) from the
    eigenvalues ``ev`` of C; an array ``t`` gives one row per entry."""
    return _poly_from_roots(np.exp(np.multiply.outer(t, ev))).real


def scan_defects(c, ts):
    """defect(t) = integer distance of charpoly(exp(t C)) over the grid.
    ``c`` is C, or its spectrum (a 1-D array) when the caller has it
    already."""
    ev = c if np.ndim(c) == 1 else spectrum(c)
    return integer_defect(exp_charpoly(ev, ts))
