"""Output checks computed apart from lcplab.

Nothing here imports lcplab.  Exact facts (Jacobi identity,
unimodularity, closedness, determinants, characteristic polynomials of
integer matrices, subspace inclusion) are recomputed in plain
``Fraction`` arithmetic; the characteristic polynomial of exp(t0 C) is
computed with ``scipy.linalg.expm``.  Every check raises ``CheckFailed``
with a reason when an output is wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

# t0 values of two witnesses that name the same lattice differ by far
# less than this; distinct closed-form witnesses differ by far more
T0_TOL = 1e-7
# relative tolerance of a float characteristic polynomial against an
# exact integer one (coefficients are at most ~1e3 here)
POLY_RTOL = 1e-6


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str):
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# exact linear algebra in plain Fractions
# ---------------------------------------------------------------------------

def frac_rows(m) -> list:
    return [[Fraction(x) for x in row] for row in m]


def rank(rows: list) -> int:
    m = [row[:] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / p
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(rows: list) -> Fraction:
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    d = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        p = m[col][col]
        d *= p
        for i in range(col + 1, n):
            f = m[i][col] / p
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return d


def int_charpoly(z) -> list:
    """det(xI - Z) for an integer matrix, descending coefficients, by
    Faddeev-LeVerrier in exact Fractions."""
    a = frac_rows(z)
    n = len(a)
    coeffs = [Fraction(1)]
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        if k < n:
            for i in range(n):
                m[i][i] += c
            m = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    return coeffs


def columns(basis) -> list:
    """Columns of a basis matrix (n x k) as Fraction lists."""
    rows = frac_rows(basis)
    if not rows:
        return []
    return [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]


def span_contains(big: list, small: list) -> bool:
    """Do the vectors ``big`` span every vector of ``small``?"""
    if not small:
        return True
    if not big:
        return all(all(x == 0 for x in v) for v in small)
    return rank(big + small) == rank(big)


# ---------------------------------------------------------------------------
# structures: Jacobi, unimodularity, closed theta, flat space
# ---------------------------------------------------------------------------

def structure_constants(c) -> list:
    n = c.shape[0]
    return [[[Fraction(c[i, j, k]) for k in range(n)] for j in range(n)] for i in range(n)]


def check_lie_algebra(c: list):
    n = len(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                require(c[i][j][k] == -c[j][i][k], f"bracket not antisymmetric at ({i},{j})")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for m in range(n):
                    s = sum(
                        c[i][j][l] * c[l][k][m] + c[j][k][l] * c[l][i][m] + c[k][i][l] * c[l][j][m]
                        for l in range(n)
                    )
                    require(s == 0, f"Jacobi identity fails on ({i},{j},{k})")


def check_unimodular(c: list):
    n = len(c)
    for i in range(n):
        require(sum(c[i][j][j] for j in range(n)) == 0, f"tr ad(e{i + 1}) != 0")


def check_closed(c: list, theta: list):
    n = len(c)
    for i in range(n):
        for j in range(i + 1, n):
            require(
                sum(c[i][j][k] * theta[k] for k in range(n)) == 0,
                f"theta([e{i + 1},e{j + 1}]) != 0: theta is not closed",
            )


def check_abelian_ideal_in_ker_theta(c: list, theta: list, u: list):
    """u (a list of vectors) is an abelian ideal on which theta vanishes."""
    n = len(c)

    def br(x, y):
        return [
            sum(x[i] * y[j] * c[i][j][k] for i in range(n) if x[i] for j in range(n) if y[j])
            for k in range(n)
        ]

    for a in u:
        require(sum(t * x for t, x in zip(theta, a)) == 0, "theta does not vanish on the flat space")
        for b in u:
            require(all(x == 0 for x in br(a, b)), "flat space is not abelian")
        for i in range(n):
            e = [Fraction(int(i == k)) for k in range(n)]
            require(span_contains(u, [br(e, a)]), "flat space is not an ideal")


def check_structure(c: list, theta: list, flat: list, recipe_flat: list, n: int):
    """The op's algebra is a unimodular Lie algebra with closed theta; the
    returned maximal flat space contains the recipe's R^q and has
    codimension at least two."""
    require(len(c) == n, f"algebra has dimension {len(c)}, recipe asked for {n}")
    check_lie_algebra(c)
    check_unimodular(c)
    check_closed(c, theta)
    require(len(flat) <= n - 2, f"flat_dim {len(flat)} > n - 2 = {n - 2}")
    require(rank(flat) == len(flat), "flat basis is not independent")
    require(span_contains(flat, recipe_flat), "returned flat space misses the recipe's R^q")


def coordinate_span(n: int, coords) -> list:
    return [[Fraction(int(i == j)) for i in range(n)] for j in coords]


# ---------------------------------------------------------------------------
# lattice witnesses
# ---------------------------------------------------------------------------

def float_charpoly_of_exp(c, t0: float) -> np.ndarray:
    m = scipy.linalg.expm(t0 * np.asarray(c, dtype=float))
    return np.real(np.poly(np.linalg.eigvals(m)))


def check_witness(c, t0: float, z):
    """Z is an integer matrix with det 1 whose characteristic polynomial
    is that of exp(t0 C)."""
    n = len(c)
    require(len(z) == n and all(len(row) == n for row in z), "witness matrix has the wrong shape")
    require(all(Fraction(x).denominator == 1 for row in z for x in row), "witness matrix is not integral")
    require(det(z) == 1, f"witness matrix has det {det(z)}, not 1")
    exact = [float(x) for x in int_charpoly(z)]
    approx = float_charpoly_of_exp(c, t0)
    for e, a in zip(exact, approx):
        require(
            abs(e - a) <= POLY_RTOL * max(1.0, abs(e)),
            f"charpoly of Z {exact} != charpoly of expm(t0 C) {approx.tolist()} at t0={t0}",
        )


def hyperbolic_witness_set(a: float, t_hi: float) -> list:
    """All t0 in (0, t_hi] with exp(t0 a diag(1,-1)) conjugate to an
    integer matrix: 2 cosh(a t0) = m for integers m >= 3."""
    m_hi = math.floor(2 * math.cosh(a * t_hi))
    return [math.acosh(m / 2) / a for m in range(3, m_hi + 1)]


def check_witness_set(found: list, expected: list):
    found = sorted(found)
    require(
        len(found) == len(expected),
        f"{len(found)} witnesses reported, the closed form has {len(expected)}",
    )
    for f, e in zip(found, expected):
        require(abs(f - e) <= T0_TOL, f"witness t0={f:.9f} where the closed form has {e:.9f}")


# ---------------------------------------------------------------------------
# catalog rows against the paper's tables
# ---------------------------------------------------------------------------

def check_catalog_row(row: dict, dims_found: list, witnesses_ok: bool, status: str,
                      certificates: list, witnesses: list):
    """``row`` is a transcribed table row; ``witnesses`` lists (t0, Z)."""
    require(dims_found == row["dims"], f"flat dimensions {dims_found} != table {row['dims']}")
    require(witnesses_ok, "a shipped witness failed verification or audit")
    if row["lattice"] == "yes":
        require(status == "yes", f"table says lattice 'yes', computed {status!r}")
    elif row["lattice"] == "no":
        require(status == "no", f"table says lattice 'no', computed {status!r}")
    if status == "no":
        require(bool(certificates), "'no' without a certificate")
    spectrum = row.get("spectrum")
    if spectrum is not None:
        c = np.diag([float(x) for x in spectrum])
        for t0, z in witnesses:
            check_witness(c, t0, z)
        check_witness_set([t0 for t0, _ in witnesses], hyperbolic_witness_set(1.0, 3.0))
    else:
        require(not witnesses, "witnesses on a row with no transcribed spectrum")
