"""Exact linear algebra over the rationals.

Matrices and vectors are numpy arrays with ``dtype=object`` holding
:class:`fractions.Fraction` entries.  Dimensions stay small (n <= 16
throughout the package), so dense fraction arithmetic is exact and fast
enough; nothing in this module ever touches floating point.

Conventions: vectors are 1-d arrays, matrices 2-d; a subspace is
represented by a matrix whose *columns* form a basis.

Products go through :func:`dot`, a common-denominator kernel: each
operand is scaled to Python integers over the lcm of its denominators
(:func:`scaled`), the product is taken on integers, and each entry of
the result becomes a ``Fraction`` once.  A ``Fraction`` product would
normalise every partial sum by a gcd; this one normalises each result
entry once, and a zero entry is the shared :data:`ZERO`.

Between kernels, exact data stays in that integer form, ``ints / den``,
and Fractions are made only where a caller reads entries
(:func:`unscaled`).  Three objects keep it: a ``LieAlgebra`` its
structure constants (``LieAlgebra.scaled_c``), and a ``weyl.Connection``
and ``weyl.Curvature`` their whole tables, which the Koszul solve, the
conformal correction and the curvature pass build on integers alone;
:func:`reduced` divides out a common factor so that the form is the one
:func:`scaled` gives for the same values.  Bracket spans and
centralisers eliminate integer bracket matrices and ad stacks, and the
flat search, the curvature condition of verification and the structural
audit multiply the integer tables of the connection and curvature; none
of these make a Fraction unless it is returned.

Eliminations run on the same integers: :func:`rref` and :func:`det` read
one fraction-free Gauss-Jordan pass (Bareiss), and every nullspace,
solve, inverse and span test goes through :func:`rref`.  An echelon form
and a kernel do not depend on the scale of the matrix, so
:func:`rref`, :func:`nullspace` and :func:`column_space` take integer
arrays as they are; their results are Fractions either way.  The
characteristic polynomial is one Faddeev-LeVerrier pass on the same
integers (:func:`int_charpoly_coeffs`), which ``intpoly`` shares for
integer matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

Scalar = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def rvec(data) -> np.ndarray:
    v = np.empty(len(data), dtype=object)
    for i, x in enumerate(data):
        v[i] = rat(x)
    return v


def rmat(rows) -> np.ndarray:
    rows = list(rows)
    m = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != m.shape[1]:
            raise DimensionMismatch("ragged matrix")
        for j, x in enumerate(row):
            m[i, j] = rat(x)
    return m


def rzeros(shape) -> np.ndarray:
    m = np.empty(shape, dtype=object)
    m[...] = ZERO
    return m


def reye(n: int) -> np.ndarray:
    m = rzeros((n, n))
    for i in range(n):
        m[i, i] = ONE
    return m


def is_zero(a) -> bool:
    return all(x == 0 for x in np.asarray(a, dtype=object).flat)


def scaled(a) -> tuple[np.ndarray, int]:
    """Integer numerators over one common denominator: ``a == ints / den``.

    Entries are ``Fraction`` or ``int``; ``ints`` holds Python ints and
    ``den`` is the lcm of the denominators.  Floats raise ``TypeError``.
    """
    a = np.asarray(a, dtype=object)
    flat = a.ravel().tolist()
    try:
        dens = [x.denominator for x in flat]
    except AttributeError:
        bad = next(x for x in flat if not hasattr(x, "denominator"))
        raise TypeError(f"exact products take Fractions and ints, not {bad!r}") from None
    den = lcm(*dens)
    ints = np.empty(a.shape, dtype=object)
    ints.ravel()[:] = [int(x.numerator) * (den // d) for x, d in zip(flat, dens)]
    return ints, den


def unscaled(ints, den: int):
    """The ``Fraction`` array ``ints / den`` (a scalar for a 0-d input);
    zero entries are the shared :data:`ZERO`."""
    if np.ndim(ints) == 0:
        return Fraction(ints, den) if ints else ZERO
    ints = np.asarray(ints, dtype=object)
    out = np.empty(ints.shape, dtype=object)
    out.ravel()[:] = [Fraction(x, den) if x else ZERO for x in ints.ravel().tolist()]
    return out


def reduced(ints, den: int):
    """``(ints, den)`` with the common factor of every entry and ``den``
    divided out: the smallest common denominator of the values, which is
    the one :func:`scaled` gives for them."""
    g = gcd(den, *ints.ravel().tolist())
    return (ints // g, den // g) if g > 1 else (ints, den)


def dot(a, b):
    """Exact product of 1-d or 2-d rational arrays, as ``a.dot(b)``.

    One integer product over the two common denominators, then one
    ``Fraction`` per result entry; a 1-d by 1-d product is a scalar.
    """
    ia, da = scaled(a)
    ib, db = scaled(b)
    return unscaled(ia.dot(ib), da * db)


def to_float(a) -> np.ndarray:
    return np.asarray(a, dtype=object).astype(np.float64)


def _eliminate(m: np.ndarray):
    """Fraction-free Gauss-Jordan on ``scaled(m) == (ints, den)``.

    Returns ``(rows, pivots, d, sign, den)``: the RREF of ``m`` is
    ``rows[:rank] / d`` and ``det(ints) == sign * d`` when every column
    pivots.  Each pivot ``p`` replaces every other row by
    ``(p * row - row[pc] * pivot_row) // d``, ``d`` the previous pivot;
    every entry is a minor of ``ints`` (Bareiss), so the division is exact.
    """
    ints, den = scaled(m)
    rows = ints.tolist()
    pivots = []
    d, sign, pr = 1, 1, 0
    for pc in range(m.shape[1]):
        if pr == len(rows):
            break
        pivot = next((i for i in range(pr, len(rows)) if rows[i][pc]), None)
        if pivot is None:
            continue
        if pivot != pr:
            rows[pivot], rows[pr] = rows[pr], rows[pivot]
            sign = -sign
        prow = rows[pr]
        p = prow[pc]
        for i, row in enumerate(rows):
            if i != pr:
                a = row[pc]
                rows[i] = [(p * x - a * y) // d for x, y in zip(row, prow)]
        pivots.append(pc)
        d = p
        pr += 1
    return rows, pivots, d, sign, den


def rref(m: np.ndarray):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    rows, pivots, d, _, _ = _eliminate(m)
    r = rzeros(m.shape)
    for i in range(len(pivots)):
        r[i] = [Fraction(x, d) for x in rows[i]]
    return r, pivots


def rank(m: np.ndarray) -> int:
    return len(_eliminate(m)[1])


def nullspace(m: np.ndarray) -> np.ndarray:
    """Basis (columns) of the right kernel, canonical given the RREF."""
    cols = m.shape[1]
    r, pivots = rref(m)
    free = [j for j in range(cols) if j not in pivots]
    basis = rzeros((cols, len(free)))
    for k, j in enumerate(free):
        basis[j, k] = ONE
        for i, pc in enumerate(pivots):
            basis[pc, k] = -r[i, j]
    return basis


def left_nullspace(m: np.ndarray) -> np.ndarray:
    """Matrix Q (rows) with Q m = 0 and rank(Q) = rows - rank(m)."""
    return nullspace(m.T).T


def solve(a: np.ndarray, b: np.ndarray):
    """Solve a x = b exactly; returns None when inconsistent.

    ``b`` may be a vector or a matrix of stacked right-hand sides; for an
    underdetermined consistent system the free variables are set to 0.
    """
    vec = b.ndim == 1
    rhs = b.reshape(-1, 1) if vec else b
    if a.shape[0] != rhs.shape[0]:
        raise DimensionMismatch("solve: shape mismatch")
    aug = np.concatenate([a, rhs], axis=1)
    r, pivots = rref(aug)
    ncols = a.shape[1]
    if any(p >= ncols for p in pivots):
        return None
    x = rzeros((ncols, rhs.shape[1]))
    for i, pc in enumerate(pivots):
        x[pc, :] = r[i, ncols:]
    return x[:, 0] if vec else x


def inv(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch("inv: not square")
    aug = np.concatenate([a, reye(n)], axis=1)
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return r[:, n:]


def det(a: np.ndarray) -> Fraction:
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch("det: not square")
    _, pivots, d, sign, den = _eliminate(a)
    return Fraction(sign * d, den**n) if len(pivots) == n else ZERO


def column_space(m: np.ndarray) -> np.ndarray:
    """Canonical basis of the column span: reduced column echelon form."""
    r, pivots = rref(m.T)
    return r[: len(pivots)].T


def in_span(basis: np.ndarray, v: np.ndarray) -> bool:
    """Is v in the column span of basis?"""
    return span_contains(basis, v.reshape(-1, 1))


def span_contains(basis: np.ndarray, other: np.ndarray) -> bool:
    """Are all columns of ``other`` inside the column span of ``basis``?"""
    if basis.shape[1] == 0:
        return is_zero(other)
    return solve(basis, other) is not None


def intersect_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical basis of the intersection of two column spans."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return rzeros((a.shape[0], 0))
    stacked = np.concatenate([a, -b], axis=1)
    ker = nullspace(stacked)
    if ker.shape[1] == 0:
        return rzeros((a.shape[0], 0))
    return column_space(dot(a, ker[: a.shape[1], :]))


def is_symmetric(g: np.ndarray) -> bool:
    n = g.shape[0]
    return g.shape[1] == n and all(
        g[i, j] == g[j, i] for i in range(n) for j in range(i + 1, n)
    )


def is_pos_def(g: np.ndarray) -> bool:
    """Sylvester criterion: all leading principal minors positive."""
    n = g.shape[0]
    return all(det(g[: k + 1, : k + 1]) > 0 for k in range(n))


def int_charpoly_coeffs(ints) -> list:
    """Characteristic polynomial det(xI - a) of an integer matrix, as
    Python ints [1, c1, ..., cn] by descending degree.

    Faddeev-LeVerrier on integers: with M_1 = a, c_k = -tr(M_k) / k and
    M_{k+1} = a (M_k + c_k I).  Every c_k is a coefficient of the integer
    polynomial det(xI - a), so each division by k is exact.
    """
    a = np.asarray(ints, dtype=object)
    n = a.shape[0]
    coeffs = [1]
    m = a
    for k in range(1, n + 1):
        c, r = divmod(-sum(m[i, i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier division is exact on integers"
        coeffs.append(c)
        if k < n:
            m = m.copy()
            for i in range(n):
                m[i, i] += c
            m = a.dot(m)
    return coeffs


def charpoly(a: np.ndarray) -> list:
    """Exact characteristic polynomial det(xI - a), coefficients
    [1, c1, ..., cn] by descending degree: :func:`int_charpoly_coeffs` on
    ``scaled(a) == (ints, d)``, whose k-th coefficient is d^k c_k."""
    ints, d = scaled(a)
    return [Fraction(c, d**k) for k, c in enumerate(int_charpoly_coeffs(ints))]


def rational_roots(coeffs) -> list:
    """Rational roots (with multiplicity) of a polynomial given by
    descending-degree Fraction coefficients."""
    import sympy  # imported here: it is slow to import and rarely needed

    coeffs = [rat(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    poly = sympy.Poly.from_list(coeffs, sympy.Symbol("x"), domain=sympy.QQ)
    roots = []
    for r, mult in poly.ground_roots().items():
        roots += [Fraction(int(r.p), int(r.q))] * mult
    return sorted(roots)
