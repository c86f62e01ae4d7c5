"""Exact linear algebra over the rationals.

Matrices and vectors are numpy arrays with ``dtype=object`` holding
:class:`fractions.Fraction` entries, or Python ints over one common
denominator.  Dimensions stay small (n <= 16 throughout the package);
nothing in this module ever touches floating point.

Conventions: vectors are 1-d arrays, matrices 2-d; the kernels below
take and return a subspace as a matrix whose *columns* form a basis,
and the rest of the package holds spans as ``algebra.Subspace``.

Products are taken on integers: entries given as ``Fraction``s and ints
are scaled once to Python integers over the lcm of their denominators
(:func:`scaled`), the product is taken on those integers, and each
entry of a returned result becomes a ``Fraction`` once
(:func:`unscaled`; a zero entry is the shared :data:`ZERO`).  A
``Fraction`` product would normalise every partial sum by a gcd.

The large integer tables are each one numpy expression on int64 while
a bound proves it exact.  The caller bounds every intermediate of its
expression from the largest entry of each input and the scalars it
multiplies by: a product with inner length k has no partial sum beyond
max|a| max|b| k.  Below 2^63 :func:`int64_within` hands it the inputs
as int64, where nothing can wrap; above it, the Python ints as they
are, and the same expression runs on objects.  :func:`python_ints`
hands the result on as Python ints, and :func:`held_table` as a
reduced form with its bound, reduced on int64 before the conversion.
Every held form carries its bound, max|entry|, taken once when it is
made (:func:`abs_max`; :func:`as_form` returns it), so no table is
scanned again: ``LieAlgebra.c_max``, ``Metric.gram_max`` and
``inverse_max``, ``OneForm.coeffs_max``, ``Subspace.basis_max`` and
the ``g_max`` and ``num_max`` of a ``weyl.Connection`` and
``weyl.Curvature``.  Only a form given from outside (:func:`as_form`)
and a temporary operand without a held bound are scanned by
:func:`int_max`, which also refuses an entry that is not a Python int.
The Jacobi test, the ad stacks and bracket matrices, the Weyl
connection (the Koszul solve and the conformal correction in one pass,
Levi-Civita its theta = 0 case) and the curvature pass run this way,
and :func:`int_dot`, the plain product, is the same rule for
verification condition 3 and the audit's check nabla = ad.

Between kernels, exact data stays in that integer form, ``ints / den``,
and Fractions are made only where a caller reads entries
(:func:`unscaled`).  The objects that carry exact data hold it as their
primary data: a ``LieAlgebra`` its structure constants (``scaled_c``),
a ``Metric`` its Gram matrix (``scaled_gram``) and inverse, a
``OneForm`` its coefficients (``scaled_coeffs``), a ``Subspace`` (every
span, the derived algebra included) its canonical basis, an almost
abelian presentation its ad-matrix (``scaled_matrix``), and a
``weyl.Connection`` and ``weyl.Curvature`` their whole tables; each
makes its ``Fraction`` array a read-only view on first read.  The first
three are built from entries or from an integer form (:func:`as_form`),
and the constructors of ``construct`` build every structure from
integer forms, padded by :func:`form_block_diag`.  Each form is reduced
(:func:`reduced`): it is the one :func:`scaled` gives for the same
values, so :func:`content_key` of it identifies the values and memo
lookups hash Python ints only.  Bracket spans, centralisers, the flat
search, verification and the structural audit eliminate and multiply
these integers; none of them make a Fraction unless it is returned.

Eliminations run on the same integers: one fraction-free Gauss-Jordan
pass (Bareiss, :func:`_eliminate`) sits under every kernel, column span,
inverse and span test, and zero rows are dropped before it.  An echelon
form, a kernel and a span do not depend on the scale of the matrix, so
the ``int_`` kernels (:func:`int_nullspace`, :func:`int_column_space`,
:func:`int_inv`, :func:`int_solve`, :func:`int_span_contains`,
:func:`int_intersect_columns`) take integer matrices as they are and
hand their result on as a reduced integer form, and ``Subspace`` wraps
the column spans and intersections as they come.  A span test is one
elimination of ``[basis | other]`` that checks that no pivot lands in
``other``.  The characteristic polynomial is one Berkowitz pass on the
same integers (:func:`int_charpoly_coeffs`): division-free, so every
coefficient is exact as computed and nothing is asserted of a quotient;
``intpoly`` and the lattice plan share it for integer matrices.

The package eliminates with these alone; :func:`rref`, :func:`nullspace`,
:func:`solve`, :func:`det` and :func:`charpoly` scale ``Fraction`` arrays
in and out of the same passes, for callers that hold entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

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


def block_diag(a, b) -> np.ndarray:
    """The array with ``a`` in its leading corner, ``b`` in its trailing
    one and zeros elsewhere, for arrays of one ndim: two vectors
    concatenated, the block diagonal matrix of two matrices, the direct
    sum of two tables of structure constants.  The zeros are of the type
    of the first entry: :data:`ZERO` beside Fractions, the int 0 beside
    the Python ints of an integer form."""
    first = a.ravel()[:1].tolist() or b.ravel()[:1].tolist() or [ZERO]
    out = np.full(tuple(map(int.__add__, a.shape, b.shape)), first[0] * 0, dtype=object)
    out[tuple(map(slice, a.shape))] = a
    out[tuple(map(slice, a.shape, out.shape))] = b
    return out


def form_block_diag(f, g) -> tuple:
    """:func:`block_diag` of the values of two integer forms ``(ints,
    den)``, as the integer form over the lcm of their denominators."""
    (a, da), (b, db) = f, g
    den = lcm(da, db)
    return block_diag(a * (den // da), b * (den // db)), den


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


def is_form(a) -> bool:
    """Is ``a`` an integer form ``(ints, den)``, an array and an int,
    rather than an array (or nested sequence) of entries?"""
    return type(a) is tuple and len(a) == 2 and isinstance(a[0], np.ndarray) and type(a[1]) is int


def as_form(a) -> tuple:
    """The reduced integer form of exact data given as entries (Fractions
    and ints, :func:`scaled`) or as an integer form ``(ints, den)``, whose
    ``ints`` must be an object array of Python ints (:func:`int_max`)
    and ``den`` nonzero, with its bound: ``(ints, den, max|ints|)``."""
    if not is_form(a):
        ints, den = scaled(a)
        return ints, den, abs_max(ints)
    ints, den = a
    if ints.dtype != object:
        raise TypeError(f"an integer form holds Python ints, not {ints.dtype}")
    m = int_max(ints)
    if den == 0:
        raise ZeroDivisionError("an integer form needs a nonzero denominator")
    ints, rden = reduced(ints, den)
    # reduced divides every entry by den / rden, exactly
    return ints, rden, m * rden // abs(den)


def reduced(ints, den: int):
    """``(ints, den)`` with the common factor of every entry and ``den``
    divided out and ``den > 0``: the smallest common denominator of the
    values, which is the one :func:`scaled` gives for them."""
    g = gcd(den, *ints.ravel().tolist())
    if den < 0:
        g = -g
    return (ints // g, den // g) if g != 1 else (ints, den)


def content_key(ints, den: int) -> tuple:
    """Hashable key of the array ``ints / den`` given as a reduced form:
    equal arrays, however built, give equal keys, and a lookup hashes
    Python ints only."""
    return (ints.shape, den, *ints.ravel().tolist())


# an int64 expression is exact while every intermediate stays below this
_INT64_BOUND = 2**63


def abs_max(ints) -> int:
    """max |entry| of an array of integers, 0 when it is empty: the bound
    an integer form carries, taken once when it is made."""
    vals = ints.ravel().tolist()
    return max(max(vals, default=0), -min(vals, default=0))


def int_max(a) -> int:
    """:func:`abs_max` of an object array that must hold Python ints.  An
    entry that is not a Python int (a ``Fraction``, a float, a numpy
    scalar) raises ``TypeError``: an int64 cast would truncate it
    without a word."""
    vals = a.ravel().tolist()
    if not set(map(type, vals)) <= {int}:
        bad = next(x for x in vals if type(x) is not int)
        raise TypeError(f"integer kernels take Python ints, not {bad!r}")
    return abs_max(a)


def int64_within(bound: int, *arrays) -> tuple:
    """The object arrays of Python ints ``arrays`` as int64 when ``bound``
    is below 2^63, else as they are.

    The caller evaluates one numpy expression on what this returns, and
    ``bound`` bounds the absolute value of every intermediate of that
    expression, the operands and scalars included, from their held
    bounds.  Below 2^63 nothing can wrap, so the int64 result is exact;
    above it the same expression runs on the Python ints.  Either way
    :func:`python_ints` or :func:`held_table` hands the result on.
    """
    if bound < _INT64_BOUND:
        return tuple(a.astype(np.int64) for a in arrays)
    return arrays


def python_ints(a):
    """The result of an :func:`int64_within` expression as an object array
    of Python ints (a Python int for a scalar)."""
    if type(a) is int or a.dtype == object:
        return a
    return a.astype(object) if a.ndim else int(a)


def held_table(table, den: int) -> tuple:
    """The result ``table / den`` of an :func:`int64_within` expression as
    a held form with its bound, ``(ints, den, max|ints|)``: reduced as
    :func:`reduced` reduces it, Python ints.  An int64 table is reduced
    by one ``np.gcd.reduce`` and divided before the conversion, so no
    entry is divided as a Python int."""
    if table.dtype == object:
        ints, den = reduced(table, den)
        return ints, den, abs_max(ints)
    g = gcd(int(np.gcd.reduce(table, axis=None)), den)
    if den < 0:
        g = -g
    # a zero table has g = den, which may be past int64; its entries stay 0
    if g != 1 and table.any():
        table = table // g
    bound = int(np.abs(table).max()) if table.size else 0
    return table.astype(object), den // g, bound


def int_dot(a, b, ma=None, mb=None):
    """Exact product ``a.dot(b)`` of 1-d or 2-d object arrays of Python
    ints, as an object array of Python ints (a Python int for 1-d by 1-d).

    With k the inner length, every partial sum of the product is at most
    max|a| max|b| k in absolute value, so the product is taken on int64
    while that bound and the operands are below 2^63 (:func:`int64_within`),
    and on the Python ints otherwise.  ``ma`` and ``mb`` are the held
    bounds of held forms; an operand without one is scanned by
    :func:`int_max`, where entries that are not Python ints raise
    ``TypeError``.
    """
    ma = int_max(a) if ma is None else ma
    mb = int_max(b) if mb is None else mb
    ia, ib = int64_within(max(ma, mb, ma * mb * a.shape[-1]), a, b)
    return python_ints(ia.dot(ib))


def _int_rows(rows, ncols: int) -> np.ndarray:
    """Object array of Python ints from a list of equal-length int lists."""
    out = np.empty((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        out[i] = row
    return out


def _eliminate(ints: np.ndarray):
    """Fraction-free Gauss-Jordan on an integer matrix.

    Returns ``(rows, pivots, d, sign)``: the RREF of ``ints`` is
    ``rows[:rank] / d``, and ``det(ints) == sign * d`` when every column
    pivots.  Zero rows are dropped first: they change neither the RREF
    nor the pivots, and a square matrix with one has no full rank.  Each
    pivot ``p`` replaces every other row by
    ``(p * row - row[pc] * pivot_row) // d``, ``d`` the previous pivot;
    every entry is a minor of ``ints`` (Bareiss), so the division is exact.
    A row with ``row[pc] == 0`` is only rescaled by ``p / d``, and kept as
    it is when ``p == d``.
    """
    rows = [row for row in ints.tolist() if any(row)]
    pivots = []
    d, sign, pr = 1, 1, 0
    for pc in range(ints.shape[1]):
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
                if a:
                    rows[i] = [(p * x - a * y) // d for x, y in zip(row, prow)]
                elif p != d:
                    rows[i] = [p * x // d for x in row]
        pivots.append(pc)
        d = p
        pr += 1
    return rows, pivots, d, sign


def rref(m: np.ndarray):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    rows, pivots, d, _ = _eliminate(scaled(m)[0])
    r = rzeros(m.shape)
    for i in range(len(pivots)):
        r[i] = [Fraction(x, d) for x in rows[i]]
    return r, pivots


def int_nullspace(ints: np.ndarray) -> tuple:
    """:func:`nullspace` of an integer matrix, as its reduced integer form
    ``(basis, den)``; the kernel does not depend on the scale of ``ints``."""
    cols = ints.shape[1]
    rows, pivots, d, _ = _eliminate(ints)
    free = [j for j in range(cols) if j not in pivots]
    basis = np.zeros((cols, len(free)), dtype=object)
    for k, j in enumerate(free):
        basis[j, k] = d
        for i, pc in enumerate(pivots):
            basis[pc, k] = -rows[i][j]
    return reduced(basis, d)


def nullspace(m: np.ndarray) -> np.ndarray:
    """Basis (columns) of the right kernel, canonical given the RREF."""
    return unscaled(*int_nullspace(scaled(m)[0]))


def int_solve(a: np.ndarray, b: np.ndarray):
    """Solve ``a x = b`` for integer matrices ``a`` and ``b``, from one
    elimination of ``[a | b]``: the reduced integer form ``(x, den)`` of
    the solution, or None when inconsistent.  Free variables are 0."""
    ncols = a.shape[1]
    rows, pivots, d, _ = _eliminate(np.concatenate([a, b], axis=1))
    if any(p >= ncols for p in pivots):
        return None
    x = np.zeros((ncols, b.shape[1]), dtype=object)
    for i, pc in enumerate(pivots):
        x[pc, :] = rows[i][ncols:]
    return reduced(x, d)


def solve(a: np.ndarray, b: np.ndarray):
    """Solve a x = b exactly; returns None when inconsistent.

    ``b`` may be a vector or a matrix of stacked right-hand sides; for an
    underdetermined consistent system the free variables are set to 0.
    """
    vec = b.ndim == 1
    rhs = b.reshape(-1, 1) if vec else b
    if a.shape[0] != rhs.shape[0]:
        raise DimensionMismatch("solve: shape mismatch")
    ncols = a.shape[1]
    ints, _ = scaled(np.concatenate([a, rhs], axis=1))
    sol = int_solve(ints[:, :ncols], ints[:, ncols:])
    if sol is None:
        return None
    x = unscaled(*sol)
    return x[:, 0] if vec else x


def int_inv(ints: np.ndarray) -> tuple:
    """Inverse of a square integer matrix as a reduced integer form
    ``(inverse_ints, den)``, from one elimination of ``[ints | I]``."""
    n = ints.shape[0]
    if ints.shape[1] != n:
        raise DimensionMismatch("inv: not square")
    eye = np.zeros((n, n), dtype=object)
    np.fill_diagonal(eye, 1)
    rows, pivots, d, _ = _eliminate(np.concatenate([ints, eye], axis=1))
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return reduced(_int_rows([row[n:] for row in rows], n), d)


def det(a: np.ndarray) -> Fraction:
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch("det: not square")
    ints, den = scaled(a)
    _, pivots, d, sign = _eliminate(ints)
    return Fraction(sign * d, den**n) if len(pivots) == n else ZERO


def int_column_space(ints: np.ndarray) -> tuple:
    """Canonical basis of the column span of an integer matrix, its reduced
    column echelon form, as a reduced integer form ``(basis, den)``; the
    span does not depend on the scale of ``ints``, nor on that of any one
    column."""
    rows, pivots, d, _ = _eliminate(ints.T)
    return reduced(_int_rows(rows[: len(pivots)], ints.shape[0]).T, d)


def int_span_contains(basis: np.ndarray, other: np.ndarray) -> bool:
    """Are all columns of the integer matrix ``other`` inside the column
    span of ``basis``?  One elimination of ``[basis | other]``: no pivot
    may land in the columns of ``other``.  Scale-free, column by column."""
    k = basis.shape[1]
    pivots = _eliminate(np.concatenate([basis, other], axis=1))[1]
    return all(p < k for p in pivots)


def int_intersect_columns(a: np.ndarray, b: np.ndarray) -> tuple:
    """Canonical basis of the intersection of the column spans of two
    integer matrices, as its reduced integer form."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=object), 1
    ker, _ = int_nullspace(np.concatenate([a, -b], axis=1))
    return int_column_space(a.dot(ker[: a.shape[1], :]))


def is_symmetric(g: np.ndarray) -> bool:
    n = g.shape[0]
    return g.shape[1] == n and all(
        g[i, j] == g[j, i] for i in range(n) for j in range(i + 1, n)
    )


def int_is_pos_def(ints) -> bool:
    """Sylvester's criterion for a symmetric integer matrix, in one
    fraction-free pass.

    Without row swaps, the k-th Bareiss pivot is the k-th leading
    principal minor, so the matrix is positive definite iff every pivot
    is positive, and the pass stops at the first that is not.  Positive
    scaling changes no sign, so this decides it for ``ints / den`` too.
    """
    rows = ints.tolist()
    d = 1
    for k, prow in enumerate(rows):
        p = prow[k]
        if p <= 0:
            return False
        for i in range(k + 1, len(rows)):
            a = rows[i][k]
            rows[i] = [(p * x - a * y) // d for x, y in zip(rows[i], prow)]
        d = p
    return True


def int_charpoly_coeffs(ints) -> list:
    """Characteristic polynomial det(xI - a) of a square integer matrix,
    as Python ints [1, c1, ..., cn] by descending degree.

    Berkowitz's division-free recurrence, on lists of Python ints.  With
    a_r the leading r x r block, S the column above a[r, r] and R the row
    left of it, charpoly(a_(r+1)) is the lower triangular Toeplitz matrix
    with first column (1, -a[r, r], -R S, -R a_r S, ..., -R a_r^(r-1) S)
    times charpoly(a_r): one product of truncated polynomials per row,
    after r - 1 matrix-vector products for the Krylov terms.  Only ints
    are added and multiplied, so every coefficient is exact as computed.
    """
    rows = np.asarray(ints, dtype=object).tolist()
    p = [1, -rows[0][0]] if rows else [1]
    for r in range(1, len(rows)):
        row, above = rows[r], rows[:r]
        left = row[:r]
        v = [x[r] for x in above]
        t = [1, -row[r], -sum(map(mul, left, v))]
        a = [x[:r] for x in above]
        for _ in range(r - 1):
            v = [sum(map(mul, x, v)) for x in a]
            t.append(-sum(map(mul, left, v)))
        # coefficient i of the product is the sum of t[i - j] p[j]
        t.reverse()
        p = [sum(map(mul, t[r + 1 - i :], p)) for i in range(r + 2)]
    return p


def charpoly(a: np.ndarray) -> list:
    """Exact characteristic polynomial det(xI - a), coefficients
    [1, c1, ..., cn] by descending degree: the division-free Berkowitz
    pass of :func:`int_charpoly_coeffs` on ``scaled(a) == (ints, d)``,
    whose k-th coefficient is d^k c_k, so each c_k is one Fraction."""
    ints, d = scaled(a)
    return [Fraction(c, d**k) for k, c in enumerate(int_charpoly_coeffs(ints))]

