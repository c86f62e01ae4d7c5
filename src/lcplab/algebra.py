"""Metric Lie algebras over the rationals and their algebraic predicates.

A Lie algebra is stored through its structure constants ``c[i,j,k]`` on a
fixed basis, with ``[e_i, e_j] = sum_k c[i,j,k] e_k``.  Metrics are exact
positive-definite Gram matrices, 1-forms are coefficient rows in the
dual basis, and subspaces are canonicalised by reduced column echelon
form so that equal spans compare equal.  Each holds its array as a
reduced integer form ``(ints, den)`` (``exact.reduced``) and the bound
max|ints| that the int64 products read instead of a scan; algebras,
metrics and 1-forms are built from entries or from such a form, as the
constructors build structures.  The ``Fraction`` arrays ``c``,
``gram``, ``coeffs`` and ``basis`` are read-only views made on first
read.  Antisymmetry and the Jacobi identity (this can be switched off
to audit broken input), symmetry and definiteness are verified exactly
at construction, once, on the integers.  Every span is a :class:`Subspace`: bracket spans,
centralisers, the centre, the derived and lower central series, g' and
z(g') take and return them, each wrapped once from the integer
elimination that made it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from typing import Optional

import numpy as np

from . import exact as ex
from .errors import (
    DimensionMismatch,
    EnvelopeExceeded,
    InvalidStructure,
    NotPositiveDefinite,
    NotSymmetric,
)

# dimension envelope of the package: documents, connections and the lattice scan
MAX_DIM = 16


def check_envelope(n: int):
    """Refuse dimension ``n`` past ``MAX_DIM``, before anything is built."""
    if n > MAX_DIM:
        raise EnvelopeExceeded(f"the supported envelope is dim <= {MAX_DIM}, got {n}")


def _check_dims(n: int, *objects):
    """Refuse a metric, 1-form or subspace that is not on Q^n."""
    for obj in objects:
        dim = getattr(obj, "ambient_dim", obj.dim)
        if dim != n:
            raise DimensionMismatch(f"{type(obj).__name__} of dimension {dim} where {n} is expected")


def memoised(obj, table: str, key, make):
    """``make()``, made on the first lookup of ``key`` and kept with ``obj``
    in its instance dictionary, under ``table``: the one home of every
    per-object result that depends on other values too.  Keys are content
    keys, so equal values built separately share one entry."""
    memo = vars(obj).setdefault(table, {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _ad_table(cc, iu):
    """The ad stack of :meth:`LieAlgebra._ad_stack` from the constants and
    the columns as they are, int64 or Python ints."""
    n, p = cc.shape[0], iu.shape[1]
    return iu.T.dot(cc.reshape(n, n * n)).reshape(p, n, n).transpose(0, 2, 1)


class LieAlgebra:
    """Exact Lie algebra on a fixed basis.

    The structure constants are held as their reduced integer form
    ``scaled_c == (cc, e)``, c == cc / e, which every contraction with c
    reads, and its bound ``c_max == max|cc|``; ``c``, the (n, n, n)
    object array of Fractions, is a read-only view made on first read.
    Instances are immutable values; all methods are pure.
    """

    def __init__(self, c, check: bool = True):
        """``c`` holds the structure constants as an (n, n, n) array of
        Fractions and ints, or as its integer form ``(cc, e)``, an object
        array of Python ints and their common denominator (as the
        constructors build them).  n > ``MAX_DIM`` is refused, also with
        ``check=False``."""
        cc, e, self.c_max = ex.as_form(c)
        if cc.ndim != 3 or len(set(cc.shape)) != 1:
            raise DimensionMismatch("structure constants must be (n, n, n)")
        check_envelope(cc.shape[0])
        # n = 0 is tolerated here as the identity of direct products; the
        # document parser is where degenerate input gets rejected
        self.dim = cc.shape[0]
        cc.setflags(write=False)
        self.scaled_c = (cc, e)
        if check:
            bad = self.antisymmetry_defect()
            if bad is not None:
                raise InvalidStructure(f"antisymmetry fails at {bad}")
            bad = self.jacobi_defect()
            if bad is not None:
                raise InvalidStructure(f"Jacobi identity fails on triple {bad}")

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict, check=True):
        """Build from a map {(i, j): coeffs} with i < j (0-indexed);
        omitted pairs are zero brackets."""
        c = ex.rzeros((dim, dim, dim))
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch(f"bad bracket pair ({i}, {j})")
            v = ex.rvec(coeffs)
            if v.shape[0] != dim:
                raise DimensionMismatch("bracket coefficient count != dim")
            c[i, j, :] = v
            c[j, i, :] = -v
        return cls(c, check=check)

    @classmethod
    def abelian(cls, dim: int):
        return cls((np.zeros((dim, dim, dim), dtype=object), 1), check=False)

    @cached_property
    def c(self) -> np.ndarray:
        c = ex.unscaled(*self.scaled_c)
        c.setflags(write=False)
        return c

    def antisymmetry_defect(self):
        """First pair (i, j), i <= j, with c[i, j] != -c[j, i], or None."""
        cc, _ = self.scaled_c
        bad = (cc + cc.transpose(1, 0, 2) != 0).any(axis=2)
        for i, j in np.argwhere(bad):
            if i <= j:
                return (int(i), int(j))
        return None

    def jacobi_defect(self):
        """First basis triple violating Jacobi, or None; found once (c is
        read-only), so the check at construction and ``audit_algebra``
        read the same result."""
        return self._jacobi_defect

    @cached_property
    def _jacobi_defect(self):
        """A zero test, so it runs on the integer numerators of c alone:
        t[i, j, k] = [e_i, [e_j, e_k]] for every triple in one product.
        Each entry of t sums n products of two entries of cc, and the
        Jacobi sum adds three of them, so the table is taken on int64
        while 3 n max|cc|^2 is below 2^63."""
        n, m = self.dim, self.c_max
        (cc,) = ex.int64_within(max(m, 3 * n * m * m), self.scaled_c[0])
        # sum_l cc[j, k, l] cc[i, l, :], moved to t[i, j, k]
        t = cc.reshape(n * n, n).dot(cc.transpose(1, 0, 2).reshape(n, n * n))
        t = t.reshape(n, n, n, n).transpose(2, 0, 1, 3)
        jac = t + t.transpose(2, 0, 1, 3) + t.transpose(1, 2, 0, 3)
        bad = (jac != 0).any(axis=3)
        for i, j, k in np.argwhere(bad):
            if i < j < k:
                return (int(i), int(j), int(k))
        return None

    def ad(self, x: np.ndarray) -> np.ndarray:
        """ad_x by linearity: one contraction of x with c."""
        n = self.dim
        cc, e = self.scaled_c
        ix, dx = ex.scaled(x)
        return ex.unscaled(ix.dot(cc.reshape(n, n * n)), dx * e).reshape(n, n).T

    def bracket(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=object)
        y = np.asarray(y, dtype=object)
        if x.shape[0] != self.dim or y.shape[0] != self.dim:
            raise DimensionMismatch("bracket operands must have length n")
        return self.brackets(x.reshape(-1, 1), y.reshape(self.dim, -1)).reshape(y.shape)

    def _ad_stack(self, iu: np.ndarray, mu=None) -> np.ndarray:
        """ad_{u_a} for every column u_a of the integer matrix ``iu``,
        stacked along the first axis: a[a] = e ad_{u_a}, with c = cc / e.
        ``mu`` is the held bound of ``iu`` (else it is scanned); every
        entry is at most c_max mu n, so the product is taken on int64
        while that is below 2^63."""
        mu = ex.int_max(iu) if mu is None else mu
        m = self.c_max * mu * self.dim
        cc, iu = ex.int64_within(max(m, self.c_max, mu), self.scaled_c[0], iu)
        return ex.python_ints(_ad_table(cc, iu))

    def int_brackets(self, iu: np.ndarray, iv: np.ndarray, mu=None, mv=None) -> np.ndarray:
        """:meth:`brackets` of the columns of two integer matrices, times
        the denominator e of c: an integer matrix.  ``mu`` and ``mv`` are
        the held bounds of ``iu`` and ``iv`` (else they are scanned).  The
        ad stack is at most m = c_max mu n and the brackets m mv n, so
        both products are taken on int64 while that is below 2^63."""
        n, p, q = self.dim, iu.shape[1], iv.shape[1]
        mu = ex.int_max(iu) if mu is None else mu
        mv = ex.int_max(iv) if mv is None else mv
        m = self.c_max * mu * n
        cc, iu, iv = ex.int64_within(max(m * mv * n, m, mv, self.c_max, mu), self.scaled_c[0], iu, iv)
        w = _ad_table(cc, iu).reshape(p * n, n).dot(iv)
        return ex.python_ints(w.reshape(p, n, q).transpose(1, 0, 2).reshape(n, p * q))

    def brackets(self, u_basis: np.ndarray, v_basis: np.ndarray) -> np.ndarray:
        """Matrix whose column a * v_basis.shape[1] + b is [u_a, v_b], from
        two contractions."""
        iu, du = ex.scaled(u_basis)
        iv, dv = ex.scaled(v_basis)
        return ex.unscaled(self.int_brackets(iu, iv), du * dv * self.scaled_c[1])

    def bracket_span(self, U: "Subspace", V: "Subspace") -> "Subspace":
        """span{[u, v] : u in U, v in V}: the integer bracket matrix of the
        two canonical bases, eliminated once as it is (a span does not
        depend on scale).

        Made once per pair of spans and kept with the algebra, keyed by
        the content keys of U and V, so the derived algebra, the series
        and the audits share their terms."""
        iu, iv = U.scaled_basis[0], V.scaled_basis[0]

        def make():
            return Subspace.of_columns(self.int_brackets(iu, iv, U.basis_max, V.basis_max))

        return memoised(self, "_bracket_span", (U.key, V.key), make)

    @cached_property
    def derived_algebra(self) -> "Subspace":
        """g' = [g, g], made once and read by every closedness test.  The
        brackets of the standard basis are the rows cc[i, j] of the
        constants, so their span takes no product; it is kept as the
        bracket span of g with itself."""
        n = self.dim
        g = Subspace.full(n)
        rows = self.scaled_c[0].reshape(n * n, n)
        return memoised(self, "_bracket_span", (g.key, g.key), lambda: Subspace.of_columns(rows.T))

    def _series(self, step) -> list:
        """The series that starts at g and goes on by ``step`` (a Subspace
        to the next) until it stops shrinking."""
        terms = [Subspace.full(self.dim)]
        while terms[-1].dim > 0:
            nxt = step(terms[-1])
            if nxt.dim == terms[-1].dim:
                break
            terms.append(nxt)
        return terms

    def derived_series(self) -> list:
        return self._series(lambda t: self.bracket_span(t, t))

    def lower_central_series(self) -> list:
        g = Subspace.full(self.dim)
        return self._series(lambda t: self.bracket_span(g, t))

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].dim == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def centraliser(self, U: "Subspace") -> "Subspace":
        """{x in g : [x, u] = 0 for all u in U}: the common kernel of the
        ad_u, eliminated on integers; not kept: the almost abelian ideal,
        the one caller that asks again, is."""
        n, p = self.dim, U.dim
        ad_u = self._ad_stack(U.scaled_basis[0], U.basis_max).reshape(p * n, n)
        return Subspace.of_columns(ex.int_nullspace(ad_u)[0])

    def centre(self) -> "Subspace":
        """{x : [x, .] = 0}: the kernel of every ad_{e_i}."""
        return self.centraliser(Subspace.full(self.dim))

    @cached_property
    def centre_of_derived(self) -> "Subspace":
        """z(g') = {D y : [D y, u] = 0 for u in g'}, D the integer basis of
        g': one kernel of the stacked ad_u D, made once."""
        der = self.derived_algebra
        d = der.scaled_basis[0]
        n, p = d.shape
        ker, _ = ex.int_nullspace(self._ad_stack(d, der.basis_max).reshape(p * n, n).dot(d))
        return Subspace.of_columns(d.dot(ker))

    def _int_subalgebra_coords(self, ib: np.ndarray, db, mb) -> tuple:
        """Coordinates of the brackets of the columns of basis = ib / db
        in that basis, as the integer form ``(x, den)``; column a k + b
        holds [u_a, u_b].  ``mb`` is the held bound of ``ib``.  Raises
        ``InvalidStructure`` when the columns do not span a subalgebra.

        With c = cc / e, the brackets are ``int_brackets(ib, ib) /
        (db^2 e)``; one integer solve ib X = that integer matrix gives
        their coordinates X / (d db e)."""
        sol = ex.int_solve(ib, self.int_brackets(ib, ib, mb, mb))
        if sol is None:
            raise InvalidStructure("basis does not span a subalgebra")
        x, d = sol
        return x, d * db * self.scaled_c[1]

    def restrict(self, basis) -> "LieAlgebra":
        """Subalgebra on the given column basis, with exact coordinates;
        the basis is a matrix of Fractions and ints or its integer form."""
        ib, db, mb = ex.as_form(basis)
        k = ib.shape[1]
        x, den = self._int_subalgebra_coords(ib, db, mb)
        return LieAlgebra((x.T.reshape(k, k, k), den), check=False)

    def direct_sum(self, other: "LieAlgebra") -> "LieAlgebra":
        return LieAlgebra(ex.form_block_diag(self.scaled_c, other.scaled_c), check=False)

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.scaled_c[1] == other.scaled_c[1]
            and np.array_equal(self.scaled_c[0], other.scaled_c[0])
        )

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"


class Metric:
    """Exact positive-definite scalar product given by its Gram matrix.

    The Gram matrix is held as its reduced integer form ``scaled_gram ==
    (gg, dg)``, gram == gg / dg, on which symmetry and definiteness are
    checked, with its bound ``gram_max``; the ``Fraction`` matrix ``gram``
    is a read-only view made on first read.  The inverse is held the same
    way, made once on first use with its bound ``inverse_max``, and
    ``key`` is the content key of the Gram matrix that memo tables of
    connections and reports look up.
    """

    def __init__(self, gram):
        """``gram`` is the Gram matrix (entries that ``exact.rat`` takes)
        or its integer form ``(gg, dg)``."""
        if not ex.is_form(gram):
            gram = np.asarray(gram, dtype=object)
            # ints and Fractions scale as they are; any other entry is coerced
            if not all(hasattr(x, "denominator") for x in gram.ravel().tolist()):
                gram = ex.rmat(gram.tolist())
        gg, dg, self.gram_max = ex.as_form(gram)
        if not ex.is_symmetric(gg):
            raise NotSymmetric("Gram matrix must be symmetric")
        if not ex.int_is_pos_def(gg):
            raise NotPositiveDefinite("Gram matrix must be positive definite")
        gg.setflags(write=False)
        self.scaled_gram = (gg, dg)
        self.dim = gg.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Metric":
        return cls((np.eye(n, dtype=object), 1))

    @cached_property
    def gram(self) -> np.ndarray:
        gram = ex.unscaled(*self.scaled_gram)
        gram.setflags(write=False)
        return gram

    @cached_property
    def scaled_inverse(self) -> tuple:
        """``(gi, di)`` with ``inverse == gi / di``, reduced: G^-1 = dg gg^-1
        from one integer elimination."""
        gg, dg = self.scaled_gram
        gi, di = ex.int_inv(gg)
        gi, di = ex.reduced(gi * dg, di)
        gi.setflags(write=False)
        return gi, di

    @cached_property
    def inverse_max(self) -> int:
        return ex.abs_max(self.scaled_inverse[0])

    @cached_property
    def key(self) -> tuple:
        return ex.content_key(*self.scaled_gram)

    @cached_property
    def inverse(self) -> np.ndarray:
        inverse = ex.unscaled(*self.scaled_inverse)
        inverse.setflags(write=False)
        return inverse

    def inner(self, x, y) -> Fraction:
        (ix, dx), (iy, dy), (gg, dg) = ex.scaled(x), ex.scaled(y), self.scaled_gram
        return ex.unscaled(ix.dot(gg).dot(iy), dx * dg * dy)

    def sharp(self, theta: "OneForm") -> np.ndarray:
        """Metric dual vector of a 1-form."""
        (gi, di), (t, dt) = self.scaled_inverse, theta.scaled_coeffs
        return ex.unscaled(gi.dot(t), di * dt)

    def scaled(self, lam) -> "Metric":
        lam = ex.rat(lam)
        gg, dg = self.scaled_gram
        return Metric((gg * lam.numerator, dg * lam.denominator))

    def restrict(self, basis) -> "Metric":
        """On a column basis of Fractions and ints, or its integer form."""
        ib, db, _ = ex.as_form(basis)
        gg, dg = self.scaled_gram
        return Metric((ib.T.dot(gg).dot(ib), dg * db * db))

    def __eq__(self, other):
        return isinstance(other, Metric) and self.key == other.key

    def __repr__(self):
        return f"Metric(dim={self.dim})"


class OneForm:
    """Left-invariant 1-form: a coefficient row in the dual basis, held as
    its reduced integer form ``scaled_coeffs == (t, dt)``, coeffs == t /
    dt, with its bound ``coeffs_max == max|t|``; the ``Fraction`` row
    ``coeffs`` is a read-only view made on first read, and ``key`` is the
    content key of the form."""

    def __init__(self, coeffs):
        """``coeffs`` is the coefficient row (entries that ``exact.rat``
        takes) or its integer form ``(t, dt)``."""
        if not (ex.is_form(coeffs) or isinstance(coeffs, np.ndarray)):
            coeffs = ex.rvec(coeffs)
        t, dt, self.coeffs_max = ex.as_form(coeffs)
        t.setflags(write=False)
        self.scaled_coeffs = (t, dt)
        self.dim = t.shape[0]

    @cached_property
    def coeffs(self) -> np.ndarray:
        coeffs = ex.unscaled(*self.scaled_coeffs)
        coeffs.setflags(write=False)
        return coeffs

    @cached_property
    def key(self) -> tuple:
        return ex.content_key(*self.scaled_coeffs)

    @classmethod
    def dual(cls, n: int, i: int, scale=1) -> "OneForm":
        s = ex.rat(scale)
        v = np.zeros(n, dtype=object)
        v[i] = s.numerator
        return cls((v, s.denominator))

    @classmethod
    def zero(cls, n: int) -> "OneForm":
        return cls((np.zeros(n, dtype=object), 1))

    def __call__(self, x) -> Fraction:
        (t, dt), (ix, dx) = self.scaled_coeffs, ex.scaled(x)
        return ex.unscaled(t.dot(ix), dt * dx)

    def is_zero(self) -> bool:
        return not self.scaled_coeffs[0].any()

    def __add__(self, other):
        _check_dims(self.dim, other)
        (t, dt), (u, du) = self.scaled_coeffs, other.scaled_coeffs
        return OneForm((t * du + u * dt, dt * du))

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, s):
        (t, dt), s = self.scaled_coeffs, ex.rat(s)
        return OneForm((t * s.numerator, dt * s.denominator))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, OneForm) and self.key == other.key

    def __repr__(self):
        return f"OneForm({[str(c) for c in self.coeffs]})"


class Subspace:
    """Subspace of Q^n identified by the reduced column echelon form of
    any basis matrix, so two Subspaces are equal iff their spans are.

    The basis matrix may hold Fractions or integers; a span does not
    depend on scale.  The canonical basis is held as its reduced integer
    form ``scaled_basis``, which the spans, tests and memo keys read, and
    its bound ``basis_max`` is taken on first read; the ``Fraction``
    matrix ``basis`` is made on first read.  Spans computed inside the
    package are wrapped by :meth:`_canonical` straight from the
    elimination that made them.
    """

    def __init__(self, basis_matrix: np.ndarray, ambient_dim: Optional[int] = None):
        if basis_matrix.shape == (0,) and ambient_dim is not None:  # no vectors
            basis_matrix = ex.rzeros((ambient_dim, 0))
        elif ambient_dim not in (None, basis_matrix.shape[0]):
            raise DimensionMismatch(f"basis vectors must have length {ambient_dim}")
        ub, du = ex.int_column_space(ex.scaled(basis_matrix)[0])
        ub.setflags(write=False)
        self.scaled_basis = (ub, du)
        self.ambient_dim, self.dim = ub.shape

    @classmethod
    def _canonical(cls, form: tuple) -> "Subspace":
        """The Subspace whose canonical basis has the reduced integer form
        ``form``, as ``ex.int_column_space`` and ``ex.int_intersect_columns``
        return it: nothing is eliminated again."""
        s = cls.__new__(cls)
        ub, _ = form
        ub.setflags(write=False)
        s.scaled_basis = form
        s.ambient_dim, s.dim = ub.shape
        return s

    @classmethod
    def of_columns(cls, ints: np.ndarray) -> "Subspace":
        """The span of the columns of an integer matrix."""
        return cls._canonical(ex.int_column_space(ints))

    @cached_property
    def basis(self) -> np.ndarray:
        basis = ex.unscaled(*self.scaled_basis)
        basis.setflags(write=False)
        return basis

    @cached_property
    def basis_max(self) -> int:
        return ex.abs_max(self.scaled_basis[0])

    @cached_property
    def key(self) -> tuple:
        return ex.content_key(*self.scaled_basis)

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls._canonical((np.zeros((n, 0), dtype=object), 1))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        eye = np.zeros((n, n), dtype=object)
        np.fill_diagonal(eye, 1)
        return cls._canonical((eye, 1))

    @classmethod
    def spanned_by(cls, vectors, ambient_dim=None) -> "Subspace":
        """The span of ``vectors`` in Q^n, n = ``ambient_dim`` or their length."""
        vectors = [ex.rvec(v) if not isinstance(v, np.ndarray) else v for v in vectors]
        if not vectors:
            return cls.zero(ambient_dim)
        n = vectors[0].shape[0] if ambient_dim is None else ambient_dim
        if any(v.shape != (n,) for v in vectors):
            raise DimensionMismatch(f"vectors must have length {n}")
        return cls(np.stack(vectors, axis=1))

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=object).reshape(-1, 1)
        if v.shape[0] != self.ambient_dim:
            raise DimensionMismatch(f"vector must have length {self.ambient_dim}")
        return ex.int_span_contains(self.scaled_basis[0], ex.scaled(v)[0])

    def contains_space(self, other: "Subspace") -> bool:
        return ex.int_span_contains(self.scaled_basis[0], other.scaled_basis[0])

    def intersect(self, other: "Subspace") -> "Subspace":
        a, b = self.scaled_basis[0], other.scaled_basis[0]
        return Subspace._canonical(ex.int_intersect_columns(a, b))

    def add(self, other: "Subspace") -> "Subspace":
        both = np.concatenate([self.scaled_basis[0], other.scaled_basis[0]], axis=1)
        return Subspace.of_columns(both)

    def orthogonal_complement(self, metric: Metric) -> "Subspace":
        """G-orthogonal complement; kernel of (basis^T G), eliminated on
        integers.  Made once per span and kept with the metric, keyed by
        the content key of the span, so a span built twice (the flat a
        constructor verifies, the flat the search finds) shares one entry."""
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        ub, gg = self.scaled_basis[0], metric.scaled_gram[0]
        return memoised(
            metric, "_orthogonal_complement", self.key, lambda: Subspace.of_columns(ex.int_nullspace(ub.T.dot(gg))[0])
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.key))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"


@dataclass(frozen=True)
class AuditReport:
    jacobi_ok: bool
    solvable: bool
    nilpotent: bool
    unimodular: bool
    derived_series_dims: tuple
    lower_central_dims: tuple
    jacobi_witness: Optional[tuple] = None


def trace_form(L: LieAlgebra) -> OneForm:
    """H(x) = tr(ad_x); vanishes on g' and detects unimodularity.
    H(e_i) = sum_k c[i, k, k], summed on the integer form of c."""
    cc, e = L.scaled_c
    return OneForm((np.trace(cc, axis1=1, axis2=2), e))


def is_unimodular(L: LieAlgebra) -> bool:
    return trace_form(L).is_zero()


def audit_algebra(L: LieAlgebra) -> AuditReport:
    jac = L.jacobi_defect()
    ds = tuple(t.dim for t in L.derived_series())
    lcs = tuple(t.dim for t in L.lower_central_series())
    return AuditReport(
        jacobi_ok=jac is None and L.antisymmetry_defect() is None,
        solvable=ds[-1] == 0,
        nilpotent=lcs[-1] == 0,
        unimodular=is_unimodular(L),
        derived_series_dims=ds,
        lower_central_dims=lcs,
        jacobi_witness=jac,
    )


def is_closed(L: LieAlgebra, theta: OneForm) -> bool:
    """A left-invariant 1-form is closed iff it vanishes on g'; decided
    once per (L, theta) and kept with L, keyed by the content key of
    theta."""
    _check_dims(L.dim, theta)
    t, der = theta.scaled_coeffs[0], L.derived_algebra.scaled_basis[0]
    return memoised(L, "_is_closed", theta.key, lambda: not t.dot(der).any())


@dataclass(frozen=True)
class SubspaceReport:
    is_subalgebra: bool
    is_ideal: bool
    is_abelian: bool
    orthogonal_complement: Subspace
    in_centre_of_derived: bool


def subspace_predicates(L: LieAlgebra, G: Metric, U: Subspace) -> SubspaceReport:
    uu = L.bracket_span(U, U)
    return SubspaceReport(
        is_subalgebra=U.contains_space(uu),
        is_ideal=U.contains_space(L.bracket_span(Subspace.full(L.dim), U)),
        is_abelian=uu.dim == 0,
        orthogonal_complement=U.orthogonal_complement(G),
        in_centre_of_derived=L.centre_of_derived.contains_space(U),
    )


@dataclass(frozen=True)
class AlmostAbelianPresentation:
    """g = R b |x k with k a codimension-1 abelian ideal and b _|_ k.

    ``b`` is the primitive integer vector G-orthogonal to the ideal, first
    nonzero entry positive; it is rescaled to unit G-norm only when that
    norm is a rational square (``unit`` records which), since exact
    arithmetic cannot normalise otherwise.  ad_b on the canonical basis of
    the ideal is held as its reduced integer form ``scaled_matrix``, and
    ``matrix`` is its read-only ``Fraction`` view, made on first read.
    """

    b: np.ndarray
    b_norm_sq: Fraction
    unit: bool
    ideal: Subspace
    scaled_matrix: tuple

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = ex.unscaled(*self.scaled_matrix)
        matrix.setflags(write=False)
        return matrix


def _is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    return (
        isqrt(q.numerator) ** 2 == q.numerator
        and isqrt(q.denominator) ** 2 == q.denominator
    )


def _sqrt_fraction(q: Fraction) -> Fraction:
    return Fraction(isqrt(q.numerator), isqrt(q.denominator))


def _presentation_from_ideal(L, G, ideal: Subspace) -> AlmostAbelianPresentation:
    """The presentation on the integer forms of the complement, G and c:
    b = v / s with v primitive and s = 1 or the rational square root of
    v.G.v, and ad_b on the ideal from one integer solve."""
    # the first nonzero entry of a canonical basis column is its pivot,
    # which is positive (it is 1 in the reduced echelon form)
    v = ideal.orthogonal_complement(G).scaled_basis[0][:, 0]
    v = v // gcd(*v.tolist())
    gg, dg = G.scaled_gram
    nsq = Fraction(v.dot(gg).dot(v), dg)
    unit = _is_square(nsq)
    s = ex.ONE
    if unit and nsq != 1:
        s, nsq = _sqrt_fraction(nsq), ex.ONE
    b = ex.unscaled(v * s.denominator, s.numerator)
    # ideal.basis X = [b, ideal.basis] with ideal.basis = iu / du and
    # c = cc / e: iu X = int_brackets(v, iu) / (s e)
    iu = ideal.scaled_basis[0]
    x, d = ex.int_solve(iu, L.int_brackets(v.reshape(-1, 1), iu, mv=ideal.basis_max))
    mm, dm = ex.reduced(x * s.denominator, d * s.numerator * L.scaled_c[1])
    mm.setflags(write=False)
    return AlmostAbelianPresentation(b, nsq, unit, ideal, (mm, dm))


# the ideal of an abelian algebra: every hyperplane is one, and the metric
# picks it (the G-orthocomplement of e1)
_ANY_HYPERPLANE = "any hyperplane"


def _almost_abelian_ideal(L: LieAlgebra):
    """A codimension-1 abelian ideal of L as a Subspace, ``_ANY_HYPERPLANE``
    when L is abelian, or None when there is none.  It does not depend on
    a metric, so it is found once per algebra and kept with it."""
    return memoised(L, "_almost_abelian_ideal", None, lambda: _find_almost_abelian_ideal(L))


def _find_almost_abelian_ideal(L: LieAlgebra):
    """The body of :func:`_almost_abelian_ideal`: a finite, complete case
    analysis (rather than a search over the infinitely many hyperplanes).
    Any codimension-1 ideal contains g', so candidates are preimages of
    hyperplanes in g/g'.

    * g' must be abelian, and any abelian codim-1 ideal lies in the
      centraliser C of g'.  If dim C = n-1 the only candidate is C
      itself; if dim C < n-1 there is none.
    * If C = g, the bracket descends to a vector-valued skew form on
      g/g'; an abelian hyperplane is exactly a totally isotropic one.
      Each nonzero component of the form must have rank 2 and its kernel
      must be contained in the hyperplane, which pins the hyperplane down
      to either a single candidate or a kernel plus an arbitrary line in
      a 2-plane (any line works; the first one is taken).
    """
    n = L.dim
    der = L.derived_algebra
    if der.dim == 0:
        return _ANY_HYPERPLANE
    if L.bracket_span(der, der).dim != 0:
        return None  # g' not abelian
    cent = L.centraliser(der)
    if cent.dim < n - 1:
        return None
    if cent.dim == n - 1:
        abelian = cent.contains_space(der) and L.bracket_span(cent, cent).dim == 0
        return cent if abelian else None
    # C = g: g' is central.  Work on a complement of g' in g; columns of
    # lift = q^T (q q^T)^-1 map to the standard basis of g/g' under the rows
    # q that annihilate g', both integer and up to a scale no test reads.
    d = der.scaled_basis[0]
    q = ex.int_nullspace(d.T)[0].T
    lift = q.T.dot(ex.int_inv(q.dot(q.T))[0])
    m = q.shape[0]
    # s[k] = skew m x m matrix of the g'_k component of the bracket on g/g'
    coords, _ = ex.int_solve(d, L.int_brackets(lift, lift))
    nonzero = [s for s in coords.reshape(der.dim, m, m) if s.any()]
    if not nonzero:
        # bracket vanishes identically on the complement: cannot happen
        # here since g' != 0 is generated by these values
        return None
    kernels = []
    for s in nonzero:
        ker, _ = ex.int_nullspace(s)
        if m - ker.shape[1] > 2:
            return None
        kernels.append(ker)
    # the hyperplane of g/g' must contain the sum of the kernels
    ksum = Subspace.of_columns(np.concatenate(kernels, axis=1))
    if ksum.dim >= m:
        return None
    h = ksum.scaled_basis[0]
    if ksum.dim == m - 1:
        # single candidate; check total isotropy
        for s in nonzero:
            if h.T.dot(s).dot(h).any():
                return None
    else:
        # all kernels coincide (dim m-2); any line in a complement works
        extra = next(e for e in np.eye(m, dtype=object) if not ex.int_span_contains(h, e.reshape(-1, 1)))
        h = np.concatenate([h, extra.reshape(-1, 1)], axis=1)
    return Subspace.of_columns(np.concatenate([d, lift.dot(h)], axis=1))


def almost_abelian_presentation(
    L: LieAlgebra, G: Metric
) -> Optional[AlmostAbelianPresentation]:
    """g = R b |x k for a codimension-1 abelian ideal k, if one exists.

    The ideal is found once per algebra, without the metric
    (:func:`_almost_abelian_ideal`); for abelian L it is the
    G-orthocomplement of e1.  G then fixes b, its norm and ad_b, made on
    integers (:func:`_presentation_from_ideal`).
    """
    ideal = _almost_abelian_ideal(L)
    if ideal is None:
        return None
    if ideal is _ANY_HYPERPLANE:
        e1 = np.eye(L.dim, 1, dtype=object)
        ideal = Subspace.of_columns(e1).orthogonal_complement(G)
    return _presentation_from_ideal(L, G, ideal)
