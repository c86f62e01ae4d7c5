"""The one shared test module: seeded random exact inputs, bases of Q^n,
fixed inputs and ``Fraction``-array references.  A helper that more than
one test module uses is defined here, and test modules import nothing
from each other (``test_imports.py`` checks it).

Random Lie algebras are drawn from families where the Jacobi identity
holds by construction (almost abelian, semidirect sums, nilpotent
two-step), since arbitrary random structure constants are essentially
never Lie algebras.  Metrics are A^T A + I for a random small-entry A,
which is positive definite by construction; Lee forms are random
covectors annihilating the derived algebra.

The references compute entry by entry or on ``Fraction`` arrays, each
against the ``lcplab`` code it checks:

- ``ref_det``: ``exact.det`` and ``intpoly.int_det``;
- ``ref_block_diag``: ``exact.block_diag``, and the assemblies below;
- ``ref_ad_stack``, ``ref_brackets``, ``ref_bracket_span``: ``LieAlgebra.ad``,
  ``brackets``, ``bracket``, ``int_brackets``, ``bracket_span`` and
  ``derived_algebra``;
- ``ref_centraliser``: ``LieAlgebra.centraliser`` and ``centre``;
- ``ref_jacobi_defect``: ``LieAlgebra.jacobi_defect``;
- ``ref_levi_civita``: ``weyl.levi_civita`` (the Koszul formula);
- ``ref_curvature``: ``weyl.curvature``;
- ``rank_types``: ``lattice._jordan_types``;
- ``ref_semidirect``, ``ref_direct``, ``ref_amalgam`` (with
  ``ref_line_algebra``): ``construct.semidirect_lcp``, ``almab_lcp``,
  ``flag_lcp``, ``direct_product`` and ``amalgamated_product``, as
  ``random_structure`` pairs them.

Lattice inputs are block-diagonal matrices (``jordan``, ``direct_sum``,
``rotation_blocks``) under a change of basis P D P^-1 (``conjugate``, or
the strategy ``conjugated`` that draws P), P a
fixed near-identity basis (``near_identity``), a dense rational one
(``rational_basis``) or a product of elementary integer row operations
(``unimodular_basis``).  ``golden_lattice_cases`` are the inputs of
``data/golden_lattice.txt``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from lcplab import exact as ex
from lcplab.algebra import LieAlgebra, Metric, OneForm, Subspace, trace_form
from lcplab.construct import (
    OrthoRep,
    almab_lcp,
    amalgamated_product,
    direct_product,
    flag_lcp,
    metric_modification,
    semidirect_lcp,
)

F = Fraction
FIXTURES = Path(__file__).parent.parent / "src" / "lcplab" / "fixtures"
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


# ---------------------------------------------------------------------------
# Fraction-array kernels and comparisons
# ---------------------------------------------------------------------------


def dot(a, b):
    """Exact product of 1-d or 2-d rational arrays, as ``a.dot(b)``: one
    integer product over the two common denominators, then one
    ``Fraction`` per result entry; a 1-d by 1-d product is a scalar."""
    ia, da = ex.scaled(a)
    ib, db = ex.scaled(b)
    return ex.unscaled(ia.dot(ib), da * db)


def reye(n: int) -> np.ndarray:
    m = ex.rzeros((n, n))
    for i in range(n):
        m[i, i] = ex.ONE
    return m


def rank(m) -> int:
    return len(ex.rref(m)[1])


def left_nullspace(m) -> np.ndarray:
    """Matrix Q (rows) with Q m = 0 and rank(Q) = rows - rank(m)."""
    return ex.nullspace(m.T).T


def inv(a) -> np.ndarray:
    ints, den = ex.scaled(a)
    inv_ints, d = ex.int_inv(ints)
    return ex.unscaled(inv_ints * den, d)


def to_float(a) -> np.ndarray:
    return np.asarray(a, dtype=object).astype(np.float64)


def trace_free_float(a, bits: int = 40) -> np.ndarray:
    """A float twin whose held trace is exactly 0: ``to_float(a)`` with its
    diagonal rounded to multiples of 2^-bits and the last diagonal entry
    minus the sum of the others (sums on that grid are exact floats)."""
    f = to_float(a)
    n = len(f)
    diag = np.round(f.diagonal() * 2.0**bits) / 2.0**bits
    diag[-1] = -diag[:-1].sum()
    f[range(n), range(n)] = diag
    assert sum(Fraction(x) for x in f.diagonal()) == 0
    return f


def is_pos_def(g) -> bool:
    """Sylvester's criterion for a symmetric rational matrix, on its
    integer numerators."""
    return ex.int_is_pos_def(ex.scaled(g)[0])


def ad_basis(L: LieAlgebra) -> tuple:
    """ad_{e_i} as views of c; column j is [e_i, e_j]."""
    return tuple(L.c[i, :, :].T for i in range(L.dim))


def norm_sq(G: Metric, x) -> Fraction:
    return G.inner(x, x)


def skew_defect(G: Metric, m: np.ndarray):
    """G m + m^T G, the obstruction to m being G-skew-symmetric."""
    gm = dot(G.gram, m)
    return gm + gm.T


def is_g_skew(G: Metric, m: np.ndarray) -> bool:
    return ex.is_zero(skew_defect(G, m))


def torsion_defect(conn, L: LieAlgebra):
    """First basis pair where nabla_x y - nabla_y x != [x, y], or None."""
    n = conn.dim
    for i in range(n):
        for j in range(i + 1, n):
            d = conn.gamma[i][:, j] - conn.gamma[j][:, i] - L.c[i, j, :]
            if not ex.is_zero(d):
                return (i, j)
    return None


def all_fractions(a) -> bool:
    return all(type(x) is Fraction for x in np.asarray(a, dtype=object).flat)


def same(a, b) -> bool:
    """Equal shapes and values, and a ``Fraction`` in every entry of a."""
    return all_fractions(a) and np.array_equal(a, b)


def same_span(got, want) -> bool:
    """Equal ``Subspace``s with the same canonical basis, of Fractions."""
    return got == want and same(got.basis, want.basis)


def counting(monkeypatch, name) -> list:
    """The argument tuples of every call of ``exact.<name>`` from now on."""
    calls = []
    fn = getattr(ex, name)
    monkeypatch.setattr(ex, name, lambda *a: calls.append(a) or fn(*a))
    return calls


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def ref_det(rows):
    """Gaussian elimination in ``Fraction`` arithmetic, on the rows of a
    list of lists or a 2-d array."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def ref_block_diag(a, b):
    """``a`` and ``b`` on the diagonal of a zero array, entry by entry."""
    out = ex.rzeros(tuple(i + j for i, j in zip(a.shape, b.shape)))
    for idx in np.ndindex(a.shape):
        out[idx] = a[idx]
    for idx in np.ndindex(b.shape):
        out[tuple(i + k for i, k in zip(idx, a.shape))] = b[idx]
    return out


def ref_ad_stack(L, u):
    """ad_{u_a} for every column u_a of u, stacked: p x n x n."""
    n, p = L.dim, u.shape[1]
    return u.T.dot(L.c.reshape(n, n * n)).reshape(p, n, n).transpose(0, 2, 1)


def ref_brackets(L, u, v):
    """[u_a, v_b] as the column a q + b, for the columns of u and v."""
    n, p, q = L.dim, u.shape[1], v.shape[1]
    w = ref_ad_stack(L, u).reshape(p * n, n).dot(v)
    return w.reshape(p, n, q).transpose(1, 0, 2).reshape(n, p * q)


def ref_bracket_span(L, u, v):
    """The Subspace spanned by the brackets of the columns of u and v."""
    return Subspace(ref_brackets(L, u, v), L.dim)


def ref_centraliser(L, u):
    """The Subspace of x with [x, u_a] = 0 for every column u_a."""
    n, p = L.dim, u.shape[1]
    return Subspace(ex.nullspace(ref_ad_stack(L, u).reshape(p * n, n)), n)


def ref_jacobi_defect(L):
    """The first triple i < j < k whose Jacobi sum is not 0, or None."""
    n = L.dim
    ad = [L.c[i, :, :].T for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = ad[i].dot(L.c[j, k, :]) + ad[j].dot(L.c[k, i, :]) + ad[k].dot(L.c[i, j, :])
                if not ex.is_zero(s):
                    return (i, j, k)
    return None


def ref_levi_civita(L, G):
    """Gamma_i = nabla_{e_i} by the Koszul formula, 2 g(nabla_x y, z) =
    g([x, y], z) - g([x, z], y) - g([y, z], x), on ``Fraction`` arrays."""
    n = L.dim
    gc = L.c.reshape(n * n, n).dot(G.gram).reshape(n, n, n)
    k = (gc - gc.transpose(0, 2, 1) - gc.transpose(2, 0, 1)) / 2
    gam = G.inverse.dot(k.transpose(2, 0, 1).reshape(n, n * n)).reshape(n, n, n)
    return list(gam.transpose(1, 0, 2))


def ref_curvature(L, gamma):
    """R(e_i, e_j) = [Gamma_i, Gamma_j] - Gamma_[e_i, e_j], keyed (i, j),
    for i < j; R(e_j, e_i) = -R(e_i, e_j) and R(e_i, e_i) = 0."""
    n = L.dim
    r = {(i, i): ex.rzeros((n, n)) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            m = gamma[i].dot(gamma[j]) - gamma[j].dot(gamma[i])
            for k in range(n):
                if L.c[i, j, k] != 0:
                    m = m - L.c[i, j, k] * gamma[k]
            r[i, j], r[j, i] = m, -m
    return r


def rank_types(ints, roots):
    """The Jordan types of an integer matrix from exact ranks at every
    root, simple ones included: r_(j-1) - r_j blocks of size >= j."""
    n = len(ints)
    eye = np.eye(n, dtype=int).astype(object)
    types = {}
    for k, mult in roots:
        shifted, power, ranks = ints - k * eye, eye, [n]
        while ranks[-1] > n - mult:
            power = shifted.dot(power)
            ranks.append(rank(power))
        at_least = [a - b for a, b in zip(ranks, ranks[1:])]
        types[k] = [sum(1 for c in at_least if c >= i) for i in range(1, at_least[0] + 1)]
    return types


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def ref_semidirect(h, h_metric, beta):
    """(c, gram, theta, flat basis) of h |x_alpha R^q, one alpha_i at a
    time and its brackets entry by entry."""
    H = trace_form(h).coeffs
    m, q = h.dim, beta.dim_target
    c = ref_block_diag(h.c, ex.rzeros((q, q, q)))
    for i in range(m):
        alpha_i = -(H[i] / q) * reye(q) + beta.images[i]
        for j in range(q):
            for k in range(q):
                c[i, m + j, m + k] = alpha_i[k, j]
                c[m + j, i, m + k] = -alpha_i[k, j]
    return (
        c,
        ref_block_diag(h_metric.gram, reye(q)),
        ref_block_diag(-H / q, ex.rzeros(q)),
        ref_block_diag(ex.rzeros((m, 0)), reye(q)),
    )


def ref_line_algebra(cols, dim):
    """R b |x R^(dim-1) with [b, e_j] the j-th of ``cols``."""
    return LieAlgebra.from_brackets(
        dim, {(0, 1 + j): np.concatenate([ex.rzeros(1), col]) for j, col in enumerate(cols)}
    )


def ref_direct(S, k, k_metric):
    return (
        ref_block_diag(S.algebra.c, k.c),
        ref_block_diag(S.metric.gram, k_metric.gram),
        ref_block_diag(S.theta.coeffs, ex.rzeros(k.dim)),
        ref_block_diag(S.flat.basis, ex.rzeros((k.dim, 0))),
    )


def ref_amalgam(S1, S2):
    c12 = ref_block_diag(S1.algebra.c, S2.algebra.c)
    gram12 = ref_block_diag(S1.metric.gram, S2.metric.gram)
    t1s, t2s = S1.metric.sharp(S1.theta), S2.metric.sharp(S2.theta)
    v = np.concatenate([S2.theta(t2s) * t1s, S1.theta(t1s) * t2s])
    kers = ref_block_diag(*(ex.nullspace(s.theta.coeffs.reshape(1, -1)) for s in (S1, S2)))
    basis = np.concatenate([v.reshape(-1, 1), kers], axis=1)
    theta = dot(ref_block_diag(S1.theta.coeffs, ex.rzeros(S2.algebra.dim)), basis)
    flat = ex.solve(basis, ref_block_diag(S1.flat.basis, S2.flat.basis))
    return (
        LieAlgebra(c12, check=False).restrict(basis).c,
        dot(basis.T, dot(gram12, basis)),
        theta,
        flat,
    )


# ---------------------------------------------------------------------------
# fixed inputs
# ---------------------------------------------------------------------------


def e11() -> LieAlgebra:
    """e(1,1): [e1, e2] = e2, [e1, e3] = -e3."""
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, -1]})


# ---------------------------------------------------------------------------
# seeded random inputs
# ---------------------------------------------------------------------------


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def small_fraction(r: random.Random, max_num: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(r.randint(-max_num, max_num), r.randint(1, max_den))


def random_matrix(r: random.Random, rows: int, cols: int) -> np.ndarray:
    return ex.rmat([[small_fraction(r) for _ in range(cols)] for _ in range(rows)])


def random_invertible(r: random.Random, k: int) -> np.ndarray:
    """A random invertible k x k rational matrix."""
    while True:
        t = random_matrix(r, k, k)
        if rank(t) == k:
            return t


def random_metric(r: random.Random, n: int) -> Metric:
    a = ex.rzeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = Fraction(r.randint(-1, 1), r.randint(1, 2))
    return Metric(a.T.dot(a) + reye(n))


def random_almost_abelian(r: random.Random, n: int, trace_free: bool = False) -> LieAlgebra:
    """R b |x R^{n-1} with a random rational action matrix."""
    k = n - 1
    c = [[small_fraction(r) for _ in range(k)] for _ in range(k)]
    if trace_free:
        s = sum(c[i][i] for i in range(k))
        c[k - 1][k - 1] -= s
    brackets = {}
    for j in range(k):
        col = [ex.ZERO] + [c[i][j] for i in range(k)]
        brackets[(0, 1 + j)] = col
    return LieAlgebra.from_brackets(n, brackets)


def random_two_step_nilpotent(r: random.Random, n: int) -> LieAlgebra:
    """[x, y] lands in a central tail of dimension n - m."""
    m = max(2, n - r.randint(1, max(1, n - 2)))
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            col = ex.rzeros(n)
            for k in range(m, n):
                col[k] = small_fraction(r, 2, 2)
            if not ex.is_zero(col):
                brackets[(i, j)] = col
    if not brackets:
        return LieAlgebra.abelian(n)
    return LieAlgebra.from_brackets(n, brackets)


def random_algebra(r: random.Random, n: int) -> LieAlgebra:
    kind = r.randrange(4)
    if kind == 0:
        return LieAlgebra.abelian(n)
    if kind == 1 and n >= 3:
        return random_two_step_nilpotent(r, n)
    if kind == 2 and n >= 4:
        split = r.randint(2, n - 2)
        return random_almost_abelian(r, split).direct_sum(
            random_algebra(r, n - split)
        )
    return random_almost_abelian(r, n)


def drawn_algebra(seed: int, n: int, kind: str) -> LieAlgebra:
    """An almost abelian, abelian or two-step nilpotent algebra, in a
    random rational basis when ``kind`` ends in "basis"."""
    r = rng(seed)
    if kind == "abelian":
        return LieAlgebra.abelian(n)
    L = random_almost_abelian(r, n) if kind.startswith("almab") else random_two_step_nilpotent(r, n)
    return L.restrict(random_invertible(r, n)) if kind.endswith("basis") else L


def transport(L: LieAlgebra, P) -> LieAlgebra:
    """L in the basis P e_i: [u, v]' = P [P^-1 u, P^-1 v]."""
    n, pinv = L.dim, inv(P)
    c = ex.rzeros((n, n, n))
    for i in range(n):
        for j in range(n):
            c[i, j, :] = P.dot(L.bracket(pinv[:, i], pinv[:, j]))
    return LieAlgebra(c)


def random_closed_form(r: random.Random, L: LieAlgebra) -> OneForm:
    """Random nonzero 1-form vanishing on g' (hence closed); None when g'
    is the whole algebra."""
    ann = left_nullspace(L.derived_algebra.basis)
    if ann.shape[0] == 0:
        return None
    for _ in range(64):
        coeffs = ex.rvec([small_fraction(r, 2, 2) for _ in range(ann.shape[0])])
        theta = OneForm(coeffs.dot(ann))
        if not theta.is_zero():
            return theta
    return OneForm(ann[0, :])


def random_triple(r: random.Random, n: int) -> tuple:
    """(L, G, theta): ``random_algebra``, ``random_metric`` and
    ``random_closed_form`` (None when g' = g), drawn in that order."""
    L = random_algebra(r, n)
    G = random_metric(r, n)
    return L, G, random_closed_form(r, L)


def random_skew(r: random.Random, q: int) -> np.ndarray:
    m = ex.rzeros((q, q))
    for i in range(q):
        for j in range(i + 1, q):
            v = small_fraction(r, 2, 2)
            m[i, j] = v
            m[j, i] = -v
    return m


def _trace_nonzero(r, p):
    while True:
        A = random_matrix(r, p, p)
        if sum(A[i, i] for i in range(p)) != 0:
            return A


def _random_almab(r):
    """Blocks of almab_lcp, q = 1 included, with its reference."""
    p, q = r.randint(1, 3), r.randint(1, 3)
    A, B = _trace_nonzero(r, p), random_skew(r, q)
    hm = random_metric(r, 1 + p) if r.random() < 0.5 else None
    h = ref_line_algebra([A[:, j] for j in range(p)], 1 + p)
    beta = OrthoRep.from_matrices(q, [B] + [ex.rzeros((q, q))] * p)
    want = ref_semidirect(h, hm or Metric.identity(1 + p), beta)
    return almab_lcp(A, B, hm), want


RECIPES = ["semidirect", "almab", "flag", "direct", "amalgam", "modify"]


def random_structure(r: random.Random, recipe: str):
    """(structure built by the constructor of ``recipe``, its reference
    assembly (c, gram, theta, flat basis))."""
    if recipe == "semidirect":
        m, q = r.randint(2, 4), r.randint(1, 3)
        h = random_almost_abelian(r, m)
        while trace_form(h).is_zero():
            h = random_almost_abelian(r, m)
        # beta vanishes on h' inside span(e_2, ..) when only e_1 acts
        beta = OrthoRep.from_matrices(q, [random_skew(r, q)] + [ex.rzeros((q, q))] * (m - 1))
        hm = random_metric(r, m)
        return semidirect_lcp(h, hm, beta), ref_semidirect(h, hm, beta)
    if recipe == "almab":
        return _random_almab(r)
    if recipe == "flag":
        p, q = r.randint(1, 2), r.randint(2, 3)
        A, B2 = _trace_nonzero(r, p), random_skew(r, q)
        while ex.is_zero(B2):
            B2 = random_skew(r, q)
        B1 = small_fraction(r) * B2
        v = ex.rvec([small_fraction(r) for _ in range(p)])
        cols = [np.concatenate([ex.rzeros(1), v])]
        cols += [np.concatenate([ex.rzeros(1), A[:, j]]) for j in range(p)]
        h = ref_line_algebra(cols, 2 + p)
        beta = OrthoRep.from_matrices(q, [B1, B2] + [ex.rzeros((q, q))] * p)
        return flag_lcp(A, B1, B2, v), ref_semidirect(h, Metric.identity(2 + p), beta)
    if recipe == "direct":
        S, _ = _random_almab(r)
        kd = r.randint(1, 3)
        k, km = random_algebra(r, kd), random_metric(r, kd)
        return direct_product(S, k, km), ref_direct(S, k, km)
    if recipe == "amalgam":
        S1, _ = _random_almab(r)
        if r.random() < 0.3:  # a degenerate factor: a zero-width flat block
            n2 = r.randint(3, 4)
            L2, G2 = LieAlgebra.abelian(n2), random_metric(r, n2)
            S2 = type(S1)(L2, G2, OneForm.dual(n2, 0), Subspace.zero(n2))
        else:
            S2, _ = _random_almab(r)
        return amalgamated_product(S1, S2), ref_amalgam(S1, S2)
    S, _ = _random_almab(r)
    lam = Fraction(r.randint(1, 4), r.randint(1, 3))
    t = S.theta.coeffs
    gram = S.metric.gram.copy()
    for i, j in np.ndindex(gram.shape):
        gram[i, j] += lam * t[i] * t[j]
    want = (S.algebra.c, gram, t, S.flat.basis)
    return metric_modification(S, lam), want


# ---------------------------------------------------------------------------
# lattice inputs: block-diagonal matrices under a change of basis
# ---------------------------------------------------------------------------


def jordan(k, a):
    return [[a if i == j else int(j == i + 1) for j in range(k)] for i in range(k)]


def direct_sum(blocks):
    """The square ``blocks`` (lists of rows) on the diagonal, as lists."""
    n = sum(len(b) for b in blocks)
    d = [[0] * n for _ in range(n)]
    i = 0
    for b in blocks:
        for r, row in enumerate(b):
            d[i + r][i : i + len(b)] = row
        i += len(b)
    return d


def rotation_blocks(blocks, reals=()):
    """[[p, -w], [w, p]] for each (p, w) of ``blocks`` (eigenvalues
    p +- iw), then the real eigenvalues ``reals``, as lists."""
    return direct_sum([[[p, -w], [w, p]] for p, w in blocks] + [[[x]] for x in reals])


def conjugate(p, d):
    """P D P^-1 on exact rationals."""
    p = ex.rmat(p)
    return dot(dot(p, ex.rmat(d)), inv(p))


@st.composite
def rational_basis(draw, n):
    """A dense rational basis P = L U of Q^n: unitriangular L and U with
    entries in (-3..3)/(1..3), so det P = 1."""
    q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    low, up = reye(n), reye(n)
    for i in range(n):
        for j in range(i):
            low[i, j], up[j, i] = draw(q), draw(q)
    return dot(low, up)


@st.composite
def unimodular_basis(draw, n, max_steps=None, multipliers=st.sampled_from([-1, 1])):
    """An integer basis U of det 1: up to ``max_steps`` (2n by default)
    elementary row operations u_i += k u_j, i != j, k drawn from
    ``multipliers``."""
    u = reye(n)
    for _ in range(draw(st.integers(0, 2 * n if max_steps is None else max_steps))):
        if n > 1:
            i = draw(st.integers(0, n - 1))
            j = draw(st.integers(0, n - 2))
            j += j >= i
            u[i] = u[i] + draw(multipliers) * u[j]
    return u


@st.composite
def conjugated(draw, d, basis):
    """P D P^-1 for D n x n and P drawn from ``basis(n)``."""
    return conjugate(draw(basis(len(d))), d)


# a near-identity rational basis change, as the benchmark's hyperbolic
# inputs use
P3 = [[1, F(1, 4), F(-1, 8)], [F(-3, 16), 1, F(1, 8)], [F(1, 16), F(-1, 4), 1]]
# rotation blocks (p, w) and real eigenvalues of the benchmark's
# lattice-search slots
COMPLEX_SPECTRA = {
    "c3": ([(F(1, 2), 1)], [-1]),
    "c4": ([(F(1, 2), 1)], [F(-1, 4), F(-3, 4)]),
    "c4b": ([(1, 1), (-1, 1)], []),
    "c5": ([(F(1, 3), 1), (F(1, 6), F(3, 2))], [-1]),
    "c6": ([(F(1, 2), 1), (F(-1, 4), 2), (F(-1, 4), F(1, 2))], []),
}


def near_identity(n):
    """P3 in the top-left corner (or its 2x2 corner for n = 2), identity
    elsewhere."""
    k = min(n, 3)
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(k):
        for j in range(k):
            p[i][j] = Fraction(P3[i][j])
    return p


def hyperbolic(n):
    """diag(1, -1) + 0 under ``near_identity``."""
    d = [[0] * n for _ in range(n)]
    d[0][0], d[1][1] = 1, -1
    return conjugate(near_identity(n), d)


def complex_spectrum(blocks, reals):
    """``rotation_blocks`` under ``near_identity``."""
    d = rotation_blocks(blocks, reals)
    return conjugate(near_identity(len(d)), d)


def golden_lattice_cases():
    """(label, C, t-range) of every line of ``data/golden_lattice.txt``."""
    for n in range(2, 7):
        yield f"hyperbolic-{n}", hyperbolic(n), (0.0, 3.0)
    for name, (blocks, reals) in COMPLEX_SPECTRA.items():
        yield f"complex-{name}", complex_spectrum(blocks, reals), (0.0, 2.0)
    yield "amalgam-4", np.diag([1.0, -1.0, 1.0, -1.0]) / math.sqrt(2), (0.0, 3.0)
    irrational = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    yield "irrational-derogatory-4", conjugate(near_identity(4), irrational), (0.0, 3.0)
    rotations = ex.rmat(rotation_blocks([(0, 1), (0, 1)]))
    yield "rotations-4", rotations, (0.0, 20.0)
    yield "diag-20", np.diag([20.0, -20.0, 0.0]), (0.0, 3.0)


def golden_lattice_case(label):
    """(C, t-range) of one golden line."""
    return next((c, t_range) for name, c, t_range in golden_lattice_cases() if name == label)
