"""Levi-Civita and Weyl connections of a metric Lie algebra, exactly.

The Levi-Civita connection is determined by the Koszul identity

    g(nabla_x y, z) = (g([x,y],z) - g([x,z],y) - g([y,z],x)) / 2,

and the Weyl connection of a closed 1-form theta adds the conformal
correction theta(x) y + theta(y) x - g(x, y) theta^sharp.  Both terms
are one integer pass over one denominator (:func:`weyl_connection`),
and the Levi-Civita connection is its theta = 0 case.  Connections and
curvatures are stored densely, as integer tables over one common
denominator, reduced once with their bound; the ``Fraction`` matrices, one per basis
direction or pair, are made when first read.  Algebras past the
supported envelope, dim <= 16, are refused when they are built.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import exact as ex
from .algebra import LieAlgebra, Metric, OneForm, _check_dims, is_closed, memoised
from .errors import NonClosedLeeForm


class Connection:
    """gamma[i] is the matrix of nabla_{e_i}; columns are nabla_{e_i} e_j.

    Held as integers over one common denominator, gamma[i] == g[i] / d,
    with the bound ``g_max == max|g|`` (``ex.held_table``: ``g`` may be
    the int64 table of the pass that made it, or Python ints); the
    read-only ``Fraction`` matrices are made on first read of ``gamma``.
    """

    def __init__(self, g: np.ndarray, d: int):
        self.g, self.d, self.g_max = ex.held_table(g, d)
        self.g.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @cached_property
    def gamma(self) -> tuple:
        gam = ex.unscaled(self.g, self.d)
        gam.setflags(write=False)
        return tuple(gam)

    def of(self, x: np.ndarray) -> np.ndarray:
        """Matrix of nabla_x by linearity in x: one contraction with the
        stacked gamma."""
        n = self.dim
        ix, dx = ex.scaled(x)
        return ex.unscaled(ix.dot(self.g.reshape(n, n * n)), dx * self.d).reshape(n, n)


def levi_civita(L: LieAlgebra, G: Metric) -> Connection:
    """The Levi-Civita connection: the Weyl connection of theta = 0."""
    return weyl_connection(L, G, OneForm.zero(L.dim))


def weyl_connection(L: LieAlgebra, G: Metric, theta: OneForm) -> Connection:
    """nabla^theta = nabla^g + theta(x) y + theta(y) x - g(x,y) theta^sharp,
    with nabla^g_{e_i} = G^-1 K[i]^T, K[i, j, k] = g(nabla^g_{e_i} e_j, e_k)
    from the Koszul identity.  Requires theta closed (vanishing on g');
    then gamma[i] - theta(e_i) Id is in so(g, G) for all i.

    One pass on integers: with c = cc / e, G = gg / dg, G^-1 = gi / di,
    theta = t / dt and u = 2 e t, k2 = 2 e dg K is an integer table, and
    2 e dt dg di gamma[i] = dt gi k2[i]^T + dg di (u_i Id + e_i u^T) -
    (gi u) gg_i^T.  Its first term is at most 3 n^2 dt max|cc| max|gg|
    max|gi|, the rest n max|gi| max|u| max|gg| + 2 dg di max|u|, so the
    table is taken on int64 while their sum is below 2^63.
    """
    _check_dims(L.dim, G, theta)
    if not is_closed(L, theta):
        raise NonClosedLeeForm("theta does not vanish on the derived algebra")
    n = L.dim
    (cc, e), (gg, dg), (gi, di) = L.scaled_c, G.scaled_gram, G.scaled_inverse
    t, dt = theta.scaled_coeffs
    mc, mg, mi, mu = L.c_max, G.gram_max, G.inverse_max, 2 * e * theta.coeffs_max
    k = dg * di
    bound = max(mc, mg, mi, dt, k * mu, 3 * n * n * dt * mc * mg * mi + n * mi * mu * mg + 2 * k * mu)
    # the correction's scalars go into u while it is Python ints, so theta
    # = 0 takes the int64 path whenever the Koszul table alone can
    u = t * (2 * e)
    cc, gg, gi, u, ku = ex.int64_within(bound, cc, gg, gi, u, u * k)
    # gc[i, j, k] = e dg g([e_i, e_j], e_k), and k2 = 2 e dg K
    gc = cc.reshape(n * n, n).dot(gg).reshape(n, n, n)
    k2 = gc - gc.transpose(0, 2, 1) - gc.transpose(2, 0, 1)
    # every gi k2[i]^T in one product: column (i, j) is K[i, j, :]
    gam = gi.dot(k2.transpose(2, 0, 1).reshape(n, n * n)).reshape(n, n, n)
    num = np.ascontiguousarray((gam * dt - np.multiply.outer(gi.dot(u), gg)).transpose(1, 0, 2))
    idx = np.arange(n)
    num[idx, idx, :] += ku
    num[:, idx, idx] += ku[:, None]
    return Connection(num, 2 * e * dt * k)


class Curvature:
    """r[i][j] is the endomorphism R_{e_i, e_j}; antisymmetric in (i, j).

    Held as the integer table ``num`` over one denominator ``den``:
    R_{e_i, e_j} == num[p] / den for the p-th pair i < j of
    ``np.triu_indices(n, 1)``, with the bound ``num_max == max|num|``
    (``ex.held_table``, as ``Connection``); the read-only ``Fraction``
    table is made on first read of ``r``.
    """

    def __init__(self, num: np.ndarray, den: int):
        self.num, self.den, self.num_max = ex.held_table(num, den)
        self.num.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.num.shape[1]

    @cached_property
    def r(self) -> tuple:
        n = self.dim
        pos = ex.unscaled(self.num, self.den)
        neg = ex.unscaled(-self.num, self.den)
        zero = ex.rzeros((n, n))
        for m in (pos, neg, zero):
            m.setflags(write=False)
        table = [[zero for _ in range(n)] for _ in range(n)]
        for p, (i, j) in enumerate(zip(*np.triu_indices(n, 1))):
            table[i][j], table[j][i] = pos[p], neg[p]
        return tuple(tuple(row) for row in table)

    def at(self, x, y) -> np.ndarray:
        """R_{x,y} by bilinearity: sum over pairs i < j of
        (x_i y_j - x_j y_i) R_ij, one contraction with the table."""
        n = self.dim
        xy = np.outer(np.asarray(x, dtype=object), np.asarray(y, dtype=object))
        iu, ju = np.triu_indices(n, 1)
        w, dw = ex.scaled(xy[iu, ju] - xy[ju, iu])
        return ex.unscaled(w.dot(self.num.reshape(len(iu), n * n)), dw * self.den).reshape(n, n)


def curvature(L: LieAlgebra, conn: Connection) -> Curvature:
    """R_{x,y} = [nabla_x, nabla_y] - nabla_{[x,y]}, on basis pairs.

    One pass on integers: with gamma = g / d and c = cc / e over common
    denominators, e d^2 R_ij = e (g_i g_j - g_j g_i) - d sum_k cc_ijk g_k,
    at most n max|g| (2 e max|g| + d max|cc|) in absolute value, so the
    pass is on int64 while that is below 2^63.
    """
    n = L.dim
    (g, d), (cc, e) = (conn.g, conn.d), L.scaled_c
    mg, mc = conn.g_max, L.c_max
    bound = max(mg, mc, e, d, n * mg * (2 * e * mg + d * mc))
    g, cc = ex.int64_within(bound, g, cc)
    # prod[i, j] = g_i g_j and lin[i, j] = sum_k cc_ijk g_k, for all pairs
    prod = g.reshape(n * n, n).dot(g.transpose(1, 0, 2).reshape(n, n * n))
    prod = prod.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    lin = cc.reshape(n * n, n).dot(g.reshape(n, n * n)).reshape(n, n, n, n)
    iu, ju = np.triu_indices(n, 1)
    num = e * (prod[iu, ju] - prod[ju, iu]) - d * lin[iu, ju]
    return Curvature(num, e * d * d)


def weyl_geometry(L: LieAlgebra, G: Metric, theta: OneForm) -> tuple[Connection, Curvature]:
    """The Weyl connection of theta and its curvature, built once per
    (L, G, theta) and kept with L.

    The memo (``algebra.memoised``) is keyed by the content keys of the
    Gram matrix and of theta, so equal metrics built separately share one
    entry.  Both are read-only.
    """

    def make():
        conn = weyl_connection(L, G, theta)
        return conn, curvature(L, conn)

    return memoised(L, "_weyl_geometry", (G.key, theta.key), make)

