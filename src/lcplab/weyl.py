"""Levi-Civita and Weyl connections of a metric Lie algebra, exactly.

The Levi-Civita connection is determined by the Koszul identity

    g(nabla_x y, z) = (g([x,y],z) - g([x,z],y) - g([y,z],x)) / 2,

and the Weyl connection of a closed 1-form theta adds the conformal
correction theta(x) y + theta(y) x - g(x, y) theta^sharp.  Connections
are stored densely as one matrix per basis direction; the supported
envelope is dim <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact as ex
from .algebra import MAX_DIM, LieAlgebra, Metric, OneForm, is_closed
from .errors import EnvelopeExceeded, NonClosedLeeForm


@dataclass(frozen=True)
class Connection:
    """gamma[i] is the matrix of nabla_{e_i}; columns are nabla_{e_i} e_j."""

    gamma: tuple

    @property
    def dim(self) -> int:
        return self.gamma[0].shape[0]

    def of(self, x: np.ndarray) -> np.ndarray:
        """Matrix of nabla_x by linearity in x: one contraction with the
        stacked gamma."""
        n = self.dim
        return ex.dot(x, np.stack(self.gamma).reshape(n, n * n)).reshape(n, n)

    def nabla(self, x, y) -> np.ndarray:
        return ex.dot(self.of(x), y)

    def torsion_defect(self, L: LieAlgebra):
        """First basis pair where nabla_x y - nabla_y x != [x, y]."""
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                d = self.gamma[i][:, j] - self.gamma[j][:, i] - L.c[i, j, :]
                if not ex.is_zero(d):
                    return (i, j)
        return None


def _check_dim(n: int):
    if n > MAX_DIM:
        raise EnvelopeExceeded(f"connections support dim <= {MAX_DIM}, got {n}")


def levi_civita(L: LieAlgebra, G: Metric) -> Connection:
    """Connection matrices from the Koszul identity, solved exactly:
    K[i, j, k] = g(nabla_{e_i} e_j, e_k), so gamma[i] = G^-1 K[i]^T."""
    _check_dim(L.dim)
    n = L.dim
    # gc[i, j, k] = g([e_i, e_j], e_k)
    gc = ex.dot(L.c.reshape(n * n, n), G.gram).reshape(n, n, n)
    k = (gc - gc.transpose(0, 2, 1) - gc.transpose(2, 0, 1)) / 2
    # every gamma[i] = G^-1 K[i]^T in one product: column (i, j) is K[i, j, :]
    gam = ex.dot(G.inverse, k.transpose(2, 0, 1).reshape(n, n * n)).reshape(n, n, n)
    return Connection(tuple(np.ascontiguousarray(gam.transpose(1, 0, 2))))


def weyl_connection(L: LieAlgebra, G: Metric, theta: OneForm) -> Connection:
    """nabla^theta = nabla^g + theta(x) y + theta(y) x - g(x,y) theta^sharp.

    Requires theta closed (theta vanishing on g'); the resulting
    connection satisfies gamma[i] - theta(e_i) Id in so(g, G) for all i.
    """
    if not is_closed(L, theta):
        raise NonClosedLeeForm("theta does not vanish on the derived algebra")
    lc = levi_civita(L, G)
    sharp = G.sharp(theta)
    t = theta.coeffs
    eye = ex.reye(L.dim)
    return Connection(
        tuple(
            lc.gamma[i] + t[i] * eye + np.outer(eye[:, i], t) - np.outer(sharp, G.gram[i])
            for i in range(L.dim)
        )
    )


@dataclass(frozen=True)
class Curvature:
    """r[i][j] is the endomorphism R_{e_i, e_j}; antisymmetric in (i, j)."""

    r: tuple

    @property
    def dim(self) -> int:
        return len(self.r)

    def at(self, x, y) -> np.ndarray:
        """R_{x,y} by bilinearity: one contraction of x (x) y with the table."""
        n = self.dim
        xy = np.outer(np.asarray(x, dtype=object), np.asarray(y, dtype=object))
        table = np.stack(sum(self.r, ())).reshape(n * n, n * n)
        return ex.dot(xy.ravel(), table).reshape(n, n)


def curvature(L: LieAlgebra, conn: Connection) -> Curvature:
    """R_{x,y} = [nabla_x, nabla_y] - nabla_{[x,y]}, on basis pairs.

    One pass on integers: with gamma = g / d and c = cc / e over common
    denominators, e d^2 R_ij = e (g_i g_j - g_j g_i) - d sum_k cc_ijk g_k,
    and each entry of R is divided out once.
    """
    n = L.dim
    g, d = ex.scaled(np.stack(conn.gamma))  # g[i] = d gamma[i]
    cc, e = ex.scaled(L.c)
    # prod[i, j] = g_i g_j and lin[i, j] = sum_k cc_ijk g_k, for all pairs
    prod = g.reshape(n * n, n).dot(g.transpose(1, 0, 2).reshape(n, n * n))
    prod = prod.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    lin = cc.reshape(n * n, n).dot(g.reshape(n, n * n)).reshape(n, n, n, n)
    iu, ju = np.triu_indices(n, 1)
    num = e * (prod[iu, ju] - prod[ju, iu]) - d * lin[iu, ju]
    den = e * d * d
    zero = ex.rzeros((n, n))
    table = [[zero for _ in range(n)] for _ in range(n)]
    for i, j, m in zip(iu, ju, num):
        m = ex.unscaled(m, den)
        table[i][j] = m
        table[j][i] = -m
    return Curvature(tuple(tuple(row) for row in table))


def weyl_geometry(L: LieAlgebra, G: Metric, theta: OneForm) -> tuple[Connection, Curvature]:
    """The Weyl connection of theta and its curvature, built once per
    (L, G, theta) and kept with L.

    The memo is keyed by the exact entries of the Gram matrix and of
    theta, so equal metrics built separately share one entry; it lives in
    the instance dictionary of L, as ``ad_basis`` does, and goes with it.
    The shared matrices are read-only.
    """
    memo = vars(L).setdefault("_weyl_geometry", {})
    key = (tuple(G.gram.flat), tuple(theta.coeffs.flat))
    if key not in memo:
        conn = weyl_connection(L, G, theta)
        curv = curvature(L, conn)
        for m in conn.gamma + sum(curv.r, ()):
            m.setflags(write=False)
        memo[key] = (conn, curv)
    return memo[key]


def skew_defect(G: Metric, m: np.ndarray):
    """G m + m^T G, the obstruction to m being G-skew-symmetric."""
    gm = ex.dot(G.gram, m)
    return gm + gm.T


def is_g_skew(G: Metric, m: np.ndarray) -> bool:
    return ex.is_zero(skew_defect(G, m))
