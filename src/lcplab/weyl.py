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
        """Matrix of nabla_x by linearity in x."""
        x = np.asarray(x, dtype=object)
        m = ex.rzeros((self.dim, self.dim))
        for i, xi in enumerate(x):
            if xi != 0:
                m = m + xi * self.gamma[i]
        return m

    def nabla(self, x, y) -> np.ndarray:
        return self.of(x).dot(np.asarray(y, dtype=object))

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
    gc = np.tensordot(L.c, G.gram, ([2], [0]))  # gc[i, j, k] = g([e_i, e_j], e_k)
    k = (gc - gc.transpose(0, 2, 1) - gc.transpose(2, 0, 1)) / 2
    return Connection(tuple(G.inverse.dot(k[i].T) for i in range(L.dim)))


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
        x = np.asarray(x, dtype=object)
        y = np.asarray(y, dtype=object)
        n = self.dim
        m = ex.rzeros((n, n))
        for i in range(n):
            if x[i] == 0:
                continue
            for j in range(n):
                if y[j] != 0:
                    m = m + (x[i] * y[j]) * self.r[i][j]
        return m


def curvature(L: LieAlgebra, conn: Connection) -> Curvature:
    """R_{x,y} = [nabla_x, nabla_y] - nabla_{[x,y]}, on basis pairs."""
    n = L.dim
    zero = ex.rzeros((n, n))
    table = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        gi = conn.gamma[i]
        for j in range(i + 1, n):
            gj = conn.gamma[j]
            m = gi.dot(gj) - gj.dot(gi)
            for k in range(n):
                ck = L.c[i, j, k]
                if ck != 0:
                    m = m - ck * conn.gamma[k]
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
    gm = G.gram.dot(m)
    return gm + gm.T


def is_g_skew(G: Metric, m: np.ndarray) -> bool:
    return ex.is_zero(skew_defect(G, m))
