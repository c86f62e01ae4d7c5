"""Detection, verification and classification of LCP structures.

An LCP structure on a metric Lie algebra (g, G) is a nonzero closed
1-form theta together with a subspace u that is parallel and flat for
the Weyl connection of theta.  Verification follows the three-condition
characterisation:

  (1) u and its G-orthogonal complement are subalgebras;
  (2) the polarised bilinear identities
        g([u,x],y) + g([u,y],x) = 2 theta(u) g(x,y)   (x, y in u-perp)
        g([x,u],v) + g([x,v],u) = 2 theta(x) g(u,v)   (u, v in u)
      hold on basis pairs (polarisation makes the pointwise quadratic
      conditions exact and finite over arbitrary rational bases);
  (3) the curvature of the Weyl connection annihilates u.

Everything here is exact rational arithmetic; there are no tolerances.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import exact as ex
from .algebra import (
    LieAlgebra,
    Metric,
    OneForm,
    Subspace,
    _almost_abelian_ideal,
    _check_dims,
    is_closed,
    is_unimodular,
    memoised,
)
from .errors import (
    DimensionTooSmall,
    NonClosedLeeForm,
    PreconditionViolated,
    ZeroLeeForm,
)
from .weyl import weyl_geometry

DEGENERATE = "degenerate"
ADAPTED = "adapted"
NON_ADAPTED = "non_adapted"
CONFORMALLY_FLAT = "conformally_flat"


def _guard(L: LieAlgebra, G: Metric, theta: OneForm, *flat: Subspace):
    _check_dims(L.dim, G, theta, *flat)
    if L.dim < 3:
        raise DimensionTooSmall("LCP structures need dim >= 3")
    if theta.is_zero():
        raise ZeroLeeForm("the Lee form must be nonzero")
    if not is_closed(L, theta):
        raise NonClosedLeeForm("the Lee form must vanish on g'")


class Witness(NamedTuple):
    """A failed exact identity: which condition, on which basis indices,
    with the nonzero defect value."""

    condition: int
    indices: tuple
    defect: object

    def as_dict(self):
        return {
            "condition": self.condition,
            "indices": list(self.indices),
            "defect": str(self.defect),
        }


class VerificationReport(NamedTuple):
    subalgebras_ok: bool
    bilinear_ok: bool
    curvature_ok: bool
    witnesses: tuple = ()

    @property
    def passed(self) -> bool:
        return self.subalgebras_ok and self.bilinear_ok and self.curvature_ok

    def as_dict(self):
        return {
            "subalgebras_ok": self.subalgebras_ok,
            "bilinear_ok": self.bilinear_ok,
            "curvature_ok": self.curvature_ok,
            "passed": self.passed,
            "witnesses": [w.as_dict() for w in self.witnesses],
        }


def verify_lcp(L: LieAlgebra, G: Metric, theta: OneForm, U: Subspace) -> VerificationReport:
    """Exact check of conditions (1)-(3); a zero subspace passes vacuously.

    The report is made once per (L, G, theta, U) and kept with L, as
    ``weyl.weyl_geometry`` keeps the connection: the memo is keyed by the
    content keys of the Gram matrix, of theta and of the canonical basis
    of U, and the frozen report is shared.  The input checks (dimensions,
    dim L >= 3, theta nonzero and closed) run once per memo entry, before
    the report is made: a later lookup of the same keys has the same
    answers.
    """

    def make():
        _guard(L, G, theta, U)
        return _verify(L, G, theta, U) if U.dim else VerificationReport(True, True, True)

    return memoised(L, "_verify_lcp", (G.key, theta.key, U.key), make)


def _verify(L: LieAlgebra, G: Metric, theta: OneForm, U: Subspace) -> VerificationReport:
    """The body of :func:`verify_lcp` for a nonzero U, on the integer
    forms of U, its complement, G, theta and c; only a failing identity
    makes a Fraction."""
    witnesses = []
    perp = U.orthogonal_complement(G)
    iu, du = U.scaled_basis
    ip, dp = perp.scaled_basis

    # (1) one span test of each block's bracket matrix against its basis
    cond1 = all(
        ex.int_span_contains(b, L.int_brackets(b, b, m, m))
        for b, m in ((iu, U.basis_max), (ip, perp.basis_max))
    )
    if not cond1:
        witnesses.append(Witness(1, (), ex.ONE))

    # (2) for each basis vector v of one block, on basis pairs of the other:
    # S = P^T (G ad_v + ad_v^T G) P - 2 theta(v) P^T G P, upper triangle;
    # the products P^T G ad_v P for every v come from one contraction.
    # With V = iv / dv, P = iw / dw, G = gg / dg, theta = t / dt and
    # c = cc / e, S = (dt (A + A^T) - 2 e (t . iv) iw^T gg iw) / D for
    # A = (gg iw)^T [iv, iw]_int and D = e dt dg dv dw^2.  Each block's S
    # for every v is one stacked table with one zero test; S is symmetric,
    # and the upper triangles are listed only when it fails.
    gg, dg = G.scaled_gram
    t, dt = theta.scaled_coeffs
    e = L.scaled_c[1]
    cond2 = True
    blocks = (("u", U, du, "x", perp, dp), ("x", perp, dp, "u", U, du))
    for vl, V, dv, wl, W, dw in blocks:
        iv, iw = V.scaled_basis[0], W.scaled_basis[0]
        p, k = iv.shape[1], iw.shape[1]
        gw = gg.dot(iw)
        gram = iw.T.dot(gw)
        gad = gw.T.dot(L.int_brackets(iv, iw, V.basis_max, W.basis_max))
        gad = gad.reshape(k, p, k).transpose(1, 0, 2)
        s = dt * (gad + gad.transpose(0, 2, 1)) - np.multiply.outer(2 * e * t.dot(iv), gram)
        if not s.any():
            continue
        cond2 = False
        den = e * dt * dg * dv * dw * dw
        for a in range(p):
            for i in range(k):
                for j in range(i, k):
                    if s[a, i, j] != 0:
                        witnesses.append(Witness(2, (vl, a, wl, i, wl, j), ex.unscaled(s[a, i, j], den)))

    # (3) R_ij U for every pair i < j, stacked into one integer product
    # with one zero test; only a failing column becomes Fractions
    _, curv = weyl_geometry(L, G, theta)
    n, k = L.dim, iu.shape[1]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ru = ex.int_dot(curv.num.reshape(len(pairs) * n, n), iu, curv.num_max, U.basis_max)
    cond3 = not ru.any()
    if not cond3:
        for (i, j), w in zip(pairs, ru.reshape(len(pairs), n, k)):
            for a in range(k):
                if w[:, a].any():
                    defect = tuple(ex.unscaled(w[:, a], curv.den * du))
                    witnesses.append(Witness(3, (i, j, "u", a), defect))
    return VerificationReport(cond1, cond2, cond3, tuple(witnesses))


def maximal_flat_parallel(L: LieAlgebra, G: Metric, theta: OneForm) -> Subspace:
    """The unique maximal subspace invariant under every nabla^theta_x and
    annihilated by every curvature operator.

    Flat parallel subspaces are closed under sums, so a maximum exists.
    Start from the common kernel of the curvature operators and shrink to
    the largest invariant subspace inside it; this stabilises in at most
    n steps.

    The search runs once per (L, G, theta) and its Subspace is kept with
    L, keyed as ``weyl.weyl_geometry`` keys the connection.  The input
    checks run once per memo entry, before the search, as in
    :func:`verify_lcp`.
    """

    def make():
        _guard(L, G, theta)
        return _flat_search(L, G, theta)

    return memoised(L, "_maximal_flat_parallel", (G.key, theta.key), make)


def _flat_search(L: LieAlgebra, G: Metric, theta: OneForm) -> Subspace:
    """The body of :func:`maximal_flat_parallel`.  Kernels do not depend
    on scale, so every step eliminates integer matrices as they are: the
    tables of R and gamma, and integer bases of u and its annihilator."""
    n = L.dim
    conn, curv = weyl_geometry(L, G, theta)
    u, _ = ex.int_nullspace(curv.num.reshape(-1, n))
    while u.shape[1] > 0:
        q = ex.int_nullspace(u.T)[0].T
        if q.shape[0] == 0:
            break
        # the blocks q gamma[i] u for every i, stacked row-wise: two products
        m, k = q.shape[0], u.shape[1]
        gu = conn.g.reshape(n * n, n).dot(u).reshape(n, n, k)
        rows = q.dot(gu.transpose(1, 0, 2).reshape(n, n * k))
        w, _ = ex.int_nullspace(rows.reshape(m, n, k).transpose(1, 0, 2).reshape(n * m, k))
        if w.shape[1] == k:
            break
        u = u.dot(w)
    return Subspace.of_columns(u)


class LCPClass(NamedTuple):
    """Classification of (L, G, theta), with the maximal flat parallel
    subspace it rests on."""

    kind: str
    flat: Subspace

    @property
    def flat_dim(self) -> int:
        return self.flat.dim


def classify(L: LieAlgebra, G: Metric, theta: OneForm) -> LCPClass:
    u = maximal_flat_parallel(L, G, theta)
    if u.dim == 0:
        return LCPClass(DEGENERATE, u)
    if u.dim == L.dim:
        return LCPClass(CONFORMALLY_FLAT, u)
    adapted = not theta.scaled_coeffs[0].dot(u.scaled_basis[0]).any()
    return LCPClass(ADAPTED if adapted else NON_ADAPTED, u)


class _LCPStructureFields(NamedTuple):
    algebra: LieAlgebra
    metric: Metric
    theta: OneForm
    flat: Subspace


class LCPStructure(_LCPStructureFields):
    """Verified quadruple (algebra, metric, Lee form, flat subspace),
    checked by ``_guard`` on construction; ``_make`` and ``_replace``
    build through the same check."""

    __slots__ = ()

    def __new__(cls, algebra, metric, theta, flat):
        _guard(algebra, metric, theta, flat)
        return tuple.__new__(cls, (algebra, metric, theta, flat))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def flat_dim(self) -> int:
        return self.flat.dim

    def is_adapted(self) -> bool:
        return not self.theta.scaled_coeffs[0].dot(self.flat.scaled_basis[0]).any()

    def verify(self) -> VerificationReport:
        return verify_lcp(self.algebra, self.metric, self.theta, self.flat)


class StructuralAuditReport(NamedTuple):
    """Exact structural facts about a verified solvable unimodular LCP
    structure; keys (a)-(h) as independent checks.  (g) and (h) are None
    when their codimension hypotheses do not apply."""

    abelian_ideal_in_centre: bool          # (a)
    nabla_equals_ad_on_flat: bool          # (b)
    theta_vanishes_on_flat: bool           # (c)
    nabla_vanishes_on_derived: bool        # (d)
    trace_relations: bool                  # (e)
    codim_at_least_two: bool               # (f)
    codim2_almost_abelian: Optional[bool]  # (g)
    codim3_normal_form: Optional[bool]     # (h)

    @property
    def passed(self) -> bool:
        req = [
            self.abelian_ideal_in_centre,
            self.nabla_equals_ad_on_flat,
            self.theta_vanishes_on_flat,
            self.nabla_vanishes_on_derived,
            self.trace_relations,
            self.codim_at_least_two,
        ]
        opt = [self.codim2_almost_abelian, self.codim3_normal_form]
        return all(req) and all(x is not False for x in opt)

    def as_dict(self):
        return {
            "a_abelian_ideal_in_centre": self.abelian_ideal_in_centre,
            "b_nabla_equals_ad_on_flat": self.nabla_equals_ad_on_flat,
            "c_theta_vanishes_on_flat": self.theta_vanishes_on_flat,
            "d_nabla_vanishes_on_derived": self.nabla_vanishes_on_derived,
            "e_trace_relations": self.trace_relations,
            "f_codim_at_least_two": self.codim_at_least_two,
            "g_codim2_almost_abelian": self.codim2_almost_abelian,
            "h_codim3_normal_form": self.codim3_normal_form,
            "passed": self.passed,
        }


def _trace_relation(L: LieAlgebra, U: Subspace, t: np.ndarray, dt: int, c: int) -> bool:
    """tr(ad_y restricted to the subalgebra U) == c theta(y) for each basis
    column y, cross-multiplied: with U = iu / du and the bracket
    coordinates x / den of its columns, the trace at column a is the sum
    of x[b, a k + b] over b, over den, and theta(u_a) = (t iu)_a / (dt du)."""
    iu, du = U.scaled_basis
    (x, den), tu, k = L._int_subalgebra_coords(iu, du, U.basis_max), t.dot(iu), U.dim
    return all(sum(x[b, a * k + b] for b in range(k)) * dt * du == c * tu[a] * den for a in range(k))


def _codim3_normal_form(L, G, theta, U) -> bool:
    """Match the codimension-3 shape: u-perp has an orthonormal-style
    splitting R b + W with W = ker(theta) cap u-perp abelian of dim 2,
    [u-perp, u-perp] of dim 1 inside W, and the complement direction of
    [u-perp,u-perp] in W acting on u by a nonzero commuting skew map."""
    n = L.dim
    if n < 5:
        return False
    perp = U.orthogonal_complement(G)
    if perp.dim != 3:
        return False
    t, dt = theta.scaled_coeffs
    ker_theta = Subspace.of_columns(ex.int_nullspace(t.reshape(1, -1))[0])
    w = perp.intersect(ker_theta)
    if w.dim != 2:
        return False
    if L.bracket_span(w, w).dim != 0:
        return False
    hprime = L.bracket_span(perp, perp)
    if hprime.dim != 1 or not w.contains_space(hprime):
        return False
    # y: W-direction G-orthogonal to [u-perp, u-perp]
    y_space = w.intersect(hprime.orthogonal_complement(G))
    if y_space.dim != 1:
        return False
    # Every test below is homogeneous in each matrix, so it runs on
    # positive multiples: the integer columns y, b and the basis iu of u,
    # gu = iu^T gg iu for the Gram matrix of u, and the integer solutions
    # of iu X = [y, iu] and iu X = [b, iu] times e.
    iu = U.scaled_basis[0]
    gu = iu.T.dot(G.scaled_gram[0]).dot(iu)

    def ad_on_u(v):
        return ex.int_solve(iu, L.int_brackets(v.reshape(-1, 1), iu, mv=U.basis_max))

    def g_skew(m):
        gm = gu.dot(m)
        return not (gm + gm.T).any()

    sol = ad_on_u(y_space.scaled_basis[0][:, 0])
    if sol is None or not sol[0].any() or not g_skew(sol[0]):
        return False
    ad_y_u = sol[0]
    # b-direction: G-orthogonal complement of W in u-perp
    b_space = perp.intersect(w.orthogonal_complement(G))
    if b_space.dim != 1:
        return False
    b = b_space.scaled_basis[0][:, 0]
    # ad_b|u - theta(b) Id must be skew; the condition is linear in b, so
    # no normalisation of b is needed.  With ad_b|u = xb / (dxb e) and
    # theta(b) = t.b / dt, this is dt dxb e times it.
    sol = ad_on_u(b)
    if sol is None:
        return False
    xb, dxb = sol
    b1 = xb * dt
    b1[np.diag_indices(U.dim)] -= t.dot(b) * dxb * L.scaled_c[1]
    if not g_skew(b1):
        return False
    return not (b1.dot(ad_y_u) - ad_y_u.dot(b1)).any()


def structural_audit(S: LCPStructure) -> StructuralAuditReport:
    """Run the exact structural consequences for solvable unimodular
    non-degenerate LCP structures, each reported individually, after
    verifying the structure (on the shared Weyl connection and curvature).
    (g) and (h) read only whether L has a codimension-1 abelian ideal,
    which does not depend on G and is found once per algebra."""
    L, G, theta, U = S.algebra, S.metric, S.theta, S.flat
    if not L.is_solvable():
        raise PreconditionViolated("algebra is not solvable")
    if not is_unimodular(L):
        raise PreconditionViolated("algebra is not unimodular")
    if U.dim < 1:
        raise PreconditionViolated("flat subspace is zero")
    if not S.verify().passed:
        raise PreconditionViolated("structure does not verify as LCP")
    n, q = L.dim, U.dim
    iu = U.scaled_basis[0]

    # U inside z(g') is abelian, as [U, U] lies in [U, g'] = 0
    in_centre = L.centre_of_derived.contains_space(U) and U.contains_space(
        L.bracket_span(Subspace.full(n), U)
    )

    # nabla_{e_i} u_a and [e_i, u_a] for every i and a, one integer product
    # each: gamma = g / d and ad_{e_i} = cc[i]^T / e, compared cross-multiplied
    conn, _ = weyl_geometry(L, G, theta)
    cc, e = L.scaled_c
    nabla_u = ex.int_dot(conn.g.reshape(n * n, n), iu, conn.g_max, U.basis_max)
    ad_u = ex.int_dot(cc.transpose(0, 2, 1).reshape(n * n, n), iu, L.c_max, U.basis_max)
    nabla_ad = np.array_equal(nabla_u * e, ad_u * conn.d)

    t, dt = theta.scaled_coeffs
    theta_flat = not t.dot(iu).any()

    der = L.derived_algebra.scaled_basis[0]
    nabla_der = not der.T.dot(nabla_u.reshape(n, n * q)).any()

    # trace forms of u and u-perp against theta
    perp = U.orthogonal_complement(G)
    trace_rel = _trace_relation(L, U, t, dt, -(n - q)) and _trace_relation(L, perp, t, dt, -q)

    codim_ok = q <= n - 2
    codim2 = None
    if q == n - 2:
        codim2 = _almost_abelian_ideal(L) is not None
    codim3 = None
    if q == n - 3 and _almost_abelian_ideal(L) is None:
        codim3 = _codim3_normal_form(L, G, theta, U)

    return StructuralAuditReport(
        abelian_ideal_in_centre=in_centre,
        nabla_equals_ad_on_flat=nabla_ad,
        theta_vanishes_on_flat=theta_flat,
        nabla_vanishes_on_derived=nabla_der,
        trace_relations=trace_rel,
        codim_at_least_two=codim_ok,
        codim2_almost_abelian=codim2,
        codim3_normal_form=codim3,
    )
