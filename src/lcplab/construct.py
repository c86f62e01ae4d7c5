"""Constructors that produce verified LCP structures.

The central recipe: from a non-unimodular metric Lie algebra (h, h_g)
with trace form H and an orthogonal representation beta of h vanishing
on h', the semidirect product g = h |x_alpha R^q with

    alpha(x) = -(1/q) H(x) Id + beta(x)

is unimodular and carries the LCP structure (g, h_g + <.,.>, theta, R^q)
with theta = -(1/q) H extended by zero.  Every constructor verifies its
output exactly before returning it.

Amalgamated products keep the distinguished transversal vector
unnormalised so that all data stays rational; norms enter only as
squared quantities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional

import numpy as np

from . import exact as ex
from .algebra import (
    LieAlgebra,
    Metric,
    OneForm,
    Subspace,
    _check_dims,
    check_envelope,
    trace_form,
)
from .detect import LCPStructure
from .errors import (
    B2Zero,
    DimensionMismatch,
    LcpError,
    NonCommutingPair,
    NotAdapted,
    NotPositiveDefinite,
    NotSkew,
    RepNotSkew,
    RepNotVanishingOnDerived,
    TraceZero,
    UnimodularInput,
)


class OrthoRep:
    """Linear map h -> so(q) given by its images on the h basis, held as
    the reduced integer form ``scaled_images == (mm, dm)`` of their (k, q,
    q) stack, image a == mm[a] / dm; the tuple ``images`` of ``Fraction``
    matrices is a read-only view made on first read.

    Invariants (all checked by :meth:`validate`): every image is
    skew-symmetric for the chosen Gram matrix on R^q (identity by
    default), the map vanishes on h', and the images pairwise commute,
    which together make it a Lie algebra representation.
    """

    def __init__(self, dim_target: int, images):
        """``images`` are q x q matrices or the integer form of their stack."""
        q = dim_target
        mm, dm, _ = ex.as_form(images)
        if mm.shape[1:] != (q, q):
            raise DimensionMismatch("image has wrong shape")
        mm.setflags(write=False)
        self.dim_target, self.scaled_images = q, (mm, dm)

    @classmethod
    def from_matrices(cls, q: int, mats) -> "OrthoRep":
        return cls(q, mats)

    @classmethod
    def zero(cls, q: int, h_dim: int) -> "OrthoRep":
        return cls(q, (np.zeros((h_dim, q, q), dtype=object), 1))

    @cached_property
    def images(self) -> tuple:
        return tuple(ex.view(*self.scaled_images))

    def validate(self, h: LieAlgebra, gram: Optional[np.ndarray] = None):
        """Check the invariants on m[a] = mm[a] / dm: each test is one
        integer contraction of mm.  ``gram`` is the Gram matrix on R^q or
        any positive multiple of it, entries or integers."""
        mm, _ = self.scaled_images
        q, k = self.dim_target, mm.shape[0]
        if k != h.dim:
            raise DimensionMismatch("one image per h basis vector required")
        # G m[a] for every a (m[a] itself for the identity); skew iff that
        # plus its transpose vanishes, and the scales of G and m do not matter
        gm = mm
        if gram is not None:
            gm = gram.dot(mm.transpose(1, 0, 2).reshape(q, k * q))
            gm = gm.reshape(q, k, q).transpose(1, 0, 2)
        if (gm + gm.transpose(0, 2, 1) != 0).any():
            raise RepNotSkew("images must be skew-symmetric")
        der = h.derived_algebra.scaled_basis[0]
        if (der.T.dot(mm.reshape(k, q * q)) != 0).any():
            raise RepNotVanishingOnDerived("beta must vanish on h'")
        # prod[a, :, b, :] = m[a] m[b]: the images commute iff prod is
        # symmetric in (a, b)
        prod = mm.reshape(k * q, q).dot(mm.transpose(1, 0, 2).reshape(q, k * q))
        prod = prod.reshape(k, q, k, q)
        if (prod != prod.transpose(2, 1, 0, 3)).any():
            raise NonCommutingPair("images must pairwise commute")


def _verified(L, G, theta, flat) -> LCPStructure:
    s = LCPStructure(L, G, theta, flat)
    rep = s.verify()
    if not rep.passed:
        raise LcpError(f"constructed structure failed verification: {rep}")
    return s


def _semidirect_c(c_h: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Integer structure constants of h |x_alpha R^q on [h basis, R^q
    basis], from those of h and the (m, q, q) stack of the alpha_i over
    one denominator: [x_i, e_j] = alpha_i e_j."""
    m, q = alpha.shape[:2]
    c = ex.block_diag(c_h, np.zeros((q, q, q), dtype=object))
    c[:m, m:, m:] = alpha.transpose(0, 2, 1)
    c[m:, :m, m:] = -alpha.transpose(2, 0, 1)
    return c


def semidirect_lcp(h: LieAlgebra, h_metric: Metric, beta: OrthoRep) -> LCPStructure:
    """g = h |x_alpha R^q with the standard metric on R^q; the flat space
    is R^q and theta = -(1/q) H^h extended by zero.

    Built on integer forms: with c_h = cc / e, H = hh / dh (dh divides e)
    and beta_i = mm_i / dm, everything is over e q dm, where alpha_i is
    -(hh_i e / dh) dm Id + e q mm_i."""
    if beta.dim_target < 1:
        raise DimensionMismatch("beta must act on R^q with q >= 1")
    check_envelope(h.dim + beta.dim_target)
    _check_dims(h.dim, h_metric)
    hh, dh = trace_form(h).scaled_coeffs
    if not hh.any():
        raise UnimodularInput("h must be non-unimodular")
    beta.validate(h)
    m, q = h.dim, beta.dim_target
    cc, e = h.scaled_c
    mm, dm = beta.scaled_images
    eye = np.eye(q, dtype=object)
    alpha = -(hh * (e // dh * dm))[:, None, None] * eye + mm * (e * q)
    L = LieAlgebra((_semidirect_c(cc * (q * dm), alpha), e * q * dm))
    gg, dg = h_metric.scaled_gram
    G = Metric((ex.block_diag(gg, eye * dg), dg))
    theta = OneForm((ex.block_diag(-hh, np.zeros(q, dtype=object)), dh * q))
    # the unit columns of R^q are their own reduced column echelon form
    flat = Subspace._canonical((ex.block_diag(np.zeros((m, 0), dtype=object), eye), 1))
    return _verified(L, G, theta, flat)


def _check_blocks(a: np.ndarray, bs: dict, lines: int):
    """The input check shared by :func:`almab_lcp` and :func:`flag_lcp`,
    on the integers of A and of every named block B: each square, the B
    of one size, the structure on ``lines`` basis vectors besides R^p and
    R^q within the envelope, tr(A) != 0 and every B skew-symmetric."""
    p, q = (m.shape[0] if m.ndim == 2 else -1 for m in (a, next(iter(bs.values()))))
    if a.shape != (p, p) or any(b.shape != (q, q) for b in bs.values()):
        raise DimensionMismatch(f"{' and '.join(['A', *bs])} must be square")
    check_envelope(lines + p + q)
    if a.trace() == 0:
        raise TraceZero("tr(A) must be nonzero")
    if any((b + b.T != 0).any() for b in bs.values()):
        raise NotSkew(f"{', '.join(bs)} must be skew-symmetric")


def _line_lcp(M: tuple, Bs: list, h_metric: Optional[Metric] = None) -> LCPStructure:
    """:func:`semidirect_lcp` of h = R b |x_M R^r (ad_b acting as M on
    R^r), with beta sending b, e_1, ... to the blocks Bs and the rest of
    the basis to zero; M and the Bs are integer forms."""
    (mi, dm), r, q = M, M[0].shape[0], Bs[0][0].shape[0]
    h = LieAlgebra((_semidirect_c(np.zeros((1, 1, 1), dtype=object), mi.reshape(1, r, r)), dm))
    hm = h_metric if h_metric is not None else Metric.identity(1 + r)
    db = lcm(*(d for _, d in Bs))
    images = np.zeros((1 + r, q, q), dtype=object)
    for k, (b, d) in enumerate(Bs):
        images[k] = b * (db // d)
    return semidirect_lcp(h, hm, OrthoRep(q, (images, db)))


def almab_lcp(A, B, h_metric: Optional[Metric] = None) -> LCPStructure:
    """Almost abelian structure: R b |x (R^p + R^q) with ad_b acting as
    blockdiag(A, B - tr(A)/q Id) and theta = -(1/q) tr(A) b*.  A and B
    are entries (``exact.scaled``) or integer forms."""
    (a, da, _), (b, db, _) = ex.as_form(A), ex.as_form(B)
    _check_blocks(a, {"B": b}, 1)
    return _line_lcp((a, da), [(b, db)], h_metric)


def flag_lcp(A, B1, B2, v) -> LCPStructure:
    """Non-almost-abelian structure on R b |x (R y + R^p) |x R^q with
    [b, y] = v, ad_b = blockdiag(A, B1 - tr(A)/q Id), ad_y|R^q = B2.
    Each input is entries (``exact.scaled``) or an integer form."""
    (a, da, _), (b1, d1, _), (b2, d2, _), (iv, dv, _) = map(ex.as_form, (A, B1, B2, v))
    if b2.shape != b1.shape[:1] * 2:
        raise DimensionMismatch("B1 and B2 must have the same size")
    if iv.shape != a.shape[:1]:
        raise DimensionMismatch("v must lie in R^p")
    _check_blocks(a, {"B1": b1, "B2": b2}, 2)
    if not b2.any():
        raise B2Zero("B2 must be nonzero")
    # [B1, B2] = 0 is the commutation check of OrthoRep.validate
    # ad_b on the basis y, x_1..x_p of R y + R^p, over dm
    dm = lcm(da, dv)
    m = ex.block_diag(np.zeros((1, 1), dtype=object), a * (dm // da))
    m[1:, 0] = iv * (dm // dv)
    return _line_lcp((m, dm), [(b1, d1), (b2, d2)])


def direct_product(S: LCPStructure, k: LieAlgebra, k_metric: Metric) -> LCPStructure:
    """Product with an arbitrary metric algebra; theta extends by zero and
    the flat space is unchanged.  Requires S adapted."""
    _check_dims(k.dim, k_metric)
    if not S.is_adapted():
        raise NotAdapted("direct products require an adapted structure")
    if k.dim == 0:
        return S
    L = S.algebra.direct_sum(k)
    G = Metric(ex.form_block_diag(S.metric.scaled_gram, k_metric.scaled_gram))
    theta = OneForm(ex.form_block_diag(S.theta.scaled_coeffs, (np.zeros(k.dim, dtype=object), 1)))
    # zero rows below a reduced column echelon form leave it canonical
    ub, du = S.flat.scaled_basis
    flat = Subspace._canonical((ex.block_diag(ub, np.zeros((k.dim, 0), dtype=object)), du))
    return _verified(L, G, theta, flat)


def amalgamated_product(S1: LCPStructure, S2: LCPStructure) -> LCPStructure:
    """ker(theta1 - theta2) inside g1 + g2, with the restricted metric,
    theta = theta1 restricted, and flat space u1 + u2.

    The chosen basis is [v, ker theta1, ker theta2] where the transversal
    v = |theta2|^2 theta1^sharp + |theta1|^2 theta2^sharp is a rational
    representative of the distinguished direction, kept unnormalised; it
    is nonzero, as an ``LCPStructure`` refuses a zero Lee form.
    """
    for s in (S1, S2):
        if not s.is_adapted():
            raise NotAdapted("amalgamated products require adapted factors")
    # on integer forms: theta_s = t_s / dt_s and G_s^-1 = gi_s / di_s give
    # theta_s^sharp = a_s / (di_s dt_s) with a_s = gi_s t_s, and |theta_s|^2
    sharps, norms = [], []
    for s in (S1, S2):
        t, dt = s.theta.scaled_coeffs
        gi, di = s.metric.scaled_inverse
        a = gi.dot(t)
        sharps.append((a, di * dt))
        norms.append(Fraction(t.dot(a), di * dt * dt))
    (a1, d1), (a2, d2) = sharps
    n1sq, n2sq = norms
    v, dv = ex.form_block_diag(
        (a1 * n2sq.numerator, d1 * n2sq.denominator), (a2 * n1sq.numerator, d2 * n1sq.denominator)
    )
    kers, dk = ex.form_block_diag(
        *(ex.int_nullspace(s.theta.scaled_coeffs[0].reshape(1, -1)) for s in (S1, S2))
    )
    db = lcm(dv, dk)
    ib = np.concatenate([(v * (db // dv)).reshape(-1, 1), kers * (db // dk)], axis=1)
    L = S1.algebra.direct_sum(S2.algebra).restrict((ib, db))
    gg, dg = ex.form_block_diag(S1.metric.scaled_gram, S2.metric.scaled_gram)
    G = Metric((ib.T.dot(gg).dot(ib), dg * db * db))
    t, dt = ex.form_block_diag(S1.theta.scaled_coeffs, (np.zeros(S2.algebra.dim, dtype=object), 1))
    theta = OneForm((t.dot(ib), dt * db))
    # the flat columns in the basis: a span, so their scales do not matter
    flats = ex.block_diag(S1.flat.scaled_basis[0], S2.flat.scaled_basis[0])
    flat_coords = ex.int_solve(ib, flats)
    if flat_coords is None:
        raise LcpError("flat space does not lie in the kernel")  # cannot happen
    return _verified(L, G, theta, Subspace.of_columns(flat_coords[0]))


def metric_modification(S: LCPStructure, lam) -> LCPStructure:
    """Replace g by g + lam theta (x) theta; valid while positive definite
    and for adapted structures."""
    lam = ex.rat(lam)
    if not S.is_adapted():
        raise NotAdapted("metric modification requires an adapted structure")
    if lam == 0:
        return S
    # g + lam theta (x) theta over dg dl dt^2, with G = gg / dg, lam = nl / dl
    # and theta = t / dt
    t, dt = S.theta.scaled_coeffs
    gg, dg = S.metric.scaled_gram
    den = lam.denominator * dt * dt
    gram = gg * den + np.multiply.outer(t, t) * (lam.numerator * dg)
    try:
        G = Metric((gram, dg * den))
    except NotPositiveDefinite:
        raise NotPositiveDefinite("1 + lam |theta|^2 must stay positive") from None
    return _verified(S.algebra, G, S.theta, S.flat)


class Decomposition(NamedTuple):
    """The (h, h_metric, beta) data recovered from a verified structure:
    h = u-perp with the restricted metric and beta(x) = ad_x|_u -
    theta(x) Id, expressed on the canonical bases."""

    h: LieAlgebra
    h_metric: Metric
    beta: OrthoRep
    h_basis: np.ndarray
    u_basis: np.ndarray
    u_gram: np.ndarray


def decompose(S: LCPStructure) -> Decomposition:
    """Reverse of the semidirect construction, using h = u-perp, on the
    integer forms hb / dh and ub / du of the canonical bases, c = cc / e,
    G = gg / dg and theta = t / dt."""
    if S.flat.dim == 0:
        raise LcpError("cannot decompose a degenerate structure")
    L, G, theta, U = S.algebra, S.metric, S.theta, S.flat
    perp = U.orthogonal_complement(G)
    (hb, dh), (ub, du) = perp.scaled_basis, U.scaled_basis
    (gg, dg), (t, dt) = G.scaled_gram, theta.scaled_coeffs
    h = L.restrict(perp.scaled_basis)
    # ad_x|_u for every basis vector x of h, from one bracket matrix and
    # one solve: ub X = int_brackets(hb, ub), and ad_u = X / (dh e)
    sol = ex.int_solve(ub, L.int_brackets(hb, ub, perp.basis_max, U.basis_max))
    if sol is None:
        raise LcpError("flat space is not ad-invariant")
    (x, d), e, q = sol, L.scaled_c[1], U.dim
    # beta(x_a) = ad_u[a] - theta(x_a) Id over d dh e dt, theta(x_a) = t.hb_a / (dt dh)
    images = x.reshape(q, perp.dim, q).transpose(1, 0, 2) * dt
    images[:, range(q), range(q)] -= (t.dot(hb) * (d * e))[:, None]
    beta, ug = OrthoRep(q, (images, d * dh * e * dt)), ub.T.dot(gg).dot(ub)
    beta.validate(h, gram=ug)
    u_gram = ex.unscaled(ug, dg * du * du)
    return Decomposition(h, G.restrict(perp.scaled_basis), beta, perp.basis, U.basis, u_gram)
