"""One exact backend.

Inside ``src/lcplab`` exact data is computed on integer forms; the
``Fraction``-array elimination kernels of ``exact`` take and return
entries for callers outside the package.  Two guards keep it so: an
``ast`` scan for uses of those kernels (and of the deleted ones), and a
run-time watch on ``exact.scaled`` and ``exact.unscaled`` for integer
forms sent back through the constructor for entries and for ``Fraction``
arrays made only to be scaled again or compared.
The ``Fraction`` versions of the routines that compute on integer forms
instead are kept here as references, and each integer version returns
what its reference returns, on every sampled catalog row and on the
random inputs of the other test modules.
"""

import ast
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from lcplab import exact as ex
from lcplab.algebra import (
    _ANY_HYPERPLANE,
    LieAlgebra,
    Metric,
    Subspace,
    _find_almost_abelian_ideal,
    almost_abelian_presentation,
    audit_algebra,
)
from lcplab.construct import Decomposition, OrthoRep, decompose
from lcplab.detect import LCPStructure, classify, structural_audit
from lcplab.errors import LcpError, PreconditionViolated, SingularMatrix
from lcplab.fixtures import witness_specs_from_fixtures
from lcplab.lattice import _jordan_types, _Plan
from lcplab.lowdim import (
    SAMPLES,
    Fingerprint,
    _eigen_ratios,
    check_isomorphism_witness,
    fingerprint,
    sample_lattice_verdict,
    table_algebra,
    verify_table,
)
from support import dot, inv, left_nullspace, rank, reye, rng
from test_algebra import _drawn_algebra
from test_construct import RECIPES, _random_case
from test_lattice_exact import rank_types

SRC = Path(__file__).parent.parent / "src" / "lcplab"

# exact's Fraction-array elimination kernels, and the ones deleted with
# their last caller in the package
FRACTION_KERNELS = {"rref", "nullspace", "solve", "det", "charpoly"}
DELETED = {"inv", "left_nullspace", "rank", "to_float", "is_pos_def", "reye", "dot"}


def fraction_kernel_uses(source: str) -> list:
    """(line, name) of every use of a Fraction kernel of ``exact`` in a
    module: an attribute of a name bound to the module (``from . import
    exact as ex``, ``import lcplab.exact as ex``), or a name imported from
    it (``from .exact import solve``)."""
    banned = FRACTION_KERNELS | DELETED
    tree = ast.parse(source)
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                if node.module in (None, "lcplab") and a.name == "exact":
                    modules.add(a.asname or a.name)
                elif node.module in ("exact", "lcplab.exact") and a.name in banned:
                    functions[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "lcplab.exact" and a.asname)
    uses = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr in banned
        ):
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in functions:
            uses.append((node.lineno, functions[node.id]))
    return sorted(uses)


def test_no_fraction_kernel_inside_the_package():
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exact.py" and (uses := fraction_kernel_uses(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_guard_sees_every_spelling():
    source = (
        "from . import exact as ex\n"
        "from .exact import solve as s, int_solve\n"
        "import lcplab.exact as lx\n"
        "ex.rank(m)\n"
        "f = ex.nullspace\n"
        "s(a, b)\n"
        "int_solve(a, b)\n"
        "lx.det(a)\n"
        "ex.int_nullspace(m)\n"
    )
    assert fraction_kernel_uses(source) == [(4, "rank"), (5, "nullspace"), (6, "solve"), (8, "det")]
    assert not DELETED & set(dir(ex))


# ---------------------------------------------------------------------------
# no round trip at run time: what the package scales it did not unscale
# ---------------------------------------------------------------------------


def package_frames() -> list:
    """``module:line`` of each ``lcplab`` frame on the caller's stack,
    ``exact`` left out, innermost first."""
    frame, sites = sys._getframe(2), []
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("lcplab.") and name != "lcplab.exact":
            sites.append(f"{name}:{frame.f_lineno}")
        frame = frame.f_back
    return sites


class ScalingWatch:
    """``ex.scaled`` and ``ex.unscaled`` wrapped, with a fault recorded for
    each call the package makes on its own data (one package function
    calling another, so that test input handed to one entry point is not
    counted) that is one of these:

    * ``scaled`` of a nonempty array of Python ints only: an integer form
      sent through the constructor for entries;
    * ``scaled`` of an array that ``unscaled`` returned in the same run,
      or of a view of one: a round trip;
    * ``unscaled`` called by ``detect``, which makes a ``Fraction`` only
      for a failing identity, and every structure watched passes.
    """

    def __init__(self, monkeypatch):
        self.faults, self.returned = [], {}
        scaled, unscaled = ex.scaled, ex.unscaled

        def watched_scaled(a):
            callers = package_frames()
            if len(callers) >= 2 and isinstance(a, np.ndarray):
                if a.size and all(type(x) is int for x in a.flat):
                    self.faults.append(("scaled Python ints", *callers[:2]))
                base = a
                while isinstance(base, np.ndarray):
                    if id(base) in self.returned:
                        self.faults.append(("scaled what unscaled returned", *callers[:2]))
                        break
                    base = base.base
            return scaled(a)

        def watched_unscaled(ints, den):
            callers = package_frames()
            if callers and callers[0].startswith("lcplab.detect:"):
                self.faults.append(("unscaled in detect", *callers[:2]))
            out = unscaled(ints, den)
            if isinstance(out, np.ndarray):
                self.returned[id(out)] = out
            return out

        monkeypatch.setattr(ex, "scaled", watched_scaled)
        monkeypatch.setattr(ex, "unscaled", watched_unscaled)


def test_no_scaling_round_trip_at_run_time(monkeypatch):
    # two structures of every recipe, classified, verified and audited,
    # and every sampled catalog row through the catalog's entry points
    watch = ScalingWatch(monkeypatch)
    for recipe in RECIPES:
        for seed in range(2):
            S, _ = _random_case(rng(7000 + seed), recipe)
            classify(S.algebra, S.metric, S.theta)
            assert S.verify().passed
            try:
                structural_audit(S)
            except PreconditionViolated:
                pass
    for sample in SAMPLES:
        verify_table(sample.name, sample.params)
        fingerprint(table_algebra(sample.name, sample.params))
        sample_lattice_verdict(sample)
    assert watch.returned
    assert sorted(set(watch.faults)) == []


def test_the_watch_sees_every_round_trip(monkeypatch):
    watch = ScalingWatch(monkeypatch)
    package = {"__name__": "lcplab.detect", "ex": ex}
    exec(
        "def entries(a):\n    return ex.scaled(a)\n"
        "def outer(a):\n    return entries(a)\n"
        "def fractions(ints):\n    return ex.unscaled(ints, 2)\n",
        package,
    )
    ints = np.array([1, 2], dtype=object)
    package["entries"](ints)  # test input handed to one entry point
    assert watch.faults == []
    package["outer"](ints)
    package["outer"](ex.unscaled(ints, 3)[1:])
    package["fractions"](ints)
    assert [fault[0] for fault in watch.faults] == [
        "scaled Python ints",
        "scaled what unscaled returned",
        "unscaled in detect",
    ]


# ---------------------------------------------------------------------------
# Fraction references of the routines that compute on integer forms
# ---------------------------------------------------------------------------


def ref_almost_abelian_ideal(L):
    """The codimension-1 abelian ideal on Fraction arrays: the complement
    of g' from the annihilator rows q, lift = q^T (q q^T)^-1."""
    n = L.dim
    der = L.derived_algebra
    if der.dim == 0:
        return _ANY_HYPERPLANE
    if L.bracket_span(der, der).dim != 0:
        return None
    cent = L.centraliser(der)
    if cent.dim < n - 1:
        return None
    if cent.dim == n - 1:
        if not cent.contains_space(der) or L.bracket_span(cent, cent).dim != 0:
            return None
        return cent
    q = left_nullspace(der.basis)
    lift = dot(q.T, inv(dot(q, q.T)))
    m = q.shape[0]
    coords = ex.solve(der.basis, L.brackets(lift, lift))
    nonzero = [s for s in (coords[k].reshape(m, m) for k in range(der.dim)) if not ex.is_zero(s)]
    if not nonzero:
        return None
    kernels = []
    for s in nonzero:
        if rank(s) > 2:
            return None
        kernels.append(ex.nullspace(s))
    ksum = Subspace(np.concatenate(kernels, axis=1))
    if ksum.dim >= m:
        return None
    h = ksum.basis
    if ksum.dim == m - 1:
        for s in nonzero:
            if not ex.is_zero(dot(dot(h.T, s), h)):
                return None
    else:
        extra = next(e for e in reye(m) if not ksum.contains(e))
        h = np.concatenate([h, extra.reshape(-1, 1)], axis=1)
    return Subspace(np.concatenate([der.basis, dot(lift, h)], axis=1))


def ref_decompose(S):
    """h = u-perp, its metric and beta(x) = ad_x|_u - theta(x) Id, on
    the Fraction bases."""
    L, G, theta, U = S.algebra, S.metric, S.theta, S.flat
    perp = U.orthogonal_complement(G)
    hb, ub = perp.basis, U.basis
    q = U.dim
    ad_u = ex.solve(ub, L.brackets(hb, ub))
    if ad_u is None:
        raise LcpError("flat space is not ad-invariant")
    ad_u = ad_u.reshape(q, perp.dim, q)
    images = tuple(ad_u[:, a, :] - theta(hb[:, a]) * reye(q) for a in range(perp.dim))
    u_gram = dot(ub.T, dot(G.gram, ub))
    return Decomposition(L.restrict(hb), G.restrict(hb), OrthoRep(q, images), hb, ub, u_gram)


def ref_fingerprint(L):
    """The fingerprint, with the subalgebra of each derived term built
    from its Fraction basis."""
    ds = L.derived_series()
    max_nil = max((t.dim for t in ds if t.dim and L.restrict(t.basis).is_nilpotent()), default=0)
    pres = almost_abelian_presentation(L, Metric.identity(L.dim))
    return Fingerprint(
        dim=L.dim,
        derived_dims=tuple(t.dim for t in ds),
        lower_central_dims=tuple(t.dim for t in L.lower_central_series()),
        centre_dim=L.centre().dim,
        max_nilpotent_derived_dim=max_nil,
        unimodular=audit_algebra(L).unimodular,
        almost_abelian=pres is not None,
        ad_eigen_ratios=_eigen_ratios(ex.scaled(pres.matrix)[0]) if pres is not None else None,
    )


def ref_isomorphism_witness(L1, L2, P):
    """P [e_i, e_j]_1 == [P e_i, P e_j]_2 on Fraction arrays, None when P
    is singular."""
    if ex.det(P) == 0:
        return None
    n = L1.dim
    return bool((dot(P, L1.c.reshape(n * n, n).T) == L2.brackets(P, P)).all())


def isomorphism_witness_or_none(L1, L2, P):
    try:
        return check_isomorphism_witness(L1, L2, P)
    except SingularMatrix:
        return None


def same_decomposition(got, want):
    assert got.h == want.h and got.h_metric == want.h_metric
    assert got.beta.dim_target == want.beta.dim_target
    assert [m.tolist() for m in got.beta.images] == [m.tolist() for m in want.beta.images]
    for a, b in ((got.h_basis, want.h_basis), (got.u_basis, want.u_basis), (got.u_gram, want.u_gram)):
        assert a.shape == b.shape and a.tolist() == b.tolist()


def same_ideal(L):
    got, want = _find_almost_abelian_ideal(L), ref_almost_abelian_ideal(L)
    assert got == want or got is want


def transport(L, P):
    """L in the basis P e_i: [u, v]' = P [P^-1 u, P^-1 v]."""
    n, pinv = L.dim, inv(P)
    c = ex.rzeros((n, n, n))
    for i in range(n):
        for j in range(n):
            c[i, j, :] = P.dot(L.bracket(pinv[:, i], pinv[:, j]))
    return LieAlgebra(c)


def test_integer_forms_match_the_fraction_references_on_the_catalog():
    # on random inputs, test_lattice_exact holds the Jordan types to the
    # rank count used here, and test_lowdim the isomorphism test to the
    # pairwise Fraction check
    for sample in SAMPLES:
        L = table_algebra(sample.name, sample.params)
        same_ideal(L)
        assert fingerprint(L) == ref_fingerprint(L)
        for w in witness_specs_from_fixtures(sample):
            flat = classify(L, w.metric, w.theta).flat
            if flat.dim:
                S = LCPStructure(L, w.metric, w.theta, flat)
                same_decomposition(decompose(S), ref_decompose(S))
        pres = almost_abelian_presentation(L, Metric.identity(L.dim))
        if pres is not None:
            plan = _Plan(pres.matrix)
            roots = plan.int_spectrum.integer_roots
            assert _jordan_types(plan.scaled[0], roots) == rank_types(plan.scaled[0], roots)
        n = L.dim
        shear = reye(n)
        shear[0, n - 1] = shear[1, 0] = ex.ONE
        moved = transport(L, shear)
        for P in (shear, 2 * shear, reye(n), shear.T, ex.rzeros((n, n))):
            for L2 in (moved, L):
                assert isomorphism_witness_or_none(L, L2, P) == ref_isomorphism_witness(L, L2, P)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 6),
    kind=st.sampled_from(["abelian", "almab", "almab-basis", "nilpotent", "nilpotent-basis"]),
)
def test_ideal_and_fingerprint_match_the_fraction_references(seed, n, kind):
    L = _drawn_algebra(seed, n, kind)
    same_ideal(L)
    assert fingerprint(L) == ref_fingerprint(L)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), recipe=st.sampled_from(RECIPES))
def test_decompose_matches_the_fraction_reference(seed, recipe):
    S, _ = _random_case(rng(seed), recipe)
    if S.flat.dim:
        same_decomposition(decompose(S), ref_decompose(S))

