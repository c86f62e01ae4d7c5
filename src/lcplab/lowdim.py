"""Catalog of the unimodular solvable Lie algebras of dimension <= 5
carrying non-degenerate LCP structures, with per-row witnesses and
lattice verdicts.

Each catalog row stores the bracket template, the admissible parameter
range, the set of flat dimensions realised over all structures, and the
printed lattice status.  The witness metrics and Lee forms per sampled
parameter are the fixture corpus (``lcplab.fixtures``); they realise
every flat dimension of the row, and rows whose smaller flat dimensions
are swallowed by eigenvalue coincidences under the identity metric carry
explicitly chosen non-diagonal metrics (the flat space depends on the
metric, not just the algebra).

Isomorphism is never decided in general: rows are matched by invariant
fingerprints plus explicit basis-change witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import exact as ex
from .algebra import (
    LieAlgebra,
    Metric,
    almost_abelian_presentation,
    audit_algebra,
)
from .detect import LCPStructure, classify, structural_audit, verify_lcp
from .errors import DimensionMismatch, ParamOutOfRange, SingularMatrix, UnknownName
from .fixtures import _params_str, witness_specs_from_fixtures
from .intpoly import int_spectrum
from .lattice import lattice_verdict

F = Fraction


# ---------------------------------------------------------------------------
# bracket templates (0-indexed pairs i < j, coefficients of [e_i, e_j])
# ---------------------------------------------------------------------------

def _pad(dim, vec):
    return list(vec) + [0] * (dim - len(vec))


def _e11(dim, p):
    return {(0, 1): _pad(dim, [0, 1, 0]), (0, 2): _pad(dim, [0, 0, -1])}


def _g42(dim, p):
    return {
        (0, 1): _pad(dim, [0, 1, 0, 0]),
        (0, 2): _pad(dim, [0, 1, 1, 0]),
        (0, 3): _pad(dim, [0, 0, 0, -2]),
    }


def _g45(dim, p):
    return {
        (0, 1): _pad(dim, [0, 1, 0, 0]),
        (0, 2): _pad(dim, [0, 0, p["p"], 0]),
        (0, 3): _pad(dim, [0, 0, 0, -(p["p"] + 1)]),
    }


def _g46(dim, p):
    pp = p["p"]
    return {
        (0, 1): _pad(dim, [0, -2 * pp, 0, 0]),
        (0, 2): _pad(dim, [0, 0, pp, -1]),
        (0, 3): _pad(dim, [0, 0, 1, pp]),
    }


def _g57(dim, p):
    return {
        (0, 4): [-p["p"], 0, 0, 0, 0],
        (1, 4): [0, -p["q"], 0, 0, 0],
        (2, 4): [0, 0, -p["r"], 0, 0],
        (3, 4): [0, 0, 0, 1, 0],
    }


def _g58(dim, p):
    return {
        (0, 4): [-1, 0, 0, 0, 0],
        (2, 4): [0, -1, 0, 0, 0],
        (3, 4): [0, 0, 0, 1, 0],
    }


def _g59(dim, p):
    return {
        (0, 4): [-p["p"], 0, 0, 0, 0],
        (1, 4): [0, -1, 0, 0, 0],
        (2, 4): [0, -1, -1, 0, 0],
        (3, 4): [0, 0, 0, 2 + p["p"], 0],
    }


def _g511(dim, p):
    return {
        (0, 4): [-1, 0, 0, 0, 0],
        (1, 4): [-1, -1, 0, 0, 0],
        (2, 4): [0, -1, -1, 0, 0],
        (3, 4): [0, 0, 0, 3, 0],
    }


def _g513(dim, p):
    q, r = p["q"], p["r"]
    return {
        (0, 4): [-1, 0, 0, 0, 0],
        (1, 4): [0, -q, r, 0, 0],
        (2, 4): [0, -r, -q, 0, 0],
        (3, 4): [0, 0, 0, 1 + 2 * q, 0],
    }


def _g516(dim, p):
    q = p["q"]
    return {
        (0, 4): [-1, 0, 0, 0, 0],
        (1, 4): [-1, -1, 0, 0, 0],
        (2, 4): [0, 0, 1, q, 0],
        (3, 4): [0, 0, -q, 1, 0],
    }


def _g517(dim, p):
    pp, r = p["p"], p["r"]
    return {
        (0, 4): [-pp, 1, 0, 0, 0],
        (1, 4): [-1, -pp, 0, 0, 0],
        (2, 4): [0, 0, pp, r, 0],
        (3, 4): [0, 0, -r, pp, 0],
    }


def _g519(dim, p):
    pp = p["p"]
    return {
        (0, 1): [0, 0, 1, 0, 0],
        (0, 4): [-1, 0, 0, 0, 0],
        (1, 4): [0, -pp, 0, 0, 0],
        (2, 4): [0, 0, -(pp + 1), 0, 0],
        (3, 4): [0, 0, 0, 2 * (pp + 1), 0],
    }


def _g523(dim, p):
    return {
        (0, 1): [0, 0, 1, 0, 0],
        (0, 4): [-1, 0, 0, 0, 0],
        (1, 4): [-1, -1, 0, 0, 0],
        (2, 4): [0, 0, -2, 0, 0],
        (3, 4): [0, 0, 0, 4, 0],
    }


def _g525(dim, p):
    pp = p["p"]
    return {
        (0, 1): [0, 0, 1, 0, 0],
        (0, 4): [-pp, -1, 0, 0, 0],
        (1, 4): [1, -pp, 0, 0, 0],
        (2, 4): [0, 0, -2 * pp, 0, 0],
        (3, 4): [0, 0, 0, 4 * pp, 0],
    }


def _g533(dim, p):
    return {
        (0, 1): [0, 1, 0, 0, 0],
        (0, 2): [0, 0, -1, 0, 0],
        (2, 4): [0, 0, -1, 0, 0],
        (3, 4): [0, 0, 0, 1, 0],
    }


def _g535(dim, p):
    return {
        (0, 1): [0, 0, 1, 0, 0],
        (0, 2): [0, -1, 0, 0, 0],
        (1, 4): [0, -1, 0, 0, 0],
        (2, 4): [0, 0, -1, 0, 0],
        (3, 4): [0, 0, 0, 2, 0],
    }


# ---------------------------------------------------------------------------
# parameter validation and expected flat dimensions per row
# ---------------------------------------------------------------------------

def _no_params(p):
    """Nothing to check: ``table_algebra`` refuses every parameter name
    of a row that takes none."""


def _check_g45(p):
    if not (F(-1, 2) <= p["p"] < 0):
        raise ParamOutOfRange("need -1/2 <= p < 0")


def _check_g46(p):
    if p["p"] <= 0:
        raise ParamOutOfRange("need p > 0")


def _check_g57(p):
    a, b, c = p["p"], p["q"], p["r"]
    if a * b * c == 0:
        raise ParamOutOfRange("need pqr != 0")
    if a + b + c != 1:
        raise ParamOutOfRange("need p + q + r = 1")
    if not (-1 <= a <= b <= c <= 1):
        raise ParamOutOfRange("need -1 <= p <= q <= r <= 1")


def _check_g59(p):
    if p["p"] < -1:
        raise ParamOutOfRange("need p >= -1")


def _check_g513(p):
    q, r = p["q"], p["r"]
    if r <= 0:
        raise ParamOutOfRange("need r > 0")
    if not (-1 <= q <= 0) or q == F(-1, 2):
        raise ParamOutOfRange("need q in [-1, 0], q != -1/2")


def _check_g516(p):
    if p["q"] <= 0:
        raise ParamOutOfRange("need q > 0")


def _check_g517(p):
    if p["p"] < 0 or p["r"] <= 0:
        raise ParamOutOfRange("need p >= 0, r > 0")


def _check_g519(p):
    if p["p"] == -1:
        raise ParamOutOfRange("need p != -1")


def _check_g525(p):
    if p["p"] <= 0:
        raise ParamOutOfRange("need p > 0")


def _dims_const(*dims):
    return lambda p: frozenset(dims)


def _dims_g45(p):
    return frozenset({1, 2}) if p["p"] == F(-1, 2) else frozenset({1})


def _dims_g57(p):
    a, b, c = p["p"], p["q"], p["r"]
    dims = {1}
    if a != c and (b == a or b == c):
        dims.add(2)
    if a == b == c:
        dims.add(3)
    return frozenset(dims)


def _dims_g59(p):
    return frozenset({1, 2}) if p["p"] == -1 else frozenset({1})


def _dims_g513(p):
    dims = {1, 2}
    if p["q"] == F(-1, 3):
        dims.add(3)
    return frozenset(dims)


def _dims_g517(p):
    return frozenset({2}) if p["p"] != 0 else frozenset()


@dataclass(frozen=True)
class TableEntry:
    name: str
    table: int
    dim: int
    param_names: tuple
    brackets: object
    validate: object
    expected_flat_dims: object
    lattice_status: str  # yes | no | some_parameters


ROWS = {
    r.name: r
    for r in [
        TableEntry("e(1,1)", 1, 3, (), _e11, _no_params, _dims_const(1), "yes"),
        TableEntry("e(1,1)+R", 2, 4, (), _e11, _no_params, _dims_const(1), "yes"),
        TableEntry("g_{4.2}^{-2}", 2, 4, (), _g42, _no_params, _dims_const(1), "no"),
        TableEntry("g_{4.5}^{p,-p-1}", 2, 4, ("p",), _g45, _check_g45, _dims_g45, "some_parameters"),
        TableEntry("g_{4.6}^{-2p,p}", 2, 4, ("p",), _g46, _check_g46, _dims_const(1, 2), "some_parameters"),
        TableEntry("e(1,1)+R2", 3, 5, (), _e11, _no_params, _dims_const(1), "yes"),
        TableEntry("g_{4.2}^{-2}+R", 3, 5, (), _g42, _no_params, _dims_const(1), "no"),
        TableEntry("g_{4.5}^{p,-p-1}+R", 3, 5, ("p",), _g45, _check_g45, _dims_g45, "some_parameters"),
        TableEntry("g_{4.6}^{-2p,p}+R", 3, 5, ("p",), _g46, _check_g46, _dims_const(1, 2), "some_parameters"),
        TableEntry("g_{5.7}^{p,q,r}", 3, 5, ("p", "q", "r"), _g57, _check_g57, _dims_g57, "some_parameters"),
        TableEntry("g_{5.8}^{-1}", 3, 5, (), _g58, _no_params, _dims_const(1), "yes"),
        TableEntry("g_{5.9}^{p,-2-p}", 3, 5, ("p",), _g59, _check_g59, _dims_g59, "no"),
        TableEntry("g_{5.11}^{-3}", 3, 5, (), _g511, _no_params, _dims_const(1), "no"),
        TableEntry("g_{5.13}^{-1-2q,q,r}", 3, 5, ("q", "r"), _g513, _check_g513, _dims_g513, "some_parameters"),
        TableEntry("g_{5.16}^{-1,q}", 3, 5, ("q",), _g516, _check_g516, _dims_const(2), "no"),
        TableEntry("g_{5.17}^{p,-p,r}", 3, 5, ("p", "r"), _g517, _check_g517, _dims_g517, "some_parameters"),
        TableEntry("g_{5.19}^{p,-2p-2}", 3, 5, ("p",), _g519, _check_g519, _dims_const(1), "no"),
        TableEntry("g_{5.23}^{-4}", 3, 5, (), _g523, _no_params, _dims_const(1), "no"),
        TableEntry("g_{5.25}^{p,4p}", 3, 5, ("p",), _g525, _check_g525, _dims_const(1), "no"),
        TableEntry("g_{5.33}^{-1,-1}", 3, 5, (), _g533, _no_params, _dims_const(1), "yes"),
        TableEntry("g_{5.35}^{-2,0}", 3, 5, (), _g535, _no_params, _dims_const(1, 2), "yes"),
    ]
}


def table_algebra(name: str, params: Optional[dict] = None) -> LieAlgebra:
    """Instantiate a catalog row at exact rational parameters.

    The parameters are validated on every call.  The algebra itself is
    shared: one ``LieAlgebra`` per row and parameter values, so every
    caller reads the spans, flat spaces and reports kept with it (a
    ``LieAlgebra`` is an immutable value)."""
    if name not in ROWS:
        raise UnknownName(f"unknown catalog row {name!r}")
    row = ROWS[name]
    params = {k: ex.rat(v) for k, v in (params or {}).items()}
    if set(params) != set(row.param_names):
        raise ParamOutOfRange(
            f"row {name} takes parameters {row.param_names}, got {tuple(params)}"
        )
    row.validate(params)
    return _row_algebra(name, tuple(sorted(params.items())))


# ---------------------------------------------------------------------------
# fingerprints and explicit isomorphism witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism invariants; equality is necessary, never sufficient."""

    dim: int
    derived_dims: tuple
    lower_central_dims: tuple
    centre_dim: int
    max_nilpotent_derived_dim: int
    unimodular: bool
    almost_abelian: bool
    ad_eigen_ratios: Optional[tuple]

    def as_dict(self):
        return {
            "dim": self.dim,
            "derived_dims": list(self.derived_dims),
            "lower_central_dims": list(self.lower_central_dims),
            "centre_dim": self.centre_dim,
            "max_nilpotent_derived_dim": self.max_nilpotent_derived_dim,
            "unimodular": self.unimodular,
            "almost_abelian": self.almost_abelian,
            "ad_eigen_ratios": None
            if self.ad_eigen_ratios is None
            else [str(r) for r in self.ad_eigen_ratios],
        }


def _eigen_ratios(ints: np.ndarray) -> Optional[tuple]:
    """The eigenvalues of a matrix over the one of largest modulus
    (positive on a tie), sorted, or None unless all are rational; read
    from an integer multiple ``ints`` of it, since the scale cancels."""
    if ints.shape[0] == 0:
        return ()
    ks = int_spectrum(ex.int_charpoly_coeffs(ints)).integer_eigenvalues()
    if ks is None:
        return None  # irrational or non-real spectrum: not comparable here
    ref = max(ks, key=lambda k: (abs(k), k))
    if ref == 0:
        return tuple(Fraction(k) for k in ks)
    return tuple(sorted(Fraction(k, ref) for k in ks))


def fingerprint(L: LieAlgebra) -> Fingerprint:
    """Isomorphism invariants of L.  No metric enters: for k in the
    abelian ideal ad_{b+k} = ad_b on it, so a metric only rescales the
    ad-matrix of the almost abelian presentation, and the ratios of its
    eigenvalues do not change."""
    ds = L.derived_series()
    lcs = L.lower_central_series()
    max_nil = 0
    for term in ds:
        if term.dim == 0:
            break
        sub = L.restrict(term.scaled_basis)
        if sub.is_nilpotent():
            max_nil = max(max_nil, term.dim)
    pres = almost_abelian_presentation(L, Metric.identity(L.dim))
    return Fingerprint(
        dim=L.dim,
        derived_dims=tuple(t.dim for t in ds),
        lower_central_dims=tuple(t.dim for t in lcs),
        centre_dim=L.centre().dim,
        max_nilpotent_derived_dim=max_nil,
        unimodular=audit_algebra(L).unimodular,
        almost_abelian=pres is not None,
        ad_eigen_ratios=_eigen_ratios(pres.scaled_matrix[0]) if pres is not None else None,
    )


def check_isomorphism_witness(L1: LieAlgebra, L2: LieAlgebra, P: np.ndarray) -> bool:
    """True iff P [x,y]_1 = [Px, Py]_2 on all basis pairs, exactly: column
    i n + j of both contractions holds the two sides at (e_i, e_j), on the
    integer forms P = pp / dp and c_k = cc_k / e_k."""
    if L1.dim != L2.dim or P.shape != (L1.dim, L1.dim):
        raise DimensionMismatch("witness must be square of matching size")
    pp, dp = ex.scaled(P)
    if ex.int_nullspace(pp)[0].shape[1]:
        raise SingularMatrix("witness matrix is singular")
    n = L1.dim
    (c1, e1), e2 = L1.scaled_c, L2.scaled_c[1]
    return bool((pp.dot(c1.reshape(n * n, n).T) * (dp * e2) == L2.int_brackets(pp, pp) * e1).all())


# ---------------------------------------------------------------------------
# sampled parameters; their witnesses are the fixture corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSpec:
    name: str
    params: dict
    cited: Optional[str] = None  # the reference that decides the row's lattice


SAMPLES = [
    SampleSpec("e(1,1)", {}),
    SampleSpec("e(1,1)+R", {}),
    SampleSpec("g_{4.2}^{-2}", {}),
    SampleSpec("g_{4.5}^{p,-p-1}", {"p": F(-1, 4)}),
    SampleSpec("g_{4.5}^{p,-p-1}", {"p": F(-1, 2)}),
    SampleSpec("g_{4.6}^{-2p,p}", {"p": 1}),
    SampleSpec("e(1,1)+R2", {}),
    SampleSpec("g_{4.2}^{-2}+R", {}),
    SampleSpec("g_{4.5}^{p,-p-1}+R", {"p": F(-1, 4)}),
    SampleSpec("g_{4.5}^{p,-p-1}+R", {"p": F(-1, 2)}),
    SampleSpec("g_{4.6}^{-2p,p}+R", {"p": 1}),
    SampleSpec("g_{5.7}^{p,q,r}", {"p": F(1, 6), "q": F(1, 3), "r": F(1, 2)}),
    SampleSpec("g_{5.7}^{p,q,r}", {"p": F(1, 4), "q": F(1, 4), "r": F(1, 2)}),
    SampleSpec("g_{5.7}^{p,q,r}", {"p": F(1, 3), "q": F(1, 3), "r": F(1, 3)}),
    SampleSpec("g_{5.8}^{-1}", {}),
    SampleSpec("g_{5.9}^{p,-2-p}", {"p": 1}),
    SampleSpec("g_{5.9}^{p,-2-p}", {"p": -1}, "Bock16 Thm 7.2.3"),
    SampleSpec("g_{5.11}^{-3}", {}),
    SampleSpec("g_{5.13}^{-1-2q,q,r}", {"q": F(-1, 4), "r": 1}),
    SampleSpec("g_{5.13}^{-1-2q,q,r}", {"q": F(-1, 3), "r": 1}),
    SampleSpec("g_{5.16}^{-1,q}", {"q": 1}, "Bock16 Thm 7.2.10"),
    SampleSpec("g_{5.17}^{p,-p,r}", {"p": 1, "r": 1}),
    SampleSpec("g_{5.19}^{p,-2p-2}", {"p": 1}, "Bock16 Thm 7.2.16"),
    SampleSpec("g_{5.23}^{-4}", {}, "Bock16 Thm 7.2.16"),
    SampleSpec("g_{5.25}^{p,4p}", {"p": 1}, "Bock16 Thm 7.2.16"),
    SampleSpec("g_{5.33}^{-1,-1}", {}, "Bock16 Prop 7.2.20"),
    SampleSpec("g_{5.35}^{-2,0}", {}, "Bock16 Prop 7.2.21"),
]


@lru_cache(maxsize=len(SAMPLES))
def _row_algebra(name: str, params: tuple) -> LieAlgebra:
    """The algebra of :func:`table_algebra` for validated parameters, given
    as sorted (parameter, Fraction) pairs; the memo holds every sampled
    row."""
    row = ROWS[name]
    return LieAlgebra.from_brackets(row.dim, row.brackets(row.dim, dict(params)))


# ---------------------------------------------------------------------------
# verification of a catalog row against its witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessResult:
    expected_dim: int
    found_dim: int
    kind: str
    verified: bool
    audited: bool


@dataclass(frozen=True)
class TableVerification:
    name: str
    params: dict
    expected_dims: frozenset
    witness_results: tuple
    dims_found: frozenset

    @property
    def passed(self) -> bool:
        return (
            all(
                w.found_dim == w.expected_dim and w.verified and w.audited
                for w in self.witness_results
            )
            and self.dims_found == self.expected_dims
        )


def verify_table(name: str, params=None, witnesses=None) -> TableVerification:
    """Classify the row under each witness (default: the row's fixtures),
    check the result verifies and audits, and compare the realised
    flat-dimension set with the catalog."""
    params = {k: ex.rat(v) for k, v in (params or {}).items()}
    L = table_algebra(name, params)  # validates the name and the parameters
    row = ROWS[name]
    if witnesses is None:
        witnesses = witness_specs_from_fixtures(_sample_for(name, params))
    results = []
    for w in witnesses:
        cls = classify(L, w.metric, w.theta)
        ver = verify_lcp(L, w.metric, w.theta, cls.flat).passed
        audited = False
        if ver and cls.flat_dim >= 1:
            audited = structural_audit(LCPStructure(L, w.metric, w.theta, cls.flat)).passed
        results.append(
            WitnessResult(w.expected_dim, cls.flat_dim, cls.kind, ver, audited)
        )
    return TableVerification(
        name=name,
        params=params,
        expected_dims=row.expected_flat_dims(params),
        witness_results=tuple(results),
        dims_found=frozenset(r.found_dim for r in results),
    )


def _sample_for(name, params) -> SampleSpec:
    for s in SAMPLES:
        if s.name == name and s.params == params:
            return s
    raise UnknownName(f"no shipped witnesses for {name} at {params}")


# ---------------------------------------------------------------------------
# lattice verdict per sampled row and full catalog reproduction
# ---------------------------------------------------------------------------

def sample_lattice_verdict(sample: SampleSpec, t_range=(0.0, 3.0), seed: int = 0):
    """Verdict for one sampled row, whose parameters are validated first.
    A row the literature decides (``cited``) is answered from its citation
    alone, with the row's ``lattice_status``, before any presentation and
    with no ``"verdict"``; a row
    that is not almost abelian is inconclusive.  Otherwise it is that of
    ``lattice_verdict`` on C, presented under the identity metric, whose
    certificate's rule or first witness is the evidence.  No fixture is
    read; ``seed`` is accepted and unused."""
    L = table_algebra(sample.name, sample.params)
    if sample.cited is not None:
        return {"status": ROWS[sample.name].lattice_status, "evidence": f"cited[{sample.cited}]",
                "witnesses": 0}
    pres = almost_abelian_presentation(L, Metric.identity(L.dim))
    if pres is None:  # not almost abelian: the Bock scan does not apply
        return {"status": "inconclusive", "evidence": "not almost abelian", "witnesses": 0}
    verdict = lattice_verdict(pres.matrix, label=sample.name, t_range=t_range)
    if verdict.witnesses:
        evidence = f"witness t={verdict.witnesses[0].t0:.4f} ({len(verdict.witnesses)} found)"
    elif verdict.certificates:
        evidence = verdict.rule
    else:
        evidence = "inconclusive"
    return {"status": verdict.status, "evidence": evidence, "verdict": verdict,
            "witnesses": len(verdict.witnesses)}


def reproduce_tables(t_range=(0.0, 3.0)) -> list:
    """Re-derive the catalog: every sampled row's realised flat dimension
    set and lattice verdict, in table order."""
    out = []
    for sample in SAMPLES:
        row = ROWS[sample.name]
        tv = verify_table(sample.name, sample.params)
        lat = sample_lattice_verdict(sample, t_range=t_range)
        out.append(
            {
                "table": row.table,
                "name": sample.name,
                "params": _params_str(sample.params),
                "dims_found": sorted(tv.dims_found),
                "dims_expected": sorted(tv.expected_dims),
                "witnesses_ok": tv.passed,
                "lattice_table": row.lattice_status,
                "lattice_computed": lat["status"],
                "lattice_evidence": lat["evidence"],
            }
        )
    return out


def render_tables_text(rows: list) -> str:
    lines = []
    header = f"{'name':<22} {'params':<18} {'dim u':<8} {'lattices':<16} {'computed':<14} evidence"
    for tno in (1, 2, 3):
        lines.append(f"TABLE {tno}")
        lines.append(header)
        for r in rows:
            if r["table"] != tno:
                continue
            dims = ",".join(str(d) for d in r["dims_found"])
            ok = "" if r["witnesses_ok"] else "  [WITNESS MISMATCH]"
            lines.append(
                f"{r['name']:<22} {r['params']:<18} {dims:<8} "
                f"{r['lattice_table']:<16} {r['lattice_computed']:<14} {r['lattice_evidence']}{ok}"
            )
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# the 4-dimensional non-unimodular solvable algebras (construction pool)
# ---------------------------------------------------------------------------

def _h_rr3(p):
    return {(0, 1): [0, 1, 0, 0], (0, 2): [0, 1, 1, 0]}


def _h_rr3_lam(p):
    return {(0, 1): [0, 1, 0, 0], (0, 2): [0, 0, p["lam"], 0]}


def _h_rr3p(p):
    g = p["gam"]
    return {(0, 1): [0, g, -1, 0], (0, 2): [0, 1, g, 0]}


def _h_r2r2(p):
    return {(0, 1): [0, 1, 0, 0], (2, 3): [0, 0, 0, 1]}


def _h_r2p(p):
    return {
        (0, 2): [0, 0, 1, 0],
        (0, 3): [0, 0, 0, 1],
        (1, 2): [0, 0, 0, 1],
        (1, 3): [0, 0, -1, 0],
    }


def _h_r4(p):
    return {(0, 3): [-1, 0, 0, 0], (1, 3): [-1, -1, 0, 0], (2, 3): [0, -1, -1, 0]}


def _h_r4_mu(p):
    m = p["mu"]
    return {(0, 3): [-1, 0, 0, 0], (1, 3): [0, -m, 0, 0], (2, 3): [0, -1, -m, 0]}


def _h_r4_ab(p):
    a, b = p["alpha"], p["beta"]
    return {(0, 3): [-1, 0, 0, 0], (1, 3): [0, -a, 0, 0], (2, 3): [0, 0, -b, 0]}


def _h_r4p(p):
    g, d = p["gam"], p["delta"]
    return {(0, 3): [-1, 0, 0, 0], (1, 3): [0, -g, d, 0], (2, 3): [0, -d, -g, 0]}


def _h_d4_lam(p):
    lam = p["lam"]
    return {
        (0, 1): [0, 0, 1, 0],
        (0, 3): [-lam, 0, 0, 0],
        (1, 3): [0, lam - 1, 0, 0],
        (2, 3): [0, 0, -1, 0],
    }


def _h_d4p(p):
    d = p["delta"]
    return {
        (0, 1): [0, 0, 1, 0],
        (0, 3): [-d / 2, 1, 0, 0],
        (1, 3): [-1, -d / 2, 0, 0],
        (2, 3): [0, 0, -d, 0],
    }


def _h_h4(p):
    return {
        (0, 1): [0, 0, 1, 0],
        (0, 3): [F(-1, 2), 0, 0, 0],
        (1, 3): [-1, F(-1, 2), 0, 0],
        (2, 3): [0, 0, -1, 0],
    }


NONUNIMODULAR_4D = {
    "rr3": (_h_rr3, {}),
    "rr3_lam": (_h_rr3_lam, {"lam": lambda v: -1 < v <= 1 and v != -1}),
    "rr3p_gam": (_h_rr3p, {"gam": lambda v: v > 0}),
    "r2r2": (_h_r2r2, {}),
    "r2p": (_h_r2p, {}),
    "r4": (_h_r4, {}),
    "r4_mu": (_h_r4_mu, {"mu": lambda v: v != F(-1, 2)}),
    "r4_ab": (
        _h_r4_ab,
        {
            "alpha": lambda v: -1 <= v <= 1 and v != 0,
            "beta": lambda v: -1 <= v <= 1 and v != 0,
        },
    ),
    "r4p_gd": (_h_r4p, {"gam": lambda v: v != F(-1, 2), "delta": lambda v: v > 0}),
    "d4_lam": (_h_d4_lam, {"lam": lambda v: v >= F(1, 2)}),
    "d4p_del": (_h_d4p, {"delta": lambda v: v > 0}),
    "h4": (_h_h4, {}),
}


def nonunimodular_4d(name: str, params: Optional[dict] = None) -> LieAlgebra:
    """The 4-dimensional non-unimodular solvable algebras used as the
    h-factor pool for semidirect constructions."""
    if name not in NONUNIMODULAR_4D:
        raise UnknownName(f"unknown 4-dimensional family {name!r}")
    builder, checks = NONUNIMODULAR_4D[name]
    params = {k: ex.rat(v) for k, v in (params or {}).items()}
    if set(params) != set(checks):
        raise ParamOutOfRange(f"family {name} takes parameters {tuple(checks)}")
    for k, ok in checks.items():
        if not ok(params[k]):
            raise ParamOutOfRange(f"parameter {k}={params[k]} out of range")
    return LieAlgebra.from_brackets(4, builder(params))
