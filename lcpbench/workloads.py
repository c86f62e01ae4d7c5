"""The three workloads: seeded inputs, one operation per input, and the
check of each operation's output.

Inputs are plain rationals made from ``(workload, seed, round)``;
lcplab sees only those.  A round is a fixed list of input shapes (the
slots below) with fresh random values, so every run is made of whole
rounds of the same shapes whatever its seed and length.

This module imports lcplab; the worker imports it only after tracing
is installed, so the names bound here are the traced ones.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np

from lcplab import (
    LCPStructure,
    LieAlgebra,
    Metric,
    OrthoRep,
    almab_lcp,
    amalgamated_product,
    classify,
    direct_product,
    flag_lcp,
    lattice_verdict,
    maximal_flat_parallel,
    metric_modification,
    nonunimodular_4d,
    semidirect_lcp,
    structural_audit,
    verify_lcp,
)
from lcplab.fixtures import witness_specs_from_fixtures
from lcplab.lowdim import SAMPLES, sample_lattice_verdict, verify_table

F = Fraction

# catalog: `lcplab tables` defaults
CATALOG_T_RANGE = (0.0, 3.0)
# lattice-search: a diag(1,-1) + 0 with a = 1 on (0, 3] has the 18
# witnesses m = 3..20; complex-spectrum inputs are scanned on (0, 2]
HYP_A = 1
HYP_T = 3.0
CPX_T = 2.0
# one round of lattice-search; hyperbolic slots name n, complex slots a
# spectrum below.  Slot costs are chosen so that the median and the 90th
# percentile of a run fall inside a group of similar operations (the two
# c6 and the two hyperbolic n = 6 slots).
LATTICE_SLOTS = [
    ("hyperbolic", 2), ("complex", "c3"), ("hyperbolic", 3), ("complex", "c4"),
    ("hyperbolic", 4), ("complex", "c4b"), ("hyperbolic", 5), ("complex", "c5"),
    ("hyperbolic", 6), ("complex", "c6"), ("hyperbolic", 6), ("complex", "c6"),
]
# one round of structures is these shapes STRUCTURE_COPIES times, each
# with fresh values
STRUCTURE_SLOTS = [
    ("almab", 3), ("modify", 4), ("flag", 5), ("semidirect", 5), ("amalgam", 5),
    ("direct", 6), ("modify", 6), ("almab", 6), ("semidirect", 7), ("flag", 7), ("amalgam", 7),
    ("modify", 8), ("almab", 8),
]
STRUCTURE_COPIES = 3
# h-factor families and a basis index outside h', where beta may act
H_FAMILIES = {
    "rr3": 3, "rr3_lam": 3, "rr3p_gam": 3, "r2r2": 2, "r2p": 1, "r4": 3,
    "r4_mu": 3, "r4_ab": 3, "r4p_gd": 3, "d4_lam": 3, "d4p_del": 3, "h4": 3,
}


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


def input_key(obj) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:16]


def small(r, num=3, den=3, nonzero=False) -> Fraction:
    while True:
        x = F(r.randint(-num, num), r.randint(1, den))
        if x or not nonzero:
            return x


def frac_det(rows) -> Fraction:
    m = [list(row) for row in rows]
    n = len(m)
    d = F(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        d *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return d


def frac_inv(rows) -> list:
    n = len(rows)
    m = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [row[n:] for row in m]


def matmul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_orthogonal(r, n) -> list:
    """A random rational orthogonal matrix: the Cayley transform
    (I - S)(I + S)^-1 of a random rational skew matrix S."""
    sk = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(r.randint(-99, 99), r.randint(1, 99))
            sk[i][j], sk[j][i] = v, -v
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    minus = [[eye[i][j] - sk[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + sk[i][j] for j in range(n)] for i in range(n)]
    return matmul(minus, frac_inv(plus))


def conjugate(r, d) -> list:
    """Q d Q^T for a random rational orthogonal Q.  An orthogonal change
    of basis keeps the norm of the matrix, and with it the number of
    squarings, so the time, of the scan's matrix exponentials."""
    q = random_orthogonal(r, len(d))
    qt = [list(col) for col in zip(*q)]
    return matmul(matmul(q, d), qt)


def conjugate_near_identity(r, d) -> list:
    """P d P^-1 for P = I + E with random entries of E in [-1/4, 1/4]."""
    n = len(d)
    while True:
        p = [[F(int(i == j)) + F(r.randint(-8, 8), 32) for j in range(n)] for i in range(n)]
        if frac_det(p) != 0:
            return matmul(matmul(p, d), frac_inv(p))


def skew(r, q, nonzero=False) -> list:
    while True:
        m = [[F(0)] * q for _ in range(q)]
        for i in range(q):
            for j in range(i + 1, q):
                v = small(r, 2, 2)
                m[i][j], m[j][i] = v, -v
        if not nonzero or any(x for row in m for x in row):
            return m


def trace_nonzero(r, p) -> list:
    while True:
        a = [[small(r) for _ in range(p)] for _ in range(p)]
        if sum(a[i][i] for i in range(p)) != 0:
            return a


def random_gram(r, n) -> list:
    a = [[F(r.randint(-1, 1), r.randint(1, 2)) for _ in range(n)] for _ in range(n)]
    return [
        [sum(a[k][i] * a[k][j] for k in range(n)) + F(int(i == j)) for j in range(n)]
        for i in range(n)
    ]


def as_object(rows) -> np.ndarray:
    m = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            m[i, j] = x
    return m


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

class Catalog:
    """One pass = the 27 sampled rows, as ``lcplab tables`` computes
    them; the witnesses are read from the fixture corpus at set-up."""

    name = "catalog"

    def __init__(self, seed: int, rnd: int):
        self.witnesses = [witness_specs_from_fixtures(s) for s in SAMPLES]
        self.inputs = list(range(len(SAMPLES)))

    def key(self, i) -> str:
        s = SAMPLES[i]
        return input_key((s.name, sorted(s.params.items())))

    def run(self, i):
        s = SAMPLES[i]
        tv = verify_table(s.name, s.params, witnesses=self.witnesses[i])
        lat = sample_lattice_verdict(s, t_range=CATALOG_T_RANGE, seed=0)
        return tv, lat

    def check(self, i, out, checks, paper_rows):
        tv, lat = out
        row = paper_rows[i]
        s = SAMPLES[i]
        params = ",".join(f"{k}={v}" for k, v in sorted(s.params.items())) or "-"
        checks.require((row["name"], row["params"]) == (s.name, params), "row order differs from the table")
        verdict = lat.get("verdict")
        certificates = list(verdict.certificates) if verdict is not None else []
        if lat["status"] == "no" and lat["evidence"].startswith("cited["):
            certificates.append(lat["evidence"])
        witnesses = []
        if verdict is not None:
            witnesses = [(w.t0, w.integral_matrix.tolist()) for w in verdict.witnesses]
        checks.check_catalog_row(
            row, sorted(tv.dims_found), tv.passed, lat["status"], certificates, witnesses
        )


# ---------------------------------------------------------------------------
# lattice-search
# ---------------------------------------------------------------------------

def hyperbolic_input(r, n) -> list:
    """a diag(1,-1) + 0_{n-2} under a random rational change of basis.
    The basis change mixes the first min(n, 3) coordinates and then
    permutes all of them, so that for n >= 4 the repeated eigenvalue 1
    of exp(tC) stays in diagonal blocks (lcplab certifies derogatory
    exponentials only blockwise).  It stays near the identity: under a
    basis far from the eigenbasis, lcplab's certification now and then
    rejects a true witness (see CHANGES.md), which would make a run
    fail on some seeds and not on others."""
    k = min(n, 3)
    d = [[F(0)] * k for _ in range(k)]
    d[0][0], d[1][1] = F(HYP_A), F(-HYP_A)
    block = conjugate_near_identity(r, d)
    c = [[F(0)] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            c[i][j] = block[i][j]
    perm = list(range(n))
    r.shuffle(perm)
    return [[c[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


# complex-spectrum slots: rotation blocks (p, w) = [[p, -w], [w, p]] and
# real eigenvalues, trace-free, shaped like the ad-matrices of the
# g_{4.6}, g_{5.13} and g_{5.17} rows.  The spectrum of a slot is fixed
# and only the basis is random, so the scan's work per slot repeats.
COMPLEX_SPECTRA = {
    "c3": ([(F(1, 2), F(1))], [F(-1)]),
    "c4": ([(F(1, 2), F(1))], [F(-1, 4), F(-3, 4)]),
    "c4b": ([(F(1), F(1)), (F(-1), F(1))], []),
    "c5": ([(F(1, 3), F(1)), (F(1, 6), F(3, 2))], [F(-1)]),
    "c6": ([(F(1, 2), F(1)), (F(-1, 4), F(2)), (F(-1, 4), F(1, 2))], []),
}


def complex_input(r, spectrum) -> list:
    """The block-diagonal matrix of ``spectrum`` under a random rational
    change of basis."""
    blocks, reals = spectrum
    n = 2 * len(blocks) + len(reals)
    d = [[F(0)] * n for _ in range(n)]
    for b, (p, w) in enumerate(blocks):
        i = 2 * b
        d[i][i], d[i][i + 1], d[i + 1][i], d[i + 1][i + 1] = p, -w, w, p
    for k, x in enumerate(reals):
        d[2 * len(blocks) + k][2 * len(blocks) + k] = x
    return conjugate(r, d)


class LatticeSearch:
    """One round = 12 fresh trace-free matrices, n = 2..6."""

    name = "lattice-search"

    def __init__(self, seed: int, rnd: int):
        r = round_rng(self.name, seed, rnd)
        self.inputs = []
        for kind, shape in LATTICE_SLOTS:
            if kind == "hyperbolic":
                c = hyperbolic_input(r, shape)
            else:
                c = complex_input(r, COMPLEX_SPECTRA[shape])
            self.inputs.append((kind, len(c), c))

    def key(self, inp) -> str:
        return input_key(inp[2])

    def run(self, inp):
        kind, n, c = inp
        t_hi = HYP_T if kind == "hyperbolic" else CPX_T
        return lattice_verdict(as_object(c), label=f"{kind}-{n}", t_range=(0.0, t_hi), seed=0)

    def check(self, inp, verdict, checks, paper_rows):
        kind, n, c = inp
        cf = [[float(x) for x in row] for row in c]
        checks.require(not verdict.certificates, "no-lattice certificate on an input no rule covers")
        for w in verdict.witnesses:
            checks.check_witness(cf, w.t0, w.integral_matrix.tolist())
        if kind == "hyperbolic":
            checks.require(verdict.status == "yes", f"status {verdict.status!r}, expected 'yes'")
            checks.check_witness_set(
                [w.t0 for w in verdict.witnesses], checks.hyperbolic_witness_set(HYP_A, HYP_T)
            )


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def almab_input(r, n) -> dict:
    """R b |x (R^p + R^q) with a random metric on h = R b + R^p."""
    p = (n - 1) // 2
    q = n - 1 - p
    return {"A": trace_nonzero(r, p), "B": skew(r, q), "h_gram": random_gram(r, 1 + p), "q": q}


def build_almab(d):
    return almab_lcp(as_object(d["A"]), as_object(d["B"]), Metric(as_object(d["h_gram"])))


def _h_params(r, family):
    pos = lambda: F(r.randint(1, 4), r.randint(1, 3))  # noqa: E731
    unit = lambda: F(r.randint(1, 3), 3)  # noqa: E731
    return {
        "rr3_lam": lambda: {"lam": F(r.randint(-2, 3), 3)},
        "rr3p_gam": lambda: {"gam": pos()},
        "r4_mu": lambda: {"mu": pos()},
        "r4_ab": lambda: {"alpha": unit(), "beta": unit()},
        "r4p_gd": lambda: {"gam": pos(), "delta": pos()},
        "d4_lam": lambda: {"lam": F(1, 2) + pos()},
        "d4p_del": lambda: {"delta": pos()},
    }.get(family, dict)()


def structure_input(r, recipe, n) -> dict:
    """Plain-rational recipe data for a structure of dimension n, with
    the coordinates of the recipe's flat R^q in the built algebra."""
    if recipe in ("almab", "modify"):
        base = almab_input(r, n)
        out = {"base": base, "flat": list(range(n - base["q"], n))}
        if recipe == "modify":
            out["lam"] = F(r.randint(1, 4), r.randint(1, 3))
        return out
    if recipe == "flag":
        p = 1 if n <= 6 else 2
        q = n - 2 - p
        b2 = skew(r, q, nonzero=True)
        lam = small(r, 2, 2)
        b1 = [[lam * x for x in row] for row in b2]
        return {"A": trace_nonzero(r, p), "B1": b1, "B2": b2,
                "v": [small(r) for _ in range(p)], "flat": list(range(n - q, n))}
    if recipe == "semidirect":
        family = sorted(H_FAMILIES)[r.randrange(len(H_FAMILIES))]
        q = n - 4
        return {"family": family, "params": _h_params(r, family), "gram": random_gram(r, 4),
                "B": skew(r, q, nonzero=q >= 2), "flat": list(range(4, n))}
    if recipe == "direct":
        k = 2
        base = almab_input(r, n - k)
        return {"base": base, "k_gram": random_gram(r, k),
                "flat": list(range(n - k - base["q"], n - k))}
    if recipe == "amalgam":
        n1 = (n + 1) // 2
        n2 = n + 1 - n1
        f1, f2 = almab_input(r, n1), almab_input(r, n2)
        return {"factors": (f1, f2), "flat_dim": f1["q"] + f2["q"], "flat": None}
    raise ValueError(recipe)


def build_structure(recipe, inp):
    if recipe in ("almab", "modify", "direct"):
        s = build_almab(inp["base"])
        if recipe == "modify":
            s = metric_modification(s, inp["lam"])
        elif recipe == "direct":
            k = len(inp["k_gram"])
            s = direct_product(s, LieAlgebra.abelian(k), Metric(as_object(inp["k_gram"])))
        return s
    if recipe == "flag":
        return flag_lcp(as_object(inp["A"]), as_object(inp["B1"]), as_object(inp["B2"]),
                        np.array(inp["v"], dtype=object))
    if recipe == "semidirect":
        h = nonunimodular_4d(inp["family"], inp["params"])
        q = len(inp["B"])
        free = H_FAMILIES[inp["family"]]
        zero = [[F(0)] * q for _ in range(q)]
        images = [as_object(inp["B"] if i == free else zero) for i in range(4)]
        return semidirect_lcp(h, Metric(as_object(inp["gram"])), OrthoRep.from_matrices(q, images))
    if recipe == "amalgam":
        return amalgamated_product(*(build_almab(f) for f in inp["factors"]))
    raise ValueError(recipe)


class Structures:
    """One round = 39 fresh structures from the six recipes, n = 3..8."""

    name = "structures"

    def __init__(self, seed: int, rnd: int):
        r = round_rng(self.name, seed, rnd)
        self.inputs = [
            (recipe, n, structure_input(r, recipe, n))
            for recipe, n in STRUCTURE_SLOTS * STRUCTURE_COPIES
        ]

    def key(self, inp) -> str:
        recipe, n, data = inp
        return input_key((recipe, n, sorted(data.items())))

    def run(self, inp):
        recipe, n, data = inp
        s = build_structure(recipe, data)
        L, G, theta = s.algebra, s.metric, s.theta
        cls = classify(L, G, theta)
        flat = maximal_flat_parallel(L, G, theta)
        ver = verify_lcp(L, G, theta, flat)
        audit = structural_audit(LCPStructure(L, G, theta, flat))
        return s, cls, flat, ver, audit

    def check(self, inp, out, checks, paper_rows):
        recipe, n, data = inp
        s, cls, flat, ver, audit = out
        checks.require(ver.passed, "verify_lcp rejects the maximal flat space")
        checks.require(audit.passed, "structural audit fails")
        checks.require(cls.flat_dim == flat.dim, "classify and maximal_flat_parallel disagree")
        c = checks.structure_constants(s.algebra.c)
        theta = [F(x) for x in s.theta.coeffs]
        if data["flat"] is None:
            recipe_flat = checks.columns(s.flat.basis)
            checks.require(len(recipe_flat) == data["flat_dim"], "amalgam flat space has the wrong dimension")
            checks.check_abelian_ideal_in_ker_theta(c, theta, recipe_flat)
        else:
            recipe_flat = checks.coordinate_span(n, data["flat"])
        checks.check_structure(c, theta, checks.columns(flat.basis), recipe_flat, n)


WORKLOADS = {w.name: w for w in (Catalog, LatticeSearch, Structures)}
