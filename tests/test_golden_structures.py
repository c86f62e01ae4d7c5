"""Exact outputs of the structure pipeline, byte for byte.

Thirteen structures at n = 3..8 are built from the ``construct`` recipes
with the fixed rationals below.  For each one the file records the
``classify`` kind and flat basis, the verification reports of the flat
space and of a line that fails, the structural audit, and every entry of
the Weyl connection and of its curvature.  Any change in an exact kernel
that alters one of these values changes the text.

Regenerate (only for a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden_structures.py --write``.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

from lcplab import exact as ex
from lcplab.algebra import LieAlgebra, Metric, Subspace
from lcplab.construct import (
    OrthoRep,
    almab_lcp,
    amalgamated_product,
    direct_product,
    flag_lcp,
    metric_modification,
    semidirect_lcp,
)
from lcplab.detect import LCPStructure, classify, structural_audit, verify_lcp
from lcplab.lowdim import nonunimodular_4d
from lcplab.weyl import weyl_geometry

GOLDEN = Path(__file__).parent / "data" / "golden_structures.txt"


def m(rows):
    return ex.rmat(rows)


def skew(q, vals):
    """The q x q skew matrix with upper triangle ``vals``, row by row."""
    s = ex.rzeros((q, q))
    it = iter(vals)
    for i in range(q):
        for j in range(i + 1, q):
            s[i, j] = ex.rat(next(it))
            s[j, i] = -s[i, j]
    return s


def almab(A, B, h_gram):
    return almab_lcp(m(A), m(B), Metric(m(h_gram)))


def semidirect(family, params, gram, B, free):
    h = nonunimodular_4d(family, params)
    q = B.shape[0]
    images = [B if i == free else ex.rzeros((q, q)) for i in range(4)]
    return semidirect_lcp(h, Metric(m(gram)), OrthoRep.from_matrices(q, images))


def structures():
    """(label, structure) pairs, n = 3..8."""
    a3 = almab([["2/3"]], [[0]], [[2, "1/2"], ["1/2", "3/2"]])
    a4 = almab([["-3/2"]], skew(2, ["1/3"]), [[1, "1/3"], ["1/3", 2]])
    a6 = almab(
        [[1, "1/2"], ["-1/3", "2/3"]],
        skew(3, ["1/2", -1, "2/3"]),
        [[2, "1/2", 0], ["1/2", 1, "-1/3"], [0, "-1/3", "3/2"]],
    )
    a8 = almab(
        [["1/3", 1, 0], [0, "-2/3", "1/2"], ["1/2", 0, 2]],
        skew(4, [1, "-1/2", 0, "1/3", 2, "-3/2"]),
        [[3, "1/2", 0, "1/3"], ["1/2", 2, "-1/2", 0], [0, "-1/2", 1, "1/4"], ["1/3", 0, "1/4", 2]],
    )
    b3 = almab([["-5/2"]], [[0]], [[1, "-1/3"], ["-1/3", 1]])
    b4 = almab([["3/4"]], skew(2, [2]), [[2, "-1/2"], ["-1/2", 1]])
    gram4 = [[2, "1/2", 0, "-1/3"], ["1/2", 1, "1/4", 0], [0, "1/4", "3/2", "1/2"], ["-1/3", 0, "1/2", 2]]
    return [
        ("almab n=3", a3),
        ("modify n=4", metric_modification(a4, "5/2")),
        ("flag n=5", flag_lcp(m([[3]]), skew(2, ["1/2"]), skew(2, [1]), ex.rvec(["1/3"]))),
        ("semidirect n=5 r4_mu", semidirect("r4_mu", {"mu": F(2, 3)}, gram4, m([[0]]), 3)),
        ("amalgam n=5", amalgamated_product(a3, b3)),
        ("direct n=6", direct_product(a4, LieAlgebra.abelian(2), Metric(m([[1, "1/2"], ["1/2", 3]])))),
        ("modify n=6", metric_modification(a6, "2/3")),
        ("almab n=6", a6),
        ("semidirect n=7 d4p_del", semidirect("d4p_del", {"delta": F(3, 2)}, gram4, skew(3, [1, "-1/2", "2/3"]), 3)),
        (
            "flag n=7",
            flag_lcp(
                m([[1, "1/2"], [0, "-1/3"]]),
                skew(3, [-1, "1/2", "1/3"]),
                skew(3, [2, -1, "-2/3"]),
                ex.rvec(["1/2", -2]),
            ),
        ),
        ("amalgam n=7", amalgamated_product(a4, b4)),
        ("modify n=8", metric_modification(a8, "1/4")),
        ("almab n=8", a8),
    ]


def _row(v) -> str:
    return " ".join(str(x) for x in v)


def _matrix(name, a) -> list:
    return [f"  {name} row {i}: {_row(r)}" for i, r in enumerate(a)]


def render() -> str:
    lines = []
    for label, s in structures():
        L, G, theta = s.algebra, s.metric, s.theta
        n = L.dim
        cls = classify(L, G, theta)
        flat = cls.flat
        lines.append(f"== {label}")
        lines.append(f"  theta: {_row(theta.coeffs)}")
        lines.append(f"  kind: {cls.kind}")
        lines += _matrix("flat", flat.basis)
        lines.append(f"  verify flat: {verify_lcp(L, G, theta, flat).as_dict()}")
        line = Subspace.spanned_by([[1] + [0] * (n - 1)])
        lines.append(f"  verify e1: {verify_lcp(L, G, theta, line).as_dict()}")
        lines.append(f"  audit: {structural_audit(LCPStructure(L, G, theta, flat)).as_dict()}")
        conn, curv = weyl_geometry(L, G, theta)
        for i in range(n):
            lines += _matrix(f"gamma[{i}]", conn.gamma[i])
        for i in range(n):
            for j in range(i + 1, n):
                lines += _matrix(f"R[{i}][{j}]", curv.r[i][j])
    return "\n".join(lines) + "\n"


def test_structures_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(render())
    else:
        sys.stdout.write(render())
