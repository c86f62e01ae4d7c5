"""Lattice verdicts, byte for byte.

Each line is the ``as_dict()`` JSON of ``lattice_verdict`` on a fixed
input: diag(1, -1) + 0 at n = 2..6 under a fixed rational basis on 0:3,
the five complex spectra of the benchmark's lattice-search slots under a
fixed rational basis on 0:2, the float amalgam block matrix
diag(1, -1, 1, -1)/sqrt(2) on 0:3 (read as the rationals its floats
hold, so the exact step decides it), and three inputs whose candidates go
to the scan's certification: the derogatory irrational spectrum
[[0, 1], [2, 0]] + 0 (a 2x2 zero block) under the fixed basis on 0:3,
the rotation blocks J(1) + J(1) on 0:20 (exp(t0 C) = +-I at t0 = k pi),
both exact, and the float diag(20, -20, 0) on 0:3, past the listing
limit.  Every witness t0, integer matrix, polynomial, residual and
``exact`` flag is recorded at full float precision, so a change in the
exact step (the hyperbolic and amalgam lines), the scan, its refinement
or the certification that moves a t0 or drops a witness changes the
text.

Regenerate (only for a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden_lattice.py --write``.
"""

import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from lcplab import exact as ex
from lcplab.lattice import lattice_verdict
from support import dot, inv

GOLDEN = Path(__file__).parent / "data" / "golden_lattice.txt"

# a near-identity rational basis change, as the benchmark's hyperbolic
# inputs use
P3 = [[1, F(1, 4), F(-1, 8)], [F(-3, 16), 1, F(1, 8)], [F(1, 16), F(-1, 4), 1]]
# rotation blocks (p, w) = [[p, -w], [w, p]] and real eigenvalues
COMPLEX_SPECTRA = {
    "c3": ([(F(1, 2), 1)], [-1]),
    "c4": ([(F(1, 2), 1)], [F(-1, 4), F(-3, 4)]),
    "c4b": ([(1, 1), (-1, 1)], []),
    "c5": ([(F(1, 3), 1), (F(1, 6), F(3, 2))], [-1]),
    "c6": ([(F(1, 2), 1), (F(-1, 4), 2), (F(-1, 4), F(1, 2))], []),
}


def conjugated(d, p):
    """p d p^-1 on exact rationals."""
    d, p = ex.rmat(d), ex.rmat(p)
    return dot(dot(p, d), inv(p))


def near_identity(n):
    """P3 in the top-left corner (or its 2x2 corner for n = 2), identity
    elsewhere."""
    k = min(n, 3)
    p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(k):
        for j in range(k):
            p[i][j] = F(P3[i][j])
    return p


def hyperbolic(n):
    d = [[0] * n for _ in range(n)]
    d[0][0], d[1][1] = 1, -1
    return conjugated(d, near_identity(n))


def complex_spectrum(blocks, reals):
    n = 2 * len(blocks) + len(reals)
    d = [[0] * n for _ in range(n)]
    for b, (p, w) in enumerate(blocks):
        i = 2 * b
        d[i][i], d[i][i + 1], d[i + 1][i], d[i + 1][i + 1] = p, -w, w, p
    for k, x in enumerate(reals):
        d[2 * len(blocks) + k][2 * len(blocks) + k] = x
    return conjugated(d, near_identity(n))


def cases():
    for n in range(2, 7):
        yield f"hyperbolic-{n}", hyperbolic(n), (0.0, 3.0)
    for name, (blocks, reals) in COMPLEX_SPECTRA.items():
        yield f"complex-{name}", complex_spectrum(blocks, reals), (0.0, 2.0)
    yield "amalgam-4", np.diag([1.0, -1.0, 1.0, -1.0]) / math.sqrt(2), (0.0, 3.0)
    irrational = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    yield "irrational-derogatory-4", conjugated(irrational, near_identity(4)), (0.0, 3.0)
    rotations = ex.rmat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    yield "rotations-4", rotations, (0.0, 20.0)
    yield "diag-20", np.diag([20.0, -20.0, 0.0]), (0.0, 3.0)


def render() -> str:
    lines = []
    for label, c, t_range in cases():
        v = lattice_verdict(c, label=label, t_range=t_range, seed=0)
        lines.append(json.dumps(v.as_dict()))
    return "\n".join(lines) + "\n"


def test_lattice_verdicts_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(render())
    else:
        sys.stdout.write(render())
