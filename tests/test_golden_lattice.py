"""Lattice verdicts, byte for byte.

Each line is the ``as_dict()`` JSON of ``lattice_verdict`` on a fixed
input of ``support.golden_lattice_cases``: diag(1, -1) + 0 at n = 2..6
under a fixed rational basis on 0:3, the five complex spectra of the
benchmark's lattice-search slots under a fixed rational basis on 0:2,
the float amalgam block matrix diag(1, -1, 1, -1)/sqrt(2) on 0:3 (read
as the rationals its floats hold, so the exact step decides it), and
three inputs whose candidates go to the scan's certification: the
derogatory irrational spectrum [[0, 1], [2, 0]] + 0 (a 2x2 zero block)
under the fixed basis on 0:3, the rotation blocks J(1) + J(1) on 0:20
(exp(t0 C) = +-I at t0 = k pi), both exact, and the float
diag(20, -20, 0) on 0:3, past the listing limit.  Every witness t0, integer matrix,
polynomial, residual and ``exact`` flag is recorded at full float
precision, so a change in the exact step (the hyperbolic and amalgam
lines), the scan, its refinement or the certification that moves a t0 or
drops a witness changes the text.

Regenerate (only for a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden_lattice.py --write``.
"""

import json
import sys
from pathlib import Path

from lcplab.lattice import lattice_verdict
from support import golden_lattice_cases

GOLDEN = Path(__file__).parent / "data" / "golden_lattice.txt"


def render() -> str:
    lines = []
    for label, c, t_range in golden_lattice_cases():
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
