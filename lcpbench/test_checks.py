"""Each output check accepts a right answer and rejects a hand-made
wrong one.  Run with:  python3 -m pytest lcpbench/test_checks.py
(the repository's own suite collects ``tests/`` only)."""

import math
import os
import sys
from fractions import Fraction as F

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import paper_tables  # noqa: E402

# e(1,1) as structure constants c[i][j][k]: [e1,e2] = e2, [e1,e3] = -e3
N = 3


def e11():
    c = [[[F(0)] * N for _ in range(N)] for _ in range(N)]
    c[0][1][1], c[1][0][1] = F(1), F(-1)
    c[0][2][2], c[2][0][2] = F(-1), F(1)
    return c


def witness(m):
    """closed-form witness of e(1,1) at m: t0 = arccosh(m/2)."""
    return math.acosh(m / 2), [[0, -1], [1, m]]


C = [[1.0, 0.0], [0.0, -1.0]]


def test_lie_algebra_accepts_e11_and_rejects_broken_jacobi():
    checks.check_lie_algebra(e11())
    # [e1,e2] = e3, [e2,e3] = e1, [e1,e3] = e1: Jacobi fails on (e1,e2,e3)
    c = [[[F(0)] * N for _ in range(N)] for _ in range(N)]
    for (i, j, k, v) in [(0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 0, 1)]:
        c[i][j][k], c[j][i][k] = F(v), F(-v)
    with pytest.raises(checks.CheckFailed, match="Jacobi"):
        checks.check_lie_algebra(c)


def test_lie_algebra_rejects_non_antisymmetric_bracket():
    c = e11()
    c[1][0][1] = F(1)
    with pytest.raises(checks.CheckFailed, match="antisymmetric"):
        checks.check_lie_algebra(c)


def test_unimodular_rejects_trace():
    checks.check_unimodular(e11())
    c = e11()
    c[0][2][2], c[2][0][2] = F(1), F(-1)  # ad(e1) = diag(0, 1, 1)
    with pytest.raises(checks.CheckFailed, match="tr ad"):
        checks.check_unimodular(c)


def test_closed_rejects_theta_on_derived_algebra():
    checks.check_closed(e11(), [F(-1), F(0), F(0)])
    with pytest.raises(checks.CheckFailed, match="not closed"):
        checks.check_closed(e11(), [F(0), F(1), F(0)])


def test_structure_rejects_flat_space_without_recipe_vector():
    c, theta = e11(), [F(-1), F(0), F(0)]
    e3 = checks.coordinate_span(3, [2])
    checks.check_structure(c, theta, e3, e3, 3)
    with pytest.raises(checks.CheckFailed, match="misses"):
        checks.check_structure(c, theta, checks.coordinate_span(3, [1]), e3, 3)


def test_structure_rejects_codimension_one():
    c, theta = e11(), [F(-1), F(0), F(0)]
    big = checks.coordinate_span(3, [1, 2])
    with pytest.raises(checks.CheckFailed, match="n - 2"):
        checks.check_structure(c, theta, big, checks.coordinate_span(3, [2]), 3)


def test_abelian_ideal_check_rejects_non_ideal():
    c, theta = e11(), [F(-1), F(0), F(0)]
    checks.check_abelian_ideal_in_ker_theta(c, theta, checks.coordinate_span(3, [1, 2]))
    with pytest.raises(checks.CheckFailed):
        # e1 is not in ker theta and span(e1) is no ideal
        checks.check_abelian_ideal_in_ker_theta(c, theta, checks.coordinate_span(3, [0]))


def test_witness_accepts_closed_form():
    for m in (3, 7, 20):
        t0, z = witness(m)
        checks.check_witness(C, t0, z)


@pytest.mark.parametrize(
    "t0,z,reason",
    [
        (math.acosh(5 / 2), [[0, -1], [1, 6]], "charpoly"),  # wrong m
        (math.acosh(5 / 2), [[0, -2], [1, 5]], "det"),  # det 2
        (math.acosh(5 / 2), [[F(1, 2), -1], [1, 5]], "integral"),
        (math.acosh(5 / 2), [[0, -1, 0], [1, 5, 0], [0, 0, 1]], "shape"),
    ],
)
def test_witness_rejects_wrong_matrix(t0, z, reason):
    with pytest.raises(checks.CheckFailed, match=reason):
        checks.check_witness(C, t0, z)


def test_witness_set_closed_form_for_catalog_range():
    expected = checks.hyperbolic_witness_set(1.0, 3.0)
    assert len(expected) == 18
    checks.check_witness_set([witness(m)[0] for m in range(3, 21)], expected)
    with pytest.raises(checks.CheckFailed, match="17 witnesses"):
        checks.check_witness_set([witness(m)[0] for m in range(3, 20)], expected)
    shifted = [witness(m)[0] for m in range(3, 20)] + [witness(21)[0]]
    with pytest.raises(checks.CheckFailed, match="closed form has"):
        checks.check_witness_set(shifted, expected)


def test_witness_set_scales_with_a():
    expected = checks.hyperbolic_witness_set(2.0, 1.5)
    assert [round(t * 2, 12) for t in expected] == [
        round(t, 12) for t in checks.hyperbolic_witness_set(1.0, 3.0)
    ]


def _e11_row_witnesses():
    return [(t0, z) for t0, z in (witness(m) for m in range(3, 21))]


def test_catalog_row_accepts_paper_row():
    row = paper_tables.rows()[0]
    checks.check_catalog_row(row, [1], True, "yes", [], _e11_row_witnesses())


@pytest.mark.parametrize(
    "index,dims,ok,status,certs,witnesses,reason",
    [
        (0, [1, 2], True, "yes", [], "e11", "flat dimensions"),
        (0, [1], False, "yes", [], "e11", "shipped witness"),
        (0, [1], True, "inconclusive", [], [], "lattice 'yes'"),
        (0, [1], True, "yes", [], "e11-missing", "17 witnesses"),
        (2, [1], True, "inconclusive", [], [], "lattice 'no'"),
        (2, [1], True, "no", [], [], "without a certificate"),
        (3, [1], True, "yes", [], [(1.0, [[2, 1], [1, 1]])], "no transcribed spectrum"),
    ],
)
def test_catalog_row_rejects_wrong_answers(index, dims, ok, status, certs, witnesses, reason):
    row = paper_tables.rows()[index]
    if witnesses == "e11":
        witnesses = _e11_row_witnesses()
    elif witnesses == "e11-missing":
        witnesses = _e11_row_witnesses()[:-1]
    with pytest.raises(checks.CheckFailed, match=reason):
        checks.check_catalog_row(row, dims, ok, status, certs, witnesses)


def test_catalog_row_rejects_unsound_witness():
    row = paper_tables.rows()[0]
    ws = _e11_row_witnesses()
    ws[4] = (ws[4][0], [[0, -1], [1, 8]])  # m = 7 witness with the m = 8 matrix
    with pytest.raises(checks.CheckFailed, match="charpoly"):
        checks.check_catalog_row(row, [1], True, "yes", [], ws)


def test_int_charpoly_and_det_are_exact():
    z = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
    assert checks.det(z) == 1
    assert checks.int_charpoly(z) == [1, -4, 4, -1]
    assert np.allclose(np.poly(np.array(z, dtype=float)), [1, -4, 4, -1])
