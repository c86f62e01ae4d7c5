"""The codim2_highdim rule: C, m x m with m = n - 1 >= 4, semisimple,
with a simple real eigenvalue a != 0 and every other eigenvalue of real
part -c, c = a / (m - 1).  Such a C is diag(a) + (B - c I) for a
rational skew B under a rational basis, and ``almab_lcp([[a]], B)`` is
the LCP structure of flat codimension 2 that the rule rests on."""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from lcplab import exact as ex
from lcplab.algebra import almost_abelian_presentation
from lcplab.construct import almab_lcp
from lcplab.intpoly import IntPoly, companion
from lcplab.lattice import lattice_verdict, no_lattice_codim2
from support import conjugate, conjugated, direct_sum, rational_basis, reye

F = Fraction


def blocks(*parts):
    """The block-diagonal matrix of the square ``parts``, as Fractions."""
    return ex.rmat(direct_sum(parts))


def rotation(p, w):
    return [[p, -w], [w, p]]


def shifted_companion(g):
    """companion(g) - I, whose eigenvalues are -1 + the roots of g."""
    c = companion(IntPoly(g))
    return ex.rmat(c.tolist()) - reye(len(c))


def charpoly(c) -> list:
    return [F(x) for x in ex.charpoly(c)]


def same_up_to_scale(p, q) -> bool:
    """Is q_i = s^i p_i for some s != 0, that is, q the characteristic
    polynomial of s C where p is that of C?"""
    if [x == 0 for x in p] != [x == 0 for x in q]:
        return False
    ratios = [(i, q[i] / p[i]) for i in range(1, len(p)) if p[i]]
    return all(r ** j == s ** i for i, r in ratios for j, s in ratios)


@st.composite
def codim2_shapes(draw):
    """(a, B, C): a != 0, B rational skew (m - 1) x (m - 1) for m = 4..7,
    and C = diag(a) + (B - c I) under a random rational basis."""
    m = draw(st.integers(4, 7))
    q = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    a = draw(q.filter(bool))
    b = ex.rzeros((m - 1, m - 1))
    for i in range(m - 1):
        for j in range(i + 1, m - 1):
            b[i, j] = draw(q)
            b[j, i] = -b[i, j]
    return a, b, draw(conjugated(blocks([[a]], b - a / (m - 1) * reye(m - 1)), rational_basis))


@settings(max_examples=100, deadline=None)
@given(codim2_shapes())
def test_the_rule_fires_on_every_codim2_shape(shape):
    a, b, c = shape
    n = c.shape[0] + 1
    cert = no_lattice_codim2(c)
    assert cert.rule == "codim2_highdim" and cert.data == {"dim": n, "flat_dim": n - 2}
    # in a verdict it decides unless every eigenvalue is real (B = 0),
    # where the multiple root -c goes to double_root first
    v = lattice_verdict(c, t_range=(0.0, 3.0))
    event(f"m = {n - 1}, {v.rule}")
    assert v.status == "no"
    assert v.rule == ("codim2_highdim" if any(b.ravel().tolist()) else "double_root")
    # the structure the "no" rests on: verified, of flat dimension n - 2,
    # and presenting a C with the same spectrum up to scale
    s = almab_lcp([[a]], b)
    assert s.verify().passed and (s.algebra.dim, s.flat_dim) == (n, n - 2)
    presented = almost_abelian_presentation(s.algebra, s.metric).matrix
    assert same_up_to_scale(charpoly(c), charpoly(presented))


# one condition broken each, next to a twin that keeps it
BROKEN = {
    # m = 4, a = 1: real parts -1/4, -1/4 and -1/2 instead of -1/3
    "unequal real parts": (
        blocks([[1]], rotation(F(-1, 4), 1), [[F(-1, 2)]]),
        blocks([[1]], rotation(F(-1, 3), 1), [[F(-1, 3)]]),
    ),
    # m = 5, a = 4, c = 1: a Jordan block at -1 in V
    "Jordan block in V": (
        blocks([[4]], [[-1, 1], [0, -1]], rotation(-1, 1)),
        blocks([[4]], [[-1, 0], [0, -1]], rotation(-1, 1)),
    ),
    # m = 5: a = 0 leaves V imaginary
    "a = 0": (
        blocks([[0]], rotation(0, 1), rotation(0, 2)),
        blocks([[4]], rotation(-1, 1), rotation(-1, 2)),
    ),
    # the next three pass the gcd with the cubic, so their candidate a is
    # checked: m = 5, a = 4, real parts 0 and -2 (h(y^2) = y^4 + 4 has no
    # real root)
    "real parts 0 and -2": (
        blocks([[4]], rotation(0, 1), rotation(-2, 1)),
        blocks([[4]], rotation(-1, 1), rotation(-1, 1)),
    ),
    # m = 5: a = 4 twice and -6, -1 +- i (h has the positive root 25)
    "a repeated": (
        blocks([[4]], [[4]], [[-6]], rotation(-1, 1)),
        blocks([[4]], [[-1]], [[-1]], rotation(-1, 1)),
    ),
    # m = 6, a = 5, c = 1: the others are -1 + the roots of g(y) =
    # y^5 + 1, which is neither even nor odd, though its even part y^5 is
    # y h(y^2) with h(z) = z^2; the twin has g(y) = y (y^2 + 1) (y^2 + 4)
    "g(y) = y^5 + 1": (
        blocks([[5]], shifted_companion((1, 0, 0, 0, 0, 1))),
        blocks([[5]], shifted_companion((1, 0, 5, 0, 4, 0))),
    ),
    # m = 3: n = 4
    "m = 3": (
        blocks([[1]], rotation(F(-1, 2), 1)),
        blocks([[1]], rotation(F(-1, 3), 1), [[F(-1, 3)]]),
    ),
}


@pytest.mark.parametrize("broken, kept", BROKEN.values(), ids=list(BROKEN))
def test_the_rule_declines_when_one_condition_breaks(broken, kept):
    basis = ex.rmat([[1, 1, 0, 0, 0, 0], [0, 1, 2, 0, 0, 0], [0, 0, 1, -1, 0, 0],
                     [1, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 2], [0, 1, 0, 0, 0, 1]])
    for c in (broken, conjugate(basis[: len(broken), : len(broken)], broken)):
        assert no_lattice_codim2(c) is None
        assert lattice_verdict(c, t_range=(0.0, 1.0)).rule != "codim2_highdim"
    assert no_lattice_codim2(conjugate(basis[: len(kept), : len(kept)], kept)) is not None
