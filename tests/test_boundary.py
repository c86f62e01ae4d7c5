"""Exact data enters lcplab through one reader (``exact.scaled``, with
``exact.as_form`` on top of it) and is handed out as one read-only view
(``exact.view``).

Every accepted spelling of the same values builds equal objects:
``Fraction``s, ints, numpy ints, 'p/q' strings, as nested lists or
object arrays, and integer forms ``(ints, den)``, which the lattice plan
does not take.  A float entry is refused (the lattice plan reads it as
the dyadic rational it is), every view refuses writes, and a ragged row
is a ``DimensionMismatch``."""

from fractions import Fraction as F
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcplab import exact as ex
from lcplab.algebra import LieAlgebra, Metric, OneForm, Subspace, almost_abelian_presentation
from lcplab.construct import OrthoRep, almab_lcp
from lcplab.errors import DimensionMismatch
from lcplab.lattice import lattice_verdict
from lcplab.weyl import weyl_geometry

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)

SPELLINGS = {
    "fraction": lambda x: x,
    "int": lambda x: int(x) if x.denominator == 1 else x,
    "numpy-int": lambda x: np.int64(x) if x.denominator == 1 else x,
    "string": str,
}


def entry_forms(a) -> dict:
    """The values of the ``Fraction`` array ``a`` in every accepted
    spelling of entries, each as nested lists and as an object array."""
    out = {}
    for name, spell in SPELLINGS.items():
        arr = np.empty(a.shape, dtype=object)
        arr.ravel()[:] = [spell(x) for x in a.ravel().tolist()]
        out[f"{name}-lists"], out[f"{name}-array"] = arr.tolist(), arr
    return out


def all_forms(a) -> dict:
    """:func:`entry_forms` and an integer form of ``a``, over twice the
    lcm of its denominators, so not reduced."""
    den = 2 * lcm(*(x.denominator for x in a.ravel().tolist()))
    ints = np.empty(a.shape, dtype=object)
    ints.ravel()[:] = [int(x * den) for x in a.ravel().tolist()]
    return {**entry_forms(a), "integer-form": (ints, den)}


def fractions(draw, *shape):
    """An object array of drawn ``Fraction``s."""
    size = prod(shape)
    return np.array(draw(st.lists(small, min_size=size, max_size=size)), dtype=object).reshape(shape)


def almost_abelian_c(m):
    """Structure constants of R e_0 |x_m Q^n: [e_0, e_i] = m e_i."""
    n = m.shape[0]
    c = np.full((n + 1,) * 3, F(0), dtype=object)
    c[0, 1:, 1:], c[1:, 0, 1:] = m.T, -m.T
    return c


def skew_stack(a):
    """a - a^T for each matrix of the stack ``a``."""
    return a - a.transpose(0, 2, 1)


def structure_forms(s) -> tuple:
    return s.algebra, s.metric, s.theta, s.flat


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_every_spelling_of_the_same_values_builds_equal_objects(data):
    draw = data.draw
    n = draw(st.integers(2, 3))
    m = fractions(draw, n, n)
    c = almost_abelian_c(m)
    want = LieAlgebra(c)
    for c_form in all_forms(c).values():
        assert LieAlgebra(c_form) == want
    rows = c[0, 1:]  # the bracket [e_0, e_i] is row i - 1
    for rows_form in entry_forms(rows).values():
        assert LieAlgebra.from_brackets(n + 1, {(0, i + 1): r for i, r in enumerate(rows_form)}) == want

    a = fractions(draw, n, n)
    gram = a.T.dot(a) + np.eye(n, dtype=int).astype(object)
    for g_form in all_forms(gram).values():
        assert Metric(g_form) == Metric(gram)

    v = fractions(draw, n)
    for v_form in all_forms(v).values():
        assert OneForm(v_form) == OneForm(v)

    basis = fractions(draw, n, 2)
    span = Subspace(basis)
    for b_form in all_forms(basis).values():
        assert Subspace(b_form) == span
    for vs_form in entry_forms(basis.T).values():
        assert Subspace.spanned_by(vs_form) == span

    images = skew_stack(fractions(draw, 2, n, n))
    rep = OrthoRep(n, images).scaled_images
    for i_form in all_forms(images).values():
        got = OrthoRep(n, i_form).scaled_images
        assert (got[0].tolist(), got[1]) == (rep[0].tolist(), rep[1])

    A = fractions(draw, 2, 2)
    if A.trace() == 0:
        A[1, 1] += 1
    B = skew_stack(fractions(draw, 1, n, n))[0]
    s = structure_forms(almab_lcp(A, B))
    for (a_name, a_form), b_form in zip(all_forms(A).items(), all_forms(B).values()):
        assert structure_forms(almab_lcp(a_form, b_form)) == s, a_name

    x, y, z = fractions(draw, 3)
    C = np.array([[x, y], [z, -x]], dtype=object)
    verdict = lattice_verdict(C, t_range=(0.0, 2.0)).as_dict()
    for c_form in entry_forms(C).values():
        assert lattice_verdict(c_form, t_range=(0.0, 2.0)).as_dict() == verdict


E11_C = almost_abelian_c(np.array([[F(1), F(0)], [F(0), F(-1)]], dtype=object))
FLOAT_ENTRIES = {
    "algebra": lambda: LieAlgebra(np.where(E11_C == 1, 1.0, E11_C)),
    "brackets": lambda: LieAlgebra.from_brackets(2, {(0, 1): [0, 0.5]}),
    "metric": lambda: Metric([[1.0, 0], [0, 1]]),
    "one-form": lambda: OneForm(np.array([0.5, 1], dtype=object)),
    "subspace": lambda: Subspace(np.array([[1.0], [0]], dtype=object)),
    "spanned-by": lambda: Subspace.spanned_by([[0.5, 1]]),
    "ortho-rep": lambda: OrthoRep(2, [[[0, -1.0], [1, 0]]]),
    "almab": lambda: almab_lcp([[1.0]], [[0]]),
    "rmat": lambda: ex.rmat([[1, 0.5]]),
}


@pytest.mark.parametrize("make", FLOAT_ENTRIES.values(), ids=FLOAT_ENTRIES.keys())
def test_a_float_entry_is_refused(make):
    with pytest.raises(TypeError):
        make()


def test_the_lattice_plan_reads_a_float_as_its_dyadic_rational():
    exact = lattice_verdict([[F(1, 2), 0], [0, F(-1, 2)]], t_range=(0.0, 3.0))
    floats = lattice_verdict([[0.5, 0], [0, -0.5]], t_range=(0.0, 3.0))
    assert floats.rule == exact.rule and floats.status == exact.status == "yes"


def views():
    """Every read-only view lcplab hands out, by name."""
    L = LieAlgebra(E11_C)
    G, theta = Metric.identity(3), OneForm([-1, 0, 0])
    conn, curv = weyl_geometry(L, G, theta)
    return {
        "LieAlgebra.c": L.c,
        "Metric.gram": G.gram,
        "Metric.inverse": G.inverse,
        "OneForm.coeffs": theta.coeffs,
        "Subspace.basis": Subspace(np.array([[1], [0], [0]], dtype=object)).basis,
        "AlmostAbelianPresentation.matrix": almost_abelian_presentation(L, G).matrix,
        "OrthoRep.images": OrthoRep(2, [[[0, -1], [1, 0]]]).images[0],
        "Connection.gamma": conn.gamma[0],
        "Curvature.r": curv.r[0][1],
        "Curvature.r (lower)": curv.r[1][0],
        "Curvature.r (diagonal)": curv.r[0][0],
    }


@pytest.mark.parametrize("name", views())
def test_every_view_refuses_writes(name):
    view = views()[name]
    with pytest.raises(ValueError, match="read-only"):
        view[(0,) * view.ndim] = F(7)


RAGGED = {
    "algebra": lambda: LieAlgebra([[[0, 0], [0]], [[0, 0], [0, 0]]]),
    "brackets": lambda: LieAlgebra.from_brackets(2, {(0, 1): [[0], [1, 2]]}),
    "metric": lambda: Metric([[1, 0], [0]]),
    "one-form": lambda: OneForm([[1], [0, 1]]),
    "subspace": lambda: Subspace([[1, 0], [0]]),
    "spanned-by": lambda: Subspace.spanned_by([[1, 0], [0]]),
    "ortho-rep": lambda: OrthoRep(2, [[[0, -1], [1]]]),
    "almab": lambda: almab_lcp([[1]], [[0, 1], [-1]]),
    "lattice": lambda: lattice_verdict([[1, 0], [0]]),
    "rmat": lambda: ex.rmat([[1, 2], [3]]),
}


@pytest.mark.parametrize("make", RAGGED.values(), ids=RAGGED.keys())
def test_a_ragged_row_is_a_dimension_mismatch(make):
    with pytest.raises(DimensionMismatch):
        make()
