"""Malformed input is refused by the entry point that reads it, with the
exception type that names the fault, before any work is done."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from lcplab import exact as ex
from lcplab.algebra import LieAlgebra, Metric, OneForm, Subspace
from lcplab.construct import OrthoRep, direct_product, metric_modification
from lcplab.detect import LCPStructure, structural_audit
from lcplab.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    DocumentError,
    NonClosedLeeForm,
    NotAdapted,
    NotSymmetric,
    ParamOutOfRange,
    PreconditionViolated,
    UnknownName,
    ZeroLeeForm,
)
from lcplab.fixtures import fixture_name, parse_label, witness_specs_from_fixtures
from lcplab.intpoly import IntPoly
from lcplab.lattice import _scanned_range, integer_charpoly_scan, lattice_verdict
from lcplab.lowdim import SAMPLES, nonunimodular_4d, table_algebra, verify_table
from support import FIXTURES, e11

E11 = e11()
THETA = OneForm([-1, 0, 0])


def e11_structure(flat_columns):
    """e(1,1) with the identity metric, its closed Lee form -e^1 and the
    given flat columns; the structure is not checked."""
    return LCPStructure(E11, Metric.identity(3), THETA, Subspace(ex.rmat(flat_columns), 3))


def so3_plus_r():
    """so(3) + R: not solvable, with the closed Lee form e^4."""
    L = LieAlgebra.from_brackets(
        4, {(0, 1): [0, 0, 1, 0], (1, 2): [1, 0, 0, 0], (0, 2): [0, -1, 0, 0]}
    )
    flat = Subspace(ex.rmat([[0], [0], [0], [1]]), 4)
    return LCPStructure(L, Metric.identity(4), OneForm([0, 0, 0, 1]), flat)


NOT_ADAPTED = [[1], [0], [0]]  # theta(e1) != 0

CASES = {
    # algebra
    "structure-constants-shape": (
        lambda: LieAlgebra(ex.rzeros((2, 2))), DimensionMismatch, r"\(n, n, n\)"),
    "bracket-pair": (
        lambda: LieAlgebra.from_brackets(3, {(1, 0): [0, 0, 1]}), DimensionMismatch, "bracket pair"),
    "bracket-coefficients": (
        lambda: LieAlgebra.from_brackets(3, {(0, 1): [0, 1]}), DimensionMismatch, "coefficient count"),
    "bracket-coefficients-nested": (
        lambda: LieAlgebra.from_brackets(2, {(0, 1): [[0], [1]]}), DimensionMismatch, "not sequences"),
    "bracket-operands": (lambda: E11.bracket([1, 0], [0, 1, 0]), DimensionMismatch, "operands"),
    "gram-not-symmetric": (lambda: Metric([[1, 1], [0, 1]]), NotSymmetric, "symmetric"),
    "gram-empty": (lambda: Metric([]), DimensionMismatch, "Gram matrix needs 2 dimensions"),
    "gram-not-square": (lambda: Metric([[1, 2]]), DimensionMismatch, "Gram matrix must be square"),
    "span-of-nothing": (lambda: Subspace.spanned_by([]), DimensionMismatch, "ambient_dim"),
    "basis-not-a-matrix": (lambda: Subspace([1, 2]), DimensionMismatch, "basis matrix needs 2 dimensions"),
    "coefficients-not-a-row": (lambda: OneForm([[1, 2]]), DimensionMismatch, "row needs 1 dimension"),
    # exact
    "ragged-matrix": (lambda: ex.rmat([[1, 2], [3]]), DimensionMismatch, "ragged"),
    "empty-matrix": (lambda: ex.rmat([]), DimensionMismatch, "matrix needs 2 dimensions"),
    "solve-shapes": (
        lambda: ex.solve(ex.rmat([[1, 0], [0, 1]]), ex.rvec([1, 2, 3])), DimensionMismatch, "solve"),
    "inverse-not-square": (
        lambda: ex.int_inv(np.array([[1, 0, 0], [0, 1, 0]], dtype=object)), DimensionMismatch, "inv"),
    "det-not-square": (lambda: ex.det(ex.rmat([[1, 0, 0], [0, 1, 0]])), DimensionMismatch, "det"),
    # rational strings: the grammar of documents, wherever they enter
    "rational-decimal": (lambda: ex.rmat([["0.1"]]), ValueError, "malformed rational '0.1'"),
    "rational-spaces": (
        lambda: table_algebra("g_{4.6}^{-2p,p}", {"p": " 3/4 "}), ValueError, "malformed rational"),
    "rational-underscore": (lambda: OneForm(["1_000", 0, 0]), ValueError, "malformed rational"),
    "rational-exponent": (
        lambda: LieAlgebra.from_brackets(3, {(0, 1): ["1e3", 0, 0]}), ValueError, "malformed rational"),
    "rational-not-reduced": (lambda: Metric([["2/4"]]), ValueError, "non-reduced rational"),
    "rational-non-ascii-digit": (
        lambda: nonunimodular_4d("rr3_lam", {"lam": "\u0663/4"}), ValueError, "malformed rational"),
    # records checked on construction, by every constructor
    "structure-dim-too-small": (
        lambda: LCPStructure(LieAlgebra.abelian(2), Metric.identity(2), OneForm([1, 0]), Subspace.zero(2)),
        DimensionTooSmall, "dim >= 3"),
    "structure-zero-lee-form": (
        lambda: LCPStructure(E11, Metric.identity(3), OneForm.zero(3), Subspace.zero(3)), ZeroLeeForm, "nonzero"),
    "structure-lee-form-not-closed": (
        lambda: LCPStructure(E11, Metric.identity(3), OneForm([0, 1, 0]), Subspace.zero(3)),
        NonClosedLeeForm, "vanish on g'"),
    "structure-replace": (
        lambda: e11_structure([[0], [0], [1]])._replace(theta=OneForm.zero(3)), ZeroLeeForm, "nonzero"),
    "intpoly-replace": (lambda: IntPoly((1, 2))._replace(coeffs=(1, 0.5)), TypeError, "not an integer"),
    # structural audit preconditions
    "audit-not-solvable": (lambda: structural_audit(so3_plus_r()), PreconditionViolated, "not solvable"),
    "audit-zero-flat": (
        lambda: structural_audit(e11_structure(np.zeros((3, 0)))), PreconditionViolated, "flat subspace"),
    "audit-not-verified": (
        lambda: structural_audit(e11_structure(NOT_ADAPTED)), PreconditionViolated, "does not verify"),
    # constructions
    "ortho-image-shape": (lambda: OrthoRep(2, [[[1]]]), DimensionMismatch, "wrong shape"),
    "ortho-image-count": (
        lambda: OrthoRep(2, [ex.rzeros((2, 2))]).validate(E11), DimensionMismatch, "one image per"),
    "direct-not-adapted": (
        lambda: direct_product(e11_structure(NOT_ADAPTED), LieAlgebra(ex.rzeros((1, 1, 1))), Metric([[1]])),
        NotAdapted, "direct products"),
    "modify-not-adapted": (
        lambda: metric_modification(e11_structure(NOT_ADAPTED), 1), NotAdapted, "metric modification"),
    # catalog
    "g57-sum": (
        lambda: table_algebra("g_{5.7}^{p,q,r}", {"p": F(1, 6), "q": F(1, 3), "r": F(1, 3)}),
        ParamOutOfRange, r"p \+ q \+ r = 1"),
    "no-shipped-witness": (
        lambda: verify_table("g_{4.5}^{p,-p-1}", {"p": F(-1, 3)}), UnknownName, "no shipped witnesses"),
    "4d-parameter-set": (lambda: nonunimodular_4d("rr3_lam", {}), ParamOutOfRange, "takes parameters"),
    # fixtures
    "fixture-label": (lambda: parse_label("e(1,1) | -"), DocumentError, "is not"),
    "fixture-label-dim": (lambda: parse_label("e(1,1) | - | dim 1x"), DocumentError, "malformed dimension '1x'"),
    "fixture-label-long-dim": (
        lambda: parse_label("e(1,1) | - | dim " + "7" * 5000), DocumentError, "dimension of 5000 digits"),
}


@pytest.mark.parametrize("make, error, message", CASES.values(), ids=CASES.keys())
def test_malformed_input_is_refused(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_a_fixture_without_theta_is_refused(tmp_path, monkeypatch):
    name = fixture_name(SAMPLES[0], 0)
    text = (FIXTURES / name).read_text()
    kept = [line for line in text.splitlines(True) if not line.startswith("theta")]
    (tmp_path / name).write_text("".join(kept))
    monkeypatch.setenv("LCPLAB_FIXTURES", str(tmp_path))
    with pytest.raises(DocumentError, match="no theta"):
        witness_specs_from_fixtures(SAMPLES[0])


@pytest.mark.parametrize(
    "t_range, refused",
    [((0.0, math.nan), True), ((math.nan, 1.0), True), ((3.0, 1.0), True),
     ((1.0, 1.0), False), ((-math.inf, 0.0), False)],
    ids=["nan-hi", "nan-lo", "reversed", "empty", "infinite"],
)
def test_a_t_range_must_be_ordered_without_nan(t_range, refused):
    # lattice_verdict checks the range before any rule, so also where
    # double_root decides (J_2(1) + (-2), diag(2, -1, -1)), which reads
    # no range; trace_levels (diag(2, -2)) and the scan (+-sqrt(2)) read
    # it through lattice._scanned_range.  An empty range and an infinite
    # end are valid, and the envelope bounds the end
    double_roots = (ex.rmat([[1, 1, 0], [0, 1, 0], [0, 0, -2]]), ex.rmat([[2, 0, 0], [0, -1, 0], [0, 0, -1]]))
    for c in (ex.rmat([[2, 0], [0, -2]]), ex.rmat([[0, 1], [2, 0]]), *double_roots):
        if refused:
            for call in (lattice_verdict, integer_charpoly_scan):
                with pytest.raises(ParamOutOfRange, match="t-range"):
                    call(c, t_range=t_range)
        else:
            lo, hi = _scanned_range(c, t_range)
            assert math.isfinite(lo) and lo <= hi == t_range[1]
