import pytest

from lcplab.algebra import Metric, OneForm, Subspace
from lcplab.docfmt import parse_document, render_document
from lcplab.errors import DocumentError

SAMPLE = """# the hyperbolic plane motions
dim 3
label e(1,1)
bracket 1 2 : 0 1 0
bracket 1 3 : 0 0 -1
theta : -1 0 0
flat : 0 0 1
"""


def test_parse_sample():
    doc = parse_document(SAMPLE)
    assert doc.dim == 3 and doc.label == "e(1,1)"
    L = doc.algebra()
    assert L.dim == 3
    assert doc.metric() == Metric.identity(3)
    assert doc.one_form() == OneForm.dual(3, 0, -1)
    assert doc.flat() == Subspace.spanned_by([[0, 0, 1]])


def test_roundtrip():
    doc = parse_document(SAMPLE)
    text = render_document(doc.algebra(), doc.metric(), doc.one_form(), doc.flat(), label=doc.label)
    doc2 = parse_document(text)
    assert doc2.brackets == doc.brackets
    assert doc2.theta == doc.theta
    assert doc2.label == doc.label


def test_metric_and_blocks():
    doc = parse_document(
        "dim 2\nmetric : 2 1 ; 1 2\nblock A : 1 0 ; 0 1\nscalar q 2\n"
    )
    assert doc.metric().gram[0, 0] == 2
    assert doc.block("A").shape == (2, 2)
    assert doc.scalars["q"] == 2


@pytest.mark.parametrize(
    "text,frag",
    [
        ("dim 3\nbracket 1 2 : 0 2/4 0", "non-reduced"),
        ("dim 3\nbracket 1 2 : 0 1/0 0", "zero denominator"),
        ("dim 3\nbracket 1 2 : 0 1.5 0", "malformed"),
        ("dim 3\nbracket 2 1 : 0 1 0", "1 <= i < j"),
        ("dim 3\nbracket 1 2 : 0 1 0\nbracket 1 2 : 0 1 0", "duplicate"),
        ("bracket 1 2 : 0 1 0", "dim directive"),
        ("dim 3\nbroket 1 2 : 0 1 0", "unknown directive"),
        ("dim 0", "positive"),
        ("dim 17", "envelope"),
        ("dim 2000", "envelope"),
        ("dim 3\nbracket 1 2 : 0 1", "expected 3"),
        ("dim 2\nmetric : 1 0", "2 rows"),
        ("dim 3\nbracket 1 2 : 0 \u00b2 0", "malformed"),
        ("dim 3\nbracket 1 2 : 0 " + "7" * 5000 + " 0", "too long"),
        ("dim 1_0", "malformed dimension"),
        ("dim \u0663", "malformed dimension"),
        ("dim +3", "malformed dimension"),
        ("dim 3\nbracket \u0661 2 : 0 1 0", "malformed bracket index"),
    ],
)
def test_parse_errors(text, frag):
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert frag in str(err.value)


@pytest.mark.parametrize(
    "second, frag",
    [
        ("theta : 2 0 0", "duplicate theta directive"),
        ("metric : 2 0 0 ; 0 1 0 ; 0 0 1", "duplicate metric directive"),
        ("flat : 0 1 0", "duplicate flat directive"),
        ("block A : 2", "duplicate block A"),
        ("scalar q 3", "duplicate scalar q"),
    ],
    ids=["theta", "metric", "flat", "block", "scalar"],
)
def test_a_second_directive_is_refused(second, frag):
    # the first of each is read, and a second is a line-tagged error, as a
    # second dim or bracket i j is, rather than a silent overwrite
    first = {
        "theta": "theta : 1 0 0",
        "metric": "metric : 1 0 0 ; 0 1 0 ; 0 0 1",
        "flat": "flat : 0 0 1",
        "block": "block A : 1",
        "scalar": "scalar q 2",
    }[second.split()[0]]
    # another block or scalar name is not a duplicate
    other = "block B : 1\nscalar p 1\n"
    assert parse_document(f"dim 3\n{first}\n{other}")
    with pytest.raises(DocumentError) as err:
        parse_document(f"dim 3\n{first}\n{other}{second}\n")
    assert frag in str(err.value) and err.value.line == 5


def test_error_position_tagged():
    with pytest.raises(DocumentError) as err:
        parse_document("dim 3\nbracket 1 2 : 0 2/4 0")
    assert err.value.line == 2 and err.value.col is not None


def test_negative_denominator_rejected():
    with pytest.raises(DocumentError):
        parse_document("dim 2\nbracket 1 2 : 0 1/-2")
