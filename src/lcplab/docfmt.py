"""Definition-document format: a line-based structured-text description
of a metric Lie algebra with optional Lee form and flat subspace.

Grammar (UTF-8, '#' starts a comment, blank lines ignored)::

    dim 3
    label e(1,1)                 # optional display name
    bracket 1 2 : 0 1 0          # [e1,e2] = 0*e1 + 1*e2 + 0*e3, 1-indexed, i < j
    bracket 1 3 : 0 0 -1
    metric : 1 0 0 ; 0 1 0 ; 0 0 1   # optional Gram rows, default identity
    theta : -1 0 0               # optional Lee form coefficients
    flat : 0 0 1 ; ...           # optional flat-subspace spanning vectors
    block A : 1 0 ; 0 1          # named matrix blocks for constructors
    scalar q 2                   # named rational scalars

Scalars are integers or reduced fractions ``p/q`` with positive
denominator; anything else (including non-reduced fractions like 2/4)
is rejected with a line/column-tagged error.  Every integer, in a
scalar, the dimension or a bracket index, is a run of ASCII digits.
Omitted bracket pairs are zero brackets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

import numpy as np

from . import exact as ex
from .algebra import MAX_DIM, LieAlgebra, Metric, OneForm, Subspace
from .errors import DocumentError


@dataclass
class Document:
    dim: int
    label: str = ""
    brackets: dict = field(default_factory=dict)  # (i, j) -> list of Fractions
    metric_rows: Optional[list] = None
    theta: Optional[list] = None
    flat_vectors: Optional[list] = None
    blocks: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)

    def algebra(self, check: bool = True) -> LieAlgebra:
        return LieAlgebra.from_brackets(self.dim, self.brackets, check=check)

    def metric(self) -> Metric:
        if self.metric_rows is None:
            return Metric.identity(self.dim)
        return Metric(ex.rmat(self.metric_rows))

    def one_form(self) -> Optional[OneForm]:
        if self.theta is None:
            return None
        return OneForm(ex.rvec(self.theta))

    def flat(self) -> Optional[Subspace]:
        if self.flat_vectors is None:
            return None
        return Subspace.spanned_by(self.flat_vectors, self.dim)

    def block(self, name: str) -> np.ndarray:
        if name not in self.blocks:
            raise DocumentError(f"document has no block {name!r}")
        return ex.rmat(self.blocks[name])


def _parse_natural(tok: str, line: int, col: int, what: str) -> int:
    """A run of ASCII digits: the one integer grammar of documents, so no
    sign, no underscores and no non-ASCII digits."""
    if not (tok.isascii() and tok.isdigit()):
        raise DocumentError(f"malformed {what} {tok!r}", line, col)
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise DocumentError(f"{what} of {len(tok)} digits is too long", line, col) from None


def _parse_rational(tok: str, line: int, col: int) -> Fraction:
    s = tok
    neg = s.startswith("-")
    if neg or s.startswith("+"):
        s = s[1:]
    parts = s.split("/")
    if len(parts) > 2:
        raise DocumentError(f"malformed rational {tok!r}", line, col)
    num = _parse_natural(parts[0], line, col, "rational")
    den = _parse_natural(parts[1], line, col, "rational") if len(parts) == 2 else 1
    if den == 0:
        raise DocumentError(f"zero denominator in {tok!r}", line, col)
    if gcd(num, den) != 1:
        raise DocumentError(f"non-reduced rational {tok!r}", line, col)
    return Fraction(-num if neg else num, den)


def _tokens_with_cols(body: str, lineno: int, offset: int):
    out = []
    col = offset
    for tok in body.split(" "):
        if tok:
            out.append((tok, lineno, col + 1))
        col += len(tok) + 1
    return out


def _parse_vector(body: str, lineno: int, offset: int, want: Optional[int]) -> list:
    toks = _tokens_with_cols(body, lineno, offset)
    vals = [_parse_rational(t, ln, c) for (t, ln, c) in toks]
    if want is not None and len(vals) != want:
        raise DocumentError(f"expected {want} entries, got {len(vals)}", lineno, offset)
    return vals


def _parse_rows(body: str, lineno: int, offset: int, want: Optional[int]) -> list:
    rows = []
    col = offset
    for part in body.split(";"):
        rows.append(_parse_vector(part.strip(), lineno, col + len(part) - len(part.lstrip()), want))
        col += len(part) + 1
    return rows


def parse_document(text: str) -> Document:
    doc = None
    seen = set()  # the metric, theta and flat directives read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        parts = stripped.split(None, 1)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key == "dim":
            if doc is not None:
                raise DocumentError("duplicate dim directive", lineno, 1)
            dim = _parse_natural(rest.strip(), lineno, indent + 5, "dimension")
            if dim <= 0:
                raise DocumentError("dimension must be positive", lineno, indent + 5)
            if dim > MAX_DIM:
                raise DocumentError(
                    f"dimension {dim} exceeds the supported envelope dim <= {MAX_DIM}",
                    lineno,
                    indent + 5,
                )
            doc = Document(dim=dim)
            continue
        if doc is None:
            raise DocumentError("the dim directive must come first", lineno, 1)
        if key in ("metric", "theta", "flat"):
            if key in seen:
                raise DocumentError(f"duplicate {key} directive", lineno, indent + 1)
            seen.add(key)
        if key == "label":
            doc.label = rest.strip()
        elif key == "bracket":
            head, sep, body = rest.partition(":")
            idx = head.split()
            if len(idx) != 2 or not sep:
                raise DocumentError("bracket needs 'bracket i j : coeffs'", lineno, indent + 1)
            i, j = (_parse_natural(t, lineno, indent + 9, "bracket index") for t in idx)
            if not (1 <= i < j <= doc.dim):
                raise DocumentError(
                    f"bracket indices must satisfy 1 <= i < j <= {doc.dim}", lineno, indent + 9
                )
            if (i - 1, j - 1) in doc.brackets:
                raise DocumentError(f"duplicate bracket {i} {j}", lineno, indent + 9)
            off = indent + len("bracket ") + len(head) + 1
            doc.brackets[(i - 1, j - 1)] = _parse_vector(body.strip(), lineno, off, doc.dim)
        elif key == "metric":
            body = rest.partition(":")[2]
            rows = _parse_rows(body, lineno, indent, doc.dim)
            if len(rows) != doc.dim:
                raise DocumentError(f"metric needs {doc.dim} rows", lineno, indent + 1)
            doc.metric_rows = rows
        elif key == "theta":
            body = rest.partition(":")[2]
            doc.theta = _parse_vector(body.strip(), lineno, indent, doc.dim)
        elif key == "flat":
            body = rest.partition(":")[2]
            doc.flat_vectors = _parse_rows(body, lineno, indent, doc.dim)
        elif key == "block":
            head, sep, body = rest.partition(":")
            name = head.strip()
            if not name or not sep:
                raise DocumentError("block needs 'block NAME : rows'", lineno, indent + 1)
            if name in doc.blocks:
                raise DocumentError(f"duplicate block {name}", lineno, indent + 7)
            doc.blocks[name] = _parse_rows(body, lineno, indent, None)
        elif key == "scalar":
            toks = rest.split()
            if len(toks) != 2:
                raise DocumentError("scalar needs 'scalar NAME value'", lineno, indent + 1)
            if toks[0] in doc.scalars:
                raise DocumentError(f"duplicate scalar {toks[0]}", lineno, indent + 8)
            doc.scalars[toks[0]] = _parse_rational(toks[1], lineno, indent + 8 + len(toks[0]))
        else:
            raise DocumentError(f"unknown directive {key!r}", lineno, indent + 1)
    if doc is None:
        raise DocumentError("document has no dim directive", 1, 1)
    return doc


def parse_file(path) -> Document:
    """Parse the document at ``path``; a path that cannot be read as UTF-8
    text raises DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DocumentError(f"cannot read {path}: {e}") from None
    return parse_document(text)


def _fmt(x: Fraction) -> str:
    return str(x)


def render_document(
    L: LieAlgebra,
    metric: Optional[Metric] = None,
    theta: Optional[OneForm] = None,
    flat: Optional[Subspace] = None,
    label: str = "",
) -> str:
    """Serialise an algebra (plus optional metric/theta/flat) back into
    the document grammar; identity metrics are omitted."""
    lines = [f"dim {L.dim}"]
    if label:
        lines.append(f"label {label}")
    n = L.dim
    for i in range(n):
        for j in range(i + 1, n):
            col = L.c[i, j, :]
            if not ex.is_zero(col):
                coeffs = " ".join(_fmt(x) for x in col)
                lines.append(f"bracket {i+1} {j+1} : {coeffs}")
    if metric is not None and metric != Metric.identity(n):
        rows = " ; ".join(
            " ".join(_fmt(x) for x in metric.gram[i]) for i in range(n)
        )
        lines.append(f"metric : {rows}")
    if theta is not None:
        lines.append("theta : " + " ".join(_fmt(x) for x in theta.coeffs))
    if flat is not None and flat.dim > 0:
        rows = " ; ".join(
            " ".join(_fmt(x) for x in flat.basis[:, a]) for a in range(flat.dim)
        )
        lines.append(f"flat : {rows}")
    return "\n".join(lines) + "\n"
