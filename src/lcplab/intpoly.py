"""Integer polynomials, integer companion matrices and characteristic
polynomials, and Smith normal form for abelianisation reports.

Polynomials are stored by descending-degree integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact as ex
from .errors import DimensionMismatch


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; coeffs by descending degree, no leading zeros."""

    coeffs: tuple
    monic: bool = False

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[0] == 0:
            c = c[1:]
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "monic", c[0] == 1)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def constant_term(self) -> int:
        return self.coeffs[-1]

    def __str__(self):
        terms = []
        n = self.degree
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            p = n - i
            if p == 0:
                terms.append(f"{c:+d}")
            else:
                xs = "x" if p == 1 else f"x^{p}"
                if c == 1:
                    terms.append(f"+{xs}")
                elif c == -1:
                    terms.append(f"-{xs}")
                else:
                    terms.append(f"{c:+d}{xs}")
        s = " ".join(terms) if terms else "0"
        return s.lstrip("+").replace("+", "+ ").replace("-", "- ").strip()


def companion(p: IntPoly) -> np.ndarray:
    """Integer companion matrix: ones on the subdiagonal, last column
    -(a_{d-1}, ..., a_0) reversed so that charpoly(companion(p)) = p."""
    if not p.monic:
        raise DimensionMismatch("companion matrix needs a monic polynomial")
    d = p.degree
    m = np.zeros((d, d), dtype=object)
    for i in range(1, d):
        m[i, i - 1] = 1
    for i in range(d):
        m[i, d - 1] = -p.coeffs[d - i]
    return m


def int_det(a: np.ndarray) -> int:
    """Determinant of an integer matrix, read as (-1)^n c_n from
    :func:`int_charpoly`."""
    p = int_charpoly(a)
    return (-1) ** p.degree * p.constant_term()


def int_charpoly(a: np.ndarray) -> IntPoly:
    """Characteristic polynomial of an integer matrix, computed on Python
    ints (``exact.int_charpoly_coeffs``)."""
    ints = np.array([[int(x) for x in row] for row in a], dtype=object)
    return IntPoly(tuple(ex.int_charpoly_coeffs(ints)))


def smith_normal_form(a: np.ndarray) -> list:
    """Diagonal of the Smith normal form of an integer matrix, with each
    entry dividing the next; transforms are not tracked."""
    m = [[int(x) for x in row] for row in np.asarray(a)]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # find the smallest nonzero entry in the remaining block
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for i in range(rows):
            m[i][top], m[i][pj] = m[i][pj], m[i][top]
        dirty = False
        for i in range(top + 1, rows):
            qv = m[i][top] // m[top][top]
            if qv:
                for j in range(top, cols):
                    m[i][j] -= qv * m[top][j]
            if m[i][top] != 0:
                dirty = True
        for j in range(top + 1, cols):
            qv = m[top][j] // m[top][top]
            if qv:
                for i in range(top, rows):
                    m[i][j] -= qv * m[i][top]
            if m[top][j] != 0:
                dirty = True
        if dirty:
            continue
        # enforce divisibility into the rest of the block
        fixed = True
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if m[i][j] % m[top][top] != 0:
                    for jj in range(top, cols):
                        m[top][jj] += m[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        diag.append(abs(m[top][top]))
        top += 1
    return diag
