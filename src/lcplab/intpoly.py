"""Integer polynomials, integer companion matrices and characteristic
polynomials.

Polynomials are stored by descending-degree integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact as ex
from .errors import DimensionMismatch


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; coeffs by descending degree, no leading zeros.
    Coefficients may be any numbers of integral value; any other raises
    TypeError."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(_integral(x) for x in self.coeffs)
        while len(c) > 1 and c[0] == 0:
            c = c[1:]
        object.__setattr__(self, "coeffs", c)

    @property
    def monic(self) -> bool:
        return self.coeffs[0] == 1

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


def _integral(x) -> int:
    i = int(x)
    if i != x:
        raise TypeError(f"entry {x!r} is not an integer")
    return i


def int_charpoly(a: np.ndarray) -> IntPoly:
    """Characteristic polynomial of an integer matrix, computed on Python
    ints (``exact.int_charpoly_coeffs``).  Entries may be any numbers of
    integral value; any other entry raises TypeError."""
    ints = np.array([[_integral(x) for x in row] for row in a], dtype=object)
    return IntPoly(tuple(ex.int_charpoly_coeffs(ints)))
