"""Integer polynomials, integer companion matrices, characteristic
polynomials and their exact spectra.

Polynomials are stored by descending-degree integer coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
        c = tuple(map(_integral, self.coeffs))
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
        return _horner(self.coeffs, x)

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


def _horner(p, x):
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


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
    if type(x) is int:
        return x
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


@dataclass(frozen=True)
class IntSpectrum:
    """What :func:`int_spectrum` finds of p: gcd(p, p') (primitive,
    positive lead), the square-free part p / gcd(p, p'), the number of
    distinct real roots, and, if every root is real, every integer root as
    ``(k, multiplicity in p)`` by increasing k."""

    degree: int
    repeated: tuple
    square_free: tuple
    real_roots: int
    integer_roots: tuple

    @property
    def all_real(self) -> bool:
        # the square-free part has each distinct root of p once
        return self.real_roots == len(self.square_free) - 1

    def integer_eigenvalues(self) -> Optional[list]:
        """Every root with its multiplicity, when all are integers; None
        exactly when some root is not."""
        ks = [k for k, m in self.integer_roots for _ in range(m)]
        return ks if len(ks) == self.degree else None

    def off_axis(self) -> bool:
        """Has p a root off both axes, neither real nor imaginary?  The
        nonzero roots iy of the square-free part s are the nonzero real
        roots of gcd(Re s(iy), Im s(iy)), counted by one more Sturm
        chain; with the real roots they are all deg s roots of s unless
        one is off both axes.  Integers only."""
        s = self.square_free
        n = len(s) - 1
        # the coefficient a of x^k in s contributes a i^k y^k to s(iy)
        re = _primitive([a * (1, 0, -1, 0)[(n - i) % 4] for i, a in enumerate(s)])
        im = _primitive([a * (0, 1, 0, -1)[(n - i) % 4] for i, a in enumerate(s)])
        g = _gcd(re, im) if re and im else re or im
        return self.real_roots + _sturm(g)[0] - (g[-1] == 0) < n


def _divmod(a: list, b: list) -> tuple:
    """Quotient and remainder of a by b when the quotient has integer
    coefficients (b monic, b dividing a, or a pseudo-division)."""
    q = []
    while len(a) >= len(b):
        q.append(a[0] // b[0])
        a = [x - q[-1] * y for x, y in zip(a[1:], b[1:])] + a[len(b) :]
    return q, a


def _primitive(a: list) -> list:
    """a without leading zeros, divided by its content."""
    while a and a[0] == 0:
        a = a[1:]
    g = math.gcd(*a) or 1
    return [x // g for x in a]


def _euclid(a: list, b: list) -> list:
    """Euclid's chain a, b, -rem, ... on primitive pseudo-remainders with
    positive multipliers (|lc b|^(deg a - deg b + 1) a divided by b, exact
    on integers); it ends at gcd(a, b) up to sign."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        a, b = chain[-2:]
        r = _primitive(_divmod([x * abs(b[0]) ** (len(a) - len(b) + 1) for x in a], b)[1])
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def _gcd(a: list, b: list) -> list:
    """gcd(a, b) of nonzero a and b, primitive with positive lead."""
    a, b = sorted((a, b), key=len, reverse=True)
    g = _primitive(_euclid(a, b)[-1])
    return g if g[0] > 0 else [-x for x in g]


def square_free_factors(p: list) -> dict:
    """``{m: P_m}`` for a monic integer polynomial p = prod P_m^m, P_m the
    monic product of the roots of multiplicity m (Musser: from g =
    gcd(p, p') and s = p / g, each round h = gcd(g, s) keeps the roots
    still repeated, P_m = s / h, and g / h and h go on)."""
    p = [_integral(x) for x in p]
    if len(p) == 1:
        return {}
    g = _gcd(p, [x * (len(p) - 1 - i) for i, x in enumerate(p[:-1])])
    s = _divmod(p, g)[0]
    out, m = {}, 1
    while len(s) > 1:
        h = _gcd(g, s)
        if len(s) > len(h):
            out[m] = _divmod(s, h)[0]
        g, s, m = _divmod(g, h)[0], h, m + 1
    return out


def _changes(values) -> int:
    """Sign changes along a sequence of integers, zeros dropped."""
    s = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(s, s[1:]))


def _sturm(p: list) -> tuple:
    """The number of distinct real roots of p, g = gcd(p, p') (primitive,
    positive lead) and the chain of (p, p') (``_euclid``): a Sturm chain,
    whose sign changes at -inf and +inf differ by that number."""
    n = len(p) - 1
    if n == 0:
        return 0, [1], [p]
    chain = _euclid(p, _primitive([x * (n - i) for i, x in enumerate(p[:-1])]))
    g = chain[-1] if chain[-1][0] > 0 else [-x for x in chain[-1]]
    at_inf = _changes(q[0] for q in chain)
    at_minus_inf = _changes(q[0] * (-1) ** (len(q) - 1) for q in chain)
    return at_minus_inf - at_inf, g, chain


def _low_degree_roots(r: list) -> set:
    """The integer roots of r of degree 1 or 2, on integers: -b / a for
    a x + b, and for a x^2 + b x + c the (-b +- isqrt(D)) / 2a that divide
    exactly when D = b^2 - 4 a c is a square."""
    if len(r) == 2:
        a, b = r
        return {-b // a} if b % a == 0 else set()
    a, b, c = r
    disc = b * b - 4 * a * c
    root = math.isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return set()
    return {x // (2 * a) for x in (-b + root, -b - root) if x % (2 * a) == 0}


def _isolated_roots(chain: list) -> set:
    """The integer roots of s = chain[0], square-free, on its Sturm
    chain.  The roots lie in (-2^e, 2^e], past Fujiwara's bound
    2 max |s_i / s_0|^(1/i), and V(a) - V(b) real roots in (a, b], V the
    sign changes along the chain.  An interval with two or more roots is
    halved until it holds one or has length 1; one with a single root r
    is halved by the sign of s, which is that of s(b) on (r, b], down to
    length 1.  Then r is an integer iff it is b."""
    s = chain[0]
    # |s_i / s_0| < 2^(bits(s_i) - bits(s_0) + 1), and e - 1 is the
    # largest ceiling of that exponent over i
    lead = abs(s[0]).bit_length()
    e = 1 + max(0, *(-((lead - 1 - abs(a).bit_length()) // i) for i, a in enumerate(s[1:], 1)))

    def v(x):
        return _changes(_horner(q, x) for q in chain)

    found, todo = set(), [(-(2**e), 2**e, v(-(2**e)), v(2**e))]
    while todo:
        a, b, va, vb = todo.pop()
        if va - vb > 1 and b - a > 1:
            m = (a + b) // 2
            vm = v(m)
            todo += [(a, m, va, vm), (m, b, vm, vb)]
            continue
        if va == vb:
            continue
        sb = _horner(s, b)
        while sb and b - a > 1:  # one root in (a, b]
            m = (a + b) // 2
            sm = _horner(s, m)
            if sm == 0 or (sm > 0) == (sb > 0):
                b, sb = m, sm
            else:
                a = m
        if sb == 0:
            found.add(b)
    return found


def integer_roots(g: list, chain: list) -> set:
    """The integer roots of p = chain[0], each once, from g = gcd(p, p')
    and the Sturm chain of p (``_sturm``): those of its square-free part
    s = p / g, on integers for deg s <= 2 (``_low_degree_roots``), past it
    isolated on the chain divided by g, a Sturm chain of s
    (``_isolated_roots``).  Some roots of p may be non-real."""
    s = _divmod(chain[0], g)[0]
    if len(s) > 3:
        return _isolated_roots([_divmod(q, g)[0] for q in chain] if len(g) > 1 else chain)
    return _low_degree_roots(s) if len(s) > 1 else set()


def int_spectrum(p) -> IntSpectrum:
    """The exact spectrum of an integer polynomial p (descending
    coefficients).  The root 0 comes out first: p = x^j r with r(0) != 0.
    The Sturm chain of (r, r') (``_sturm``) gives gcd(r, r') and the
    number of distinct real roots of r; for j > 0, gcd(p, p') =
    x^(j-1) gcd(r, r'), the square-free part gains the factor x and the
    real roots the root 0.  Only when every root is real, the one case a
    caller reads them, come the integer roots: 0 when j > 0, and those of
    r (``integer_roots``).  No float is computed; so a spectrum
    x^(n-2) (x^2 - k^2) takes a chain of degree 2."""
    p = [_integral(x) for x in p]
    j = next((i for i, x in enumerate(reversed(p)) if x), 0)
    r = p[:len(p) - j]
    real, g, chain = _sturm(r)
    s, roots = _divmod(r, g)[0], set()
    if real == len(s) - 1:
        roots = integer_roots(g, chain)
        if j:
            roots.add(0)
    if j:
        g, s, real = g + [0] * (j - 1), s + [0], real + 1
    mults = []
    for k in sorted(roots):  # one more time in p than in g
        q, rem, m = g, [0], 0
        while not any(rem):
            (q, rem), m = _divmod(q, [1, -k]), m + 1
        mults.append((k, m))
    return IntSpectrum(len(p) - 1, tuple(g), tuple(s), real, tuple(mults))
