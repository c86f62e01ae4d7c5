"""Integer polynomials, integer companion matrices, characteristic
polynomials and their exact spectra.

Polynomials are stored by descending-degree integer coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    distinct real roots, and, if every root is real, the integer roots as
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
        """Every root with its multiplicity, when all are integers."""
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


def _guesses(r: list, c: int) -> set:
    """Integers near the real parts of the roots of r, from the float
    roots of t = r(x + c), which moves a cluster of roots near c to 0.
    Past the float range the roots of t(2^e y) are taken, with 2^e past
    max |t_i / t_0|^(1/i): then |y| < 2 (Fujiwara's bound)."""
    t = list(r)
    for i in range(len(t) - 1):  # Taylor shift by repeated synthetic division
        for j in range(1, len(t) - i):
            t[j] += c * t[j - 1]
    try:
        coeffs, e = [float(a) for a in t], 0
    except OverflowError:
        lead = abs(t[0]).bit_length()
        e = max(0, *((abs(a).bit_length() - lead + i) // i for i, a in enumerate(t[1:], 1)))
        coeffs = [a / (t[0] << (e * i)) for i, a in enumerate(t)]
    xs = (float(y.real) for y in np.roots(coeffs))
    return {c + round(Fraction(x) * 2**e) for x in xs if math.isfinite(x)}


def _newton(r: list, guesses) -> set:
    """The integer roots of r that up to 100 integer Newton steps reach
    from the guesses, confirmed exactly; near a simple root each step is
    x - root up to a quadratic term, and a step rounding to 0 stops."""
    dr = [x * (len(r) - 1 - i) for i, x in enumerate(r[:-1])]
    found = set()
    for x in guesses:
        for _ in range(100):
            v, dv = _horner(r, x), _horner(dr, x)
            if v == 0:
                found.add(x)
            step = (2 * v + dv) // (2 * dv) if v and dv else 0
            if step == 0:
                break
            x -= step
    return found


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


def _sturm(p: list) -> tuple:
    """The number of distinct real roots of p, and g = gcd(p, p')
    (primitive, positive lead): the chain of (p, p') is a Sturm chain, and
    its sign changes at -inf and +inf differ by that number."""
    n = len(p) - 1
    if n == 0:
        return 0, [1]
    chain = _euclid(p, _primitive([x * (n - i) for i, x in enumerate(p[:-1])]))
    g = chain[-1] if chain[-1][0] > 0 else [-x for x in chain[-1]]

    def sign_changes(x):  # along the chain at x = +inf (1) or -inf (-1)
        s = [q[0] * x ** (len(q) - 1) > 0 for q in chain]
        return sum(a != b for a, b in zip(s, s[1:]))

    return sign_changes(-1) - sign_changes(1), g


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


def int_spectrum(p) -> IntSpectrum:
    """The exact spectrum of an integer polynomial p (descending
    coefficients).  The Sturm chain of (p, p') (``_sturm``) gives
    g = gcd(p, p') and the number of distinct real roots.  Only when every
    root is real, the one case a caller reads them, come the integer
    roots: those of the square-free part p / g, whose roots are simple;
    each round divides the roots it finds out of the rest.  A
    rest with constant term 0 gives the root 0, and one of degree <= 2
    gives its integer roots on integers (``_low_degree_roots``), so a
    spectrum whose rest deflates that far needs no float.  Floats
    propose roots only of a rest of degree >= 3; each is confirmed
    exactly, and the rest proposed again while a round finds one.  A
    round that finds none proposes once more from the rest shifted to
    each of its guesses, which separates clusters of roots far apart.
    A missed proposal makes callers that need every root decline; no
    listed root is wrong."""
    p = [_integral(x) for x in p]
    real, g = _sturm(p)
    s = _divmod(p, g)[0]
    roots, rest = set(), s
    while real == len(s) - 1 and len(roots) < real:
        if rest[-1] == 0:
            roots.add(0)
            rest = rest[:-1]
            continue
        if len(rest) <= 3:
            roots |= _low_degree_roots(rest)
            break
        guesses = _guesses(rest, -rest[1] // ((len(rest) - 1) * rest[0]))
        new = _newton(rest, guesses)
        if not new:
            new = _newton(rest, {y for x in guesses for y in _guesses(rest, x)})
        roots |= new
        if not new or len(roots) == real:
            break
        for k in new:
            rest = _divmod(rest, [1, -k])[0]
    mults = []
    for k in sorted(roots):  # one more time in p than in g
        q, r, m = g, [0], 0
        while not any(r):
            (q, r), m = _divmod(q, [1, -k]), m + 1
        mults.append((k, m))
    return IntSpectrum(len(p) - 1, tuple(g), tuple(s), real, tuple(mults))
