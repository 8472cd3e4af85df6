"""Exact scalars for certificates and for the constructed matrix models.

The word algebra itself runs over Q with plain ints and Fractions
(`ncstar.ncalg`).  Two small number types live here:

* :class:`GaussianRational` -- complex numbers with rational real and imaginary
  part, stored as an integer triple ``(a + b*i) / q``.  This is the certificate
  scalar: evidence coefficients are written as ``a/b+c/d i`` by
  :meth:`GaussianRational.exact_str` and read back by :func:`parse_scalar`.
* :class:`QuadExact` -- elements of the field Q(sqrt(2), i).  The hand-built
  matrix models have entries like sqrt(2)/2 whose squares must come out as an
  exact 1/2, so their residual checks run over this field instead of floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, sqrt

__all__ = ["GaussianRational", "parse_scalar", "QuadExact", "Q_ONE", "Q_SQRT2_OVER_2"]

_SQRT2 = sqrt(2.0)


class GaussianRational:
    """(a + b*i)/q with integers a, b and positive integer q, kept reduced."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a: int = 0, b: int = 0, q: int = 1):
        if q == 0:
            raise ZeroDivisionError("zero denominator")
        if q < 0:
            a, b, q = -a, -b, -q
        if q != 1:
            g = gcd(gcd(a, b), q)
            if g > 1:
                a //= g
                b //= g
                q //= g
        self.a = a
        self.b = b
        self.q = q

    @classmethod
    def from_fractions(cls, re: Fraction, im: Fraction = Fraction(0)) -> "GaussianRational":
        re = Fraction(re)
        im = Fraction(im)
        q = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        return cls(re.numerator * (q // re.denominator), im.numerator * (q // im.denominator), q)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.q)

    # The arithmetic stays while perfbench/tracer.py patches it by name.
    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.a * other.q + other.a * self.q,
            self.b * other.q + other.b * self.q,
            self.q * other.q,
        )

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.q * other.q,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.a * other.a + other.b * other.b
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        # 1/other = conj(other) * q / |other|^2
        return GaussianRational(
            (self.a * other.a + self.b * other.b) * other.q,
            (self.b * other.a - self.a * other.b) * other.q,
            self.q * n,
        )

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.q == other.q

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def exact_str(self) -> str:
        """Canonical bit-exact form ``a/b+c/d i`` used in serialized certificates."""
        re, im = self.re, self.im
        return f"{re.numerator}/{re.denominator}{'+' if im >= 0 else '-'}{abs(im.numerator)}/{im.denominator}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.exact_str()})"


def parse_scalar(text: str) -> GaussianRational:
    """Inverse of :meth:`GaussianRational.exact_str`."""
    body = text.strip()
    if not body.endswith("i"):
        raise ValueError(f"malformed scalar string: {text!r}")
    body = body[:-1]
    # split at the sign separating the two fractions (skip the leading sign)
    for pos in range(1, len(body)):
        if body[pos] in "+-" and body[pos - 1] != "/":
            re_part, sign, im_part = body[:pos], body[pos], body[pos + 1:]
            re = Fraction(re_part)
            im = Fraction(im_part)
            if sign == "-":
                im = -im
            return GaussianRational.from_fractions(re, im)
    raise ValueError(f"malformed scalar string: {text!r}")


def _quad(n0: int, n1: int, n2: int, n3: int, den: int) -> "QuadExact":
    """(n0 + n1*r + (n2 + n3*r)*i) / den with r = sqrt2, reduced to lowest terms."""
    g = gcd(n0, n1, n2, n3, den)
    if den < 0:
        g = -g
    if g != 1:
        n0 //= g
        n1 //= g
        n2 //= g
        n3 //= g
        den //= g
    x = object.__new__(QuadExact)
    x._n = (n0, n1, n2, n3)
    x._den = den
    return x


class QuadExact:
    """Element (a + b*sqrt(2)) + (c + d*sqrt(2))*i of Q(sqrt(2), i).

    Stored as four int numerators over one positive int denominator, with no
    common factor, so equal elements have equal fields.  The components
    `a`..`d` are read back as Fractions.
    """

    __slots__ = ("_n", "_den")

    def __init__(self, a=0, b=0, c=0, d=0):
        parts = [x if type(x) is int else Fraction(x) for x in (a, b, c, d)]
        den = 1
        for x in parts:
            if type(x) is not int:
                den = den * x.denominator // gcd(den, x.denominator)
        y = _quad(*(int(x * den) for x in parts), den)
        self._n = y._n
        self._den = y._den

    a = property(lambda self: Fraction(self._n[0], self._den))
    b = property(lambda self: Fraction(self._n[1], self._den))
    c = property(lambda self: Fraction(self._n[2], self._den))
    d = property(lambda self: Fraction(self._n[3], self._den))

    def __add__(self, other: "QuadExact") -> "QuadExact":
        (a, b, c, d), p = self._n, self._den
        (e, f, g, h), q = other._n, other._den
        if p == q:
            return _quad(a + e, b + f, c + g, d + h, p)
        return _quad(a * q + e * p, b * q + f * p, c * q + g * p, d * q + h * p, p * q)

    def __sub__(self, other: "QuadExact") -> "QuadExact":
        return self + -other

    def __neg__(self) -> "QuadExact":
        a, b, c, d = self._n
        return _quad(-a, -b, -c, -d, self._den)

    def __mul__(self, other: "QuadExact") -> "QuadExact":
        # (X + Y i)(U + V i) = (XU - YV) + (XV + YU) i over Q(sqrt2), r*r = 2
        a, b, c, d = self._n
        e, f, g, h = other._n
        return _quad(a * e + 2 * b * f - c * g - 2 * d * h,
                     a * f + b * e - c * h - d * g,
                     a * g + 2 * b * h + c * e + 2 * d * f,
                     a * h + b * g + c * f + d * e,
                     self._den * other._den)

    def inverse(self) -> "QuadExact":
        """1/x = conj(x) / |x|^2, where |x|^2 = p + q*sqrt2 has inverse
        (p - q*sqrt2) / (p^2 - 2 q^2); the norm p^2 - 2 q^2 is nonzero
        because sqrt2 is irrational."""
        a, b, c, d = self._n
        if not (a or b or c or d):
            raise ZeroDivisionError("inverse of zero")
        p = a * a + 2 * b * b + c * c + 2 * d * d
        q = 2 * (a * b + c * d)
        den = self._den
        return _quad(den * (a * p - 2 * b * q), den * (b * p - a * q),
                     -den * (c * p - 2 * d * q), -den * (d * p - c * q), p * p - 2 * q * q)

    def conjugate(self) -> "QuadExact":
        a, b, c, d = self._n
        return _quad(a, b, -c, -d, self._den)

    def is_zero(self) -> bool:
        a, b, c, d = self._n
        return not (a or b or c or d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadExact):
            return NotImplemented
        return self._n == other._n and self._den == other._den

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __complex__(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        a, b, c, d = self._n
        den = self._den
        return complex(a / den + b / den * _SQRT2, c / den + d / den * _SQRT2)

    def __repr__(self) -> str:
        return f"QuadExact({self.a}, {self.b}, {self.c}, {self.d})"


Q_ONE = QuadExact(1)
Q_SQRT2_OVER_2 = QuadExact(0, Fraction(1, 2), 0, 0)
