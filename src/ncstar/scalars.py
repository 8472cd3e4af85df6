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


# _QUAD_PRODUCT[p][q] = (k, f): basis element p times q is f times basis element k,
# over the basis 1, r, i, ri of Q(sqrt2, i) with r = sqrt2 (r*r = 2, i*i = -1).
_QUAD_PRODUCT = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 2), (3, 1), (2, 2)),
    ((2, 1), (3, 1), (0, -1), (1, -1)),
    ((3, 1), (2, 2), (1, -1), (0, -2)),
)


class QuadExact:
    """Element (a + b*sqrt(2)) + (c + d*sqrt(2))*i of Q(sqrt(2), i)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    def __add__(self, other: "QuadExact") -> "QuadExact":
        return QuadExact(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __neg__(self) -> "QuadExact":
        return QuadExact(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "QuadExact") -> "QuadExact":
        # Over the basis 1, r, i, ri (r = sqrt2), multiply only nonzero
        # components: every witness entry (1, i, sqrt2/2) has just one.
        out = [0, 0, 0, 0]
        ys = [(q, y) for q, y in enumerate((other.a, other.b, other.c, other.d)) if y]
        for p, x in enumerate((self.a, self.b, self.c, self.d)):
            if x:
                for q, y in ys:
                    k, f = _QUAD_PRODUCT[p][q]
                    out[k] += f * (x * y)
        return QuadExact(*out)

    def conjugate(self) -> "QuadExact":
        return QuadExact(self.a, self.b, -self.c, -self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadExact):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __complex__(self) -> complex:
        return complex(float(self.a) + float(self.b) * _SQRT2,
                       float(self.c) + float(self.d) * _SQRT2)

    def __repr__(self) -> str:
        return f"QuadExact({self.a}, {self.b}, {self.c}, {self.d})"


Q_ONE = QuadExact(1)
Q_SQRT2_OVER_2 = QuadExact(0, Fraction(1, 2), 0, 0)
