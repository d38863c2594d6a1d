"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

A rational is held in canonical form: a plain int when it is integral and
a fractions.Fraction (gcd 1, positive denominator, never denominator 1)
otherwise. Integral values stay machine-cheap Python ints, and Fraction
objects appear only where a denominator really occurs. Rationals are
canonical from where they are built or read: the catalog writes integral
values as ints, and frac_from_str reads every rational that comes from
outside (fixture files, golden-table keys, `tubes orbits --probes`), so a
catalogued payload and the decode of its export are equal and of the same
types leaf for leaf. GaussianRational
is a thin exact complex layer whose re and im parts are such canonical
rationals. It lives at the edges: a polynomial holds the real and the
imaginary parts of its coefficients as two dicts of rationals and boxes
a coefficient only to hand it out (poly.py), and every linear solve runs
over the rationals on those parts (linalg.py). No floating point enters
anywhere in this package: a part is never a float or a bool, and
division goes through Fraction, never through int / int.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

ScalarLike = Union[int, Fraction, "GaussianRational"]


def _canon(x: Rational) -> Rational:
    """The canonical form of an int or Fraction value."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _div(x: Rational, y: Rational) -> Rational:
    """Exact canonical quotient x / y of two rationals (y nonzero)."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return _canon(x / y)


def rat(value) -> Rational:
    """Parse an exact canonical rational from an int, Fraction or 'p/q' string
    (read by frac_from_str)."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return _canon(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return frac_from_str(value)
    raise TypeError(f"cannot build an exact rational from {value!r}")


def frac_from_str(text) -> Rational:
    """The canonical rational that a string of the grammar -?[0-9]+ or
    -?[0-9]+/[0-9]+ (ASCII digits) names, the form frac_to_str writes.
    Any other string, with an exponent, a decimal point, whitespace, a '+'
    or an '_' say, is a ValueError, and anything but a string a TypeError,
    so a JSON float never becomes a binary fraction. A zero denominator is
    the ZeroDivisionError of Fraction(p, 0)."""
    if type(text) is not str:
        raise TypeError(f"a rational must be a 'p/q' string, got {text!r}")
    if text.isdigit() and text.isascii():  # most coefficients: no sign, no '/'
        return int(text)
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (text.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"a rational must be a 'p/q' string of ASCII digits, got {text!r:.60}")
    if slash:
        return _canon(Fraction(int(num), int(den)))
    return int(num)


class GaussianRational:
    """Exact complex number re + im*i with canonical rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = rat(re)
        self.im = rat(im)

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction, str)):
            return _gr(rat(value), 0)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "GaussianRational":
        return _gr(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        return _gr(_canon(self.re + other.re), _canon(self.im + other.im))

    __radd__ = __add__

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        return _gr(_canon(self.re - other.re), _canon(self.im - other.im))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return _gr(_canon(a * c), 0)
        return _gr(_canon(a * c - b * d), _canon(a * d + b * c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero GaussianRational")
            return _gr(_div(a, c), _div(b, c))
        n = c * c + d * d
        return _gr(_div(a * c + b * d, n), _div(b * c - a * d, n))

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("GaussianRational powers must be nonnegative ints")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _gr(re: Rational, im: Rational) -> GaussianRational:
    """Build a GaussianRational from parts already in canonical form,
    skipping the validation of __init__."""
    z = _new(GaussianRational)
    z.re = re
    z.im = im
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
