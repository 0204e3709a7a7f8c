"""Exact Gaussian rational arithmetic.

The coefficient field everywhere on the exact side of the toolkit is Q(i).
An element is stored as one reduced integer triple ``(a, b, d)`` for
``(a + b i) / d``, with ``d > 0`` and ``gcd(a, b, d) == 1``, so that each
element has exactly one form; zero is ``(0, 0, 1)``.  Arithmetic works on
the integers and reduces each result by one gcd (Knuth, TAOCP Vol. 2,
4.5.1).  Elements are immutable and support mixed arithmetic with int and
Fraction.  The module is purely exact: ``precision.to_mpc`` rounds an
element to an mpmath number.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def power(x, n: int, one):
    """x ** n for n >= 0 by repeated squaring, starting from ``one``."""
    out = one
    base = x
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


class GaussianRational:
    """A number a + b*i with a, b rational, exact."""

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators the triple is reduced
        rd, id_ = re.denominator, im.denominator
        d = rd * id_ // gcd(rd, id_)
        _set_abd(self, (re.numerator * (d // rd), im.numerator * (d // id_), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return (_reduced, self._abd)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if type(x) is int:
            return _raw(x, 0, 1)
        if isinstance(x, (int, Fraction)):
            x = Fraction(x)
            return _raw(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    # -- arithmetic ---------------------------------------------------
    # an operand of a type that coerce refuses gives NotImplemented, so that
    # Python tries the other operand's reflected method

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        a1, b1, d1 = self._abd
        a2, b2, d2 = other._abd
        if d1 == d2:
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _raw(-a, -b, d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        a1, b1, d1 = self._abd
        a2, b2, d2 = other._abd
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._abd
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, ONE)

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._abd
        return _raw(a, -b, d)

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        a, b, _ = self._abd
        return bool(a or b)

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        # the reduced triple is canonical
        return self._abd == other._abd

    def __hash__(self):
        # a real element equals its real part, so it hashes as that Fraction
        if not self._abd[1]:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- formatting -----------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


_new = object.__new__
_set_abd = GaussianRational._abd.__set__


def _raw(a, b, d) -> GaussianRational:
    """The element with the triple (a, b, d), which must already be reduced."""
    x = _new(GaussianRational)
    _set_abd(x, (a, b, d))
    return x


def _reduced(a, b, d) -> GaussianRational:
    """(a + b i) / d for integers a, b and d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


I = GaussianRational(0, 1)
ONE = GaussianRational(1)


def format_gaussian(x: GaussianRational) -> str:
    """Canonical string form ``a/b+c/d i`` used in serialized output."""
    re, im = x.re, x.im
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im} i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)} i"


def parse_gaussian(s: str) -> GaussianRational:
    """Inverse of :func:`format_gaussian`."""
    s = s.strip()
    if s.endswith("i"):
        body = s[:-1].strip()
        # split off the real part on the last +/- not inside a fraction sign
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                re_s, im_s = body[:pos], body[pos:].replace("+", "", 1)
                if im_s in ("", "-"):
                    im_s += "1"
                return GaussianRational(Fraction(re_s), Fraction(im_s))
        if body in ("", "+", "-"):
            body += "1"
        return GaussianRational(0, Fraction(body))
    return GaussianRational(Fraction(s))
