"""Exact Gaussian rational arithmetic.

The coefficient field everywhere on the exact side of the toolkit is Q(i).
Elements are immutable pairs of fractions and support mixed arithmetic with
int and Fraction.
"""

from __future__ import annotations

from fractions import Fraction


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

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, GaussianRational(1))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates / conversions --------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_mpc(self, mp):
        """Convert to an mpmath complex at the current working precision."""
        return mp.mpc(mp.mpf(self.re.numerator) / self.re.denominator,
                      mp.mpf(self.im.numerator) / self.im.denominator)

    # -- formatting -----------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


I = GaussianRational(0, 1)
ZERO = GaussianRational(0)
ONE = GaussianRational(1)
HALF = GaussianRational(Fraction(1, 2))


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
