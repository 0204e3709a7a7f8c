"""Explicit precision control for all floating-point work.

Every numeric routine takes a PrecisionContext; nothing reads or writes
ambient precision outside a ``with ctx.working():`` block, and the block
restores the previous mpmath state on exit.

An exact value becomes an mpmath number here only, by one rule: each
rational part num/den, however wide, is rounded once to nearest at the
working precision (``to_mpf``; ``rounded_mpc``, which ``to_mpc`` of a
GaussianRational and ``Poly.eval_numeric`` share).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp, mp

from .errors import PrecisionError
from .gaussian import GaussianRational

GUARD_BITS = 24
# the cap on the length of a summed series
MAX_TERMS = 20000


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in bits."""

    bits: int = 128

    def __post_init__(self):
        if self.bits < 53:
            raise ValueError("precision below 53 bits is not supported")

    def working(self):
        """mpmath workprec block at bits + guard digits."""
        return mp.workprec(self.bits + GUARD_BITS)

    @property
    def eps(self):
        with self.working():
            return mp.mpf(2) ** (-self.bits)

    def exhausted(self, what: str):
        raise PrecisionError(
            f"{what}: did not converge within {MAX_TERMS} terms at {self.bits} bits"
        )


def to_fraction(x) -> Fraction:
    """x as a Fraction: itself if it is one, a finite mpf as the dyadic
    rational it is, else Fraction(x)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, mpmath.mpf) and mp.isfinite(x):
        return Fraction(*libmp.to_rational(x._mpf_))
    return Fraction(x)


def _rounded(num: int, den: int):
    """num/den as a raw mpf, rounded once to nearest at the working precision."""
    return libmp.from_rational(num, den, mp.prec, libmp.round_nearest)


def rounded_mpc(a: int, b: int, d: int):
    """(a + b i) / d for integers a, b and d > 0 as an mpc, each part
    rounded once at the working precision."""
    return mp.make_mpc((_rounded(a, d), _rounded(b, d)))


def to_mpf(x):
    """Exact rational (or int/float/mpf) to mpf at current working precision;
    a Fraction is rounded once, however wide its numerator."""
    if isinstance(x, Fraction):
        return mp.make_mpf(_rounded(x.numerator, x.denominator))
    return mp.mpf(x)


def to_mpc(x):
    """Coerce exact and floating inputs to mpc at current working precision;
    each part of a GaussianRational is rounded once."""
    if isinstance(x, GaussianRational):
        return rounded_mpc(*x._abd)
    if isinstance(x, Fraction):
        return mp.mpc(to_mpf(x))
    return mp.mpc(x)


def e_of(x):
    """e(x) = exp(2 pi i x) at current working precision."""
    return mp.exp(2j * mp.pi * to_mpc(x))


def mpf_str(x) -> str:
    """Round-trip-exact decimal string for an mpf/mpc at current precision."""
    if isinstance(x, mpmath.mpc) or (hasattr(x, "imag") and getattr(x, "imag", 0)):
        x = mp.mpc(x)
        return f"({mpf_str(x.real)} {mpf_str(x.imag)}j)"
    digits = mp.dps + 6
    return mp.nstr(mp.mpf(x), digits, strip_zeros=False)
