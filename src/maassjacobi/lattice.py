"""Positive definite even lattices given by exact Gram matrices.

Entries live in (1/2)Z with integral diagonal, so L[lambda] is an integer
for integer vectors.  The determinant, adjugate and inverse are cached
exactly; bounded enumeration runs over exact LDL^T pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt

from . import linalg
from .errors import DomainError


class GramLattice:
    """Exact Gram matrix of an even positive definite lattice."""

    __slots__ = ("N", "entries", "det", "adjugate", "inv", "_ldl")

    def __init__(self, entries):
        rows = [[Fraction(x) for x in r] for r in entries]
        N = len(rows)
        if any(len(r) != N for r in rows):
            raise DomainError("Gram matrix must be square")
        for i in range(N):
            for j in range(N):
                if rows[i][j] != rows[j][i]:
                    raise DomainError("Gram matrix must be symmetric")
                if (2 * rows[i][j]).denominator != 1:
                    raise DomainError("entries must lie in (1/2)Z")
            if rows[i][i].denominator != 1:
                raise DomainError("diagonal entries must be integers")
        m = linalg.mat(rows)
        for k, minor in enumerate(linalg.leading_principal_minors(m)):
            if minor <= 0:
                raise DomainError(
                    f"leading principal minor {k + 1} is not positive; "
                    "lattice must be positive definite"
                )
        self.N = N
        self.entries = m
        self.det = linalg.det(m)
        self.adjugate = linalg.adjugate(m)
        self.inv = linalg.inverse(m)
        self._ldl = linalg.ldl(m)

    @staticmethod
    def coerce(L) -> "GramLattice":
        if isinstance(L, GramLattice):
            return L
        if isinstance(L, (int, Fraction)):
            return GramLattice([[L]])
        return GramLattice(L)

    def __eq__(self, other):
        return isinstance(other, GramLattice) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def quad(self, v) -> Fraction:
        """L[v] = v^T L v."""
        return linalg.quad_form(self.entries, tuple(Fraction(x) for x in v))

    def inv_quad(self, v) -> Fraction:
        """L^{-1}[v]."""
        return linalg.quad_form(self.inv, tuple(Fraction(x) for x in v))

    def apply(self, v):
        """L v as a tuple of Fractions."""
        return linalg.matvec(self.entries, tuple(Fraction(x) for x in v))

    def inv_apply(self, v):
        return linalg.matvec(self.inv, tuple(Fraction(x) for x in v))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for r in self.entries for x in r)

    def to_json_obj(self):
        return [[str(x) for x in r] for r in self.entries]

    @staticmethod
    def from_json_obj(obj) -> "GramLattice":
        return GramLattice([[Fraction(x) for x in r] for r in obj])

    def __repr__(self):
        return f"GramLattice({[[str(x) for x in r] for r in self.entries]})"


def discriminant(L: GramLattice, n, r) -> Fraction:
    """D = |L| (4n - L^{-1}[r])."""
    return L.det * (4 * Fraction(n) - L.inv_quad(r))


def h_of_r(L: GramLattice, r) -> Fraction:
    """h = |L| L^{-1}[r]; together with D it splits 4n|L|."""
    return L.det * L.inv_quad(r)


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for nonnegative rational x, exactly."""
    if x < 0:
        raise ValueError("negative argument")
    num, den = x.numerator, x.denominator
    lo = isqrt(num // den)
    while (lo + 1) ** 2 * den <= num:
        lo += 1
    while lo ** 2 * den > num:
        lo -= 1
    return lo


def enumerate_shifted(L: GramLattice, center, bound: Fraction):
    """All integer vectors lam with L[lam + center] <= bound.

    Exact Fincke-Pohst over the LDL^T factorization; center is rational.
    """
    lower, diag = L._ldl
    N = L.N
    center = [Fraction(c) for c in center]
    bound = Fraction(bound)
    if bound < 0:
        return
    out = []

    # L[w] = sum_j diag[j] * (w_j + sum_{i>j} lower[i][j] w_i)^2 with w = lam + center
    def rec(level, remaining, partial):
        # level runs from N-1 down to 0; partial[i] holds chosen w_i = lam_i + center_i
        if level < 0:
            out.append(tuple(int(w - c) for w, c in zip(partial, center)))
            return
        # offset contributed by already-chosen higher coordinates
        off = sum(lower[i][level] * partial[i] for i in range(level + 1, N))
        # diag[level] * (w_level + off)^2 <= remaining
        lim = remaining / diag[level]
        s = _floor_sqrt(lim)
        # w_level = lam_level + center_level; lam integer; the sqrt floor is
        # safe because lim - s^2 >= 0 and we re-test the exact inequality below
        lo_f = -off - center[level] - s - 1
        hi_f = -off - center[level] + s + 1
        lo = ceil(lo_f)
        hi = floor(hi_f)
        for lam in range(lo, hi + 1):
            w = lam + center[level]
            used = diag[level] * (w + off) ** 2
            if used <= remaining:
                partial[level] = w
                rec(level - 1, remaining - used, partial)
        partial[level] = Fraction(0)

    rec(N - 1, bound, [Fraction(0)] * N)
    yield from sorted(out)


def enumerate_quadratic(L: GramLattice, bound: Fraction):
    """All integer lam with L[lam] <= bound."""
    yield from enumerate_shifted(L, [0] * L.N, bound)
