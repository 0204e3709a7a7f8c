"""Positive definite even lattices given by exact Gram matrices.

Entries live in (1/2)Z with integral diagonal, so L[lambda] is an integer
for integer vectors, with the integer terms ``quad_terms``.  One exact LDL^T
factorization gives the determinant, the inverse (cached also as an integer
matrix over one denominator, on which the forms of L^{-1} are integer
sums) and the pivots of bounded enumeration, each in O(N^3).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt, lcm, prod
from operator import mul

from . import linalg
from .errors import DomainError
from .precision import to_fraction


class GramLattice:
    """Exact Gram matrix of an even positive definite lattice."""

    __slots__ = ("N", "entries", "det", "inv", "quad_terms", "_inv_int", "_ldl")

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
        lower, diag = self._ldl = linalg.ldl(m)
        self.N = N
        self.entries = m
        self.det = prod(diag)
        # L^{-1} = W^T diag^{-1} W for W = lower^{-1}, which forward
        # substitution gives row by row: W_ij = -sum_{j<=k<i} lower_ik W_kj
        W = []
        for i in range(N):
            W.append([-sum(lower[i][k] * W[k][j] for k in range(j, i)) if j < i
                      else Fraction(int(i == j)) for j in range(N)])
        self.inv = tuple(tuple(sum(W[k][i] * W[k][j] / diag[k] for k in range(max(i, j), N))
                               for j in range(N)) for i in range(N))
        # L[lam] = sum coef lam_i lam_j over i <= j: coef = L_ii or 2 L_ij
        self.quad_terms = tuple((i, j, int((1 if i == j else 2) * m[i][j]))
                                for i in range(N) for j in range(i, N))
        # L^{-1} = A / d with A an integer matrix
        d = lcm(*(x.denominator for row in self.inv for x in row))
        self._inv_int = (tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                               for row in self.inv), d)

    def __eq__(self, other):
        return isinstance(other, GramLattice) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def _of_rank(self, v):
        """v itself, after checking that it has N entries: every method
        that takes a vector checks it here."""
        if len(v) != self.N:
            raise DomainError(f"a vector of {len(v)} entries on a lattice of rank {self.N}")
        return v

    def quad(self, v) -> Fraction:
        """L[v] = v^T L v."""
        return linalg.quad_form(self.entries, tuple(Fraction(x) for x in self._of_rank(v)))

    def _inv_form_int(self, u, v):
        """(num, den) with u^T L^{-1} v = num / den, both integers, den > 0."""
        A, d = self._inv_int
        (u, e), (v, f) = (_over_one_denominator(self._of_rank(u)),
                          _over_one_denominator(self._of_rank(v)))
        return sum(x * sum(map(mul, row, v)) for x, row in zip(u, A)), d * e * f

    def inv_form(self, u, v) -> Fraction:
        """u^T L^{-1} v."""
        return Fraction(*self._inv_form_int(u, v))

    def inv_quad(self, v) -> Fraction:
        """L^{-1}[v]."""
        return self.inv_form(v, v)

    def apply(self, v):
        """L v as a tuple of Fractions."""
        return linalg.matvec(self.entries, tuple(Fraction(x) for x in self._of_rank(v)))

    def inv_apply(self, v):
        """L^{-1} v as a tuple of Fractions."""
        A, d = self._inv_int
        v, e = _over_one_denominator(self._of_rank(v))
        return tuple(Fraction(sum(map(mul, row, v)), d * e) for row in A)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for r in self.entries for x in r)

    def to_json_obj(self):
        return [[str(x) for x in r] for r in self.entries]

    @staticmethod
    def from_json_obj(obj) -> "GramLattice":
        return GramLattice([[Fraction(x) for x in r] for r in obj])

    def __repr__(self):
        return f"GramLattice({[[str(x) for x in r] for r in self.entries]})"


def _over_one_denominator(v):
    """(w, e) with v = w / e for a vector of rationals v: integers w, e > 0."""
    v = [to_fraction(x) for x in v]
    e = lcm(*(x.denominator for x in v))
    return [x.numerator * (e // x.denominator) for x in v], e


def discriminant(L: GramLattice, n, r) -> Fraction:
    """D = |L| (4n - L^{-1}[r]), over one denominator."""
    n = to_fraction(n)
    q, den = L._inv_form_int(r, r)
    return Fraction(L.det.numerator * (4 * n.numerator * den - n.denominator * q),
                    L.det.denominator * n.denominator * den)


def h_of_r(L: GramLattice, r) -> Fraction:
    """h = |L| L^{-1}[r]; together with D it splits 4n|L|."""
    return L.det * L.inv_quad(r)


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for nonnegative rational x, exactly."""
    if x < 0:
        raise ValueError("negative argument")
    # s = isqrt(floor(x)) has s^2 <= floor(x) <= x < floor(x) + 1 <= (s + 1)^2
    return isqrt(x.numerator // x.denominator)


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
