"""Small dense matrix helpers, generic over the entry type.

Matrices are tuples of tuples.  The same routines serve exact entries
(Fraction, GaussianRational) and mpmath numbers; nothing here ever converts
between the two worlds implicitly.  Numeric code that wants mpc products
summed exactly and rounded once converts to the Gaussian-integer matrices
of ``fixedpoint`` instead; these routines never dispatch to it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .gaussian import GaussianRational


def mat(rows):
    return tuple(tuple(r) for r in rows)


def dims(a):
    return len(a), len(a[0]) if a else 0


def identity(n, one=1, zero=0):
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zeros(m, n, zero=0):
    return tuple(tuple(zero for _ in range(n)) for _ in range(m))


def transpose(a):
    m, n = dims(a)
    return tuple(tuple(a[i][j] for i in range(m)) for j in range(n))


def add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def neg(a):
    return tuple(tuple(-x for x in r) for r in a)


def scale(c, a):
    return tuple(tuple(c * x for x in r) for r in a)


def mul(a, b):
    m, k = dims(a)
    k2, n = dims(b)
    if k != k2:
        raise ValueError("matrix dimension mismatch")
    bt = transpose(b)
    return tuple(
        tuple(_dot(ra, cb) for cb in bt) for ra in a
    )


def _dot(u, v):
    it = iter(zip(u, v))
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def matvec(a, v):
    return tuple(_dot(r, v) for r in a)


class Minors(dict):
    """The minors of a square matrix ``a``, each computed on first use and
    kept: ``minors[rows, cols]`` (sorted index tuples) expands along the
    first of ``rows`` over the minors one size smaller, skipping zero
    entries; the empty minor is the unit.  det(a) fills 2^n of them."""

    def __init__(self, a):
        n, m = dims(a)
        if n != m:
            raise ValueError("minors of a non-square matrix")
        super().__init__({((), ()): a[0][0] * 0 + 1})
        self.a = a

    def __missing__(self, key):
        rows, cols = key
        row = self.a[rows[0]]
        acc = row[cols[0]] * 0
        for k, c in enumerate(cols):
            if row[c]:
                term = row[c] * self[rows[1:], cols[:k] + cols[k + 1:]]
                acc = acc + (-term if k % 2 else term)
        self[key] = acc
        return acc

    def det(self):
        full = tuple(range(len(self.a)))
        return self[full, full]

    def adjugate(self):
        """adj(a)_ij = (-1)^(i+j) times the minor without row j and column i."""
        n = len(self.a)
        rest = [tuple(k for k in range(n) if k != i) for i in range(n)]
        return tuple(
            tuple((-1) ** (i + j) * self[rest[j], rest[i]] for j in range(n))
            for i in range(n)
        )


def det(a):
    return Minors(a).det()


def adjugate(a):
    return Minors(a).adjugate()


def quad_form(a, v):
    """v^T a v."""
    return _dot(v, matvec(a, v))


def trace_mul(a, b):
    """tr(a b) from the diagonal of a b alone, each entry the ``_dot`` that
    ``mul`` forms, summed from that entry's zero."""
    diag = [_dot(ra, cb) for ra, cb in zip(a, transpose(b))]
    return sum(diag, start=diag[0] * 0)


def to_gaussian(a):
    return tuple(tuple(GaussianRational.coerce(x) for x in r) for r in a)


def ldl(a):
    """Exact LDL^T factorization of a symmetric positive definite matrix.

    Returns (lower_unitriangular, diag) over Fraction.  The pivot diag[j] is
    the ratio of the leading principal minors j + 1 and j, so the first
    pivot that is not positive names the first such minor: DomainError.
    """
    n = len(a)
    a = [[Fraction(a[i][j]) for j in range(n)] for i in range(n)]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [Fraction(0)] * n
    for j in range(n):
        d = a[j][j] - sum(diag[k] * lower[j][k] ** 2 for k in range(j))
        if d <= 0:
            raise DomainError(f"leading principal minor {j + 1} is not positive; "
                              "the matrix must be positive definite")
        diag[j] = d
        for i in range(j + 1, n):
            s = a[i][j] - sum(diag[k] * lower[i][k] * lower[j][k] for k in range(j))
            lower[i][j] = s / d
    return mat(lower), tuple(diag)
