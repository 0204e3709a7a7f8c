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


def det(a):
    """Determinant by cofactor expansion; fine at the sizes used here."""
    n, m = dims(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    acc = a[0][0] * 0
    for j in range(n):
        if a[0][j]:
            term = a[0][j] * _minor_det(a, 0, j)
            acc = acc + (-term if j % 2 else term)
    return acc


def _minor_det(a, i, j):
    n = len(a)
    sub_rows = [
        tuple(a[r][c] for c in range(n) if c != j)
        for r in range(n) if r != i
    ]
    return det(tuple(sub_rows))


def adjugate(a):
    n, m = dims(a)
    if n != m:
        raise ValueError("adjugate of a non-square matrix")
    if n == 1:
        return ((a[0][0] * 0 + 1,),)
    cof = [
        [(-1) ** (i + j) * _minor_det(a, i, j) for j in range(n)]
        for i in range(n)
    ]
    return transpose(mat(cof))


def inverse(a):
    """a^-1, exact on exact entries; numeric entries must be mpc."""
    d = det(a)
    if not d:
        raise ZeroDivisionError("singular matrix")
    return scale(Fraction(1) / d, adjugate(a))


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
