"""Small dense matrix helpers, generic over the entry type.

Matrices are tuples of tuples.  The same routines serve exact entries
(Fraction, GaussianRational) and mpmath numbers; nothing here ever converts
between the two worlds implicitly.
"""

from __future__ import annotations

from fractions import Fraction

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
    acc = None
    for j in range(n):
        if not a[0][j]:
            continue
        term = a[0][j] * _minor_det(a, 0, j)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return a[0][0] * 0
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
    d = det(a)
    if not d:
        raise ZeroDivisionError("singular matrix")
    if isinstance(d, GaussianRational):
        return scale(d.inverse(), adjugate(a))
    if isinstance(d, (int, Fraction)):
        return scale(Fraction(1, 1) / d, adjugate(a))
    return scale(1 / d, adjugate(a))


def quad_form(a, v):
    """v^T a v."""
    return _dot(v, matvec(a, v))


def trace(a):
    return sum((a[i][i] for i in range(len(a))), start=a[0][0] * 0)


def to_gaussian(a):
    return tuple(tuple(GaussianRational.coerce(x) for x in r) for r in a)


def leading_principal_minors(a):
    n = len(a)
    return [det(tuple(tuple(a[i][j] for j in range(k)) for i in range(k)))
            for k in range(1, n + 1)]


def ldl(a):
    """Exact LDL^T factorization of a symmetric positive definite matrix.

    Returns (lower_unitriangular, diag) over Fraction.  Raises if a pivot
    is not positive.
    """
    n = len(a)
    a = [[Fraction(a[i][j]) for j in range(n)] for i in range(n)]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [Fraction(0)] * n
    for j in range(n):
        d = a[j][j] - sum(diag[k] * lower[j][k] ** 2 for k in range(j))
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag[j] = d
        for i in range(j + 1, n):
            s = a[i][j] - sum(diag[k] * lower[i][k] * lower[j][k] for k in range(j))
            lower[i][j] = s / d
    return mat(lower), tuple(diag)
