"""Gaussian integers over one shared power of two: the numeric kernel.

A complex mpmath number is read as a Gaussian integer u + i v times 2^e.
Sums and products of such numbers are then exact integer arithmetic, and
each output is rounded once, to the working precision and rounding mode,
when it becomes an mpmath number again.  So results do not depend on the
order of the terms.

Two engines use this kernel.  The jet engine (``jets``) converts each jet
exactly over the smallest exponent of its coefficients.  The matrix
exponentials run their series at one fixed scale 2^-P, where P is the
working precision plus guard bits, flooring each product to that scale:
``group.expm`` as a matrix polynomial by Paterson-Stockmeyer, from a few
powers, blocks that are one ``lincomb`` each, and Horner products, and
``group.jacobi_exp`` as two series of Gaussian-integer scalars, whose sums
are the coefficients of M and I in h(M) by Cayley-Hamilton.  A non-finite
value raises DomainError.

A matrix here is ``(re, im, e)``: two lists of integer rows and one
exponent, entry (j, k) being (re[j][k] + i im[j][k]) 2^e.
"""

from __future__ import annotations

from operator import mul

from mpmath import mp
from mpmath.libmp import from_man_exp

from .errors import DomainError


def parts(c):
    """(re, im) raw mpf parts of a number; DomainError unless finite."""
    try:
        re, im = c._mpc_
    except AttributeError:
        re, im = mp.mpc(c)._mpc_
    # a raw mpf with zero mantissa and nonzero exponent is inf or nan
    if (not re[1] and re[2]) or (not im[1] and im[2]):
        raise DomainError(f"non-finite value {c}")
    return re, im


def _int(part, emin: int) -> int:
    """A raw mpf part as an integer multiple of 2^emin, emin at most its
    exponent."""
    s, m, x, _ = part
    if not m:
        return 0
    m <<= x - emin
    return -m if s else m


def to_ints(values):
    """(re, im, e) with values[k] = (re[k] + i im[k]) 2^e exactly, e the
    smallest exponent of the values."""
    ps = [parts(c) for c in values]
    e = min((p[2] for pair in ps for p in pair if p[1]), default=0)
    return [_int(re, e) for re, _ in ps], [_int(im, e) for _, im in ps], e


def rounded(re, im, e: int) -> list:
    """The numbers (re[k] + i im[k]) 2^e, each rounded once to the working
    precision and rounding mode."""
    prec, rnd = mp._prec_rounding
    make = mp.make_mpc
    return [make((from_man_exp(u, e, prec, rnd), from_man_exp(v, e, prec, rnd)))
            for u, v in zip(re, im)]


# -- matrices ------------------------------------------------------------------


def matrix(a):
    """A matrix of numbers in integer form, exactly."""
    n = len(a[0])
    re, im, e = to_ints([x for row in a for x in row])
    return ([re[i:i + n] for i in range(0, len(re), n)],
            [im[i:i + n] for i in range(0, len(im), n)], e)


def to_mpc(m):
    """The matrix of numbers of an integer matrix, each entry rounded once."""
    re, im, e = m
    return tuple(tuple(rounded(u, v, e)) for u, v in zip(re, im))


def identity(n: int, e: int):
    """The n x n identity at exponent e (e <= 0)."""
    return ([[1 << -e if i == j else 0 for j in range(n)] for i in range(n)],
            [[0] * n for _ in range(n)], e)


def scaled(m, s: int):
    """m 2^-s, exactly."""
    re, im, e = m
    return re, im, e - s


def rescale(m, exp: int):
    """m at exponent ``exp``: exact when exp <= the exponent of m, else
    rounded to nearest."""
    re, im, e = m
    shift = e - exp
    if shift >= 0:
        f = lambda x: x << shift
    else:
        f = lambda x: ((x >> (-shift - 1)) + 1) >> 1
    return [list(map(f, r)) for r in re], [list(map(f, r)) for r in im], exp


def transpose(m):
    re, im, e = m
    return [list(c) for c in zip(*re)], [list(c) for c in zip(*im)], e


def matmul(a, b, shift: int = 0):
    """The product a b, each entry summed exactly, then floored to a
    multiple of 2^shift of the product's exponent."""
    are, aim, ea = a
    bre, bim, eb = b
    if not (any(map(any, aim)) or any(map(any, bim))):
        # both real: one real product instead of four
        cols = list(zip(*bre))
        return ([[sum(map(mul, x, u)) >> shift for u in cols] for x in are],
                [[0] * len(cols) for _ in are], ea + eb + shift)
    cols = list(zip(zip(*bre), zip(*bim)))
    re, im = [], []
    for x, y in zip(are, aim):
        re.append([(sum(map(mul, x, u)) - sum(map(mul, y, v))) >> shift for u, v in cols])
        im.append([(sum(map(mul, x, v)) + sum(map(mul, y, u))) >> shift for u, v in cols])
    return re, im, ea + eb + shift


def add(a, b, sign: int = 1):
    """a + sign b, exactly."""
    e = min(a[2], b[2])
    are, aim, _ = a if a[2] == e else rescale(a, e)
    bre, bim, _ = b if b[2] == e else rescale(b, e)
    return ([[x + sign * y for x, y in zip(r, s)] for r, s in zip(are, bre)],
            [[x + sign * y for x, y in zip(r, s)] for r, s in zip(aim, bim)], e)


def lincomb(coeffs, mats, shift: int):
    """sum_k (coeffs[k] 2^-shift) mats[k], for integer coefficients and
    matrices at one exponent: each entry summed exactly, then floored to a
    multiple of that exponent."""
    def part(p):
        return [[sum(map(mul, coeffs, xs)) >> shift for xs in zip(*rows)]
                for rows in zip(*(m[p] for m in mats))]
    re = part(0)
    # real matrices: no imaginary sums
    im = part(1) if any(any(map(any, m[1])) for m in mats) else [[0] * len(r) for r in re]
    return re, im, mats[0][2]


def row_norm(m) -> int:
    """The largest row sum of |re| + |im|, which times 2^e bounds the
    max-row-sum norm of m from above."""
    re, im, _ = m
    return max(sum(map(abs, r)) + sum(map(abs, i)) for r, i in zip(re, im))


def norm_exponent(m) -> int:
    """The least t with row_norm(m) 2^e < 2^t."""
    return row_norm(m).bit_length() + m[2]
