"""Truncated multivariate Taylor arithmetic (jets).

Jets live over the complexified coordinates (tau, taubar, z_1..z_N,
zbar_1..zbar_N) treated as independent variables, which makes Wirtinger
derivatives plain coordinate derivatives and keeps group transformations
componentwise holomorphic.  Coefficients are mpmath numbers at the caller's
working precision; the caller is responsible for the enclosing workprec
block.

Products and compositions are exact sums, each rounded once per
coefficient, on the Gaussian-integer kernel of ``fixedpoint``.  Each
operand's coefficients become Gaussian integers sharing one binary
exponent, every output coefficient is summed exactly as an integer over a
product table, and it is rounded to the working precision and rounding
mode only when it is stored.  So results do not depend on the order of the
terms, and a product of two one-term jets has the bits of mpmath's own
product.  The tables of each (nvars, degree) are built on first use.  A
product of jets or a composition with a non-finite coefficient, and a
product by a non-finite scalar, raise DomainError.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial
from typing import NamedTuple

from mpmath import mp

from .errors import DegreeError, DomainError
from .fixedpoint import parts, rounded, to_ints
from .polys import SparseTerms
from .precision import to_mpf


class _Tables:
    """The monomials of one (nvars, degree), sorted by (total degree,
    exponent), their index, and for each monomial i the row of indices of
    i + j over the prefix of monomials j with deg i + deg j <= degree;
    ``parents[k]`` is (index of e - unit_v, v) for the last variable v of
    monomial e = monos[k], k > 0."""

    __slots__ = ("monos", "index", "rows", "parents")

    def __init__(self, nvars: int, degree: int):
        monos = []
        upto = []
        for d in range(degree + 1):
            block = []
            for combo in combinations_with_replacement(range(nvars), d):
                e = [0] * nvars
                for v in combo:
                    e[v] += 1
                block.append(tuple(e))
            monos.extend(sorted(block))
            upto.append(len(monos))
        index = {e: k for k, e in enumerate(monos)}
        self.monos = tuple(monos)
        self.index = index
        self.rows = tuple(
            tuple(index[tuple(x + y for x, y in zip(e1, e2))]
                  for e2 in monos[:upto[degree - sum(e1)]])
            for e1 in monos
        )
        parents = [None]
        for e in monos[1:]:
            v = max(j for j, x in enumerate(e) if x)
            parents.append((index[e[:v] + (e[v] - 1,) + e[v + 1:]], v))
        self.parents = tuple(parents)


@lru_cache(maxsize=64)
def _tables(nvars: int, degree: int) -> _Tables:
    """The tables of a space, shared read-only by every jet of the space."""
    return _Tables(nvars, degree)


# An exact jet is (re, im, exp): dense lists of ints over the monomial
# order, the coefficient of monomial k being (re[k] + i im[k]) 2^exp.


def _exact(jet: "Jet", nilpotent: bool = False):
    """The exact form of a jet, or of its nilpotent part."""
    t = _tables(jet.space.nvars, jet.space.degree)
    index = t.index
    ks, values = [], []
    for e, c in jet.terms.items():
        k = index.get(e)
        if k is None:
            raise DomainError(f"exponent {e} is not a monomial of the jet space")
        if k or not nilpotent:
            ks.append(k)
            values.append(c)
        else:
            parts(c)  # DomainError unless finite
    re, im, emin = to_ints(values)
    size = len(t.monos)
    ore, oim = [0] * size, [0] * size
    for k, u, v in zip(ks, re, im):
        ore[k] = u
        oim[k] = v
    return ore, oim, emin


def _unit(size: int):
    one = [0] * size
    one[0] = 1
    return one, [0] * size, 0


def _mul_exact(a, b, rows):
    """The exact truncated product of two exact jets."""
    are, aim, ea = a
    bre, bim, eb = b
    size = len(are)
    nz = [(j, bre[j], bim[j]) for j in range(size) if bre[j] or bim[j]]
    ore, oim = [0] * size, [0] * size
    for i in range(size):
        x, y = are[i], aim[i]
        if not (x or y):
            continue
        row = rows[i]
        n = len(row)
        for j, u, v in nz:
            if j >= n:
                break
            k = row[j]
            ore[k] += x * u - y * v
            oim[k] += x * v + y * u
    return ore, oim, ea + eb


def _monomial_product(k, products, parents, deltas, rows):
    """prod_v delta_v^(monomial k), exact, memoized in ``products``; parents
    have lower indices.  A module function rather than a recursive closure,
    whose reference cycle would keep every product alive until the cyclic
    garbage collector runs."""
    if k not in products:
        prev, v = parents[k]
        products[k] = _mul_exact(_monomial_product(prev, products, parents, deltas, rows),
                                 deltas[v], rows)
    return products[k]


def _combine(terms, size: int):
    """The exact sum of scalar * exact-jet terms."""
    terms = [(s, j) for s, j in terms if s[0] or s[1]]
    if not terms:
        return [0] * size, [0] * size, 0
    emin = min(s[2] + j[2] for s, j in terms)
    ore, oim = [0] * size, [0] * size
    for (a, b, x), (re, im, e) in terms:
        # shift the scalar, not the jet, onto the common exponent
        shift = x + e - emin
        a, b = a << shift, b << shift
        for k in range(size):
            u, v = re[k], im[k]
            if u or v:
                ore[k] += a * u - b * v
                oim[k] += a * v + b * u
    return ore, oim, emin


def _rounded(space: "JetSpace", exact) -> "Jet":
    """The jet of an exact form, each coefficient rounded once."""
    re, im, e = exact
    monos = _tables(space.nvars, space.degree).monos
    nz = [k for k in range(len(re)) if re[k] or im[k]]
    values = rounded([re[k] for k in nz], [im[k] for k in nz], e)
    return Jet(space, dict(zip([monos[k] for k in nz], values)))


class JetSpace:
    """Fixed number of variables and truncation degree."""

    __slots__ = ("nvars", "degree", "_zero")

    def __init__(self, nvars: int, degree: int):
        if degree < 0:
            raise ValueError("jet degree must be nonnegative")
        self.nvars = nvars
        self.degree = degree
        self._zero = (0,) * nvars

    @staticmethod
    def for_rank(N: int, degree: int) -> "JetSpace":
        return JetSpace(2 * N + 2, degree)

    def __eq__(self, other):
        return (
            isinstance(other, JetSpace)
            and self.nvars == other.nvars
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash((self.nvars, self.degree))


class Jet(SparseTerms):
    """Truncated Taylor expansion: exponent tuple -> coefficient."""

    __slots__ = ("space", "terms")

    def __init__(self, space: JetSpace, terms: dict):
        self.space = space
        self.terms = terms

    def _like(self, terms, other) -> "Jet":
        return Jet(self.space, terms)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    __hash__ = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(space: JetSpace, value) -> "Jet":
        value = mp.mpc(value)
        parts(value)
        if value == 0:
            return Jet(space, {})
        return Jet(space, {space._zero: value})

    @staticmethod
    def variable(space: JetSpace, i: int, base) -> "Jet":
        c = {space._zero: mp.mpc(base)}
        parts(c[space._zero])
        if space.degree >= 1:
            e = [0] * space.nvars
            e[i] = 1
            c[tuple(e)] = mp.mpc(1)
        return Jet(space, {k: v for k, v in c.items() if v != 0})

    # -- ring operations -----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = mp.mpc(other)
            parts(c)  # DomainError unless finite
            if c == 0:
                return Jet(self.space, {})
            return Jet(self.space, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        rows = _tables(self.space.nvars, self.space.degree).rows
        return _rounded(self.space, _mul_exact(_exact(self), _exact(other), rows))

    __rmul__ = __mul__

    def _mpmath_(self, prec, rounding):
        # mpmath calls this when an mpf or mpc meets a jet on its left; the
        # TypeError hands the operation to the jet's reflected method before
        # mpmath formats the jet for an error message of its own
        raise TypeError("a jet is not an mpmath number")

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.space != self.space:
                raise ValueError("mixed jet spaces")
            return other
        return Jet.const(self.space, other)

    # -- analytic operations ----------------------------------------------------

    @property
    def value(self):
        return self.terms.get(self.space._zero, mp.mpc(0))

    def reciprocal(self) -> "Jet":
        c = self.value
        if c == 0:
            raise ZeroDivisionError("jet with zero constant term")
        inv = 1 / c
        scalars = [mp.mpc(-1) ** n for n in range(self.space.degree + 1)]
        return compose_univariate(scalars, self * inv) * inv

    def exp(self) -> "Jet":
        scalars = [mp.mpf(1) / factorial(n) for n in range(self.space.degree + 1)]
        return compose_univariate(scalars, self) * mp.exp(self.value)

    def pow_scalar(self, alpha) -> "Jet":
        """(c + delta)^alpha by the generalized binomial series."""
        c = self.value
        if c == 0:
            raise ZeroDivisionError("fractional power of jet with zero constant term")
        alpha = to_mpf(alpha)
        scalars = []
        b = mp.mpc(1)
        for n in range(self.space.degree + 1):
            scalars.append(b)
            b = b * (alpha - n) / (n + 1)
        return compose_univariate(scalars, self * (1 / c)) * mp.power(c, alpha)

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** -n
        return super().__pow__(n)

    # -- calculus --------------------------------------------------------------

    def derivative_at_base(self, alpha) -> "mp.mpc":
        """The partial derivative of the represented function at the base
        point, multi-index alpha over the jet variables."""
        alpha = tuple(alpha)
        if sum(alpha) > self.space.degree:
            raise DegreeError(
                f"jet of degree {self.space.degree} cannot deliver order {sum(alpha)}"
            )
        c = self.terms.get(alpha, mp.mpc(0))
        scale = 1
        for a in alpha:
            scale *= factorial(a)
        return c * scale

    def compose(self, inners: list) -> "Jet":
        """Substitute inner jets (in the target space) for this jet's
        variables.  Each inner's constant term must equal this jet's base
        coordinate; only the offsets matter here, so the caller passes inner
        jets whose values are the new expansion data with constants equal to
        the outer base point coordinates."""
        if len(inners) != self.space.nvars:
            raise ValueError("wrong number of inner jets")
        target = inners[0].space
        if any(j.space != target for j in inners):
            raise ValueError("mixed jet spaces")
        rows = _tables(target.nvars, target.degree).rows
        parents = _tables(self.space.nvars, self.space.degree).parents
        deltas = [_exact(j, nilpotent=True) for j in inners]
        re, im, e = _exact(self)
        products = {0: _unit(len(rows))}
        terms = [((re[k], im[k], e), _monomial_product(k, products, parents, deltas, rows))
                 for k in range(len(re)) if re[k] or im[k]]
        return _rounded(target, _combine(terms, len(rows)))

    def __repr__(self):
        n = len(self.terms)
        return f"Jet(deg<={self.space.degree}, {n} terms, value={self.value})"


class Coordinates(NamedTuple):
    """The jets of tau, taubar and the vectors z, zbar at a base point of
    H x C^N, in jet-variable order."""

    tau: Jet
    taubar: Jet
    z: tuple
    zbar: tuple


def coordinate_jets(space: JetSpace, tau, z) -> Coordinates:
    """The coordinate jets at the base point (tau, z)."""
    N = (space.nvars - 2) // 2
    tau = mp.mpc(tau)
    z = [mp.mpc(w) for w in z]
    return Coordinates(
        Jet.variable(space, 0, tau), Jet.variable(space, 1, mp.conj(tau)),
        tuple(Jet.variable(space, 2 + j, z[j]) for j in range(N)),
        tuple(Jet.variable(space, 2 + N + j, mp.conj(z[j])) for j in range(N)))


def imaginary_parts(coords: Coordinates):
    """The jets of y = Im tau and of the vector v = Im z."""
    minus_half_i = mp.mpc(0, -0.5)
    return ((coords.tau - coords.taubar) * minus_half_i,
            tuple((zj - zbj) * minus_half_i for zj, zbj in zip(coords.z, coords.zbar)))


def compose_univariate(series, inner: Jet) -> Jet:
    """Compose an outer 1-d Taylor series (coefficients around the inner
    jet's value), taken as a one-variable jet, with the inner jet: sum_n
    series[n] delta^n, with delta the inner jet's nilpotent part."""
    outer = JetSpace(1, min(len(series) - 1, inner.space.degree))
    monos = _tables(1, outer.degree).monos
    return Jet(outer, dict(zip(monos, series))).compose([inner])
