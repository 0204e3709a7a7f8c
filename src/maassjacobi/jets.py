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
product.  A JetSpace is a downward-closed set of monomials, total degree
being the special case, and owns the tables its jets read; a coefficient
at a monomial reads only coefficients at the monomials below it, so a
jet on a smaller set has the bits of the total-degree one there.  A
jet built from a dict with a non-finite coefficient, and a product by a
non-finite scalar, raise DomainError; the jets that the engine builds
itself (``_jet``) are finite by construction and go unchecked.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, factorial
from typing import NamedTuple

from mpmath import mp

from .errors import DegreeError, DomainError
from .fixedpoint import parts, rounded, to_ints
from .polys import Keyed, SparseTerms
from .precision import to_mpf


# An exact jet is (re, im, exp): dense lists of ints over the monomial
# order, the coefficient of monomial k being (re[k] + i im[k]) 2^exp.


def _exact(jet: "Jet", nilpotent: bool = False):
    """The exact form of a jet, or of its nilpotent part."""
    index = jet.space.index
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
    size = len(jet.space.monos)
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
            if k is None:
                continue
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
    nz = [k for k in range(len(re)) if re[k] or im[k]]
    values = rounded([re[k] for k in nz], [im[k] for k in nz], e)
    return _jet(space, dict(zip([space.monos[k] for k in nz], values)))


class JetSpace(Keyed):
    """A downward-closed set of monomials in ``nvars`` variables, and the
    tables its jets read.  ``JetSpace(nvars, degree)`` is the set of total
    degree at most ``degree``; ``of_monomials`` checks and gives any other
    set, keyed ``(nvars, degree, monos)``, and ``degree`` is then its
    highest total degree, the one bound that the one-variable series of
    exp, powers and the reciprocal read.

    The tables: the monomials ``monos``, sorted by (total degree,
    exponent) so that ``monos[0]`` is 1, their ``index``, for each
    monomial i the row of the index of i + j over the monomials j with
    deg i + deg j <= degree (None where i + j is not in the set, and no
    trailing None), and ``parents[k]``, (index of e - unit_v, v) for the
    last variable v of monomial e = monos[k], k > 0."""

    __slots__ = ("nvars", "degree", "monos", "index", "rows", "parents")

    def _init(self, nvars: int, degree: int, monos: tuple = None):
        if degree < 0:
            raise DomainError("jet degree must be nonnegative")
        if monos is None:
            monos = []
            for d in range(degree + 1):
                block = []
                for combo in combinations_with_replacement(range(nvars), d):
                    e = [0] * nvars
                    for v in combo:
                        e[v] += 1
                    block.append(tuple(e))
                monos.extend(sorted(block))
        index = {e: k for k, e in enumerate(monos)}
        parents = [None]
        for e in monos[1:]:
            v = max(j for j, x in enumerate(e) if x)
            parents.append((index[e[:v] + (e[v] - 1,) + e[v + 1:]], v))
        upto = [0] * (degree + 1)
        for e in monos:
            upto[sum(e)] += 1
        for d in range(degree):
            upto[d + 1] += upto[d]
        rows = []
        for e1 in monos:
            row = [index.get(tuple(x + y for x, y in zip(e1, e2)))
                   for e2 in monos[:upto[degree - sum(e1)]]]
            while row[-1] is None:
                row.pop()
            rows.append(tuple(row))
        self.nvars = nvars
        self.degree = degree
        self.monos = tuple(monos)
        self.index = index
        self.rows = tuple(rows)
        self.parents = tuple(parents)

    @staticmethod
    def for_rank(N: int, degree: int) -> "JetSpace":
        return JetSpace(2 * N + 2, degree)

    @staticmethod
    def of_monomials(monomials) -> "JetSpace":
        """The space of a set of exponent tuples of one length, which must
        hold 1 and, with each monomial, every monomial below it; a
        total-degree set gives ``JetSpace(nvars, degree)`` itself."""
        held = set(map(tuple, monomials))
        monos = sorted(held, key=lambda e: (sum(e), e))
        if not monos or any(monos[0]):
            raise DomainError("a jet space holds the monomial 1")
        nvars, degree = len(monos[0]), sum(monos[-1])
        for e in monos:
            if len(e) != nvars or any(x < 0 for x in e):
                raise DomainError(f"{e} is not an exponent in {nvars} variables")
            for v, x in enumerate(e):
                if x and e[:v] + (x - 1,) + e[v + 1:] not in held:
                    raise DomainError(f"a jet space that holds {e} holds the monomials below it")
        if len(monos) == comb(nvars + degree, degree):
            return JetSpace(nvars, degree)
        return JetSpace(nvars, degree, tuple(monos))

    def require(self, alpha) -> tuple:
        """The exponent ``alpha`` as a tuple: DomainError unless it has
        ``nvars`` entries, DegreeError unless the space holds it."""
        alpha = tuple(alpha)
        if len(alpha) != self.nvars:
            raise DomainError(f"an exponent of {len(alpha)} entries in {self.nvars} jet variables")
        if alpha not in self.index:
            raise DegreeError(f"the jet space of degree {self.degree} does not hold {alpha}")
        return alpha


class Jet(SparseTerms):
    """Truncated Taylor expansion: exponent tuple -> coefficient."""

    __slots__ = ("space", "terms")

    def __init__(self, space: JetSpace, terms: dict):
        """The jet with ``terms``, {exponent tuple: coefficient};
        DomainError unless every coefficient is finite."""
        for c in terms.values():
            parts(c)
        self.space = space
        self.terms = terms

    def _like(self, terms, other) -> "Jet":
        return _jet(self.space, terms)

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
            return _jet(space, {})
        return _jet(space, {space.monos[0]: value})

    @staticmethod
    def variable(space: JetSpace, i: int, base) -> "Jet":
        jet = Jet.const(space, base)
        e = tuple(int(v == i) for v in range(space.nvars))
        if e in space.index:
            jet.terms[e] = mp.mpc(1)
        return jet

    # -- ring operations -----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = mp.mpc(other)
            parts(c)  # DomainError unless finite
            if c == 0:
                return _jet(self.space, {})
            return _jet(self.space, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        return _rounded(self.space, _mul_exact(_exact(self), _exact(other), self.space.rows))

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
        return self.terms.get(self.space.monos[0], mp.mpc(0))

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
        point, multi-index alpha over the jet variables: DomainError for an
        alpha of another length, DegreeError for one the space lacks."""
        alpha = self.space.require(alpha)
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
        rows, parents = target.rows, self.space.parents
        deltas = [_exact(j, nilpotent=True) for j in inners]
        re, im, e = _exact(self)
        products = {0: _unit(len(rows))}
        terms = [((re[k], im[k], e), _monomial_product(k, products, parents, deltas, rows))
                 for k in range(len(re)) if re[k] or im[k]]
        return _rounded(target, _combine(terms, len(rows)))

    def __repr__(self):
        n = len(self.terms)
        return f"Jet(deg<={self.space.degree}, {n} terms, value={self.value})"


def _jet(space: JetSpace, terms: dict) -> Jet:
    """The jet with ``terms``, whose coefficients must be finite."""
    jet = object.__new__(Jet)
    jet.space = space
    jet.terms = terms
    return jet


class Coordinates(NamedTuple):
    """The 2N + 2 slots tau, taubar and the vectors z, zbar of H x C^N, in
    jet-variable order: the coordinate jets at a point, or the derivative
    basis d_tau, d_taubar, d_z, d_zbar of ``opcalc``."""

    tau: object
    taubar: object
    z: tuple
    zbar: tuple

    def flat(self) -> list:
        """The entries in jet-variable order."""
        return [self.tau, self.taubar, *self.z, *self.zbar]

    @staticmethod
    def of(items) -> "Coordinates":
        """The inverse of ``flat``: 2N + 2 entries in jet-variable order."""
        items = tuple(items)
        N = (len(items) - 2) // 2
        return Coordinates(items[0], items[1], items[2:2 + N], items[2 + N:])


def coordinate_jets(space: JetSpace, tau, z) -> Coordinates:
    """The coordinate jets at the base point (tau, z); z has one entry for
    each of the space's N."""
    N = (space.nvars - 2) // 2
    if len(z) != N:
        raise DomainError(f"a z of {len(z)} entries at rank {N}")
    tau = mp.mpc(tau)
    z = [mp.mpc(w) for w in z]
    bases = [tau, mp.conj(tau), *z, *(mp.conj(w) for w in z)]
    return Coordinates.of(Jet.variable(space, i, b) for i, b in enumerate(bases))


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
    # compose checks that each coefficient is finite
    return _jet(outer, dict(zip(outer.monos, series))).compose([inner])
