"""Truncated multivariate Taylor arithmetic (jets).

Jets live over the complexified coordinates (tau, taubar, z_1..z_N,
zbar_1..zbar_N) treated as independent variables, which makes Wirtinger
derivatives plain coordinate derivatives and keeps group transformations
componentwise holomorphic.  Coefficients are mpmath numbers at the caller's
working precision; the caller is responsible for the enclosing workprec
block.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from mpmath import mp

from .errors import DegreeError


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


class Jet:
    """Truncated Taylor expansion: exponent tuple -> coefficient."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: dict):
        self.space = space
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(space: JetSpace, value) -> "Jet":
        value = mp.mpc(value)
        if value == 0:
            return Jet(space, {})
        return Jet(space, {space._zero: value})

    @staticmethod
    def variable(space: JetSpace, i: int, base) -> "Jet":
        c = {space._zero: mp.mpc(base)}
        if space.degree >= 1:
            e = [0] * space.nvars
            e[i] = 1
            c[tuple(e)] = mp.mpc(1)
        return Jet(space, {k: v for k, v in c.items() if v != 0})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, mp.mpc(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Jet(self.space, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = mp.mpc(other)
            if c == 0:
                return Jet(self.space, {})
            return Jet(self.space, {e: c * v for e, v in self.coeffs.items()})
        deg = self.space.degree
        a, b = self.coeffs, other.coeffs
        if len(b) < len(a):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            d1 = sum(e1)
            for e2, c2 in b.items():
                if d1 + sum(e2) > deg:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, mp.mpc(0)) + c1 * c2
                out[e] = s
        return Jet(self.space, {e: c for e, c in out.items() if c != 0})

    __rmul__ = __mul__

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.space != self.space:
                raise ValueError("mixed jet spaces")
            return other
        return Jet.const(self.space, other)

    # -- analytic operations ----------------------------------------------------

    @property
    def value(self):
        return self.coeffs.get(self.space._zero, mp.mpc(0))

    def nilpotent_part(self) -> "Jet":
        out = dict(self.coeffs)
        out.pop(self.space._zero, None)
        return Jet(self.space, out)

    def _series(self, scalars) -> "Jet":
        """sum scalars[n] * (nilpotent part)^n, scalars[0] applied to 1."""
        delta = self.nilpotent_part()
        acc = Jet.const(self.space, scalars[0])
        power = Jet.const(self.space, 1)
        for n in range(1, min(len(scalars), self.space.degree + 1)):
            power = power * delta
            if not power.coeffs:
                break
            acc = acc + power * scalars[n]
        return acc

    def reciprocal(self) -> "Jet":
        c = self.value
        if c == 0:
            raise ZeroDivisionError("jet with zero constant term")
        inv = 1 / c
        return (self * inv)._series([mp.mpc(-1) ** n for n in range(self.space.degree + 1)]) * inv

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def exp(self) -> "Jet":
        scalars = [mp.mpf(1) / factorial(n) for n in range(self.space.degree + 1)]
        return self._series(scalars) * mp.exp(self.value)

    def log(self) -> "Jet":
        c = self.value
        if c == 0:
            raise ZeroDivisionError("log of jet with zero constant term")
        scalars = [mp.mpc(0)] + [
            mp.mpc(-1) ** (n + 1) / n for n in range(1, self.space.degree + 1)
        ]
        return (self * (1 / c))._series(scalars) + mp.log(c)

    def pow_scalar(self, alpha) -> "Jet":
        """(c + delta)^alpha by the generalized binomial series."""
        c = self.value
        if c == 0:
            raise ZeroDivisionError("fractional power of jet with zero constant term")
        if isinstance(alpha, Fraction):
            alpha = mp.mpf(alpha.numerator) / alpha.denominator
        else:
            alpha = mp.mpf(alpha)
        scalars = []
        b = mp.mpc(1)
        for n in range(self.space.degree + 1):
            scalars.append(b)
            b = b * (alpha - n) / (n + 1)
        return (self * (1 / c))._series(scalars) * mp.power(c, alpha)

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        out = Jet.const(self.space, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus --------------------------------------------------------------

    def derivative_at_base(self, alpha) -> "mp.mpc":
        """The partial derivative of the represented function at the base
        point, multi-index alpha over the jet variables."""
        alpha = tuple(alpha)
        if sum(alpha) > self.space.degree:
            raise DegreeError(
                f"jet of degree {self.space.degree} cannot deliver order {sum(alpha)}"
            )
        c = self.coeffs.get(alpha, mp.mpc(0))
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
        deltas = [j.nilpotent_part() for j in inners]
        prod_cache = {(0,) * self.space.nvars: Jet.const(target, 1)}

        def product_for(e):
            if e in prod_cache:
                return prod_cache[e]
            i = max(j for j, k in enumerate(e) if k)
            prev = e[:i] + (e[i] - 1,) + e[i + 1:]
            p = product_for(prev) * deltas[i]
            prod_cache[e] = p
            return p

        out = Jet.const(target, 0)
        for e in sorted(self.coeffs.keys(), key=lambda t: (sum(t), t)):
            out = out + product_for(e) * self.coeffs[e]
        return out

    def max_abs(self):
        return max((abs(c) for c in self.coeffs.values()), default=mp.mpf(0))

    def __repr__(self):
        n = len(self.coeffs)
        return f"Jet(deg<={self.space.degree}, {n} terms, value={self.value})"


def coordinate_jets(space: JetSpace, tau, z):
    """Jets of (tau, taubar, z_j, zbar_j) at a base point of H x C^N."""
    N = (space.nvars - 2) // 2
    tau = mp.mpc(tau)
    z = [mp.mpc(w) for w in z]
    out = {
        "tau": Jet.variable(space, 0, tau),
        "taubar": Jet.variable(space, 1, mp.conj(tau)),
    }
    for j in range(N):
        out[f"z{j + 1}"] = Jet.variable(space, 2 + j, z[j])
        out[f"zbar{j + 1}"] = Jet.variable(space, 2 + N + j, mp.conj(z[j]))
    return out


def real_coordinate_jets(coords: dict, N: int):
    """x, y, u_j, v_j as jets derived from the complex coordinate jets."""
    half = mp.mpf("0.5")
    tau, taubar = coords["tau"], coords["taubar"]
    out = {
        "x": (tau + taubar) * half,
        "y": (tau - taubar) * mp.mpc(0, -0.5),
    }
    for j in range(1, N + 1):
        zj, zbj = coords[f"z{j}"], coords[f"zbar{j}"]
        out[f"u{j}"] = (zj + zbj) * half
        out[f"v{j}"] = (zj - zbj) * mp.mpc(0, -0.5)
    return out


def compose_univariate(series, inner: Jet) -> Jet:
    """Compose an outer 1-d Taylor series (list of coefficients around the
    inner jet's value) with the inner jet."""
    delta = inner.nilpotent_part()
    acc = Jet.const(inner.space, series[0])
    power = Jet.const(inner.space, 1)
    for n in range(1, min(len(series), inner.space.degree + 1)):
        power = power * delta
        if not power.coeffs:
            break
        acc = acc + power * series[n]
    return acc


FD_WEIGHTS_8 = tuple(
    zip(
        range(-4, 5),
        (Fraction(1, 280), Fraction(-4, 105), Fraction(1, 5), Fraction(-4, 5),
         Fraction(0), Fraction(4, 5), Fraction(-1, 5), Fraction(4, 105),
         Fraction(-1, 280)),
    )
)


def finite_difference(fun, base: list, var: int, h) -> "mp.mpc":
    """8th-order central first difference of fun over coordinate tuples."""
    acc = mp.mpc(0)
    for n, w in FD_WEIGHTS_8:
        if w == 0:
            continue
        pt = list(base)
        pt[var] = pt[var] + n * h
        acc += (mp.mpf(w.numerator) / w.denominator) * fun(pt)
    return acc / h
