"""Sparse multivariate polynomials over the Gaussian rationals.

One engine serves three distinct uses: commutative symmetric-algebra
elements, operator coefficients (where some variables are Laurent, e.g. y
and pi), and Z-coefficient polynomials inside the enveloping algebra.
Variables are fixed per ring; terms map exponent tuples to nonzero
GaussianRational coefficients.
"""

from __future__ import annotations

from operator import add, sub

from .errors import DivisibilityError
from .gaussian import GaussianRational, ZERO, ONE, power


class SparseTerms:
    """A finite sum of terms: ``terms`` maps exponent tuples to nonzero
    coefficients.  This is the one definition of sum, negation, difference
    and non-negative power for polynomials, PBW elements, differential
    operators and jets.

    Subclasses supply ``_like(terms, other)`` (an element of their own
    kind with these terms, ``other`` being the second summand, or the
    element itself) and ``_coerce`` (scalars and elements of the same
    space to elements).  Sums merge by ``merge_terms``; powers use the
    subclass's ``*``.
    """

    __slots__ = ()

    def __add__(self, other):
        other = self._coerce(other)
        return self._like(merge_terms(dict(self.terms), other.terms.items()), other)

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()}, self)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        return power(self, n, self._coerce(1))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms


def merge_terms(terms: dict, pairs) -> dict:
    """Add each (e, c) of ``pairs`` into ``terms`` in place and return it: an
    existing key keeps its place, a zero sum is deleted, and a new key
    stores c itself.  Sums, products, derivatives, exact division, operator
    composition and PBW straightening all merge their terms by this rule."""
    get = terms.get
    for e, c in pairs:
        s = get(e)
        if s is None:
            terms[e] = c
        else:
            s = s + c
            if s:
                terms[e] = s
            else:
                del terms[e]
    return terms


class PolyRing:
    """An ordered list of variable names, some of which may carry negative
    exponents (Laurent variables)."""

    def __init__(self, names, laurent=()):
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variable names")
        self.laurent = frozenset(laurent)
        for n in self.laurent:
            if n not in self.index:
                raise ValueError(f"unknown laurent variable {n}")
        self.nvars = len(self.names)
        self._zero_exp = (0,) * self.nvars

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(ONE)

    def const(self, c) -> "Poly":
        c = GaussianRational.coerce(c)
        if not c:
            return self.zero()
        return Poly(self, {self._zero_exp: c})

    def var(self, name: str, power: int = 1) -> "Poly":
        i = self.index[name]
        if power < 0 and name not in self.laurent:
            raise ValueError(f"negative power of non-laurent variable {name}")
        exp = [0] * self.nvars
        exp[i] = power
        return Poly(self, {tuple(exp): ONE})

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.laurent == other.laurent
        )

    def __hash__(self):
        return hash((self.names, self.laurent))

    def __repr__(self):
        return f"PolyRing({self.names})"


def _grlex_key(exp):
    return (sum(exp), exp)


class Poly(SparseTerms):
    """Immutable sparse polynomial; never stores zero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _like(self, terms, other) -> "Poly":
        return Poly(self.ring, terms)

    # -- ring operations ------------------------------------------------

    def __mul__(self, other):
        """The product, with its terms in a new dict that callers may own."""
        other = self._coerce(other)
        t1, t2 = self.terms, other.terms
        # a one-term factor shifts exponents, so no two products collide
        if len(t1) == 1 or len(t2) == 1:
            return Poly(self.ring, {tuple(map(add, e1, e2)): c1 * c2
                                    for e1, c1 in t1.items() for e2, c2 in t2.items()})
        return Poly(self.ring, merge_terms({}, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in t1.items() for e2, c2 in t2.items())))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = GaussianRational.coerce(c)
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {e: c * v for e, v in self.terms.items()})

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        return self.ring.const(other)

    # -- structure -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        try:
            return (self - other).is_zero()
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def uses(self, name: str) -> bool:
        i = self.ring.index[name]
        return any(e[i] for e in self.terms)

    def leading(self):
        """(exponent, coeff) of the grlex-leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- substitution / evaluation ----------------------------------------

    def subs(self, assignment: dict) -> "Poly":
        """Substitute polynomials or constants for variables (same ring);
        a substituted variable may not occur at a negative power."""
        out = self.ring.zero()
        for e, c in self.terms.items():
            term = self.ring.const(c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                name = self.ring.names[i]
                if name in assignment:
                    repl = assignment[name]
                    if not isinstance(repl, Poly):
                        repl = self.ring.const(repl)
                    term = term * repl ** k
                else:
                    term = term * self.ring.var(name, k)
            out = out + term
        return out

    def eval_numeric(self, values, to_num):
        """Evaluate with ``values[i]`` the value of the ring's variable i.

        ``to_num`` converts a GaussianRational to the numeric domain; values
        must already live there.
        """
        acc = None
        for e, c in self.terms.items():
            t = to_num(c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                t = t * values[i] ** k
            acc = t if acc is None else acc + t
        return acc if acc is not None else to_num(ZERO)

    # -- division ----------------------------------------------------------

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact division by one polynomial divisor; DivisibilityError if
        the quotient does not exist.  Requires plain (non-Laurent) exponents.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_e, lead_c = divisor.leading()
        rem = dict(self.terms)
        q = {}
        while rem:
            e = max(rem, key=_grlex_key)
            diff = tuple(map(sub, e, lead_e))
            if any(d < 0 for d in diff):
                raise DivisibilityError(
                    f"leading term {e} not divisible by divisor leading {lead_e}"
                )
            # each step cancels the leading term, so each diff comes once
            qc = q[diff] = rem[e] / lead_c
            minus_qc = -qc
            merge_terms(rem, ((tuple(map(add, diff, de)), minus_qc * dc)
                              for de, dc in divisor.terms.items()))
        return Poly(self.ring, q)

    # -- formatting ----------------------------------------------------------

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(self.ring.names[i])
                elif k:
                    factors.append(f"{self.ring.names[i]}^{k}")
            body = "*".join(factors)
            cs = str(c)
            if body:
                parts.append(f"({cs})*{body}" if ("+" in cs or " " in cs) else
                             (body if cs == "1" else
                              (f"-{body}" if cs == "-1" else f"{cs}*{body}")))
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")
