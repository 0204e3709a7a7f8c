"""Sparse multivariate polynomials over the Gaussian rationals.

One engine serves three distinct uses: commutative symmetric-algebra
elements, operator coefficients (where some variables are Laurent, e.g. y
and pi), and Z-coefficient polynomials inside the enveloping algebra.
Variables are fixed per ring; terms map exponent tuples to nonzero
GaussianRational coefficients.
"""

from __future__ import annotations

from .errors import DivisibilityError
from .gaussian import GaussianRational, ZERO, ONE


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

    def monomial(self, exps, coeff=ONE) -> "Poly":
        coeff = GaussianRational.coerce(coeff)
        if not coeff:
            return self.zero()
        return Poly(self, {tuple(exps): coeff})

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


class Poly:
    """Immutable sparse polynomial; never stores zero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c) -> "Poly":
        c = GaussianRational.coerce(c)
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {e: c * v for e, v in self.terms.items()})

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        return self.ring.const(other)

    # -- structure -------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        try:
            return (self - other).is_zero()
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {self.ring._zero_exp}

    def constant_value(self) -> GaussianRational:
        return self.terms.get(self.ring._zero_exp, ZERO)

    def uses(self, name: str) -> bool:
        i = self.ring.index[name]
        return any(e[i] for e in self.terms)

    def leading(self):
        """(exponent, coeff) of the grlex-leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def deriv(self, name: str) -> "Poly":
        i = self.ring.index[name]
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            e2 = e[:i] + (k - 1,) + e[i + 1:]
            s = out.get(e2, ZERO) + c * k
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
        return Poly(self.ring, out)

    # -- substitution / evaluation ----------------------------------------

    def subs(self, assignment: dict) -> "Poly":
        """Substitute polynomials or constants for variables (same ring)."""
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
                    if k < 0:
                        if not repl.is_constant():
                            raise ValueError(
                                f"cannot substitute non-constant into {name}^{k}"
                            )
                        repl = self.ring.const(repl.constant_value() ** -1)
                        k = -k
                    term = term * repl ** k
                else:
                    term = term * self.ring.var(name, k)
            out = out + term
        return out

    def eval_numeric(self, values: dict, to_num):
        """Evaluate with numeric values for all used variables.

        ``to_num`` converts a GaussianRational to the numeric domain; values
        must already live there.
        """
        acc = None
        for e, c in self.terms.items():
            t = to_num(c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                t = t * values[self.ring.names[i]] ** k
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
        rem = self
        q = {}
        while rem.terms:
            e, c = rem.leading()
            diff = tuple(a - b for a, b in zip(e, lead_e))
            if any(d < 0 for d in diff):
                raise DivisibilityError(
                    f"leading term {e} not divisible by divisor leading {lead_e}"
                )
            qc = c / lead_c
            q[diff] = q.get(diff, ZERO) + qc
            rem = rem - Poly(self.ring, {diff: qc}) * divisor
        return Poly(self.ring, {e: c for e, c in q.items() if c})

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
