"""Sparse multivariate polynomials over the Gaussian rationals.

One engine serves four distinct uses: commutative symmetric-algebra
elements, operator coefficients (where some variables are Laurent, e.g. y
and pi), Z-coefficient polynomials inside the enveloping algebra, and,
by its packing alone, the derivative exponents of differential operators.
Variables are fixed per ring.

A polynomial is stored fraction-free (Geddes, Czapor & Labahn, *Algorithms
for Computer Algebra*, 1992, ch. 2): ``num`` maps packed monomials to
nonzero Gaussian-integer numerators ``(a, b)``, one for each coefficient
``(a + b i) / den``, over one common denominator ``den > 0``, and ``den``
has no factor in common with every ``a`` and ``b``, so that each
polynomial has one form.  Arithmetic works on the integers and takes one
content gcd per result, none when the denominator is 1.

A monomial is packed into one int (Monagan & Pearce, J. Symbolic Comput.
46 (2011)).  Variable i has a field of ``FIELD_BITS`` bits, variable 0 the
highest, holding its exponent plus ``_BIAS``, so Laurent exponents pack as
well; the bits above the fields hold the total degree.  A product of
monomials is then a sum of ints, and ints compare as the graded
lexicographic order of the exponent tuples.  The top bit of each field is
a guard: it is clear in every stored monomial, and an exponent that leaves
``[-_BIAS, _BIAS)`` raises DomainError before it can spill into the next
variable.

``Poly(ring, {exponent tuple: coefficient})`` and ``Poly.terms`` are the
boundary: exponent tuples and GaussianRational coefficients, in the stored
order.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import or_

from mpmath import mp

from .errors import DomainError
from .gaussian import GaussianRational, ONE, _reduced as _gaussian, power
from .precision import rounded_mpc


class SparseTerms:
    """A finite sum of terms: ``terms`` maps exponent tuples to nonzero
    coefficients.  This is the one definition of sum, negation, difference
    and non-negative power for PBW elements, differential operators and
    jets.

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


class Keyed:
    """A structure that a small key fixes: ``Cls(*key)`` is the one instance
    for (Cls, key), built by the subclass's ``_init(*key)`` and stored only
    once ``_init`` returns.  Copies and unpickled objects are rebuilt from
    the key, so they share it too, and identity is equality."""

    __slots__ = ("_key",)
    _built = {}

    def __new__(cls, *key):
        inst = Keyed._built.get((cls, key))
        if inst is None:
            inst = super().__new__(cls)
            inst._init(*key)
            inst._key = key
            Keyed._built[cls, key] = inst
        return inst

    def __reduce__(self):
        return type(self), self._key


def merge_terms(terms: dict, pairs) -> dict:
    """Add each (e, c) of ``pairs`` into ``terms`` in place and return it: an
    existing key keeps its place, a zero sum is deleted, and a new key
    stores c itself.  Sums, operator composition and PBW straightening
    merge their terms by this rule, and so do the numerator dicts of
    ``Poly`` (``_merge``)."""
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


def _merge(num: dict, pairs) -> dict:
    """``merge_terms`` on Gaussian-integer numerators ``(a, b)``."""
    get = num.get
    for m, c in pairs:
        s = get(m)
        if s is None:
            num[m] = c
        else:
            a, b = c
            a += s[0]
            b += s[1]
            if a or b:
                num[m] = (a, b)
            else:
                del num[m]
    return num


def _merge_over(num: dict, den: int, other: dict, d: int, c: int) -> tuple:
    """num / den + c other / d, as (numerators, denominator) over the lcm
    of den and d: ``_merge`` of other's rescaled numerators into ``num`` in
    place where d divides den, else into num rescaled in a new dict.  Into
    an empty num, other's terms keep their order, in other's own dict when
    c is 1."""
    if not num:
        return (other if c == 1 else {m: (a * c, b * c) for m, (a, b) in other.items()}), d
    if den % d:
        f = lcm(den, d) // den
        num = {m: (a * f, b * f) for m, (a, b) in num.items()}
        den *= f
    c *= den // d
    return _merge(num, other.items() if c == 1 else
                  ((m, (a * c, b * c)) for m, (a, b) in other.items())), den


FIELD_BITS = 16
_BIAS = 1 << (FIELD_BITS - 2)
_MASK = (1 << FIELD_BITS) - 1
_GUARD = 1 << (FIELD_BITS - 1)


class PolyRing:
    """An ordered list of variable names, some of which may carry negative
    exponents (Laurent variables), and the packing of its monomials."""

    def __init__(self, names, laurent=()):
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variable names")
        self.laurent = frozenset(laurent)
        for n in self.laurent:
            if n not in self.index:
                raise ValueError(f"unknown laurent variable {n}")
        n = self.nvars = len(self.names)
        # variable i's field starts at shifts[i]; the total degree sits on top
        self.shifts = tuple((n - 1 - i) * FIELD_BITS for i in range(n))
        top = 1 << (n * FIELD_BITS)
        # units[i] raises the exponent of variable i, and the degree, by one
        self.units = tuple((1 << s) + top for s in self.shifts)
        # the monomial 1, and the guard bits of every field
        self.origin = sum(_BIAS << s for s in self.shifts)
        self.guard = sum(_GUARD << s for s in self.shifts)

    def pack(self, exp) -> int:
        """The packed monomial of an exponent tuple."""
        if len(exp) != self.nvars:
            raise DomainError(f"an exponent tuple of {len(exp)} entries in a ring "
                              f"of {self.nvars} variables")
        m = self.origin
        for name, e, u in zip(self.names, exp, self.units):
            if not -_BIAS <= e < _BIAS:
                raise DomainError(f"exponent {e} of {name} outside [{-_BIAS}, {_BIAS})")
            m += e * u
        return m

    def mask(self, indices) -> int:
        """The fields of the variables with these indices."""
        return sum(_MASK << self.shifts[i] for i in indices)

    def unpack(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        return tuple(((m >> s) & _MASK) - _BIAS for s in self.shifts)

    def check(self, num: dict) -> dict:
        """``num`` itself, once no monomial of it has left its fields."""
        if reduce(or_, num, 0) & self.guard:
            bad = next(m for m in num if m & self.guard)
            # the lowest field with its guard set is one whose exponent left
            # its range; a borrow from it may have set those above it
            i = max(i for i, s in enumerate(self.shifts) if (bad >> s) & _GUARD)
            raise DomainError(f"an exponent of {self.names[i]} outside "
                              f"[{-_BIAS}, {_BIAS})")
        return num

    def zero(self) -> "Poly":
        return _poly(self, {}, 1)

    def one(self) -> "Poly":
        return self.const(ONE)

    def const(self, c) -> "Poly":
        a, b, d = GaussianRational.coerce(c)._abd
        if not (a or b):
            return self.zero()
        return _poly(self, {self.origin: (a, b)}, d)

    def var(self, name: str, power: int = 1) -> "Poly":
        i = self.index[name]
        if power < 0 and name not in self.laurent:
            raise ValueError(f"negative power of non-laurent variable {name}")
        exp = [0] * self.nvars
        exp[i] = power
        return _poly(self, {self.pack(exp): (1, 0)}, 1)

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


_new = object.__new__


def _poly(ring: PolyRing, num: dict, den: int) -> "Poly":
    """The polynomial num / den, which must already be in lowest terms."""
    p = _new(Poly)
    p.ring = ring
    p.num = num
    p.den = den
    return p


def _reduced(ring: PolyRing, num: dict, den: int) -> "Poly":
    """num / den in lowest terms, by one content gcd; none when den is 1."""
    if den != 1:
        g = den
        for a, b in num.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        else:
            num = {m: (a // g, b // g) for m, (a, b) in num.items()}
            den //= g
    return _poly(ring, num, den)


def _product(ring: PolyRing, n1: dict, n2: dict) -> dict:
    """The numerators of a product, in a new dict: each pair of terms, those
    of n1 outer, merged by the rule of ``merge_terms``."""
    if len(n1) == 1:
        n1, n2 = n2, n1
    if len(n2) == 1:
        # a one-term factor shifts monomials, so no two products collide
        ((m2, c2),) = n2.items()
        if m2 == ring.origin and c2 == (1, 0):
            return dict(n1)
        m2 -= ring.origin
        a2, b2 = c2
        return ring.check({m1 + m2: (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
                           for m1, (a1, b1) in n1.items()})
    # _merge, inlined on the hottest loop of the package
    origin = ring.origin
    num = {}
    get = num.get
    for m1, (a1, b1) in n1.items():
        m1 -= origin
        for m2, (a2, b2) in n2.items():
            m = m1 + m2
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            s = get(m)
            if s is None:
                num[m] = (a, b)
            else:
                a += s[0]
                b += s[1]
                if a or b:
                    num[m] = (a, b)
                else:
                    del num[m]
    return ring.check(num)


class Poly:
    """Immutable sparse polynomial; never stores zero coefficients."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: PolyRing, terms: dict):
        """The polynomial with ``terms``, {exponent tuple: coefficient}, the
        coefficients GaussianRationals, ints or Fractions; zeros are
        dropped."""
        coeffs = [(ring.pack(e), GaussianRational.coerce(c)._abd)
                  for e, c in terms.items()]
        den = lcm(*(d for _, (a, b, d) in coeffs if a or b))
        # each triple is in lowest terms, so over the lcm of their
        # denominators the numerators have no common factor with it
        self.ring = ring
        self.num = {m: (a * (den // d), b * (den // d)) for m, (a, b, d) in coeffs if a or b}
        self.den = den

    @property
    def terms(self) -> dict:
        """{exponent tuple: GaussianRational}, in the stored order."""
        unpack, d = self.ring.unpack, self.den
        return {unpack(m): _gaussian(a, b, d) for m, (a, b) in self.num.items()}

    # -- ring operations ------------------------------------------------

    def __mul__(self, other):
        """The product, with its numerators in a new dict that callers may own."""
        ring = self.ring
        if other.__class__ is not Poly or other.ring is not ring:
            other = self._coerce(other)
        return _reduced(ring, _product(ring, self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        ca, cb, cd = GaussianRational.coerce(c)._abd
        if not (ca or cb):
            return self.ring.zero()
        return _reduced(self.ring, {m: (a * ca - b * cb, a * cb + b * ca)
                                    for m, (a, b) in self.num.items()}, self.den * cd)

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        return self.ring.const(other)

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, by the rule of ``merge_terms``."""
        n1, n2 = self.num, other.num
        if not n2:
            return self
        if not n1 and sign == 1:
            return other
        d1, d2 = self.den, other.den
        # n1 is copied here only where _merge_over merges into it in place
        out, den = _merge_over(dict(n1) if d1 % d2 == 0 else n1, d1, n2, d2, sign)
        # with no key shared, each prime of den leaves some numerator of the
        # operand whose denominator holds it to the higher power undivided
        if len(out) == len(n1) + len(n2):
            return _poly(self.ring, out, den)
        return _reduced(self.ring, out, den)

    def __add__(self, other):
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other):
        return self._coerce(other)._plus(self, -1)

    def __neg__(self):
        return _poly(self.ring, {m: (-a, -b) for m, (a, b) in self.num.items()}, self.den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Poly")
        return power(self, n, self.ring.one())

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def diff(self, rules) -> "Poly":
        """sum rate * d self / d x_i over the (i, rate) of ``rules``, merged
        in that order, rule by rule and term by term."""
        ring = self.ring
        rd = lcm(*(rate._abd[2] for _, rate in rules))
        out = {}
        for i, rate in rules:
            ra, rb, d = rate._abd
            ra, rb = ra * (rd // d), rb * (rd // d)
            s, u = ring.shifts[i], ring.units[i]
            # a rule shifts every monomial alike, so its own terms never collide
            terms = {m - u: (k * (a * ra - b * rb), k * (a * rb + b * ra))
                     for m, (a, b) in self.num.items() if (k := ((m >> s) & _MASK) - _BIAS)}
            out = _merge(out, terms.items()) if out else terms
        return _reduced(ring, ring.check(out), self.den * rd)

    # -- structure -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.ring == other.ring and self.den == other.den
                    and self.num == other.num)
        try:
            return (self - other).is_zero()
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.num.items()), self.den))

    def support(self) -> int:
        """Nonzero on the field of each variable that occurs in a term."""
        origin = self.ring.origin
        return reduce(or_, (m ^ origin for m in self.num), 0)

    def uses(self, name: str) -> bool:
        return bool(self.support() & self.ring.mask([self.ring.index[name]]))

    def sorted_terms(self):
        """(exponent, coeff) pairs, grlex-leading first."""
        unpack, num, d = self.ring.unpack, self.num, self.den
        return [(unpack(m), _gaussian(*num[m], d)) for m in sorted(num, reverse=True)]

    # -- substitution / evaluation ----------------------------------------

    def subs(self, assignment: dict) -> "Poly":
        """Substitute polynomials or constants for variables (same ring);
        a substituted variable may not occur at a negative power.

        Each term is its coefficient times the other variables' powers,
        times the substituted powers in variable order, and the terms are
        summed in their stored order."""
        ring = self.ring
        subst = [(i, ring.shifts[i], ring.units[i], self._coerce(assignment[name]))
                 for i, name in enumerate(ring.names) if name in assignment]
        powers = {}
        out = ring.zero()
        for m, c in self.num.items():
            factors = []
            for i, s, u, repl in subst:
                k = ((m >> s) & _MASK) - _BIAS
                if k:
                    m -= k * u
                    f = powers.get((i, k))
                    if f is None:
                        f = powers[i, k] = repl ** k
                    factors.append(f)
            term = _reduced(ring, {m: c}, self.den)
            for f in factors:
                term = term * f
            out = out + term
        return out

    def eval_numeric(self, values, powers=None):
        """Evaluate with ``values[i]`` the value of the ring's variable i.

        Each term is its coefficient, each part rounded once to the working
        precision by ``precision.rounded_mpc``, times
        ``values[i] ** k`` for each variable in order, and the terms are
        summed in their stored order.  ``powers`` keeps each
        ``values[i] ** k`` by its field, in place in a packed monomial;
        polynomials of one ring at the same values may share it.
        """
        d, ring = self.den, self.ring
        top = ring.nvars - 1
        fields = (1 << (ring.nvars * FIELD_BITS)) - 1
        if powers is None:
            powers = {}
        acc = None
        for m, (a, b) in self.num.items():
            t = rounded_mpc(a, b, d)
            # a field is zero here exactly where its exponent is; the top
            # field left is that of the first variable left
            x = (m ^ ring.origin) & fields
            while x:
                s = (x.bit_length() - 1) // FIELD_BITS * FIELD_BITS
                field = x >> s << s
                x ^= field
                v = powers.get(field)
                if v is None:
                    k = ((field >> s) ^ _BIAS) - _BIAS
                    v = powers[field] = values[top - s // FIELD_BITS] ** k
                t = t * v
            acc = t if acc is None else acc + t
        return mp.mpc(0) if acc is None else acc

    # -- formatting ----------------------------------------------------------

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.num:
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


class PolySum:
    """A running sum of products of polynomials of one ring, added in place
    by the rule of ``merge_terms``: a key keeps its place, a zero sum
    leaves, and a new key comes last.  The numerators stay over one common
    denominator, and ``poly()`` takes the content once, at the end."""

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: PolyRing):
        self.ring, self.num, self.den = ring, {}, 1

    def add_product(self, p: Poly, q: Poly, c: int = 1) -> dict:
        """Add c p q, as ``p * q`` would merge it but without its content
        gcd; returns the numerators, empty when the sum is zero."""
        self.num, self.den = _merge_over(self.num, self.den, _product(self.ring, p.num, q.num),
                                         p.den * q.den, c)
        return self.num

    def poly(self) -> Poly:
        return _reduced(self.ring, self.num, self.den)
