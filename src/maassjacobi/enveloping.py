"""Exact arithmetic in the universal enveloping algebra of the centrally
extended Jacobi Lie algebra, and the constructions living inside it: the
degree-(N+2) Casimir element, virtual sl2 copies, the classical invariants
of the symmetric algebra, the symmetrizer, and the tilde-basis automorphism.

Basis order is fixed once and for all:

    E < F < H < e_1 < ... < e_N < f_1 < ... < f_N < Z_11 < Z_12 < ... < Z_NN

PBW monomials are exponent tuples over this list.  The Z generators are
central, so an element is stored over the centre: each noncentral PBW word,
an exponent tuple over E, ..., f_N, maps to its coefficient, a polynomial
in the Z_ij over the Gaussian rationals (an element of ``alg.z_ring``).
This module alone knows that split; ``PBWElement.flat_terms`` gives the
flat form, one exponent tuple over the whole list per term.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import linalg
from .errors import DivisibilityError, DomainError
from .gaussian import GaussianRational, I, format_gaussian, parse_gaussian
from .polys import Poly, PolyRing, SparseTerms, merge_terms


class JacobiLieAlgebra:
    """Structure constants and monomial bookkeeping for fixed rank N."""

    _instances = {}

    def __new__(cls, N: int):
        if N < 1:
            raise DomainError("rank N must be at least 1")
        if N not in cls._instances:
            inst = super().__new__(cls)
            inst._init(N)
            cls._instances[N] = inst
        return cls._instances[N]

    def __reduce__(self):
        # one instance per rank: copies and unpickled objects share it
        return (JacobiLieAlgebra, (self.N,))

    def _init(self, N: int):
        self.N = N
        names = ["E", "F", "H"]
        names += [f"e{i}" for i in range(1, N + 1)]
        names += [f"f{i}" for i in range(1, N + 1)]
        self.z_start = len(names)
        self._zpairs = [(i, j) for i in range(1, N + 1) for j in range(i, N + 1)]
        names += [f"Z{i}{j}" for i, j in self._zpairs]
        self.names = tuple(names)
        self.ngen = len(names)
        self.index = {n: k for k, n in enumerate(names)}
        self._zero_nc = (0,) * self.z_start
        self._brackets = self._build_brackets()
        self._gen_cache = {}
        self._mul_cache = {}
        # the centre: the coefficient ring of every noncentral PBW word
        self.z_ring = PolyRing(names[self.z_start:])
        self.z_one = self.z_ring.one()
        # commutative full symmetric algebra ring
        self.sym_ring = PolyRing(self.names)

    # -- indexing -------------------------------------------------------

    def e(self, i: int) -> int:
        return 2 + i

    def f(self, i: int) -> int:
        return 2 + self.N + i

    def z(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.z_start + self._zpairs.index((i, j))

    def is_central(self, g: int) -> bool:
        return g >= self.z_start

    def _build_brackets(self):
        """bracket[(a, b)] = tuple of (int coeff, generator) for a > b only;
        antisymmetry and centrality fill in the rest."""
        N = self.N
        E, F, H = 0, 1, 2
        table = {}

        def put(a, b, *terms):
            if a < b:
                a, b = b, a
                terms = tuple((-c, g) for c, g in terms)
            table[(a, b)] = tuple(terms)

        put(E, F, (1, H))
        put(H, E, (2, E))
        put(H, F, (-2, F))
        for i in range(1, N + 1):
            put(H, self.e(i), (1, self.e(i)))
            put(H, self.f(i), (-1, self.f(i)))
            put(E, self.f(i), (-1, self.e(i)))
            put(F, self.e(i), (-1, self.f(i)))
            for j in range(1, N + 1):
                put(self.e(i), self.f(j), (-2, self.z(i, j)))
        return table

    def bracket_gens(self, a: int, b: int):
        """[g_a, g_b] as a tuple of (int coeff, generator)."""
        if a == b or self.is_central(a) or self.is_central(b):
            return ()
        if a > b:
            return self._brackets.get((a, b), ())
        return tuple((-c, g) for c, g in self._brackets.get((b, a), ()))

    # -- straightening engine --------------------------------------------

    def _ad_powers(self, t: int, g: int, emax: int):
        """(ad t)^j (g) for 0 <= j <= emax, each a dict gen -> int coeff."""
        out = [{g: 1}]
        cur = {g: 1}
        for _ in range(emax):
            cur = merge_terms({}, ((bg, c * bc) for s, c in cur.items()
                                   for bc, bg in self.bracket_gens(t, s)))
            out.append(cur)
            if not cur:
                break
        return out

    def z_mul(self, p: Poly, q: Poly) -> Poly:
        """p q in the centre.  A factor that is the shared unit ``z_one``,
        as most straightening coefficients are, costs no product."""
        if p is self.z_one:
            return q
        if q is self.z_one:
            return p
        return p * q

    def mul_nc(self, a: tuple, b: tuple) -> dict:
        """Product of two normal noncentral words, as a dict mapping normal
        noncentral words to their coefficients in ``z_ring``."""
        if not any(b):
            return {a: self.z_one}
        if not any(a):
            return {b: self.z_one}
        key = (a, b)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        g = next(i for i, k in enumerate(b) if k)
        rest = b[:g] + (b[g] - 1,) + b[g + 1:]
        out = {}
        for m, p in self._mul_gen(a, g).items():
            merge_terms(out, ((m2, self.z_mul(p, q))
                              for m2, q in self.mul_nc(m, rest).items()))
        self._mul_cache[key] = out
        return out

    def _mul_gen(self, a: tuple, g: int) -> dict:
        """Normal noncentral word times one noncentral generator, in the
        layout of ``mul_nc``."""
        t = max((i for i, k in enumerate(a) if k), default=-1)
        if t <= g:
            return {a[:g] + (a[g] + 1,) + a[g + 1:]: self.z_one}
        key = (a, g)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit
        e = a[t]
        p = a[:t] + (0,) + a[t + 1:]
        out = {}
        for j, combo in enumerate(self._ad_powers(t, g, e)):
            if not combo:
                break
            tp = self._zero_nc[:t] + (e - j,) + self._zero_nc[t + 1:]
            for s, cs in combo.items():
                if self.is_central(s):
                    heads = {p: self.z_ring.var(self.names[s])}
                else:
                    heads = self._mul_gen(p, s)
                c = comb(e, j) * cs
                for hm, hp in heads.items():
                    hp = hp if c == 1 else hp.scale(c)
                    merge_terms(out, ((fm, self.z_mul(hp, fp))
                                      for fm, fp in self.mul_nc(hm, tp).items()))
        self._gen_cache[key] = out
        return out

    def __repr__(self):
        return f"JacobiLieAlgebra(N={self.N})"


def _monomial_text(alg: JacobiLieAlgebra, exp: tuple) -> str:
    return "*".join(
        alg.names[i] + (f"^{k}" if k > 1 else "") for i, k in enumerate(exp) if k
    ) or "1"


class PBWElement(SparseTerms):
    """An element of the enveloping algebra in PBW normal form, over the
    centre: ``terms`` maps normal noncentral words to nonzero elements of
    ``alg.z_ring``."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: JacobiLieAlgebra, terms: dict):
        self.alg = alg
        self.terms = terms

    def _like(self, terms, other) -> "PBWElement":
        return PBWElement(self.alg, terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(alg) -> "PBWElement":
        return PBWElement(alg, {})

    @staticmethod
    def const(alg, c) -> "PBWElement":
        c = GaussianRational.coerce(c)
        if not c:
            return PBWElement.zero(alg)
        return PBWElement(alg, {alg._zero_nc: alg.z_ring.const(c)})

    @staticmethod
    def gen(alg, g) -> "PBWElement":
        if isinstance(g, str):
            g = alg.index[g]
        if alg.is_central(g):
            return PBWElement(alg, {alg._zero_nc: alg.z_ring.var(alg.names[g])})
        word = alg._zero_nc[:g] + (1,) + alg._zero_nc[g + 1:]
        return PBWElement(alg, {word: alg.z_one})

    @staticmethod
    def from_flat(alg, terms: dict) -> "PBWElement":
        """The element whose ``flat_terms`` are ``terms`` (zeros dropped)."""
        zs = alg.z_start
        grouped = {}
        for e, c in terms.items():
            if c:
                grouped.setdefault(e[:zs], {})[e[zs:]] = c
        return PBWElement(alg, {w: Poly(alg.z_ring, z) for w, z in grouped.items()})

    def flat_terms(self) -> dict:
        """The terms as {exponent tuple over all generators: coefficient}."""
        return {w + z: c for w, p in self.terms.items() for z, c in p.terms.items()}

    # -- linear structure ----------------------------------------------------

    def scale(self, c) -> "PBWElement":
        c = GaussianRational.coerce(c)
        if not c:
            return PBWElement.zero(self.alg)
        return PBWElement(self.alg, {w: p.scale(c) for w, p in self.terms.items()})

    def _coerce(self, other) -> "PBWElement":
        if isinstance(other, PBWElement):
            if other.alg is not self.alg:
                raise DomainError("mixed algebras")
            return other
        return PBWElement.const(self.alg, other)

    # -- multiplication ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, PBWElement):
            return NotImplemented
        other = self._coerce(other)
        alg = self.alg
        out = {}
        for w1, p1 in self.terms.items():
            for w2, p2 in other.terms.items():
                p12 = alg.z_mul(p1, p2)
                merge_terms(out, ((w, alg.z_mul(p12, q))
                                  for w, q in alg.mul_nc(w1, w2).items()))
        return PBWElement(alg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return self._coerce(other) * self

    def commutator(self, other) -> "PBWElement":
        other = self._coerce(other)
        return self * other - other * self

    # -- structure ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, PBWElement):
            return self.alg is other.alg and self.terms == other.terms
        return (self - other).is_zero()

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.terms.items())))

    def degree(self) -> int:
        return max(map(sum, self.flat_terms()), default=0)

    def sorted_terms(self):
        return sorted(self.flat_terms().items(), key=lambda t: (sum(t[0]), t[0]),
                      reverse=True)

    def __repr__(self):
        terms = self.sorted_terms()
        if not terms:
            return "PBW(0)"
        parts = [f"({c})*{_monomial_text(self.alg, e)}" for e, c in terms[:12]]
        more = "" if len(terms) <= 12 else f" ... [{len(terms)} terms]"
        return "PBW(" + " + ".join(parts) + more + ")"


# -- basic operations ------------------------------------------------------------


def pbw_normal_order(alg: JacobiLieAlgebra, word) -> PBWElement:
    """Normal-order a word (sequence of generator names or indices)."""
    acc = PBWElement.const(alg, 1)
    for g in word:
        acc = acc * PBWElement.gen(alg, g)
    return acc


def check_centrality(a: PBWElement):
    """Commutators of ``a`` with every generator; empty list iff central."""
    alg = a.alg
    bad = []
    for g in range(alg.ngen):
        c = a.commutator(PBWElement.gen(alg, g))
        if not c.is_zero():
            bad.append((alg.names[g], c))
    return bad


# -- Z-matrix machinery ------------------------------------------------------------


def z_matrix(alg: JacobiLieAlgebra):
    """The symmetric matrix of central generators as PBW elements."""
    N = alg.N
    return linalg.mat(
        [[PBWElement.gen(alg, alg.z(i + 1, j + 1)) for j in range(N)] for i in range(N)]
    )


def det_z(alg: JacobiLieAlgebra) -> PBWElement:
    return linalg.det(z_matrix(alg))


@lru_cache(maxsize=None)
def adj_z(alg: JacobiLieAlgebra):
    """adj(Z), computed once per rank: the algebra has one instance per rank."""
    return linalg.adjugate(z_matrix(alg))


def _e_vec(alg):
    return tuple(PBWElement.gen(alg, alg.e(i + 1)) for i in range(alg.N))


def _f_vec(alg):
    return tuple(PBWElement.gen(alg, alg.f(i + 1)) for i in range(alg.N))


def _adj_form(alg, u, v) -> PBWElement:
    """sum_ij u_i adj(Z)_ij v_j, each product in written order."""
    adj = adj_z(alg)
    acc = PBWElement.zero(alg)
    for i in range(alg.N):
        for j in range(alg.N):
            acc = acc + u[i] * adj[i][j] * v[j]
    return acc


def bilinear_adj(alg, left: str, right: str) -> PBWElement:
    """det(Z) * (left^T Z^{-1} right) via the adjugate, in written order."""
    vecs = {"e": _e_vec(alg), "f": _f_vec(alg)}
    return _adj_form(alg, vecs[left], vecs[right])


# -- exact division by det(Z) ------------------------------------------------------


def divide_by_det(a: PBWElement) -> PBWElement:
    """Exact quotient of ``a`` by the central determinant det(Z).

    The divisibility is a theorem for the inputs this is applied to, so a
    failure raises DivisibilityError rather than returning a remainder.
    """
    alg = a.alg
    d = det_z(alg).terms[alg._zero_nc]
    out = {}
    for w, p in a.terms.items():
        try:
            out[w] = p.divide_exact(d)
        except DivisibilityError as exc:
            raise DivisibilityError(
                f"coefficient of {_monomial_text(alg, w)} is not divisible by det(Z)"
            ) from exc
    return PBWElement(alg, out)


# -- the Casimir element ------------------------------------------------------------


def build_casimir(N: int) -> PBWElement:
    """The degree-(N+2) central element beyond the Z's."""
    alg = JacobiLieAlgebra(N)
    E = PBWElement.gen(alg, "E")
    F = PBWElement.gen(alg, "F")
    H = PBWElement.gen(alg, "H")
    d = det_z(alg)
    eZf = bilinear_adj(alg, "e", "f")
    fZf = bilinear_adj(alg, "f", "f")
    eZe = bilinear_adj(alg, "e", "e")

    head = d * (H * H - H.scale(N + 2) + (E * F).scale(4))
    half_n3 = GaussianRational(Fraction(N + 3, 2))
    mid = -(H * eZf - eZf.scale(half_n3)) + E * fZf - eZe * F

    # sum_ij e_i eZf adj(Z)_ij f_j - eZe fZf
    quart = _adj_form(alg, [e * eZf for e in _e_vec(alg)], _f_vec(alg)) - eZe * fZf
    quart = divide_by_det(quart)

    quarter = GaussianRational(Fraction(1, 4))
    return head + mid + quart.scale(quarter)


# -- localization at det(Z) ----------------------------------------------------------


class LocalizedPBW:
    """numerator / det(Z)^detpow with the central determinant denominator."""

    __slots__ = ("numerator", "detpow")

    def __init__(self, numerator: PBWElement, detpow: int = 0):
        if detpow < 0:
            raise DomainError("detpow must be nonnegative")
        self.numerator = numerator
        self.detpow = detpow

    @property
    def alg(self):
        return self.numerator.alg

    def _lift(self, other) -> "LocalizedPBW":
        if isinstance(other, LocalizedPBW):
            return other
        if isinstance(other, PBWElement):
            return LocalizedPBW(other, 0)
        return LocalizedPBW(PBWElement.const(self.alg, other), 0)

    def _common(self, other):
        """Both numerators over det(Z)^p, p the larger power, and p."""
        other = self._lift(other)
        p = max(self.detpow, other.detpow)
        d = det_z(self.alg)
        return (self.numerator * d ** (p - self.detpow),
                other.numerator * d ** (p - other.detpow), p)

    def __add__(self, other):
        a, b, p = self._common(other)
        return LocalizedPBW(a + b, p)

    __radd__ = __add__

    def __neg__(self):
        return LocalizedPBW(-self.numerator, self.detpow)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return LocalizedPBW(self.numerator.scale(other), self.detpow)
        other = self._lift(other)
        return LocalizedPBW(self.numerator * other.numerator,
                            self.detpow + other.detpow)

    def __rmul__(self, other):
        return self._lift(other) * self

    def commutator(self, other) -> "LocalizedPBW":
        other = self._lift(other)
        return self * other - other * self

    def __eq__(self, other):
        a, b, _ = self._common(other)
        return a == b

    def is_zero(self):
        return self.numerator.is_zero()

    def __repr__(self):
        return f"LocalizedPBW({self.numerator!r} / det(Z)^{self.detpow})"


def eta(alg: JacobiLieAlgebra, gen: str) -> LocalizedPBW:
    """The radical-valued virtual image of an sl2 generator."""
    quarter = GaussianRational(Fraction(1, 4))
    half = GaussianRational(Fraction(1, 2))
    if gen == "E":
        return LocalizedPBW(bilinear_adj(alg, "e", "e").scale(quarter), 1)
    if gen == "F":
        return LocalizedPBW(bilinear_adj(alg, "f", "f").scale(-quarter), 1)
    if gen == "H":
        num = det_z(alg).scale(half * alg.N) + bilinear_adj(alg, "e", "f").scale(half)
        return LocalizedPBW(num, 1)
    raise DomainError("eta is defined on the sl2 generators E, F, H")


def nu(alg: JacobiLieAlgebra, gen: str) -> LocalizedPBW:
    """nu = 1 - eta; annihilates the radical, virtual copy of sl2."""
    return LocalizedPBW(PBWElement.gen(alg, gen), 0) - eta(alg, gen)


def nu_casimir_identity(N: int):
    """Compare nu(Omega_sl2) with det(Z)^{-1} Omega_N + N(N+4)/4.

    Returns (lhs, rhs, equal).
    """
    alg = JacobiLieAlgebra(N)
    nH, nE, nF = nu(alg, "H"), nu(alg, "E"), nu(alg, "F")
    lhs = nH * nH - nH * 2 + nE * nF * 4
    rhs = LocalizedPBW(build_casimir(N), 1) + LocalizedPBW(
        PBWElement.const(alg, Fraction(N * (N + 4), 4)), 0
    )
    return lhs, rhs, lhs == rhs


# -- symmetric algebra: classical invariants and the symmetrizer ---------------------


def build_classical_invariants(N: int) -> dict:
    """Q0, the matrices Q and C, and the polynomial P_N in S(g)."""
    alg = JacobiLieAlgebra(N)
    R = alg.sym_ring
    E, F, H = R.var("E"), R.var("F"), R.var("H")
    e = [R.var(f"e{i}") for i in range(1, N + 1)]
    f = [R.var(f"f{i}") for i in range(1, N + 1)]
    half = GaussianRational(Fraction(1, 2))

    Q0 = H * H + (F * E).scale(4)
    Q = [[(f[i] * e[j] - f[j] * e[i]).scale(half) for j in range(N)] for i in range(N)]
    C = [
        [
            E * f[i] * f[j]
            - (H * (f[i] * e[j] + f[j] * e[i])).scale(half)
            - F * e[i] * e[j]
            for j in range(N)
        ]
        for i in range(N)
    ]

    Zm = linalg.mat(
        [[R.var(f"Z{min(i, j) + 1}{max(i, j) + 1}") for j in range(N)] for i in range(N)]
    )
    detZ = linalg.det(Zm)
    adjZ = linalg.adjugate(Zm)

    trC = R.zero()
    for i in range(N):
        for j in range(N):
            trC = trC + adjZ[i][j] * C[j][i]

    AQ = linalg.mul(adjZ, linalg.mat(Q))
    trAQ2 = linalg.trace_mul(AQ, AQ)
    PN = detZ * Q0 + trC
    if trAQ2:
        PN = PN + trAQ2.divide_exact(detZ).scale(half)
    return {"Q0": Q0, "Q": linalg.mat(Q), "C": linalg.mat(C), "PN": PN, "detZ": detZ}


def symmetrize(a: Poly, alg: JacobiLieAlgebra) -> PBWElement:
    """The symmetrizer map S(g) -> U(g), linear over monomials."""
    from itertools import permutations

    if a.ring != alg.sym_ring:
        raise DomainError("symmetrize expects an element of the symmetric algebra")
    out = PBWElement.zero(alg)
    for exp, coeff in a.terms.items():
        word = []
        for i, k in enumerate(exp):
            word.extend([i] * k)
        if not word:
            out = out + PBWElement.const(alg, coeff)
            continue
        seen = {}
        for perm in permutations(word):
            seen[perm] = seen.get(perm, 0) + 1
        total = sum(seen.values())
        acc = PBWElement.zero(alg)
        for perm, mult in seen.items():
            acc = acc + pbw_normal_order(alg, perm).scale(Fraction(mult, total))
        out = out + acc.scale(coeff)
    return out


# -- tilde basis and the tau automorphism ----------------------------------------------


def tilde_basis(N: int) -> dict:
    """Images of the generators under the compact-twist linear map."""
    alg = JacobiLieAlgebra(N)
    E = PBWElement.gen(alg, "E")
    F = PBWElement.gen(alg, "F")
    H = PBWElement.gen(alg, "H")
    half = GaussianRational(Fraction(1, 2))
    ihalf = I * half
    out = {
        "H": (F - E).scale(I),
        "E": H.scale(half) + (F + E).scale(ihalf),
        "F": H.scale(half) - (F + E).scale(ihalf),
    }
    for i in range(1, N + 1):
        e = PBWElement.gen(alg, f"e{i}")
        f = PBWElement.gen(alg, f"f{i}")
        out[f"e{i}"] = f.scale(half) + e.scale(ihalf)
        out[f"f{i}"] = f.scale(half) - e.scale(ihalf)
    for i in range(1, N + 1):
        for j in range(i, N + 1):
            out[f"Z{i}{j}"] = PBWElement.gen(alg, f"Z{i}{j}").scale(ihalf)
    return out


def tau_automorphism(a: PBWElement) -> PBWElement:
    """Extend the tilde map multiplicatively to the enveloping algebra."""
    alg = a.alg
    images = tilde_basis(alg.N)
    img = [images[name] for name in alg.names]
    out = PBWElement.zero(alg)
    for exp, coeff in a.flat_terms().items():
        term = PBWElement.const(alg, coeff)
        for i, k in enumerate(exp):
            for _ in range(k):
                term = term * img[i]
        out = out + term
    return out


# -- serialization -----------------------------------------------------------------------


def pbw_to_json(a: PBWElement) -> str:
    """Canonical JSON: grlex-sorted monomials, coefficients as exact strings."""
    terms = [
        {"monomial": list(e), "coeff": format_gaussian(c)}
        for e, c in sorted(a.flat_terms().items(), key=lambda t: (sum(t[0]), t[0]))
    ]
    return json.dumps({"N": a.alg.N, "terms": terms}, separators=(",", ":"))


def pbw_from_json(s: str) -> PBWElement:
    data = json.loads(s)
    alg = JacobiLieAlgebra(data["N"])
    terms = {
        tuple(t["monomial"]): parse_gaussian(t["coeff"]) for t in data["terms"]
    }
    return PBWElement.from_flat(alg, terms)
