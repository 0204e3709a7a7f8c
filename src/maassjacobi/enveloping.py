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
from functools import reduce
from itertools import combinations
from math import comb
from operator import add

from . import linalg
from .errors import DomainError
from .gaussian import GaussianRational, I, format_gaussian, parse_gaussian
from .polys import Keyed, Poly, PolyRing, SparseTerms, merge_terms


class JacobiLieAlgebra(Keyed):
    """Structure constants and monomial bookkeeping for fixed rank N;
    ``z_pairs`` lists the (i, j) of each Z_ij, i <= j, in basis order."""

    def _init(self, N: int):
        if N < 1:
            raise DomainError("rank N must be at least 1")
        self.N = N
        names = ["E", "F", "H"]
        names += [f"e{i}" for i in range(1, N + 1)]
        names += [f"f{i}" for i in range(1, N + 1)]
        self.z_start = len(names)
        self.z_pairs = [(i, j) for i in range(1, N + 1) for j in range(i, N + 1)]
        names += [f"Z{i}{j}" for i, j in self.z_pairs]
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
        # the vectors (e_1, ..., e_N) and (f_1, ..., f_N) of PBW generators
        self.e_gens, self.f_gens = (tuple(PBWElement.gen(self, g(i)) for i in range(1, N + 1))
                                    for g in (self.e, self.f))
        # Z's minors, each computed on first use: det(Z), adj(Z) and the quartic read them
        self.z_minors = linalg.Minors(z_matrix(self))

    # -- indexing -------------------------------------------------------

    def e(self, i: int) -> int:
        return 2 + i

    def f(self, i: int) -> int:
        return 2 + self.N + i

    def z(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.z_start + self.z_pairs.index((i, j))

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
    """Commutators of ``a`` with those of E, F, e_1, ..., e_N it fails to
    commute with; empty list iff central.  These generate the Lie algebra
    ([E, F] = H, [e_i, F] = f_i, [e_i, f_j] = -2 Z_ij) and ad a is a
    derivation, so ``a`` commutes with every generator once with these."""
    alg = a.alg
    bad = []
    for g in ("E", "F", *alg.names[alg.e(1):alg.f(1)]):
        c = a.commutator(PBWElement.gen(alg, g))
        if not c.is_zero():
            bad.append((g, c))
    return bad


# -- Z-matrix machinery ------------------------------------------------------------


def z_matrix(alg: JacobiLieAlgebra):
    """The symmetric matrix of central generators as PBW elements."""
    N = alg.N
    return linalg.mat(
        [[PBWElement.gen(alg, alg.z(i + 1, j + 1)) for j in range(N)] for i in range(N)]
    )


def det_z(alg: JacobiLieAlgebra) -> PBWElement:
    return alg.z_minors.det()


def bilinear(u, A, v):
    """u^T A v = sum_i u_i (sum_j v_j A_ij), each scalar A_ij right of its
    letter and each u_i multiplied once."""
    return reduce(add, (ui * reduce(add, (vj * aij for vj, aij in zip(v, row)))
                        for ui, row in zip(u, A)))


def adj_form(alg, u, v) -> PBWElement:
    """u^T adj(Z) v = det(Z) (u^T Z^{-1} v), the ``bilinear`` form of the
    Casimir formula."""
    return bilinear(u, alg.z_minors.adjugate(), v)


# -- the Casimir formula, over any algebra of its letters ----------------------------


def quartic_over_det(minor, e, f):
    """(sum_ij e_i (e^T A f) A_ij f_j - (e^T A e)(f^T A f)) / det(Z), A = adj(Z),
    with no division; ``minor`` is Z's ``linalg.Minors`` and N = len(e).

    With Z symmetric and central the numerator is the sum over i, a, b, j
    of e_i e_a f_b f_j (A_ij A_ab - A_ia A_bj), whose bracket is the minor
    of A on rows {i, b} and columns {j, a}.  By Jacobi's complementary-minor
    theorem (Horn & Johnson, *Matrix Analysis*, 2nd ed., ch. 0) that is
    sgn(b - i) sgn(a - j) (-1)^(i+b+j+a) det(Z) times the minor of Z without
    rows {j, a} and columns {i, b}; it vanishes at i = b or j = a, and the
    four orders of each two pairs are the four words below.  The e's commute
    among themselves and so do the f's, so each word is e_i e_a f_b f_j with
    i <= a and b <= j, and the quartic is the sum over (i, a) of
    e_i e_a (sum over (b, j) of f_b f_j Q), each scalar Q collected first.
    """
    N = len(e)
    Q = {}
    for i, b in combinations(range(N), 2):
        cols = tuple(c for c in range(N) if c not in (i, b))
        for j, a in combinations(range(N), 2):
            rows = tuple(r for r in range(N) if r not in (j, a))
            m = minor[rows, cols]
            m, neg = (-m, m) if (i + b + j + a) % 2 else (m, -m)
            for ew, fw, c in (((i, a), (b, j), m), ((b, a), (i, j), neg),
                              ((i, j), (b, a), neg), ((b, j), (i, a), m)):
                row = Q.setdefault(tuple(sorted(ew)), {})
                key = tuple(sorted(fw))
                row[key] = row[key] + c if key in row else c
    ff = {(b, j): f[b] * f[j] for b, j in {key for row in Q.values() for key in row}}
    acc = e[0] * 0
    for (i, a), row in Q.items():
        inner = [ff[key] * c for key, c in row.items() if c]
        if inner:
            acc = acc + e[i] * e[a] * reduce(add, inner)
    return acc


def casimir_formula(E, F, H, e, f, minor):
    """Omega_N = det(Z) (H^2 - (N + 2) H + 4 E F) - H e^T A f + (N + 3)/2 e^T A f
    + E f^T A f - e^T A e F + quartic / 4, with A = adj(Z), N = len(e) and
    ``minor`` Z's ``linalg.Minors``.  Each product is taken in written order
    and each scalar (a minor or a number) stands right of its letters, so it
    holds in the enveloping algebra and under any anti-homomorphism."""
    N = len(e)
    A = minor.adjugate()
    eAf = bilinear(e, A, f)
    head = (H * H - H * (N + 2) + E * F * 4) * minor.det()
    mid = (E * bilinear(f, A, f) - bilinear(e, A, e) * F
           - H * eAf + eAf * Fraction(N + 3, 2))
    return head + mid + quartic_over_det(minor, e, f) * Fraction(1, 4)


def build_casimir(N: int) -> PBWElement:
    """The degree-(N+2) central element beyond the Z's: ``casimir_formula``
    on the PBW generators and Z's minors."""
    alg = JacobiLieAlgebra(N)
    E, F, H = (PBWElement.gen(alg, g) for g in "EFH")
    omega = casimir_formula(E, F, H, alg.e_gens, alg.f_gens, alg.z_minors)
    # det_z and adj_form read the minors of sizes N and N - 1 again; the
    # others are kept only while this builds (the unit is every table's base)
    for key in [key for key in alg.z_minors if 0 < len(key[0]) < N - 1]:
        del alg.z_minors[key]
    return omega


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
    e, f = alg.e_gens, alg.f_gens
    if gen == "E":
        return LocalizedPBW(adj_form(alg, e, e).scale(quarter), 1)
    if gen == "F":
        return LocalizedPBW(adj_form(alg, f, f).scale(-quarter), 1)
    if gen == "H":
        num = det_z(alg).scale(half * alg.N) + adj_form(alg, e, f).scale(half)
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
    minor = linalg.Minors(Zm)
    detZ = minor.det()

    # tr((adj(Z) Q)^2) / (2 det(Z)), since Q = (f e^T - e f^T) / 2
    PN = (detZ * Q0 + linalg.trace_mul(minor.adjugate(), C)
          + quartic_over_det(minor, e, f).scale(Fraction(1, 4)))
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
