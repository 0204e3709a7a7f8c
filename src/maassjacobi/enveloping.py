"""Exact arithmetic in the universal enveloping algebra of the centrally
extended Jacobi Lie algebra, and the constructions living inside it: the
degree-(N+2) Casimir element, virtual sl2 copies, the classical invariants
of the symmetric algebra, the symmetrizer, and the tilde-basis automorphism.

Basis order is fixed once and for all:

    E < F < H < e_1 < ... < e_N < f_1 < ... < f_N < Z_11 < Z_12 < ... < Z_NN

PBW monomials are exponent tuples over this list; elements map monomials to
Gaussian-rational coefficients.  The Z generators are central, which the
rewriting engine exploits by keeping their exponents in a commutative tail.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from . import linalg
from .errors import DivisibilityError, MaassJacobiError
from .gaussian import GaussianRational, ZERO, ONE, I, format_gaussian, parse_gaussian
from .polys import Poly, PolyRing, SparseTerms

CENTRALITY_DEGREE_CAP = 3


class JacobiLieAlgebra:
    """Structure constants and monomial bookkeeping for fixed rank N."""

    _instances = {}

    def __new__(cls, N: int):
        if N < 1:
            raise ValueError("rank N must be at least 1")
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
        self.nz = self.ngen - self.z_start
        self.index = {n: k for k, n in enumerate(names)}
        self._zero_nc = (0,) * self.z_start
        self._zero_z = (0,) * self.nz
        self.zero_exp = (0,) * self.ngen
        self._brackets = self._build_brackets()
        self._gen_cache = {}
        self._mul_cache = {}
        # commutative Z-coefficient ring, for exact division by det(Z)
        self.z_ring = PolyRing([f"Z{i}{j}" for i, j in self._zpairs])
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
            nxt = {}
            for s, c in cur.items():
                for bc, bg in self.bracket_gens(t, s):
                    nxt[bg] = nxt.get(bg, 0) + c * bc
            cur = {g: c for g, c in nxt.items() if c}
            out.append(cur)
            if not cur:
                break
        return out

    def mul_nc(self, a: tuple, b: tuple) -> dict:
        """Product of two normal noncentral monomials.

        Returns a dict mapping (noncentral exponents, Z exponents) to int
        coefficients.
        """
        if not any(b):
            return {(a, self._zero_z): 1}
        if not any(a):
            return {(b, self._zero_z): 1}
        key = (a, b)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        g = next(i for i, k in enumerate(b) if k)
        rest = b[:g] + (b[g] - 1,) + b[g + 1:]
        out = {}
        for (m, z1), c1 in self._mul_gen(a, g).items():
            for (m2, z2), c2 in self.mul_nc(m, rest).items():
                k = (m2, tuple(x + y for x, y in zip(z1, z2)))
                out[k] = out.get(k, 0) + c1 * c2
        out = {k: c for k, c in out.items() if c}
        self._mul_cache[key] = out
        return out

    def _mul_gen(self, a: tuple, g: int) -> dict:
        """Normal noncentral monomial times a single noncentral generator."""
        t = max((i for i, k in enumerate(a) if k), default=-1)
        if t <= g:
            m = a[:g] + (a[g] + 1,) + a[g + 1:]
            return {(m, self._zero_z): 1}
        key = (a, g)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit
        e = a[t]
        p = a[:t] + (0,) + a[t + 1:]
        out = {}
        ads = self._ad_powers(t, g, e)
        for j, combo in enumerate(ads):
            if not combo:
                break
            binom = comb(e, j)
            for s, cs in combo.items():
                coeff = binom * cs
                if self.is_central(s):
                    zidx = s - self.z_start
                    heads = {(p, self._mk_z(zidx)): 1}
                else:
                    heads = self._mul_gen(p, s)
                tp = tuple(
                    (e - j) if i == t else 0 for i in range(self.z_start)
                )
                for (hm, hz), hc in heads.items():
                    if e - j == 0:
                        k = (hm, hz)
                        out[k] = out.get(k, 0) + coeff * hc
                    else:
                        for (fm, fz), fc in self.mul_nc(hm, tp).items():
                            k = (fm, tuple(x + y for x, y in zip(hz, fz)))
                            out[k] = out.get(k, 0) + coeff * hc * fc
        out = {k: c for k, c in out.items() if c}
        self._gen_cache[key] = out
        return out

    def _mk_z(self, zidx: int) -> tuple:
        return tuple(1 if i == zidx else 0 for i in range(self.nz))

    def __repr__(self):
        return f"JacobiLieAlgebra(N={self.N})"


class PBWElement(SparseTerms):
    """An element of the enveloping algebra in PBW normal form."""

    __slots__ = ("alg", "terms")
    _zero = ZERO

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
        return PBWElement(alg, {alg.zero_exp: c})

    @staticmethod
    def gen(alg, g) -> "PBWElement":
        if isinstance(g, str):
            g = alg.index[g]
        exp = [0] * alg.ngen
        exp[g] = 1
        return PBWElement(alg, {tuple(exp): ONE})

    # -- linear structure ----------------------------------------------------

    def scale(self, c) -> "PBWElement":
        c = GaussianRational.coerce(c)
        if not c:
            return PBWElement.zero(self.alg)
        return PBWElement(self.alg, {e: c * v for e, v in self.terms.items()})

    def _coerce(self, other) -> "PBWElement":
        if isinstance(other, PBWElement):
            if other.alg is not self.alg:
                raise ValueError("mixed algebras")
            return other
        return PBWElement.const(self.alg, other)

    # -- multiplication ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        other = self._coerce(other)
        alg = self.alg
        zs = alg.z_start
        out = {}
        for e1, c1 in self.terms.items():
            nc1, z1 = e1[:zs], e1[zs:]
            for e2, c2 in other.terms.items():
                nc2, z2 = e2[:zs], e2[zs:]
                zadd = tuple(x + y for x, y in zip(z1, z2))
                c12 = c1 * c2
                for (m, z), k in alg.mul_nc(nc1, nc2).items():
                    full = m + tuple(x + y for x, y in zip(z, zadd))
                    s = out.get(full, ZERO) + c12 * k
                    if s:
                        out[full] = s
                    else:
                        out.pop(full, None)
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
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "PBW(0)"
        parts = []
        for e, c in self.sorted_terms()[:12]:
            mono = "*".join(
                self.alg.names[i] + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k
            ) or "1"
            parts.append(f"({c})*{mono}")
        more = "" if len(self.terms) <= 12 else f" ... [{len(self.terms)} terms]"
        return "PBW(" + " + ".join(parts) + more + ")"


# -- basic operations ------------------------------------------------------------


def pbw_normal_order(alg: JacobiLieAlgebra, word) -> PBWElement:
    """Normal-order a word (sequence of generator names or indices)."""
    acc = PBWElement.const(alg, 1)
    for g in word:
        acc = acc * PBWElement.gen(alg, g)
    return acc


def check_centrality(a: PBWElement):
    """Commutators of ``a`` with every generator; empty list iff central.

    Rank is capped at CENTRALITY_DEGREE_CAP (combinatorial growth).
    """
    alg = a.alg
    if alg.N > CENTRALITY_DEGREE_CAP:
        raise MaassJacobiError(f"centrality suite capped at N <= {CENTRALITY_DEGREE_CAP}")
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


def adj_z(alg: JacobiLieAlgebra):
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


def _det_z_poly(alg) -> Poly:
    d = det_z(alg)
    zs = alg.z_start
    return Poly(alg.z_ring, {e[zs:]: c for e, c in d.terms.items()})


def divide_by_det(a: PBWElement) -> PBWElement:
    """Exact quotient of ``a`` by the central determinant det(Z).

    The divisibility is a theorem for the inputs this is applied to, so a
    failure raises DivisibilityError rather than returning a remainder.
    """
    alg = a.alg
    zs = alg.z_start
    groups = {}
    for e, c in a.terms.items():
        groups.setdefault(e[:zs], {})[e[zs:]] = c
    d = _det_z_poly(alg)
    out = {}
    for nc, zterms in groups.items():
        try:
            q = Poly(alg.z_ring, zterms).divide_exact(d)
        except DivisibilityError as exc:
            mono = "*".join(
                alg.names[i] + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(nc) if k
            ) or "1"
            raise DivisibilityError(
                f"coefficient of {mono} is not divisible by det(Z)"
            ) from exc
        for zexp, c in q.terms.items():
            out[nc + zexp] = c
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
            raise ValueError("detpow must be nonnegative")
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

    __rmul__ = __mul__

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
    raise ValueError("eta is defined on the sl2 generators E, F, H")


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
    trAQ2 = linalg.trace(linalg.mul(AQ, AQ))
    PN = detZ * Q0 + trC
    if trAQ2:
        PN = PN + trAQ2.divide_exact(detZ).scale(half)
    return {"Q0": Q0, "Q": linalg.mat(Q), "C": linalg.mat(C), "PN": PN, "detZ": detZ}


def classical_relations_residuals(N: int):
    """The two quadratic relations among Q0, Q_ij, C_ij, over all indices."""
    data = build_classical_invariants(N)
    Q0, Q, C = data["Q0"], data["Q"], data["C"]
    residuals = []
    rng = range(N)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    r1 = Q[i][j] * Q[k][l] + Q[i][l] * Q[j][k] + Q[i][k] * Q[l][j]
                    r2 = C[i][j] * C[k][l] - C[i][k] * C[j][l] + Q0 * Q[i][l] * Q[j][k]
                    residuals.append(((i, j, k, l), r1, r2))
    return residuals


def symmetrize(a: Poly, alg: JacobiLieAlgebra) -> PBWElement:
    """The symmetrizer map S(g) -> U(g), linear over monomials."""
    from itertools import permutations

    if a.ring != alg.sym_ring:
        raise ValueError("symmetrize expects an element of the symmetric algebra")
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
    for exp, coeff in a.terms.items():
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
        for e, c in sorted(a.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    ]
    return json.dumps({"N": a.alg.N, "terms": terms}, separators=(",", ":"))


def pbw_from_json(s: str) -> PBWElement:
    data = json.loads(s)
    alg = JacobiLieAlgebra(data["N"])
    terms = {
        tuple(t["monomial"]): parse_gaussian(t["coeff"]) for t in data["terms"]
    }
    return PBWElement(alg, {e: c for e, c in terms.items() if c})
