"""Noncommutative differential-operator calculus on H x C^N.

Operators are finite sums of Wirtinger-derivative monomials with polynomial
coefficients in a formal weight k, a formal pi, y and 1/y, and the real
coordinates v_j (plus x, u_j, which only the Lie slash action needs).  All
operator identities here are exact; numerics enter only through jets.

Every operator is written from one derivative basis (``OpRing.d``) with
the sums, ``scale`` and ``compose`` of DiffOp, the forms ``dot`` and
``quad_form``, and ``calL_apply`` for calL w and calL[w].

Weight-shift bookkeeping: an operator carries the shift of the slash weight
it effects, and composition substitutes k -> k + shift(right factor) into
the left factor, so that e.g. the raising product X+ X+ really means
X+^{k+2,L} X+^{k,L}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, prod

from mpmath import mp

from . import group, linalg
from .enveloping import JacobiLieAlgebra, casimir_formula
from .errors import DomainError
from .gaussian import I, GaussianRational
from .group import AlgebraElement, GroupElement, Point, automorphy_factor, weight_gap
from .jets import Coordinates, Jet, JetSpace, coordinate_jets, imaginary_parts
from .lattice import GramLattice
from .polys import Keyed, Poly, PolyRing, PolySum, SparseTerms, merge_terms
from .precision import PrecisionContext, to_mpc, to_mpf

_HALF = Fraction(1, 2)
_IHALF = GaussianRational(0, _HALF)       # i/2
_MIHALF = GaussianRational(0, -_HALF)     # -i/2


class OpRing(Keyed):
    """Coefficient ring and direction bookkeeping for fixed rank N.

    Directions are ordered d_tau, d_taubar, d_z_1..d_z_N, d_zbar_1..d_zbar_N,
    as the slots of ``Coordinates``; the ring's variables are ordered k, pi,
    y, x, v_1..v_N, u_1..u_N, and k, x, y and the vectors u, v are
    attributes.  ``compose`` works on derivative exponents packed as the
    monomials of ``dring``, a PolyRing with one variable per direction
    (``pack`` and ``exponent``; an entry outside [0, 2^14) raises
    DomainError), and reads its Leibniz splits from the ring (``splits``).
    """

    def _init(self, N: int):
        self.N = N
        names = ["k", "pi", "y", "x"]
        names += [f"v{j}" for j in range(1, N + 1)]
        names += [f"u{j}" for j in range(1, N + 1)]
        self.ring = PolyRing(names, laurent=("pi", "y"))
        var = self.ring.var
        self.k, self.x, self.y = var("k"), var("x"), var("y")
        self.u = tuple(var(f"u{j}") for j in range(1, N + 1))
        self.v = tuple(var(f"v{j}") for j in range(1, N + 1))
        self.ndirs = 2 * N + 2
        self.zero_dexp = (0,) * self.ndirs
        # the rule of each direction on the coefficient ring, as (variable
        # index, rate) pairs: d_tau = -i/2 d_y + 1/2 d_x, d_taubar = i/2 d_y
        # + 1/2 d_x, and d_z_j, d_zbar_j alike on the indices of v_j, u_j
        half = GaussianRational(_HALF)
        parts = [(2, 3)] + [(3 + j, 3 + N + j) for j in range(1, N + 1)]
        hol, anti = ([((im, rate), (re, half)) for im, re in parts]
                     for rate in (_MIHALF, _IHALF))
        self.rules = Coordinates(hol[0], anti[0], hol[1:], anti[1:]).flat()
        self.rule_masks = [self.ring.mask(i for i, _ in rules) for rules in self.rules]
        # the derivative basis d_tau, d_taubar, d_z, d_zbar, each with coefficient 1
        one, n = self.ring.one(), self.ndirs
        self.d = Coordinates.of(DiffOp(self, {tuple(int(i == j) for i in range(n)): one})
                                for j in range(n))
        # the tables below hold exponents and splits only, filled on first use
        self.dring = PolyRing(["dtau", "dtaubar"] + [f"d{w}{j}" for w in ("z", "zbar")
                                                     for j in range(1, N + 1)])
        self._packed, self._exps, self._splits, self._flat = {}, {}, {}, {}

    def pack(self, e) -> int:
        """The packed derivative exponent of an exponent tuple, its monomial
        in ``dring``; DomainError on a negative entry, which the ring packs."""
        p = self._packed.get(e)
        if p is None:
            if min(e, default=0) < 0:
                raise DomainError(f"a negative derivative exponent {e}")
            p = self._packed[e] = self.dring.pack(e)
            self._exps.setdefault(p, e)
        return p

    def exponent(self, p: int) -> tuple:
        """The exponent tuple of a packed derivative exponent; DomainError
        once a field has reached its guard bit."""
        e = self._exps.get(p)
        if e is None:
            self.dring.check((p,))
            e = self._exps[p] = self.dring.unpack(p)
        return e

    def splits(self, p: int, flat: int) -> list:
        """The Leibniz splits of the packed exponent p, gamma + delta = p,
        whose delta has no direction among the bits of ``flat``: (packed
        gamma, packed delta, binomial) with gamma in lexicographic order,
        built once for each (p, flat)."""
        out = self._splits.get((p, flat))
        if out is None:
            alpha, origin = self.exponent(p), self.dring.origin
            out = []
            for gamma in product(*(range(a if flat >> j & 1 else 0, a + 1)
                                   for j, a in enumerate(alpha))):
                g = self.pack(gamma)
                out.append((g, p - g + origin, prod(map(comb, alpha, gamma))))
            self._splits[p, flat] = out
        return out

    def flat_dirs(self, support: int) -> int:
        """The directions, as bits, in which a coefficient of this support
        has no derivative: those whose rules meet none of its variables (a
        derivative never brings a variable in)."""
        flat = self._flat.get(support)
        if flat is None:
            flat = self._flat[support] = sum(1 << j for j, mask in enumerate(self.rule_masks)
                                             if not support & mask)
        return flat

    def derivative(self, poly: Poly, delta) -> Poly:
        """d^delta poly, direction 0 first, stopping at the first zero.

        Each step merges rate * d/dv of every rule of the direction into
        one dict, in the order of a sum of those terms."""
        for rules, d in zip(self.rules, delta):
            for _ in range(d):
                if poly.is_zero():
                    return poly
                poly = poly.diff(rules)
        return poly


class DiffOp(SparseTerms):
    """Finite sum of coefficient x derivative-monomial terms."""

    __slots__ = ("op_ring", "terms", "shift")
    # operators compose rather than multiply, so there is no power
    __pow__ = None

    def __init__(self, op_ring: OpRing, terms: dict, shift: int = 0):
        self.op_ring = op_ring
        self.terms = {e: p for e, p in terms.items() if not p.is_zero()}
        self.shift = shift

    def _like(self, terms, other) -> "DiffOp":
        if self.shift != other.shift and self.terms and other.terms:
            raise ValueError("cannot add operators of different weight shifts")
        return DiffOp(self.op_ring, terms, self.shift if self.terms else other.shift)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(op_ring: OpRing) -> "DiffOp":
        return DiffOp(op_ring, {})

    @staticmethod
    def identity(op_ring: OpRing) -> "DiffOp":
        return DiffOp(op_ring, {op_ring.zero_dexp: op_ring.ring.one()})

    @staticmethod
    def multiplication(op_ring: OpRing, poly: Poly, shift: int = 0) -> "DiffOp":
        return DiffOp(op_ring, {op_ring.zero_dexp: poly}, shift)

    def with_shift(self, shift: int) -> "DiffOp":
        """The same terms, as an operator shifting the weight by ``shift``."""
        return DiffOp(self.op_ring, self.terms, shift)

    # -- linear structure ----------------------------------------------------

    def scale(self, c) -> "DiffOp":
        """c T, with c a constant or a polynomial standing left of T."""
        if isinstance(c, Poly):
            return DiffOp(
                self.op_ring, {e: c * p for e, p in self.terms.items()}, self.shift
            )
        return DiffOp(
            self.op_ring, {e: p.scale(c) for e, p in self.terms.items()}, self.shift
        )

    def _coerce(self, other) -> "DiffOp":
        if isinstance(other, DiffOp):
            if other.op_ring is not self.op_ring:
                raise ValueError("mixed operator rings")
            return other
        if isinstance(other, Poly):
            return DiffOp.multiplication(self.op_ring, other, self.shift)
        return DiffOp.multiplication(
            self.op_ring, self.op_ring.ring.const(other), self.shift
        )

    # -- composition ------------------------------------------------------------

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self after other, by Leibniz: a d^alpha after b d^beta is
        sum_{gamma <= alpha} C(alpha, gamma) a (d^{alpha - gamma} b) d^{gamma + beta},
        where the formal k inside a becomes k + other.shift."""
        other = self._coerce(other)
        R = self.op_ring
        ring, pack, splits = R.ring, R.pack, R.splits
        ksub = None
        # the sum of each output coefficient by packed exponent, added in
        # place; a key stays where it was first put even while its
        # coefficient sums to zero
        out = {}
        # each term of other: its packed exponent less origin (so that gamma
        # + beta is one int add, as in a product of monomials), its
        # coefficient b, d^delta b by packed delta (the same derivative recurs
        # for every left term whose exponent reaches delta; the zero exponent
        # packs to origin), and the directions where b is flat
        origin = R.dring.origin
        rights = [(pack(be) - origin, bp, {origin: bp}, R.flat_dirs(bp.support()))
                  for be, bp in other.terms.items()]
        for ae, ap in self.terms.items():
            if other.shift and ap.uses("k"):
                if ksub is None:
                    ksub = {"k": R.k + other.shift}
                ap = ap.subs(ksub)
            pa = pack(ae)
            for be, bp, dbs, flat in rights:
                for gamma, delta, binom in splits(pa, flat):
                    dp = dbs.get(delta)
                    if dp is None:
                        dp = dbs[delta] = R.derivative(bp, R.exponent(delta))
                    if not dp:
                        continue
                    e = gamma + be
                    acc = out.get(e)
                    if acc is None:
                        acc = out[e] = PolySum(ring)
                    acc.add_product(ap, dp, binom)
        # a sum whose field reached its guard bit raises DomainError here,
        # before any key is written
        exponent = R.exponent
        return DiffOp(R, {exponent(e): acc.poly() for e, acc in out.items()},
                      self.shift + other.shift)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return sum_ops(self.op_ring, (self.compose(other), -other.compose(self)))

    # -- structure ------------------------------------------------------------------

    def order(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            try:
                return (self - self._coerce(other)).is_zero()
            except TypeError:
                return NotImplemented
        return self.op_ring is other.op_ring and self.terms == other.terms

    def restrict_semiholomorphic(self) -> "DiffOp":
        """Drop every monomial containing a zbar-derivative."""
        return DiffOp(self.op_ring, {e: p for e, p in self.terms.items()
                                     if not any(Coordinates.of(e).zbar)}, self.shift)

    def uses_extended_coords(self) -> bool:
        ring = self.op_ring.ring
        extended = ring.mask(i for i, n in enumerate(ring.names) if n == "x" or n[0] == "u")
        return any(p.support() & extended for p in self.terms.values())

    # -- numeric application --------------------------------------------------------------

    def coefficients_at(self, tau, z, k_value=None) -> list:
        """[(e, c)]: the value c of each coefficient that is nonzero at the
        point (tau, z), with its derivative exponent e, in the stored order.

        k_value is required when the operator still contains the formal k.
        """
        N = self.op_ring.N
        if len(z) != N:
            raise DomainError(f"a z of {len(z)} entries at rank {N}")
        if k_value is None and any(p.uses("k") for p in self.terms.values()):
            raise DomainError("the operator holds the formal k, so k_value is required")
        tau = mp.mpc(tau)
        z = [mp.mpc(w) for w in z]
        # the ring's variables in order: k, pi, y, x, v, u
        values = [None if k_value is None else to_mpc(k_value), mp.pi,
                  mp.mpc(tau.imag), mp.mpc(tau.real),
                  *(mp.mpc(w.imag) for w in z), *(mp.mpc(w.real) for w in z)]
        powers = {}
        out = []
        for e, p in self.terms.items():
            c = p.eval_numeric(values, powers=powers)
            if c:
                out.append((e, c))
        return out

    def apply_jet(self, jet: Jet, tau, z, k_value=None):
        """Value of (T f)(p) = sum c d^e f(p) from a jet of f at p = (tau, z),
        summed over the (e, c) of ``coefficients_at`` in their order; the
        arguments after the jet are those of ``coefficients_at``.  Each
        derivative exponent of T must be a monomial of the jet's space
        (``JetSpace.require``)."""
        for e in self.terms:
            jet.space.require(e)
        acc = mp.mpc(0)
        for e, c in self.coefficients_at(tau, z, k_value):
            acc += c * jet.derivative_at_base(e)
        return acc

    # -- rendering ---------------------------------------------------------------------------

    def canonical_text(self) -> str:
        """The operator as text, one ``(coefficient) * monomial`` line per
        term, sorted by order and then by exponent, "0" when it has no
        terms; public API, its rendering of the builders pinned by golden
        tests."""
        names = self.op_ring.dring.names
        lines = []
        for e, p in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = " ".join(
                n + (f"^{c}" if c > 1 else "") for n, c in zip(names, e) if c
            ) or "1"
            lines.append(f"({p}) * {mono}")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"DiffOp(order={self.order()}, terms={len(self.terms)}, shift={self.shift})"


def support_space(N: int, ops) -> JetSpace:
    """The jet space of rank N on the monomials that ``ops`` read: the
    downward closure of their derivative exponents and 1, closed under the
    moves tau -> z_j and taubar -> zbar_j (one factor tau of a monomial
    replaced by one z_j, or one taubar by one zbar_j).

    Jets built at a point on a downward-closed set have the bits of the
    total-degree ones there (``jets``).  The moves make the set fit
    ``slashed_jet``'s composition f(g p) too.  Under the Jacobi action the
    offset of tau' is a series in tau alone, and the offset of z'_j a
    series in tau and z_j alone whose monomials are each >= tau or >= z_j
    (and likewise for taubar' and zbar'_j).  So every monomial m of
    delta^k is >= r(k), where r replaces some z_j by tau and some zbar_j by
    taubar.  If the set holds m it holds r(k), and then k, by the moves; so
    an outer monomial k outside the set adds nothing to a coefficient in
    it, and f at g p can live in the same space.  With d_tau^2 alone at
    N = 2 the downward closure has 3 monomials and the closed set 10."""
    nvars = 2 * N + 2
    moves = [(0, 2 + j) for j in range(N)] + [(1, 2 + N + j) for j in range(N)]
    support = set()
    todo = [(0,) * nvars, *(e for T in ops for e in T.terms)]
    while todo:
        e = todo.pop()
        if e in support:
            continue
        support.add(e)
        for v, x in enumerate(e):
            if x:
                todo.append(e[:v] + (x - 1,) + e[v + 1:])
        for a, b in moves:
            if e[a]:
                m = list(e)
                m[a] -= 1
                m[b] += 1
                todo.append(tuple(m))
    return JetSpace.of_monomials(support)


# -- sums of operators and the forms built on the derivative basis ----------------------------


def sum_ops(R: OpRing, ops) -> DiffOp:
    """The sum of ``ops`` in one pass: their terms merged into one dict by
    ``merge_terms``, with the terms, order and weight shift of the chain
    ops[0] + ops[1] + ..., and without a running total per ``+``."""
    terms, shift = {}, 0
    for op in ops:
        if op.op_ring is not R:
            raise ValueError("mixed operator rings")
        if not terms:
            shift = op.shift
        elif op.terms and op.shift != shift:
            raise ValueError("cannot add operators of different weight shifts")
        merge_terms(terms, op.terms.items())
    return DiffOp(R, terms, shift)


def dot(coeffs, ops) -> DiffOp:
    """coeffs^T ops = sum_j c_j op_j, each c_j standing left of op_j."""
    return sum_ops(ops[0].op_ring, (op.scale(c) for c, op in zip(coeffs, ops)))


def quad_form(M, left, right) -> DiffOp:
    """left^T M right = sum_ab M_ab left_a right_b, each M_ab standing left
    of its composed pair; M holds constants or polynomials."""
    return sum_ops(left[0].op_ring, (a.compose(b).scale(m)
                                     for a, row in zip(left, M) for b, m in zip(right, row)))


def calL(R: OpRing, L: GramLattice):
    """The matrix 2 pi i L with a formal pi."""
    pi = R.ring.var("pi")
    return tuple(
        tuple(pi.scale(GaussianRational(0, 2 * L.entries[i][j])) for j in range(L.N))
        for i in range(L.N)
    )


def calL_inv(R: OpRing, L: GramLattice):
    """(2 pi i L)^{-1} = -(i/2) L^{-1} / pi."""
    piinv = R.ring.var("pi", -1)
    return tuple(
        tuple(piinv.scale(_MIHALF * L.inv[i][j]) for j in range(L.N))
        for i in range(L.N)
    )


def calL_apply(R: OpRing, L: GramLattice, w):
    """calL w and calL[w] = w^T calL w for a vector w of polynomials."""
    zero = R.ring.zero()
    lw = [sum((c * x for c, x in zip(row, w)), zero) for row in calL(R, L)]
    return lw, sum((x * y for x, y in zip(w, lw)), zero)


# -- raising and lowering operators ------------------------------------------------------------


def build_raising_lowering(L: GramLattice) -> dict:
    """X-, X+, and the vectors Y-, Y+ with their weight shifts:

        X-   = -2iy (y d_taubar + v^T d_zbar)
        X+   = 2i (d_tau + y^{-1} v^T d_z + y^{-2} calL[v]) + k / y
        Y-_j = -iy d_zbar_j
        Y+_j = i d_z_j + 2i y^{-1} (calL v)_j
    """
    R = OpRing(L.N)
    d = R.d
    k, y, v = R.k, R.y, R.v
    yinv = R.ring.var("y", -1)
    Lv, Lvv = calL_apply(R, L, v)

    def mul(p):
        return DiffOp.multiplication(R, p)

    X_minus = (d.taubar.scale(y) + dot(v, d.zbar)).scale(y * -2 * I)
    X_plus = ((d.tau + dot(v, d.z).scale(yinv) + mul(yinv * yinv * Lvv)).scale(2 * I)
              + mul(k * yinv))
    Y_minus = [dzb.scale(y * -I).with_shift(-1) for dzb in d.zbar]
    Y_plus = [(dz.scale(I) + mul(yinv * lv).scale(2 * I)).with_shift(1)
              for dz, lv in zip(d.z, Lv)]
    return {"X+": X_plus.with_shift(2), "X-": X_minus.with_shift(-2),
            "Y+": Y_plus, "Y-": Y_minus}


def weighted_laplacian(R: OpRing, weight: Poly) -> DiffOp:
    """4 y^2 d_tau d_taubar - 2 i w y d_taubar at formal weight w."""
    d = R.d
    return (d.tau.compose(d.taubar).scale(R.y * R.y * 4)
            - d.taubar.scale(weight * R.y * 2 * I))


def build_casimir_op(L: GramLattice) -> DiffOp:
    """The Casimir operator in coordinates; order 3 at N=1 and 4 beyond:

        -2 Delta_{k-N/2} + 2 y^2 (d_taubar L^{-1}[d_z] + d_tau L^{-1}[d_zbar])
        - 8 y d_tau v^T d_zbar
        - 1/2 y^2 (L^{-1}[d_zbar] L^{-1}[d_z] - (d_zbar^T L^{-1} d_z)^2)
        + 2 y (v^T d_zbar) d_z^T L^{-1} d_u
        - 1/2 (2k - N + 1) i y d_zbar^T L^{-1} d_u
        + 2 (v^T d_zbar)^2 + (2k - N - 1) i v^T d_zbar

    with L^{-1} = calL^{-1} and d_u = d_z + d_zbar; every coefficient stands
    left of all derivatives.
    """
    N = L.N
    R = OpRing(N)
    d = R.d
    k, y, v = R.k, R.y, R.v
    linv = calL_inv(R, L)
    d_u = [dz + dzb for dz, dzb in zip(d.z, d.zbar)]
    v_dzbar = dot(v, d.zbar)
    Lz, Lzbar = quad_form(linv, d.z, d.z), quad_form(linv, d.zbar, d.zbar)
    zbar_z = quad_form(linv, d.zbar, d.z)
    return sum_ops(R, (
        weighted_laplacian(R, k - Fraction(N, 2)).scale(-2),
        (d.taubar.compose(Lz) + d.tau.compose(Lzbar)).scale(y * y * 2),
        -d.tau.compose(v_dzbar).scale(y * 8),
        -(Lzbar.compose(Lz) - zbar_z.compose(zbar_z)).scale(y * y * _HALF),
        v_dzbar.compose(quad_form(linv, d.z, d_u)).scale(y * 2),
        -quad_form(linv, d.zbar, d_u).scale((k * 2 - (N - 1)) * y * _IHALF),
        quad_form([[a * b for b in v] for a in v], d.zbar, d.zbar).scale(2),
        v_dzbar.scale((k * 2 - (N + 1)) * I),
    ))


def build_casimir_RL(L: GramLattice) -> DiffOp:
    """The Casimir operator assembled from raising/lowering compositions:

        -2 X+ X- + i X+ L^{-1}[Y-] - i L^{-1}[Y+] X-
        - 1/2 (L^{-1}[Y+] L^{-1}[Y-] - Y+^T (Y+^T L^{-1} Y-) L^{-1} Y-)
        - 1/2 (2k - N - 3) i Y+^T L^{-1} Y-
    """
    N = L.N
    R = OpRing(N)
    ops = build_raising_lowering(L)
    Xp, Xm, Yp, Ym = ops["X+"], ops["X-"], ops["Y+"], ops["Y-"]
    linv = calL_inv(R, L)
    pp, mm, pm = quad_form(linv, Yp, Yp), quad_form(linv, Ym, Ym), quad_form(linv, Yp, Ym)
    return sum_ops(R, (
        Xp.compose(Xm).scale(-2), Xp.compose(mm).scale(I), -pp.compose(Xm).scale(I),
        -(pp.compose(mm) - quad_form(linv, Yp, [pm.compose(ym) for ym in Ym])).scale(_HALF),
        -pm.scale((R.k * 2 - (N + 3)) * _IHALF),
    ))


def semiholomorphic_casimir(L: GramLattice) -> DiffOp:
    """-2 Delta_{k-N/2} + 2 y^2 d_taubar L^{-1}[d_z], the stated action on
    semi-holomorphic functions."""
    N = L.N
    R = OpRing(N)
    d = R.d
    Lz = quad_form(calL_inv(R, L), d.z, d.z)
    return (weighted_laplacian(R, R.k - Fraction(N, 2)).scale(-2)
            + d.taubar.compose(Lz).scale(R.y * R.y * 2))


def build_laplace(L: GramLattice, C) -> DiffOp:
    """X+ X- + Y+^T C Y- for a positive definite symmetric C."""
    Cm = [[Fraction(x) for x in row] for row in C]
    if [len(row) for row in Cm] != [L.N] * L.N or Cm != [list(c) for c in zip(*Cm)]:
        raise DomainError(f"C must be a symmetric {L.N} x {L.N} matrix")
    linalg.ldl(Cm)  # DomainError unless C is positive definite
    ops = build_raising_lowering(L)
    return ops["X+"].compose(ops["X-"]) + quad_form(Cm, ops["Y+"], ops["Y-"])


def build_heat(L: GramLattice) -> DiffOp:
    """2 d_tau - (1/2) L^{-1}[d_z]."""
    R = OpRing(L.N)
    d = R.d
    Lz = quad_form(calL_inv(R, L), d.z, d.z)
    return (d.tau.scale(2) - Lz.scale(_HALF)).with_shift(2)


def build_D_minus(L: GramLattice) -> DiffOp:
    """X- - (i/2) L^{-1}[Y-]; the xi-operator's polynomial part."""
    ops = build_raising_lowering(L)
    quad = quad_form(calL_inv(OpRing(L.N), L), ops["Y-"], ops["Y-"])
    return ops["X-"] - quad.scale(_IHALF)


def d_minus_direct(L: GramLattice) -> DiffOp:
    """-2iy( y d_taubar + v^T d_zbar - (1/4) y L^{-1}[d_zbar] ), as displayed."""
    R = OpRing(L.N)
    d = R.d
    y = R.y
    Lzbar = quad_form(calL_inv(R, L), d.zbar, d.zbar)
    inner = d.taubar.scale(y) + dot(R.v, d.zbar) - Lzbar.scale(y.scale(Fraction(1, 4)))
    return inner.scale(y * -2 * I).with_shift(-2)


def xi_apply(k, L: GramLattice, jet: Jet, tau, z, ctx: PrecisionContext):
    """y^{k - 5/2} D_- f at a point; the non-polynomial power is numeric only."""
    with ctx.working():
        v = build_D_minus(L).apply_jet(jet, tau, z, k_value=to_mpc(Fraction(k)))
        kk = Fraction(k) - Fraction(5, 2)
        return mp.power(mp.mpc(tau).imag, to_mpf(kk)) * v


# -- the Lie slash action and the enveloping-algebra bridge ------------------------------


def build_lie_slash(Y, L: GramLattice) -> DiffOp:
    """The differential of the slash action on a Lie algebra element.

    ``Y`` is a generator name or an exact AlgebraElement; coefficients live
    in the extended ring with x and u present.  These operators act within a
    single weight, so they carry no shift; the formal k is the weight.
    """
    N = L.N
    R = OpRing(N)
    if isinstance(Y, str):
        return _lie_slash_gen(Y, R, L)
    if isinstance(Y, AlgebraElement):
        return sum_ops(R, (_lie_slash_gen(name, R, L).scale(c)
                           for name, c in Y.basis_coefficients().items() if c))
    raise DomainError("Y must be a generator name or an AlgebraElement")


def _lie_slash_gen(name: str, R: OpRing, L: GramLattice) -> DiffOp:
    alg = JacobiLieAlgebra(R.N)
    g = alg.index.get(name)
    if g is None:
        raise DomainError(f"unknown generator {name}")
    d = R.d
    k = R.k
    tau, taubar = R.x + R.y.scale(I), R.x - R.y.scale(I)
    z = [u + v.scale(I) for u, v in zip(R.u, R.v)]
    zbar = [u - v.scale(I) for u, v in zip(R.u, R.v)]

    def mul(p):
        return DiffOp.multiplication(R, p)

    if name == "E":
        return d.tau + d.taubar
    if name == "H":
        return sum_ops(R, (d.tau.scale(tau * 2), d.taubar.scale(taubar * 2),
                           dot(z, d.z), dot(zbar, d.zbar), mul(k)))
    if name == "F":
        Lzz = calL_apply(R, L, z)[1]
        return -sum_ops(R, (d.tau.scale(tau * tau), d.taubar.scale(taubar * taubar),
                            dot(z, d.z).scale(tau), dot(zbar, d.zbar).scale(taubar),
                            mul(k * tau + Lzz)))
    # the rest by position in the basis E, F, H, e_1..e_N, f_1..f_N, Z_ij
    if g >= alg.z_start:
        i, j = alg.z_pairs[g - alg.z_start]
        return mul(calL(R, L)[i - 1][j - 1])
    if g >= alg.f(1):
        i = g - alg.f(1)
        Lz = calL_apply(R, L, z)[0]
        return d.z[i].scale(tau) + d.zbar[i].scale(taubar) + mul(Lz[i] * 2)
    i = g - alg.e(1)
    return d.z[i] + d.zbar[i]


class _Opposite:
    """A DiffOp in the opposite algebra: the slash action is a right action
    while the letters' operators act on the left, so ``a * b`` is b after a
    and a word's image composes its letters' operators in reversed order.
    A polynomial or constant factor is applied with ``scale``."""

    __slots__ = ("op",)

    def __init__(self, op: DiffOp):
        self.op = op

    def __mul__(self, other):
        if isinstance(other, _Opposite):
            return _Opposite(other.op.compose(self.op))
        return _Opposite(self.op.scale(other))

    def __add__(self, other):
        return _Opposite(self.op + other.op)

    def __sub__(self, other):
        return _Opposite(self.op - other.op)


def bridge_rhs(L: GramLattice) -> DiffOp:
    """det(calL) (k(k - N - 2) - 2 C^{k,L}), the stated Casimir image."""
    N = L.N
    R = OpRing(N)
    ring = R.ring
    k = ring.var("k")
    detL = ring.var("pi", N).scale(GaussianRational(0, 2) ** N * L.det)
    inner = (
        DiffOp.multiplication(R, k * (k - ring.const(N + 2)))
        - build_casimir_op(L).scale(2)
    )
    return inner.scale(detL)


def bridge_check(L: GramLattice):
    """The image of Omega_N against det(calL)(k(k-N-2) - 2 C^{k,L}).

    The image is ``casimir_formula`` on the Lie-slash letters under the
    opposite product (``_Opposite``), with Z's minor table built from the Z
    letters' own constants, calL.  It is the image of Omega_N because the
    letters satisfy [op(a), op(b)] = op([b, a]).
    Returns (lhs, rhs, equal, xu_free): the bridge is the ground truth for
    the coordinate transcription of the Casimir operator.
    """
    N = L.N
    alg = JacobiLieAlgebra(N)
    R = OpRing(N)
    letter = [_Opposite(build_lie_slash(name, L)) for name in alg.names]
    zconst = [[letter[alg.z(i, j)].op.terms.get(R.zero_dexp, R.ring.zero())
               for j in range(1, N + 1)] for i in range(1, N + 1)]
    e, f = ([letter[g(i)] for i in range(1, N + 1)] for g in (alg.e, alg.f))
    lhs = casimir_formula(*letter[:3], e, f, linalg.Minors(linalg.mat(zconst))).op
    rhs = bridge_rhs(L)
    return lhs, rhs, lhs == rhs, not lhs.uses_extended_coords()


# -- numeric covariance checks ------------------------------------------------------------


class GaussianSeed:
    """A fixed entire test function exp(linear + small quadratic) in the
    complexified coordinates; smooth, nonvanishing, O(1) on sample domains."""

    def __init__(self, N: int):
        import random

        rng = random.Random(10007)

        def small():
            return mp.mpf(rng.randint(-4, 4)) / 16 + mp.mpf(rng.randint(-4, 4)) / 16 * 1j

        nv = 2 * N + 2
        self.lin = [small() for _ in range(nv)]
        self.quad = [small() / 8 for _ in range(nv)]

    def jet(self, coords: Coordinates) -> Jet:
        """The seed's jet at the base point of ``coords``; at degree 0 its
        value is the seed's value there."""
        vars_ = coords.flat()
        acc = sum((w * c for c, w in zip(self.lin, vars_)), Jet.const(coords.tau.space, 0))
        return sum((w * w * c for c, w in zip(self.quad, vars_)), acc).exp()


def slashed_jet(seed, weights, L: GramLattice, g, tau, z, space: JetSpace):
    """Jets of f|_{k,kbar,L}[g] at (tau, z) in ``space``, one for each (k,
    kbar) in ``weights``, plus the jet of f at the point g(tau, z), in the
    same space, and that point.

    ``space`` is a total-degree space of rank L.N or the ``support_space``
    of the operators the jets serve, which is closed under the moves that
    composing with the group action needs.  The weight-free part is built
    once: the coordinate action on the tau and taubar jets, f at g(tau, z)
    composed with it, beta, betabar and the alpha_L jet.  Each weight pair then gives composed * weight * alpha.
    The coordinate map and the a-cocycle are group's, run on jets; they are
    looked up on the module, so that the benchmark tracer's patches of
    group are seen.  Runs inside the caller's working-precision block.
    Each k - kbar must be an integer; the modulus factor keeps rational
    weights single-valued.
    """
    gaps = [(weight_gap(k, kbar), Fraction(kbar)) for k, kbar in weights]
    coords = coordinate_jets(space, tau, z)
    gm = g.to_numeric() if g.exact else g
    tau_p, z_p, beta = group.act_coordinates(gm, coords.tau, coords.z)
    taubar_p, zbar_p, betabar = group.act_coordinates(gm, coords.taubar, coords.zbar)

    q_tau = tau_p.value
    q_z = [jj.value for jj in z_p]
    f_at_q = seed.jet(coordinate_jets(space, q_tau, q_z))
    composed = f_at_q.compose([tau_p, taubar_p, *z_p, *zbar_p])

    # alpha_L = e(tr(L a))
    a_jets = group.cocycle_a(gm, Point(coords.tau, coords.z))
    tr = sum((a_jets[j][i] * to_mpc(lij) for i, row in enumerate(L.entries)
              for j, lij in enumerate(row) if lij), Jet.const(space, 0))
    alpha = (tr * (2j * mp.pi)).exp()

    # the weight needs the independent taubar jet, so it is not group's
    modulus = beta * betabar if any(kbar for _, kbar in gaps) else None
    jets = []
    for gap, kbar in gaps:
        weight = beta ** gap
        if kbar:
            weight = weight * modulus.pow_scalar(kbar)
        jets.append(composed * weight * alpha)
    return jets, f_at_q, (q_tau, q_z)


# -- the one sampler: group elements, algebra elements and points -------------------------


def _random_symmetric(N: int, rng):
    """A symmetric N x N list of ints in [-2, 2]; all N^2 entries are drawn."""
    S = [[rng.randint(-2, 2) for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(i):
            S[i][j] = S[j][i]
    return S


def random_group_element(N: int, rng) -> GroupElement:
    """Exact random element: M a product of three elementary matrices, X
    and the symmetric part of kappa with small rational entries.

    The entries are drawn and combined as Fractions, and the element is
    built once, without validation: det M = 1, and kappa + X J2 X^T / 2 is
    the symmetric draw by construction."""
    (a, b), (c, d) = (1, 0), (0, 1)
    for _ in range(3):
        t = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        if rng.random() < 0.5:
            # times ((1, t), (0, 1))
            b, d = a * t + b, c * t + d
        else:
            # times ((1, 0), (t, 1))
            a, c = a + b * t, c + d * t
    X = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(2)]
         for _ in range(N)]
    S = _random_symmetric(N, rng)
    # kappa = S - X J2 X^T / 2, where (X J2 X^T)_ij = X_i2 X_j1 - X_i1 X_j2
    kap = [[S[i][j] - (xi[1] * xj[0] - xi[0] * xj[1]) / 2 for j, xj in enumerate(X)]
           for i, xi in enumerate(X)]
    return GroupElement(((a, b), (c, d)), X, kap, check=False)


def random_algebra_element(N: int, rng) -> AlgebraElement:
    """Exact random element with every coordinate a small integer."""
    a = rng.randint(-2, 2)
    M = ((a, rng.randint(-2, 2)), (rng.randint(-2, 2), -a))
    X = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(N)]
    return AlgebraElement(M, X, _random_symmetric(N, rng))


def random_point(N: int, rng):
    tau = mp.mpc(rng.uniform(-0.8, 0.8), rng.uniform(0.6, 1.6))
    z = [mp.mpc(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(N)]
    return tau, z


def covariance_residuals(jobs, L: GramLattice, samples: int, ctx: PrecisionContext):
    """For each job (T, k, k2, kbar, kbar2), the max modulus of
    T(f|_{k,kbar,L}[g]) - (Tf)|_{k2,kbar2,L}[g] over random samples.

    The seed f is a fixed Gaussian-exponential; each residual is normalized
    by max(1, |rhs|).  Every job sees the same samples.  Per sample there is
    one ``slashed_jet`` call, on the ``support_space`` of the jobs'
    operators, with one jet per source weight pair, and one automorphy
    factor per target weight pair.  A jet coefficient is an exact sum
    rounded once and reads only the coefficients below it, so each residual
    has the bits of a check of its job alone in the total-degree space of
    the order of its operator.
    """
    import random

    rng = random.Random(77001)
    N = L.N
    seed = GaussianSeed(N)
    sources = list(dict.fromkeys((k, kbar) for _, k, _, kbar, _ in jobs))
    targets = list(dict.fromkeys((k2, kbar2) for _, _, k2, _, kbar2 in jobs))
    space = support_space(N, [T for T, *_ in jobs])
    worst = [mp.mpf(0)] * len(jobs)
    with ctx.working():
        kvs = [to_mpc(Fraction(k)) for _, k, *_ in jobs]
        for _ in range(samples):
            g = random_group_element(N, rng)
            tau, z = random_point(N, rng)
            sjs, f_at_q, (q_tau, q_z) = slashed_jet(seed, sources, L, g, tau, z, space)
            slashed = dict(zip(sources, sjs))
            gm, p = g.to_numeric(), Point(tau, z)
            factors = dict(zip(targets, automorphy_factor(targets, L.entries, gm, p, ctx)))
            for i, ((T, k, k2, kbar, kbar2), kv) in enumerate(zip(jobs, kvs)):
                lhs = T.apply_jet(slashed[k, kbar], tau, z, k_value=kv)
                rhs = factors[k2, kbar2] * T.apply_jet(f_at_q, q_tau, q_z, k_value=kv)
                r = abs(lhs - rhs) / max(mp.mpf(1), abs(rhs))
                if r > worst[i]:
                    worst[i] = r
    return worst


def covariance_check(T: DiffOp, k, L: GramLattice, k2, samples: int,
                     ctx: PrecisionContext, *, kbar=0, kbar2=0):
    """Max modulus of T(f|_{k,kbar,L}[g]) - (Tf)|_{k2,kbar2,L}[g] over random
    samples: the one-job call of ``covariance_residuals``."""
    return covariance_residuals([(T, k, k2, kbar, kbar2)], L, samples, ctx)[0]


# -- joint kernel of the raising operators ------------------------------------------------


def kernel_seed(k, L: GramLattice, l, h, ctx: PrecisionContext):
    """The annihilation report of y^{-k} e(l taubar + h zbar + c L[v]/y)
    under X+ and the Y+_i.

    The displayed exponent constant is re-derived by solving the first-order
    annihilation condition numerically (linear in c) instead of asserting
    the printed value; both appear in the report.
    """
    import random

    N = L.N
    k = Fraction(k)
    l = Fraction(l)
    h = [Fraction(x) for x in L._of_rank(h if isinstance(h, (list, tuple)) else [h] * N)]
    ops = build_raising_lowering(L)

    def build_jet(coords, c_coeff):
        y, v = imaginary_parts(coords)
        lv = sum((v[a] * v[b] * to_mpc(lab) for a, row in enumerate(L.entries)
                  for b, lab in enumerate(row) if lab), Jet.const(y.space, 0))
        expo = sum((zbj * to_mpc(hj) for zbj, hj in zip(coords.zbar, h)),
                   coords.taubar * to_mpc(l))
        if c_coeff:
            expo = expo + lv * y.reciprocal() * mp.mpc(c_coeff)
        return y.pow_scalar(-k) * (expo * (2j * mp.pi)).exp()

    rng = random.Random(31005)
    with ctx.working():
        # derive the exponent constant from Y+_1 annihilation: residual is
        # linear in c, so two evaluations solve it
        space = JetSpace.for_rank(N, 1)
        tau, z = random_point(N, rng)
        # keep v generically nonzero so (L v) does not vanish
        coords = coordinate_jets(space, tau, z)

        def y_plus_residual(c_coeff):
            jet = build_jet(coords, c_coeff)
            return ops["Y+"][0].apply_jet(jet, tau, z) / jet.value

        r0 = y_plus_residual(0)
        r1 = y_plus_residual(1)
        if abs(r1 - r0) < ctx.eps:
            derived = mp.mpc(0)
        else:
            derived = -r0 / (r1 - r0)

        report = {
            "printed_constant": 4,
            "derived_constant": derived,
            "derived_vs_minus_2i": abs(derived - mp.mpc(0, -2)),
            "samples": [],
        }
        for _ in range(10):
            tau, z = random_point(N, rng)
            jet = build_jet(coordinate_jets(space, tau, z), derived)
            scalev = abs(jet.value)
            xres = abs(ops["X+"].apply_jet(jet, tau, z, k_value=to_mpc(k))) / scalev
            yres = [abs(ops["Y+"][j].apply_jet(jet, tau, z)) / scalev for j in range(N)]
            report["samples"].append({"X+": xres, "Y+": yres})
        report["max_X+"] = max(s["X+"] for s in report["samples"])
        report["max_Y+"] = max(max(s["Y+"]) for s in report["samples"])
    return report
