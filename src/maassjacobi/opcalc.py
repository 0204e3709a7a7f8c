"""Noncommutative differential-operator calculus on H x C^N.

Operators are finite sums of Wirtinger-derivative monomials with polynomial
coefficients in a formal weight k, a formal pi, y and 1/y, and the real
coordinates v_j (plus x, u_j, which only the Lie slash action needs).  All
operator identities here are exact; numerics enter only through jets.

Every operator is written from one derivative basis (``derivatives``) with
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
from operator import add, sub
from typing import NamedTuple

from mpmath import mp

from . import group, linalg
from .enveloping import PBWElement
from .errors import DegreeError, DomainError
from .gaussian import I, GaussianRational
from .group import J2, AlgebraElement, GroupElement, Point, automorphy_factor, weight_gap
from .jets import Coordinates, Jet, JetSpace, coordinate_jets, imaginary_parts
from .lattice import GramLattice
from .polys import Poly, PolyRing, SparseTerms, merge_terms
from .precision import PrecisionContext, to_mpc, to_mpf

_HALF = Fraction(1, 2)
_IHALF = GaussianRational(0, _HALF)       # i/2
_MIHALF = GaussianRational(0, -_HALF)     # -i/2


class OpRing:
    """Coefficient ring and direction bookkeeping for fixed rank N.

    Directions are ordered d_tau, d_taubar, d_z_1..d_z_N, d_zbar_1..d_zbar_N;
    the coordinates k, x, y and the vectors u, v are attributes.
    """

    _instances = {}

    def __new__(cls, N: int):
        if N not in cls._instances:
            inst = super().__new__(cls)
            inst._init(N)
            cls._instances[N] = inst
        return cls._instances[N]

    def __reduce__(self):
        # one instance per rank: copies and unpickled objects share it
        return (OpRing, (self.N,))

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
        # directional derivative rules on the coefficient ring
        self.rules = []
        self.rules.append({"y": _MIHALF, "x": GaussianRational(_HALF)})   # d_tau
        self.rules.append({"y": _IHALF, "x": GaussianRational(_HALF)})    # d_taubar
        for j in range(1, N + 1):                                         # d_z_j
            self.rules.append({f"v{j}": _MIHALF, f"u{j}": GaussianRational(_HALF)})
        for j in range(1, N + 1):                                         # d_zbar_j
            self.rules.append({f"v{j}": _IHALF, f"u{j}": GaussianRational(_HALF)})

    def derivative(self, poly: Poly, delta) -> Poly:
        """d^delta poly, direction 0 first, stopping at the first zero.

        Each step merges rate * d/dname of every rule of the direction
        into one dict, in the order of a sum of those terms."""
        index = self.ring.index
        for i, d in enumerate(delta):
            if not d:
                continue
            rules = [(index[name], rate) for name, rate in self.rules[i].items()]
            for _ in range(d):
                if poly.is_zero():
                    return poly
                poly = Poly(self.ring, merge_terms({}, (
                    (e[:j] + (e[j] - 1,) + e[j + 1:], rate * (c * e[j]))
                    for j, rate in rules for e, c in poly.terms.items() if e[j])))
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
        ksub = {"k": R.ring.var("k") + R.ring.const(other.shift)} if other.shift else None
        # the terms of each output coefficient, merged in place; a key stays
        # where it was first put even while its coefficient sums to zero
        out = {}
        # d^delta b, keyed by (exponent of b, delta): the same derivative
        # recurs for every left term whose exponent reaches delta
        derivs = {}
        for ae, ap in self.terms.items():
            if ksub is not None and ap.uses("k"):
                ap = ap.subs(ksub)
            splits = [(gamma, tuple(map(sub, ae, gamma)), prod(map(comb, ae, gamma)))
                      for gamma in product(*(range(a + 1) for a in ae))]
            for be, bp in other.terms.items():
                for gamma, delta, binom in splits:
                    dp = derivs.get((be, delta))
                    if dp is None:
                        dp = derivs[be, delta] = R.derivative(bp, delta)
                    if dp.is_zero():
                        continue
                    terms = (ap * dp).terms
                    if binom != 1:
                        for t, c in terms.items():
                            terms[t] = c * binom
                    e = tuple(map(add, gamma, be))
                    acc = out.get(e)
                    if acc is None:
                        out[e] = terms
                    else:
                        merge_terms(acc, terms.items())
        return DiffOp(R, {e: Poly(R.ring, t) for e, t in out.items()},
                      self.shift + other.shift)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

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
        R = self.op_ring
        lo = 2 + R.N
        return DiffOp(
            R,
            {e: p for e, p in self.terms.items() if not any(e[lo:])},
            self.shift,
        )

    def uses_extended_coords(self) -> bool:
        return any(
            p.uses("x") or any(p.uses(f"u{j}") for j in range(1, self.op_ring.N + 1))
            for p in self.terms.values()
        )

    # -- numeric application --------------------------------------------------------------

    def coefficients_at(self, base_values: dict, k_value=None) -> list:
        """[(e, c)]: the value c of each coefficient that is nonzero at a
        base point, with its derivative exponent e, in the stored order.

        base_values holds mpc values for y, x, v_j, u_j at the base point;
        k_value is required when the operator still contains the formal k.
        The values serve every jet at that point and k (``apply_coefficients``).
        """
        values = dict(base_values)
        values["pi"] = mp.pi
        if k_value is not None:
            values["k"] = to_mpc(k_value)
        to_num = lambda c: c.to_mpc(mp)
        out = []
        for e, p in self.terms.items():
            c = p.eval_numeric(values, to_num)
            if c:
                out.append((e, c))
        return out

    def apply_jet(self, jet: Jet, base_values: dict, k_value=None):
        """Value of (T f)(p) from a jet of f at p; the arguments after the
        jet are those of ``coefficients_at``."""
        if jet.space.degree < self.order():
            raise DegreeError(
                f"operator order {self.order()} exceeds jet degree {jet.space.degree}"
            )
        return apply_coefficients(self.coefficients_at(base_values, k_value), jet)

    # -- rendering ---------------------------------------------------------------------------

    def canonical_text(self) -> str:
        R = self.op_ring
        names = ["dtau", "dtaubar"]
        names += [f"dz{j}" for j in range(1, R.N + 1)]
        names += [f"dzbar{j}" for j in range(1, R.N + 1)]
        lines = []
        for e, p in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = " ".join(
                n + (f"^{c}" if c > 1 else "") for n, c in zip(names, e) if c
            ) or "1"
            lines.append(f"({p}) * {mono}")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"DiffOp(order={self.order()}, terms={len(self.terms)}, shift={self.shift})"


def apply_coefficients(coefficients: list, jet: Jet):
    """(T f)(p) = sum c d^e f(p) over the (e, c) of ``T.coefficients_at(p)``,
    summed in their order, from a jet of f at p."""
    acc = mp.mpc(0)
    for e, c in coefficients:
        acc += c * jet.derivative_at_base(e)
    return acc


def base_values(tau, z) -> dict:
    """Coordinate values fed to DiffOp.apply_jet at a base point."""
    tau = mp.mpc(tau)
    out = {"x": mp.mpc(tau.real), "y": mp.mpc(tau.imag)}
    for j, w in enumerate(z, start=1):
        w = mp.mpc(w)
        out[f"u{j}"] = mp.mpc(w.real)
        out[f"v{j}"] = mp.mpc(w.imag)
    return out


# -- the derivative basis and the forms built on it ------------------------------------------


class Derivatives(NamedTuple):
    """d_tau, d_taubar and the vectors d_z, d_zbar, each with coefficient 1."""

    tau: DiffOp
    taubar: DiffOp
    z: tuple
    zbar: tuple


def derivatives(R: OpRing) -> Derivatives:
    one = R.ring.one()
    d = [DiffOp(R, {tuple(int(i == j) for i in range(R.ndirs)): one})
         for j in range(R.ndirs)]
    return Derivatives(d[0], d[1], tuple(d[2:2 + R.N]), tuple(d[2 + R.N:]))


def dot(coeffs, ops) -> DiffOp:
    """coeffs^T ops = sum_j c_j op_j, each c_j standing left of op_j."""
    return sum((op.scale(c) for c, op in zip(coeffs, ops)), DiffOp.zero(ops[0].op_ring))


def quad_form(M, left, right) -> DiffOp:
    """left^T M right = sum_ab M_ab left_a right_b, each M_ab standing left
    of its composed pair; M holds constants or polynomials."""
    return sum((a.compose(b).scale(m)
                for a, row in zip(left, M) for b, m in zip(right, row)),
               DiffOp.zero(left[0].op_ring))


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
    d = derivatives(R)
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
    d = derivatives(R)
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
    d = derivatives(R)
    k, y, v = R.k, R.y, R.v
    linv = calL_inv(R, L)
    d_u = [dz + dzb for dz, dzb in zip(d.z, d.zbar)]
    v_dzbar = dot(v, d.zbar)
    Lz, Lzbar = quad_form(linv, d.z, d.z), quad_form(linv, d.zbar, d.zbar)
    zbar_z = quad_form(linv, d.zbar, d.z)
    return (
        weighted_laplacian(R, k - Fraction(N, 2)).scale(-2)
        + (d.taubar.compose(Lz) + d.tau.compose(Lzbar)).scale(y * y * 2)
        - d.tau.compose(v_dzbar).scale(y * 8)
        - (Lzbar.compose(Lz) - zbar_z.compose(zbar_z)).scale(y * y * _HALF)
        + v_dzbar.compose(quad_form(linv, d.z, d_u)).scale(y * 2)
        - quad_form(linv, d.zbar, d_u).scale((k * 2 - (N - 1)) * y * _IHALF)
        + quad_form([[a * b for b in v] for a in v], d.zbar, d.zbar).scale(2)
        + v_dzbar.scale((k * 2 - (N + 1)) * I)
    )


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
    return (
        Xp.compose(Xm).scale(-2) + Xp.compose(mm).scale(I) - pp.compose(Xm).scale(I)
        - (pp.compose(mm) - quad_form(linv, Yp, [pm.compose(ym) for ym in Ym])).scale(_HALF)
        - pm.scale((R.k * 2 - (N + 3)) * _IHALF)
    )


def semiholomorphic_casimir(L: GramLattice) -> DiffOp:
    """-2 Delta_{k-N/2} + 2 y^2 d_taubar L^{-1}[d_z], the stated action on
    semi-holomorphic functions."""
    N = L.N
    R = OpRing(N)
    d = derivatives(R)
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
    d = derivatives(R)
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
    d = derivatives(R)
    y = R.y
    Lzbar = quad_form(calL_inv(R, L), d.zbar, d.zbar)
    inner = d.taubar.scale(y) + dot(R.v, d.zbar) - Lzbar.scale(y.scale(Fraction(1, 4)))
    return inner.scale(y * -2 * I).with_shift(-2)


def xi_apply(k, L: GramLattice, jet: Jet, tau, z, ctx: PrecisionContext):
    """y^{k - 5/2} D_- f at a point; the non-polynomial power is numeric only."""
    with ctx.working():
        dm = build_D_minus(L)
        vals = base_values(tau, z)
        v = dm.apply_jet(jet, vals, k_value=to_mpc(Fraction(k)))
        kk = Fraction(k) - Fraction(5, 2)
        return mp.power(vals["y"].real, to_mpf(kk)) * v


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
        acc = DiffOp.zero(R)
        for name, c in Y.basis_coefficients().items():
            if c:
                acc = acc + _lie_slash_gen(name, R, L).scale(c)
        return acc
    raise DomainError("Y must be a generator name or an AlgebraElement")


def _lie_slash_gen(name: str, R: OpRing, L: GramLattice) -> DiffOp:
    d = derivatives(R)
    k = R.k
    tau, taubar = R.x + R.y.scale(I), R.x - R.y.scale(I)
    z = [u + v.scale(I) for u, v in zip(R.u, R.v)]
    zbar = [u - v.scale(I) for u, v in zip(R.u, R.v)]

    def mul(p):
        return DiffOp.multiplication(R, p)

    if name == "E":
        return d.tau + d.taubar
    if name == "H":
        return (d.tau.scale(tau * 2) + d.taubar.scale(taubar * 2)
                + dot(z, d.z) + dot(zbar, d.zbar) + mul(k))
    if name == "F":
        Lzz = calL_apply(R, L, z)[1]
        return -(d.tau.scale(tau * tau) + d.taubar.scale(taubar * taubar)
                 + dot(z, d.z).scale(tau) + dot(zbar, d.zbar).scale(taubar)
                 + mul(k * tau + Lzz))
    if name.startswith("e"):
        i = int(name[1:]) - 1
        return d.z[i] + d.zbar[i]
    if name.startswith("f"):
        i = int(name[1:]) - 1
        Lz = calL_apply(R, L, z)[0]
        return d.z[i].scale(tau) + d.zbar[i].scale(taubar) + mul(Lz[i] * 2)
    if name.startswith("Z"):
        i, j = int(name[1]), int(name[2])
        return mul(calL(R, L)[i - 1][j - 1])
    raise DomainError(f"unknown generator {name}")


def uea_to_op(a: PBWElement, L: GramLattice) -> DiffOp:
    """Anti-homomorphic image of an enveloping-algebra element.

    The slash action is a right action while the generator formulas are
    left-acting, so each PBW word maps to the composition of its letters'
    operators in reversed order.  A central letter Z_ij acts as the constant
    calL_ij, so each noncentral word is scaled by its Z polynomial at calL,
    and a word whose polynomial vanishes there is never composed; the words
    are taken in sorted order, so each shared prefix is composed once.
    """
    alg = a.alg
    if alg.N != L.N:
        raise DomainError("rank mismatch between element and lattice")
    R = OpRing(L.N)
    letters = [build_lie_slash(name, L) for name in alg.names]
    zvalues = {name: op.terms.get(R.zero_dexp, R.ring.zero())
               for name, op in zip(alg.names, letters) if name in alg.z_ring.index}
    scalars = {tuple(g for g, kexp in enumerate(w) for _ in range(kexp)):
               p.eval_numeric(zvalues, R.ring.const) for w, p in a.terms.items()}
    # the terms of each output coefficient, merged in place; a coefficient
    # that sums to zero leaves, as in a sum of the scaled images
    out, prev, chain = {}, (), [DiffOp.identity(R)]
    for word in sorted(w for w, c in scalars.items() if c):
        # keep the images of the prefixes this word shares with the last one
        n = 0
        while n < len(prev) and prev[n] == word[n]:
            n += 1
        del chain[n + 1:]
        for g in word[n:]:  # first letter acts first: compose onto the left
            chain.append(letters[g].compose(chain[-1]))
        prev = word
        for e, p in chain[-1].terms.items():
            terms = (scalars[word] * p).terms
            acc = out.get(e)
            if acc is None:
                out[e] = terms
            elif not merge_terms(acc, terms.items()):
                del out[e]
    return DiffOp(R, {e: Poly(R.ring, t) for e, t in out.items()})


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
    """uea_to_op(Omega_N) against det(calL)(k(k-N-2) - 2 C^{k,L}).

    Returns (lhs, rhs, equal, xu_free): the bridge is the ground truth for
    the coordinate transcription of the Casimir operator.
    """
    from .enveloping import build_casimir

    lhs = uea_to_op(build_casimir(L.N), L)
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

    def _expr(self, vars_):
        # the zero of the variables' kind: jets or numbers
        acc = sum((w * c for c, w in zip(self.lin, vars_)), vars_[0] * 0)
        return sum((w * w * c for c, w in zip(self.quad, vars_)), acc)

    def jet(self, coords: Coordinates) -> Jet:
        return self._expr([coords.tau, coords.taubar, *coords.z, *coords.zbar]).exp()

    def value(self, tau, z):
        tau = mp.mpc(tau)
        z = [mp.mpc(w) for w in z]
        vars_ = [tau, mp.conj(tau)] + z + [mp.conj(w) for w in z]
        return mp.exp(self._expr(vars_))

    def __call__(self, p):
        return self.value(p.tau, p.z)


def slashed_jet(seed, weights, L: GramLattice, g, tau, z, degree: int):
    """Jets of f|_{k,kbar,L}[g] at (tau, z), one for each (k, kbar) in
    ``weights``, plus the jet of f at the point g(tau, z) and that point.

    The weight-free part is built once: the coordinate action on the tau
    and taubar jets, f at g(tau, z) composed with it, beta, betabar and
    the alpha_L jet.  Each weight pair then gives composed * weight * alpha.
    The coordinate map and the a-cocycle are group's, run on jets; they are
    looked up on the module, so that the benchmark tracer's patches of
    group are seen.  Runs inside the caller's working-precision block.
    Each k - kbar must be an integer; the modulus factor keeps rational
    weights single-valued.
    """
    gaps = [(weight_gap(k, kbar), Fraction(kbar)) for k, kbar in weights]
    N = L.N
    space = JetSpace.for_rank(N, degree)
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
    S = [[GaussianRational(rng.randint(-2, 2)) for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(i):
            S[i][j] = S[j][i]
    return linalg.mat(S)


def random_group_element(N: int, rng) -> GroupElement:
    """Exact random element: M a product of three elementary matrices, X
    and the symmetric part of kappa with small rational entries."""
    m = linalg.identity(2, GaussianRational(1), GaussianRational(0))
    for _ in range(3):
        t = GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        if rng.random() < 0.5:
            e = ((GaussianRational(1), t), (GaussianRational(0), GaussianRational(1)))
        else:
            e = ((GaussianRational(1), GaussianRational(0)), (t, GaussianRational(1)))
        m = linalg.mul(m, e)
    X = linalg.mat([
        [GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for _ in range(2)]
        for _ in range(N)
    ])
    XJX = linalg.mul(linalg.mul(X, J2), linalg.transpose(X))
    kap = linalg.sub(_random_symmetric(N, rng),
                     linalg.scale(GaussianRational(_HALF), XJX))
    return GroupElement(m, X, kap)


def random_algebra_element(N: int, rng) -> AlgebraElement:
    """Exact random element with every coordinate a small integer."""
    a = GaussianRational(rng.randint(-2, 2))
    M = ((a, GaussianRational(rng.randint(-2, 2))),
         (GaussianRational(rng.randint(-2, 2)), -a))
    X = [[GaussianRational(rng.randint(-2, 2)) for _ in range(2)] for _ in range(N)]
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
    one ``slashed_jet`` call, at the highest order of the jobs, with one jet
    per source weight pair, and one automorphy factor per target weight
    pair.  A jet coefficient is an exact sum rounded once and does not
    depend on the higher-order ones, so each residual has the bits of a
    check of its job alone at the order of its operator.
    """
    import random

    rng = random.Random(77001)
    N = L.N
    seed = GaussianSeed(N)
    sources = list(dict.fromkeys((k, kbar) for _, k, _, kbar, _ in jobs))
    targets = list(dict.fromkeys((k2, kbar2) for _, _, k2, _, kbar2 in jobs))
    degree = max((T.order() for T, *_ in jobs), default=0)
    worst = [mp.mpf(0)] * len(jobs)
    with ctx.working():
        kvs = [to_mpc(Fraction(k)) for _, k, *_ in jobs]
        for _ in range(samples):
            g = random_group_element(N, rng)
            tau, z = random_point(N, rng)
            sjs, f_at_q, (q_tau, q_z) = slashed_jet(seed, sources, L, g, tau, z, degree)
            slashed = dict(zip(sources, sjs))
            gm, p = g.to_numeric(), Point(tau, z)
            factors = {(k2, kbar2): automorphy_factor(k2, kbar2, L.entries, gm, p, ctx)
                       for k2, kbar2 in targets}
            here, there = base_values(tau, z), base_values(q_tau, q_z)
            for i, ((T, k, k2, kbar, kbar2), kv) in enumerate(zip(jobs, kvs)):
                lhs = T.apply_jet(slashed[k, kbar], here, k_value=kv)
                rhs = factors[k2, kbar2] * T.apply_jet(f_at_q, there, k_value=kv)
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
        vals = base_values(tau, z)

        def y_plus_residual(c_coeff):
            jet = build_jet(coords, c_coeff)
            r = ops["Y+"][0].apply_jet(jet, vals) / jet.value
            return r

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
            coords = coordinate_jets(space, tau, z)
            vals = base_values(tau, z)
            jet = build_jet(coords, derived)
            scalev = abs(jet.value)
            xres = abs(ops["X+"].apply_jet(jet, vals, k_value=to_mpc(k))) / scalev
            yres = [
                abs(ops["Y+"][j].apply_jet(jet, vals)) / scalev for j in range(N)
            ]
            report["samples"].append({"X+": xres, "Y+": yres})
        report["max_X+"] = max(s["X+"] for s in report["samples"])
        report["max_Y+"] = max(max(s["Y+"]) for s in report["samples"])
    return report
