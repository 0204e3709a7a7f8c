"""Noncommutative differential-operator calculus on H x C^N.

Operators are finite sums of Wirtinger-derivative monomials with polynomial
coefficients in a formal weight k, a formal pi, y and 1/y, and the real
coordinates v_j (plus x, u_j, which only the Lie slash action needs).  All
operator identities here are exact; numerics enter only through jets.

Weight-shift bookkeeping: an operator carries the shift of the slash weight
it effects, and composition substitutes k -> k + shift(right factor) into
the left factor, so that e.g. the raising product X+ X+ really means
X+^{k+2,L} X+^{k,L}.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from mpmath import mp

from . import group, linalg
from .enveloping import PBWElement
from .errors import DegreeError, DomainError, SingularIndexError
from .gaussian import GaussianRational
from .group import J2, AlgebraElement, GroupElement, Point, automorphy_factor, weight_gap
from .jets import Jet, JetSpace, coordinate_jets, real_coordinate_jets
from .lattice import GramLattice
from .polys import Poly, PolyRing, SparseTerms
from .precision import PrecisionContext, to_mpc

_HALF = Fraction(1, 2)
_IHALF = GaussianRational(0, _HALF)       # i/2
_MIHALF = GaussianRational(0, -_HALF)     # -i/2


class OpRing:
    """Coefficient ring and direction bookkeeping for fixed rank N."""

    _instances = {}

    def __new__(cls, N: int):
        if N not in cls._instances:
            inst = super().__new__(cls)
            inst._init(N)
            cls._instances[N] = inst
        return cls._instances[N]

    def _init(self, N: int):
        self.N = N
        names = ["k", "pi", "y", "x"]
        names += [f"v{j}" for j in range(1, N + 1)]
        names += [f"u{j}" for j in range(1, N + 1)]
        self.ring = PolyRing(names, laurent=("pi", "y"))
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

    # direction indices
    def d_tau(self):
        return 0

    def d_taubar(self):
        return 1

    def d_z(self, j):
        return 1 + j

    def d_zbar(self, j):
        return 1 + self.N + j

    def k(self):
        return self.ring.var("k")

    def y(self, power=1):
        return self.ring.var("y", power)

    def v(self, j):
        return self.ring.var(f"v{j}")

    def dexp(self, *directions) -> tuple:
        """The derivative monomial with one factor per listed direction."""
        e = [0] * self.ndirs
        for d in directions:
            e[d] += 1
        return tuple(e)

    def deriv_poly(self, poly: Poly, direction: int) -> Poly:
        out = self.ring.zero()
        for name, rate in self.rules[direction].items():
            d = poly.deriv(name)
            if d:
                out = out + d.scale(rate)
        return out


class DiffOp(SparseTerms):
    """Finite sum of coefficient x derivative-monomial terms."""

    __slots__ = ("op_ring", "terms", "shift")
    # operators compose rather than multiply, so there is no power
    __pow__ = None

    def __init__(self, op_ring: OpRing, terms: dict, shift: int = 0):
        self.op_ring = op_ring
        self.terms = {e: p for e, p in terms.items() if not p.is_zero()}
        self.shift = shift

    @property
    def _zero(self) -> Poly:
        return self.op_ring.ring.zero()

    def _like(self, terms, other) -> "DiffOp":
        if self.shift != other.shift and self.terms and other.terms:
            raise ValueError("cannot add operators of different weight shifts")
        return DiffOp(self.op_ring, terms, self.shift if self.terms else other.shift)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(op_ring: OpRing, shift: int = 0) -> "DiffOp":
        return DiffOp(op_ring, {}, shift)

    @staticmethod
    def identity(op_ring: OpRing) -> "DiffOp":
        return DiffOp(op_ring, {op_ring.zero_dexp: op_ring.ring.one()})

    @staticmethod
    def multiplication(op_ring: OpRing, poly: Poly, shift: int = 0) -> "DiffOp":
        return DiffOp(op_ring, {op_ring.zero_dexp: poly}, shift)

    @staticmethod
    def derivative(op_ring: OpRing, direction: int, coeff=None, shift: int = 0) -> "DiffOp":
        return DiffOp(
            op_ring,
            {op_ring.dexp(direction): coeff if coeff is not None else op_ring.ring.one()},
            shift,
        )

    # -- linear structure ----------------------------------------------------

    def scale(self, c) -> "DiffOp":
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
        """self after other, with weight bookkeeping: the formal k inside
        self's coefficients becomes k + other.shift."""
        other = self._coerce(other)
        R = self.op_ring
        ksub = None
        if other.shift:
            ksub = {"k": R.ring.var("k") + R.ring.const(other.shift)}
        out = {}
        for ae, ap in self.terms.items():
            if ksub is not None and ap.uses("k"):
                ap = ap.subs(ksub)
            for be, bp in other.terms.items():
                # Leibniz over each direction
                self._leibniz(out, ae, ap, be, bp)
        return DiffOp(R, {e: p for e, p in out.items() if not p.is_zero()},
                      self.shift + other.shift)

    def _leibniz(self, out, ae, ap, be, bp):
        R = self.op_ring
        # iterate gamma <= ae: derivatives ae - gamma hit bp
        ranges = [range(a + 1) for a in ae]

        def rec(i, gamma, coeff_mult, poly):
            if poly.is_zero():
                return
            if i == len(ae):
                e = tuple(g + b for g, b in zip(gamma, be))
                add = (ap * poly).scale(coeff_mult)
                cur = out.get(e)
                out[e] = add if cur is None else cur + add
                return
            for g in ranges[i]:
                d = ae[i] - g
                p2 = poly
                ok = True
                for _ in range(d):
                    p2 = R.deriv_poly(p2, i)
                    if p2.is_zero():
                        ok = False
                        break
                if ok or d == 0:
                    rec(i + 1, gamma + [g], coeff_mult * comb(ae[i], g), p2)

        rec(0, [], 1, bp)

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

    def apply_jet(self, jet: Jet, base_values: dict, k_value=None):
        """Value of (T f)(p) from a jet of f at p.

        base_values holds mpc values for y, x, v_j, u_j at the base point;
        k_value is required when the operator still contains the formal k.
        """
        if jet.space.degree < self.order():
            raise DegreeError(
                f"operator order {self.order()} exceeds jet degree {jet.space.degree}"
            )
        values = dict(base_values)
        values["pi"] = mp.pi
        if k_value is not None:
            values["k"] = to_mpc(k_value)
        to_num = lambda c: c.to_mpc(mp)
        acc = mp.mpc(0)
        for e, p in self.terms.items():
            c = p.eval_numeric(values, to_num)
            if c:
                acc += c * jet.derivative_at_base(e)
        return acc

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


def base_values(tau, z) -> dict:
    """Coordinate values fed to DiffOp.apply_jet at a base point."""
    tau = mp.mpc(tau)
    out = {"x": mp.mpc(tau.real), "y": mp.mpc(tau.imag)}
    for j, w in enumerate(z, start=1):
        w = mp.mpc(w)
        out[f"u{j}"] = mp.mpc(w.real)
        out[f"v{j}"] = mp.mpc(w.imag)
    return out


# -- the index matrix in the coefficient ring ------------------------------------------------


def _check_invertible(L: GramLattice):
    if L.det == 0:
        raise SingularIndexError("index matrix is singular")


def calL(R: OpRing, L: GramLattice):
    """The matrix 2 pi i L with a formal pi."""
    pi = R.ring.var("pi")
    return tuple(
        tuple(pi.scale(GaussianRational(0, 2 * L.entries[i][j])) for j in range(L.N))
        for i in range(L.N)
    )


def calL_inv(R: OpRing, L: GramLattice):
    """(2 pi i L)^{-1} = -(i/2) L^{-1} / pi."""
    _check_invertible(L)
    piinv = R.ring.var("pi", -1)
    return tuple(
        tuple(
            piinv.scale(GaussianRational(0, -Fraction(1, 2) * L.inv[i][j]))
            for j in range(L.N)
        )
        for i in range(L.N)
    )


# -- raising and lowering operators ------------------------------------------------------------


def build_raising_lowering(L: GramLattice) -> dict:
    """X-, X+, and the vectors Y-, Y+ with their weight shifts."""
    _check_invertible(L)
    N = L.N
    R = OpRing(N)
    ring = R.ring
    y = ring.var("y")
    yinv = ring.var("y", -1)
    k = ring.var("k")

    # X- = -2iy (y d_taubar + sum v_j d_zbar_j)
    xm_terms = {R.dexp(R.d_taubar()): (y * y).scale(GaussianRational(0, -2))}
    for j in range(1, N + 1):
        xm_terms[R.dexp(R.d_zbar(j))] = (y * ring.var(f"v{j}")).scale(GaussianRational(0, -2))
    X_minus = DiffOp(R, xm_terms, shift=-2)

    # X+ = 2i(d_tau + y^{-1} v^T d_z + y^{-2} calL[v]) + k / y
    xp_terms = {R.dexp(R.d_tau()): ring.const(GaussianRational(0, 2))}
    for j in range(1, N + 1):
        xp_terms[R.dexp(R.d_z(j))] = (yinv * ring.var(f"v{j}")).scale(GaussianRational(0, 2))
    lv = ring.zero()
    cl = calL(R, L)
    for a in range(N):
        for b in range(N):
            lv = lv + cl[a][b] * ring.var(f"v{a + 1}") * ring.var(f"v{b + 1}")
    zero_e = R.zero_dexp
    xp_terms[zero_e] = (
        (yinv * yinv * lv).scale(GaussianRational(0, 2)) + k * yinv
    )
    X_plus = DiffOp(R, xp_terms, shift=2)

    # Y-_j = -iy d_zbar_j ; Y+_j = i d_z_j + 2i y^{-1} (calL v)_j
    Y_minus, Y_plus = [], []
    for j in range(1, N + 1):
        Y_minus.append(DiffOp(R, {R.dexp(R.d_zbar(j)): y.scale(GaussianRational(0, -1))},
                              shift=-1))
        clv = ring.zero()
        for b in range(N):
            clv = clv + cl[j - 1][b] * ring.var(f"v{b + 1}")
        Y_plus.append(
            DiffOp(
                R,
                {
                    R.dexp(R.d_z(j)): ring.const(GaussianRational(0, 1)),
                    R.zero_dexp: (yinv * clv).scale(GaussianRational(0, 2)),
                },
                shift=1,
            )
        )
    return {"X+": X_plus, "X-": X_minus, "Y+": Y_plus, "Y-": Y_minus}


def weighted_laplacian(R: OpRing, weight: Poly) -> DiffOp:
    """4 y^2 d_tau d_taubar - 2 i w y d_taubar at formal weight w."""
    ring = R.ring
    y = ring.var("y")
    return DiffOp(R, {
        R.dexp(R.d_tau(), R.d_taubar()): (y * y).scale(4),
        R.dexp(R.d_taubar()): (weight * y).scale(GaussianRational(0, -2)),
    })


def build_casimir_op(L: GramLattice) -> DiffOp:
    """The Casimir operator in coordinates; order 3 at N=1 and 4 beyond."""
    _check_invertible(L)
    N = L.N
    R = OpRing(N)
    ring = R.ring
    y = ring.var("y")
    k = ring.var("k")
    linv = calL_inv(R, L)
    half = Fraction(1, 2)
    acc = {}

    def add(e, poly):
        cur = acc.get(e)
        acc[e] = poly if cur is None else cur + poly

    # -2 Delta_{k - N/2}
    wl = weighted_laplacian(R, k - ring.const(Fraction(N, 2)))
    for e, p in wl.terms.items():
        add(e, p.scale(-2))

    # + 2 y^2 (d_taubar L^{-1}[d_z] + d_tau L^{-1}[d_zbar])
    y2 = (y * y).scale(2)
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            c = linv[a - 1][b - 1]
            add(R.dexp(R.d_taubar(), R.d_z(a), R.d_z(b)), y2 * c)
            add(R.dexp(R.d_tau(), R.d_zbar(a), R.d_zbar(b)), y2 * c)

    # - 8 y d_tau v^T d_zbar
    for j in range(1, N + 1):
        add(R.dexp(R.d_tau(), R.d_zbar(j)), (y * ring.var(f"v{j}")).scale(-8))

    # - 1/2 y^2 ( L^{-1}[d_zbar] L^{-1}[d_z] - (d_zbar^T L^{-1} d_z)^2 )
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for c in range(1, N + 1):
                for d in range(1, N + 1):
                    coeff = linv[a - 1][b - 1] * linv[c - 1][d - 1]
                    e1 = R.dexp(R.d_zbar(a), R.d_zbar(b), R.d_z(c), R.d_z(d))
                    add(e1, (y * y * coeff).scale(-half))
                    e2 = R.dexp(R.d_zbar(a), R.d_z(b), R.d_zbar(c), R.d_z(d))
                    add(e2, (y * y * coeff).scale(half))

    # + 2 y (v^T d_zbar) d_z^T L^{-1} d_u      (d_u = d_z + d_zbar)
    for i in range(1, N + 1):
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                coeff = (y * ring.var(f"v{i}") * linv[a - 1][b - 1]).scale(2)
                add(R.dexp(R.d_zbar(i), R.d_z(a), R.d_z(b)), coeff)
                add(R.dexp(R.d_zbar(i), R.d_z(a), R.d_zbar(b)), coeff)

    # - 1/2 (2k - N + 1) i y d_zbar^T L^{-1} d_u
    w1 = (k.scale(2) - ring.const(N - 1)) * y
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            coeff = (w1 * linv[a - 1][b - 1]).scale(GaussianRational(0, -half))
            add(R.dexp(R.d_zbar(a), R.d_z(b)), coeff)
            add(R.dexp(R.d_zbar(a), R.d_zbar(b)), coeff)

    # + 2 (v^T d_zbar)^2
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            add(
                R.dexp(R.d_zbar(i), R.d_zbar(j)),
                (ring.var(f"v{i}") * ring.var(f"v{j}")).scale(2),
            )

    # + (2k - N - 1) i v^T d_zbar
    w2 = (k.scale(2) - ring.const(N + 1)).scale(GaussianRational(0, 1))
    for j in range(1, N + 1):
        add(R.dexp(R.d_zbar(j)), w2 * ring.var(f"v{j}"))

    return DiffOp(R, acc)


def quad_form(linv, left, right) -> DiffOp:
    """left^T calL^{-1} right as a composed operator; ``linv`` is calL_inv."""
    N = len(left)
    acc = DiffOp.zero(left[0].op_ring, left[0].shift + right[0].shift)
    for a in range(N):
        for b in range(N):
            acc = acc + left[a].compose(right[b]).scale(linv[a][b])
    return acc


def build_casimir_RL(L: GramLattice) -> DiffOp:
    """The Casimir operator assembled from raising/lowering compositions."""
    _check_invertible(L)
    N = L.N
    R = OpRing(N)
    ring = R.ring
    ops = build_raising_lowering(L)
    Xp, Xm, Yp, Ym = ops["X+"], ops["X-"], ops["Y+"], ops["Y-"]
    linv = calL_inv(R, L)
    pp, mm = quad_form(linv, Yp, Yp), quad_form(linv, Ym, Ym)
    pm = quad_form(linv, Yp, Ym)  # Y+^T L^{-1} Y-

    c = Xp.compose(Xm).scale(-2)
    c = c + Xp.compose(mm).scale(GaussianRational(0, 1))
    c = c - pp.compose(Xm).scale(GaussianRational(0, 1))

    # -1/2 ( L^{-1}[Y+] L^{-1}[Y-] - Y+^T (Y+^T L^{-1} Y-) L^{-1} Y- )
    half = Fraction(1, 2)
    c = c - pp.compose(mm).scale(half)
    quart = DiffOp.zero(R)
    for i_ in range(N):
        for j_ in range(N):
            quart = quart + Yp[i_].compose(pm.compose(Ym[j_])).scale(linv[i_][j_])
    c = c + quart.scale(half)

    # -1/2 (2k - N - 3) i Y+^T L^{-1} Y-
    k = ring.var("k")
    w = (k.scale(2) - ring.const(N + 3)).scale(GaussianRational(0, -half))
    c = c + pm.scale(w)
    return c


def semiholomorphic_casimir(L: GramLattice) -> DiffOp:
    """-2 Delta_{k-N/2} + 2 y^2 d_taubar L^{-1}[d_z], the stated action on
    semi-holomorphic functions."""
    N = L.N
    R = OpRing(N)
    ring = R.ring
    y = ring.var("y")
    k = ring.var("k")
    acc = {}
    wl = weighted_laplacian(R, k - ring.const(Fraction(N, 2)))
    for e, p in wl.terms.items():
        acc[e] = p.scale(-2)
    linv = calL_inv(R, L)
    y2 = (y * y).scale(2)
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            key = R.dexp(R.d_taubar(), R.d_z(a), R.d_z(b))
            add = y2 * linv[a - 1][b - 1]
            acc[key] = acc.get(key, ring.zero()) + add
    return DiffOp(R, acc)


def build_laplace(L: GramLattice, C) -> DiffOp:
    """X+ X- + Y+^T C Y- for a positive definite symmetric C."""
    N = L.N
    Cm = [[Fraction(x) for x in row] for row in C]
    minors = linalg.leading_principal_minors(linalg.mat(Cm))
    if any(m <= 0 for m in minors):
        raise DomainError("C must be positive definite")
    ops = build_raising_lowering(L)
    acc = ops["X+"].compose(ops["X-"])
    for a in range(N):
        for b in range(N):
            if Cm[a][b]:
                acc = acc + ops["Y+"][a].compose(ops["Y-"][b]).scale(Cm[a][b])
    return acc


def build_heat(L: GramLattice) -> DiffOp:
    """2 d_tau - (1/2) L^{-1}[d_z]."""
    _check_invertible(L)
    N = L.N
    R = OpRing(N)
    terms = {R.dexp(R.d_tau()): R.ring.const(2)}
    linv = calL_inv(R, L)
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            key = R.dexp(R.d_z(a), R.d_z(b))
            terms[key] = terms.get(key, R.ring.zero()) - linv[a - 1][b - 1].scale(
                Fraction(1, 2)
            )
    return DiffOp(R, terms, shift=2)


def build_D_minus(L: GramLattice) -> DiffOp:
    """X- - (i/2) L^{-1}[Y-]; the xi-operator's polynomial part."""
    ops = build_raising_lowering(L)
    quad = quad_form(calL_inv(OpRing(L.N), L), ops["Y-"], ops["Y-"])
    return ops["X-"] - quad.scale(GaussianRational(0, Fraction(1, 2)))


def d_minus_direct(L: GramLattice) -> DiffOp:
    """-2iy( y d_taubar + v^T d_zbar - (1/4) y L^{-1}[d_zbar] ), as displayed."""
    N = L.N
    R = OpRing(N)
    ring = R.ring
    y = ring.var("y")
    terms = {R.dexp(R.d_taubar()): (y * y).scale(GaussianRational(0, -2))}
    for j in range(1, N + 1):
        terms[R.dexp(R.d_zbar(j))] = (y * ring.var(f"v{j}")).scale(GaussianRational(0, -2))
    linv = calL_inv(R, L)
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            key = R.dexp(R.d_zbar(a), R.d_zbar(b))
            add = (y * y * linv[a - 1][b - 1]).scale(GaussianRational(0, _HALF))
            terms[key] = terms.get(key, ring.zero()) + add
    return DiffOp(R, terms, shift=-2)


def xi_apply(k, L: GramLattice, jet: Jet, tau, z, ctx: PrecisionContext):
    """y^{k - 5/2} D_- f at a point; the non-polynomial power is numeric only."""
    with ctx.working():
        dm = build_D_minus(L)
        vals = base_values(tau, z)
        v = dm.apply_jet(jet, vals, k_value=to_mpc(Fraction(k)))
        kk = Fraction(k) - Fraction(5, 2)
        return mp.power(vals["y"].real, mp.mpf(kk.numerator) / kk.denominator) * v


# -- the Lie slash action and the enveloping-algebra bridge ------------------------------


def _tau_poly(R: OpRing, conj: bool) -> Poly:
    x = R.ring.var("x")
    y = R.ring.var("y")
    return x + y.scale(GaussianRational(0, -1 if conj else 1))


def _z_poly(R: OpRing, j: int, conj: bool) -> Poly:
    u = R.ring.var(f"u{j}")
    v = R.ring.var(f"v{j}")
    return u + v.scale(GaussianRational(0, -1 if conj else 1))


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
    ring = R.ring
    N = R.N
    k = ring.var("k")
    cl = calL(R, L)
    tau, taubar = _tau_poly(R, False), _tau_poly(R, True)

    def drv(direction, coeff) -> DiffOp:
        return DiffOp.derivative(R, direction, coeff)

    if name == "E":
        return drv(R.d_tau(), ring.one()) + drv(R.d_taubar(), ring.one())

    if name == "H":
        acc = drv(R.d_tau(), tau.scale(2)) + drv(R.d_taubar(), taubar.scale(2))
        for j in range(1, N + 1):
            acc = acc + drv(R.d_z(j), _z_poly(R, j, False))
            acc = acc + drv(R.d_zbar(j), _z_poly(R, j, True))
        return acc + DiffOp.multiplication(R, k)

    if name == "F":
        acc = drv(R.d_tau(), -(tau * tau)) + drv(R.d_taubar(), -(taubar * taubar))
        for j in range(1, N + 1):
            acc = acc + drv(R.d_z(j), -(tau * _z_poly(R, j, False)))
            acc = acc + drv(R.d_zbar(j), -(taubar * _z_poly(R, j, True)))
        lz = ring.zero()
        for a in range(N):
            for b in range(N):
                lz = lz + cl[a][b] * _z_poly(R, a + 1, False) * _z_poly(R, b + 1, False)
        return acc + DiffOp.multiplication(R, -(k * tau) - lz)

    if name.startswith("e"):
        i = int(name[1:])
        return drv(R.d_z(i), ring.one()) + drv(R.d_zbar(i), ring.one())

    if name.startswith("f"):
        i = int(name[1:])
        acc = drv(R.d_z(i), tau) + drv(R.d_zbar(i), taubar)
        lz = ring.zero()
        for b in range(N):
            lz = lz + cl[i - 1][b] * _z_poly(R, b + 1, False)
        return acc + DiffOp.multiplication(R, lz.scale(2))

    if name.startswith("Z"):
        i, j = int(name[1]), int(name[2])
        return DiffOp.multiplication(R, cl[i - 1][j - 1])

    raise DomainError(f"unknown generator {name}")


def uea_to_op(a: PBWElement, L: GramLattice) -> DiffOp:
    """Anti-homomorphic image of an enveloping-algebra element.

    The slash action is a right action while the generator formulas are
    left-acting, so each PBW word maps to the composition of its letters'
    operators in reversed order.
    """
    alg = a.alg
    if alg.N != L.N:
        raise DomainError("rank mismatch between element and lattice")
    R = OpRing(L.N)
    gen_ops = {name: build_lie_slash(name, L) for name in alg.names}
    out = DiffOp.zero(R)
    for exp, coeff in a.terms.items():
        word = []
        for i, kexp in enumerate(exp):
            word.extend([alg.names[i]] * kexp)
        term = DiffOp.identity(R)
        for name in word:  # first letter acts first: compose onto the left
            term = gen_ops[name].compose(term)
        out = out + term.scale(coeff)
    return out


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

    def __init__(self, N: int, index: int = 0):
        import random

        rng = random.Random(10007 + index)
        self.N = N

        def small():
            return mp.mpf(rng.randint(-4, 4)) / 16 + mp.mpf(rng.randint(-4, 4)) / 16 * 1j

        nv = 2 * N + 2
        self.lin = [small() for _ in range(nv)]
        self.quad = [small() / 8 for _ in range(nv)]

    def _expr(self, vars_):
        acc = None
        for c, w in zip(self.lin, vars_):
            t = w * c
            acc = t if acc is None else acc + t
        for c, w in zip(self.quad, vars_):
            acc = acc + w * w * c
        return acc

    def jet(self, coords: dict) -> Jet:
        N = self.N
        vars_ = [coords["tau"], coords["taubar"]]
        vars_ += [coords[f"z{j}"] for j in range(1, N + 1)]
        vars_ += [coords[f"zbar{j}"] for j in range(1, N + 1)]
        return self._expr(vars_).exp()

    def value(self, tau, z):
        tau = mp.mpc(tau)
        z = [mp.mpc(w) for w in z]
        vars_ = [tau, mp.conj(tau)] + z + [mp.conj(w) for w in z]
        return mp.exp(self._expr(vars_))

    def __call__(self, p):
        return self.value(p.tau, p.z)


def slashed_jet(seed, k, kbar, L: GramLattice, g, tau, z, degree: int):
    """Jet of f|_{k,kbar,L}[g] at (tau, z), plus the jet of f at the point
    g(tau, z) and that point.

    The coordinate map and the a-cocycle are group's, run on jets; they are
    looked up on the module, so that the benchmark tracer's patches of
    group are seen.  Runs inside the caller's working-precision block.
    k - kbar must be an integer; the modulus factor keeps rational weights
    single-valued.
    """
    kbar = Fraction(kbar)
    gap = weight_gap(k, kbar)
    N = L.N
    space = JetSpace.for_rank(N, degree)
    coords = coordinate_jets(space, tau, z)
    zs = [coords[f"z{j}"] for j in range(1, N + 1)]
    zbars = [coords[f"zbar{j}"] for j in range(1, N + 1)]
    gm = g.to_numeric() if g.exact else g
    tau_p, z_p, beta = group.act_coordinates(gm, coords["tau"], zs)
    taubar_p, zbar_p, betabar = group.act_coordinates(gm, coords["taubar"], zbars)

    q_tau = tau_p.value
    q_z = [jj.value for jj in z_p]
    f_at_q = seed.jet(coordinate_jets(space, q_tau, q_z))
    composed = f_at_q.compose([tau_p, taubar_p, *z_p, *zbar_p])

    # the weight needs the independent taubar jet, so it is not group's
    weight = beta ** gap
    if kbar:
        weight = weight * (beta * betabar).pow_scalar(kbar)
    a_jets = group.cocycle_a(gm, Point(coords["tau"], zs))
    tr = None
    for i in range(N):
        for j in range(N):
            lij = to_mpc(L.entries[i][j])
            if lij:
                t = a_jets[j][i] * lij
                tr = t if tr is None else tr + t
    alpha = (tr * (2j * mp.pi)).exp() if tr is not None else Jet.const(space, 1)
    return composed * weight * alpha, f_at_q, (q_tau, q_z)


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
    XJX = linalg.mul(linalg.mul(X, linalg.to_gaussian(J2)), linalg.transpose(X))
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


def covariance_check(T: DiffOp, k, L: GramLattice, k2, L2: GramLattice,
                     samples: int, ctx: PrecisionContext, *,
                     kbar=0, kbar2=0):
    """Max modulus of T(f|_{k,L}[g]) - (Tf)|_{k2,L2}[g] over random samples.

    The seed f is a fixed Gaussian-exponential; the residual is normalized
    by max(1, |rhs|).
    """
    import random

    rng = random.Random(77001)
    N = L.N
    seed = GaussianSeed(N)
    worst = mp.mpf(0)
    with ctx.working():
        kv = to_mpc(Fraction(k))
        for _ in range(samples):
            g = random_group_element(N, rng)
            tau, z = random_point(N, rng)
            sj, f_at_q, (q_tau, q_z) = slashed_jet(seed, k, kbar, L, g, tau, z, T.order())
            lhs = T.apply_jet(sj, base_values(tau, z), k_value=kv)
            factor = automorphy_factor(k2, kbar2, L2.entries, g.to_numeric(),
                                       Point(tau, z), ctx)
            rhs = factor * T.apply_jet(f_at_q, base_values(q_tau, q_z), k_value=kv)
            r = abs(lhs - rhs) / max(mp.mpf(1), abs(rhs))
            if r > worst:
                worst = r
    return worst


# -- joint kernel of the raising operators ------------------------------------------------


def kernel_seed(k, L: GramLattice, l, h, ctx: PrecisionContext):
    """The function y^{-k} e(l taubar + h zbar + c L[v]/y) and its
    annihilation report under X+ and the Y+_i.

    The displayed exponent constant is re-derived by solving the first-order
    annihilation condition numerically (linear in c) instead of asserting
    the printed value; both appear in the report.
    """
    import random

    N = L.N
    k = Fraction(k)
    l = Fraction(l)
    h = [Fraction(x) for x in (h if isinstance(h, (list, tuple)) else [h] * N)]
    ops = build_raising_lowering(L)

    def build_jet(coords, c_coeff):
        reals = real_coordinate_jets(coords, N)
        y = reals["y"]
        lv = None
        for a in range(N):
            for b in range(N):
                lab = to_mpc(L.entries[a][b])
                if lab:
                    t = reals[f"v{a + 1}"] * reals[f"v{b + 1}"] * lab
                    lv = t if lv is None else lv + t
        expo = coords["taubar"] * to_mpc(l)
        for j in range(1, N + 1):
            expo = expo + coords[f"zbar{j}"] * to_mpc(h[j - 1])
        if lv is not None and c_coeff:
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

        def handle(tau, z):
            space1 = JetSpace.for_rank(N, 0)
            return build_jet(coordinate_jets(space1, tau, z), derived).value

        def jet_source(tau, z, degree=4):
            sp = JetSpace.for_rank(N, degree)
            return build_jet(coordinate_jets(sp, tau, z), derived)

    return handle, jet_source, report
