"""Fourier expansions of Jacobi-type objects: theta series, the coefficient
profiles of harmonic and skew-holomorphic expansions, the mixed-mock
E-profile terms, the Whittaker seed of the Poincare series, the theta
decomposition, and torsion-point specialization.

A FourierExpansion is a finite map (n, r) -> (profile, params, coeff); a
term's value at (tau, z) is coeff * profile(y, v) * e(n tau + r.z).  Every
term is also jet-evaluable, which drives the operator annihilation tests.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import zip_longest
from math import factorial, prod
from typing import NamedTuple

from mpmath import mp

from .errors import DomainError, NotSemiHolomorphicError
from .gaussian import GaussianRational
from .jets import (Coordinates, Jet, JetSpace, compose_univariate, coordinate_jets,
                   imaginary_parts)
from .lattice import GramLattice, discriminant, enumerate_shifted
from .opcalc import build_heat, support_space
from .polys import PolySum
from .precision import PrecisionContext, mpf_str, to_mpc, to_mpf
from .specfun import (
    e_profile_jet,
    h_profile_jet,
    whittaker_M_jet,
    whittaker_W_jet,
    whittaker_equation,
)


class FourierIndex(NamedTuple):
    n: Fraction
    r: tuple

    @staticmethod
    def of(n, r) -> "FourierIndex":
        return FourierIndex(Fraction(n), tuple(int(x) for x in r))


# -- profiles -----------------------------------------------------------------
#
# Tags and parameters (rationals everywhere; pi enters only at evaluation):
#   constant    {}
#   y_power     {"exponent": e}                      y^e
#   exp_real    {"eexp": c}                          exp(pi c y)
#   H           {"k": k, "N": N, "arg": c, "eexp": c2}   H(pi c y) exp(pi c2 y)
#   W           {"s": s, "kappa": kp, "arg": c, "eexp": c2}
#   M           {"s": s, "kappa": kp, "arg": c, "eexp": c2}
#   E           {"nu": int, "h": [rationals]}        E((nu + h.v/y) sqrt(2y))


def _profile_jet(tag: str, params: dict, imag: tuple, ctx: PrecisionContext) -> Jet:
    y, v = imag

    def pi_y(c):
        return y * (mp.pi * to_mpf(c))

    if tag == "constant":
        return Jet.const(y.space, 1)
    if tag == "y_power":
        return y.pow_scalar(to_mpf(Fraction(params["exponent"])))
    if tag == "exp_real":
        return pi_y(Fraction(params["eexp"])).exp()
    if tag in ("H", "W", "M"):
        arg = pi_y(Fraction(params["arg"]))
        if tag == "H":
            derivs = h_profile_jet(Fraction(params["k"]), int(params["N"]),
                                   arg.value.real, y.space.degree, ctx)
        else:
            whittaker = whittaker_W_jet if tag == "W" else whittaker_M_jet
            derivs = whittaker(Fraction(params["s"]), Fraction(params["kappa"]),
                               arg.value.real, y.space.degree, ctx)
        taylor = [d / factorial(j) for j, d in enumerate(derivs)]
        out = compose_univariate(taylor, arg)
        c2 = Fraction(params.get("eexp", 0))
        if c2:
            out = out * pi_y(c2).exp()
        return out
    if tag == "E":
        h = [Fraction(x) for x in params["h"]]
        w = Jet.const(y.space, int(params["nu"]))
        if any(h):
            hv = sum((vj * to_mpf(hj) for vj, hj in zip(v, h) if hj), Jet.const(y.space, 0))
            w = w + hv * y.reciprocal()
        w = w * (y * 2).pow_scalar(mp.mpf("0.5"))
        derivs = e_profile_jet(w.value.real, y.space.degree, ctx)
        return compose_univariate([d / factorial(j) for j, d in enumerate(derivs)], w)
    raise DomainError(f"unknown profile tag {tag!r}")


def _index_exponential_jet(index: FourierIndex, coords: Coordinates) -> Jet:
    expo = sum((zj * rj for zj, rj in zip(coords.z, index.r) if rj),
               coords.tau * to_mpc(index.n))
    return (expo * (2j * mp.pi)).exp()


class FourierExpansion:
    """A finite Fourier expansion over a fixed lattice."""

    __slots__ = ("lattice", "terms")

    def __init__(self, lattice: GramLattice, terms: dict = None):
        self.lattice = lattice
        self.terms = dict(terms or {})
        for index, (tag, params, _) in self.terms.items():
            self._check_rank(index, tag, params)

    def _check_rank(self, index: FourierIndex, tag: str, params: dict):
        """DomainError unless r, and the h of an E term, have the lattice's rank."""
        self.lattice._of_rank(index.r)
        if tag == "E":
            self.lattice._of_rank(params["h"])

    def add_term(self, index: FourierIndex, tag: str, params: dict, coeff):
        self._check_rank(index, tag, params)
        if not coeff:
            return
        if index in self.terms:
            t0, p0, c0 = self.terms[index]
            if (t0, p0) == (tag, params):
                s = c0 + coeff
                if s:
                    self.terms[index] = (tag, params, s)
                else:
                    del self.terms[index]
                return
            raise DomainError(f"conflicting profiles at index {index}")
        self.terms[index] = (tag, params, coeff)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, FourierExpansion)
            and self.lattice == other.lattice
            and self.terms == other.terms
        )

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].n, kv[0].r))

    def evaluate(self, tau, z, ctx: PrecisionContext):
        with ctx.working():
            return self.jet(tau, z, 0, ctx).value

    def jet(self, tau, z, degree: int, ctx: PrecisionContext) -> Jet:
        space = JetSpace.for_rank(self.lattice.N, degree)
        return self._jet_at(coordinate_jets(space, tau, z), ctx)

    def _jet_at(self, coords: Coordinates, ctx: PrecisionContext) -> Jet:
        """Jet at the base point of the coordinate jets ``coords``."""
        imag = imaginary_parts(coords)
        acc = Jet.const(coords.tau.space, 0)
        for index, (tag, params, coeff) in self.terms.items():
            pj = _profile_jet(tag, params, imag, ctx)
            acc = acc + pj * _index_exponential_jet(index, coords) * to_mpc(coeff)
        return acc

    # -- serialization: stable key order, exact rational strings ------------

    def to_json(self) -> str:
        terms = []
        for index, (tag, params, coeff) in self.sorted_items():
            terms.append({
                "n": str(index.n),
                "r": list(index.r),
                "profile": tag,
                "params": {k: _param_str(v) for k, v in sorted(params.items())},
                "coeff": coeff_pair(coeff),
            })
        return json.dumps(
            {"lattice": self.lattice.to_json_obj(), "terms": terms},
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(s: str) -> "FourierExpansion":
        """The expansion of ``to_json``'s text.  A Gram matrix outside the
        domain raises DomainError.  Text that is not an expansion raises
        ValueError, LookupError, TypeError or AttributeError; a term whose
        r, or whose E profile's h, is not of the lattice's rank raises
        ValueError."""
        data = json.loads(s)
        L = GramLattice.from_json_obj(data["lattice"])
        out = FourierExpansion(L)
        for t in data["terms"]:
            index = FourierIndex.of(Fraction(t["n"]), t["r"])
            params = {k: _param_parse(v) for k, v in t["params"].items()}
            try:
                out._check_rank(index, t["profile"], params)
            except DomainError as exc:
                raise ValueError(f"the term n = {index.n}, r = {list(index.r)}: {exc}") from None
            out.terms[index] = (t["profile"], params, _coeff_unpair(t["coeff"]))
        return out


def _param_str(v):
    """A parameter as the rational string(s) that _param_parse reads back; a
    bool would come back as a number, so it is refused."""
    items = v if isinstance(v, (list, tuple)) else [v]
    if any(isinstance(x, bool) for x in items):
        raise DomainError(f"parameter {v!r} is not a rational number")
    if isinstance(v, (list, tuple)):
        return [str(Fraction(x)) for x in v]
    return str(Fraction(v))


def _param_parse(v):
    if isinstance(v, list):
        return [Fraction(x) for x in v]
    f = Fraction(v)
    return int(f) if f.denominator == 1 else f


def coeff_pair(coeff):
    """The JSON pair [re, im] of a coefficient: exact strings for a rational
    one, mpmath strings otherwise."""
    if isinstance(coeff, (int, Fraction)):
        coeff = GaussianRational.coerce(coeff)
    if isinstance(coeff, GaussianRational):
        return [str(coeff.re), str(coeff.im)]
    c = mp.mpc(coeff)
    return [mpf_str(c.real), mpf_str(c.imag)]


def _coeff_unpair(pair):
    a, b = pair
    try:
        return GaussianRational(Fraction(a), Fraction(b))
    except ValueError:
        return mp.mpc(mp.mpf(a), mp.mpf(b))


# -- theta series ---------------------------------------------------------------


def _require_integral(L: GramLattice, what: str):
    if not L.is_integral():
        raise DomainError(
            f"{what} needs an integral Gram matrix: L Z^N must lie inside Z^N"
        )


def theta_lmu(L: GramLattice, mu, bound) -> FourierExpansion:
    """theta_{L,mu} = sum over r = mu mod L Z^N of q^{L^{-1}[r]/4} zeta^r,
    truncated at q-exponent <= bound."""
    _require_integral(L, "theta_{L,mu}")
    mu = [int(x) for x in mu]
    bound = Fraction(bound)
    out = FourierExpansion(L)
    center = L.inv_apply(mu)
    for lam in enumerate_shifted(L, center, 4 * bound):
        r = tuple(int(m + x) for m, x in zip(mu, L.apply(lam)))
        n = L.inv_quad(r) / 4
        out.add_term(FourierIndex.of(n, r), "constant", {}, GaussianRational(1))
    return out


def theta_klr(k: int, L: GramLattice, r, bound, zeta_variant: bool = False) -> FourierExpansion:
    """theta^{(r)}_{k,L} = sum_lam q^{L[lam]} zeta^{2L lam} (q^{r.lam} zeta^r
    + (-1)^k q^{-r.lam} zeta^r), truncated at q-exponent <= bound.

    ``zeta_variant`` switches the second summand's vector to 2L lam - r (the
    classically expected form); the printed form is the default.
    """
    k = int(k)
    r = [int(x) for x in r]
    bound = Fraction(bound)
    out = FourierExpansion(L)
    half_lr = [x / 2 for x in L.inv_apply(r)]
    sign = GaussianRational((-1) ** k)
    shift = L.inv_quad(r) / 4

    def vec(lam, conj_sign):
        two_l = [2 * x for x in L.apply(lam)]
        if conj_sign and zeta_variant:
            return tuple(int(a - b) for a, b in zip(two_l, r))
        return tuple(int(a + b) for a, b in zip(two_l, r))

    # the families with exponent n = L[lam] +- r.lam: L[lam +- L^{-1}r/2] =
    # L[lam] +- r.lam + L^{-1}[r]/4 exactly, so enumerating up to
    # bound + L^{-1}[r]/4 gives exactly the lam with n <= bound
    for pm, coeff in ((1, GaussianRational(1)), (-1, sign)):
        for lam in enumerate_shifted(L, [pm * x for x in half_lr], bound + shift):
            n = L.quad(lam) + pm * sum(a * b for a, b in zip(r, lam))
            out.add_term(FourierIndex.of(n, vec(lam, pm < 0)), "constant", {}, coeff)
    return out


# -- theta decomposition ----------------------------------------------------------


def _column_hnf(B):
    """Column Hermite form of a nonsingular integer matrix: returns an upper
    triangular H with positive diagonal such that H Z^N = B Z^N."""
    N = len(B)
    cols = [[int(B[i][j]) for i in range(N)] for j in range(N)]
    # eliminate on each row (from the bottom) by integer column operations,
    # leaving column `row` as the pivot; columns 0..row-1 end with zeros there
    for row in range(N - 1, -1, -1):
        for j in range(row):
            while cols[j][row] != 0:
                if cols[row][row] == 0:
                    cols[row], cols[j] = cols[j], cols[row]
                    continue
                q = cols[j][row] // cols[row][row]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[row])]
                if cols[j][row] != 0:
                    cols[row], cols[j] = cols[j], cols[row]
        if cols[row][row] < 0:
            cols[row] = [-x for x in cols[row]]
        for j in range(row + 1, N):
            q = cols[j][row] // cols[row][row]
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[row])]
    return [[cols[j][i] for j in range(N)] for i in range(N)]


def residue_reduce(L: GramLattice, r):
    """Canonical representative of r mod L Z^N."""
    _require_integral(L, "residue reduction")
    H = _column_hnf(L.entries)
    r = [int(x) for x in r]
    N = L.N
    for i in range(N - 1, -1, -1):
        q = r[i] // H[i][i]
        if q:
            for t in range(i + 1):
                r[t] -= q * H[t][i]
    return tuple(r)


def residue_classes(L: GramLattice):
    """All |L| residue classes of Z^N mod L Z^N, canonically reduced: the
    box of the Hermite normal form's diagonal, whose points are already the
    reduced representatives, one per class."""
    from itertools import product as _product

    _require_integral(L, "residue classes")
    H = _column_hnf(L.entries)
    return list(_product(*(range(H[i][i]) for i in range(L.N))))


def _component_key(L: GramLattice, index: FourierIndex):
    """(r mod L Z^N, D/(4|L|)): the component and exponent of a term."""
    D = discriminant(L, index.n, index.r)
    return residue_reduce(L, index.r), D / (4 * L.det)


def _conjugate(c):
    return c.conjugate() if isinstance(c, GaussianRational) else mp.conj(c)


def theta_decompose_semi(f: FourierExpansion, conjugate: bool = False) -> dict:
    """Components h_mu with exponents D/(4|L|).

    Requires (and checks) that coefficients depend only on (D, r mod L Z^N);
    violation raises NotSemiHolomorphicError.  With ``conjugate`` (the skew
    variant) the component coefficients are conjugated.
    """
    L = f.lattice
    out = {}
    for index, (tag, params, coeff) in f.terms.items():
        mu, expo = _component_key(L, index)
        c = _conjugate(coeff) if conjugate else coeff
        comp = out.setdefault(mu, {})
        if expo in comp:
            if comp[expo][0] != c:
                raise NotSemiHolomorphicError(
                    f"coefficients at (D={expo * 4 * L.det}, mu={mu}) disagree: "
                    f"{comp[expo][0]} vs {c}"
                )
            comp[expo] = (c, comp[expo][1] + [index])
        else:
            comp[expo] = (c, [index])
    return out


def theta_reassemble(components: dict, f_support: FourierExpansion,
                     conjugate: bool = False) -> FourierExpansion:
    """Rebuild an expansion on the support of ``f_support`` from components."""
    L = f_support.lattice
    out = FourierExpansion(L)
    for index, (tag, params, _) in f_support.terms.items():
        mu, expo = _component_key(L, index)
        c = components[mu][expo][0]
        out.terms[index] = (tag, params, _conjugate(c) if conjugate else c)
    return out


# -- expansion term templates --------------------------------------------------------


def maass_fourier_term(kind: str, k, L: GramLattice, n, r) -> FourierExpansion:
    """One term of the semi-holomorphic harmonic expansion: kind in
    {'c0', 'c+', 'c-'} with the D-sign constraint checked.

    The y-exponent of the c0 term and the integrand power of the H profile
    are the ones the Casimir ODE forces (jet-verified): the c0 power is
    N/2 - k + 1 and the H integrand power is -(k - N/2), reached by calling
    the H profile with first parameter k - N.  The printed variants (power
    N/2 - k, integrand power -(k + N/2)) fail annihilation, which the test
    suite records.
    """
    k = Fraction(k)
    N = L.N
    D = discriminant(L, n, r)
    index = FourierIndex.of(n, r)
    out = FourierExpansion(L)
    if kind == "c0":
        if D != 0:
            raise DomainError(f"c0 terms require D = 0, got D = {D}")
        out.add_term(index, "y_power", {"exponent": Fraction(N, 2) - k + 1},
                     GaussianRational(1))
    elif kind == "c+":
        out.add_term(index, "constant", {}, GaussianRational(1))
    elif kind == "c-":
        if D == 0:
            raise DomainError("c- terms require D != 0")
        c = D / (2 * L.det)
        out.add_term(index, "H",
                     {"k": k - N, "N": N, "arg": c, "eexp": c}, GaussianRational(1))
    else:
        raise DomainError(f"unknown kind {kind!r}")
    return out


def skew_fourier_term(L: GramLattice, n, r) -> FourierExpansion:
    """c(n,r) e(-iDy/2|L|) q^n zeta^r with coefficient 1."""
    D = discriminant(L, n, r)
    out = FourierExpansion(L)
    out.add_term(FourierIndex.of(n, r), "exp_real", {"eexp": D / L.det},
                 GaussianRational(1))
    return out


def mixed_mock_term(k, L: GramLattice, n, r, nu: int, h) -> FourierExpansion:
    """c^-(D) E((nu + h.v/y) sqrt(2y)) q^n zeta^r."""
    out = FourierExpansion(L)
    h = [Fraction(x) for x in h]
    out.add_term(FourierIndex.of(n, r), "E", {"nu": int(nu), "h": h},
                 GaussianRational(1))
    return out


def phi_seed(k, L: GramLattice, s, n, r) -> FourierExpansion:
    """The Whittaker seed M_{s,k-N/2}(pi D y/|L|) e(rz + i L^{-1}[r] y/4 + nx),
    expressed as an M-profile times q^n zeta^r."""
    D = discriminant(L, n, r)
    if D == 0:
        raise DomainError("phi seed requires D != 0")
    k = Fraction(k)
    N = L.N
    out = FourierExpansion(L)
    out.add_term(
        FourierIndex.of(n, r), "M",
        {"s": Fraction(s), "kappa": k - Fraction(N, 2),
         "arg": D / L.det, "eexp": D / (2 * L.det)},
        GaussianRational(1),
    )
    return out


def _whittaker_seed(f: FourierExpansion) -> tuple:
    """(index, s, kappa, arg) of a Whittaker seed: one term whose profile is
    h(pi arg y) e^{pi arg y/2} with h an M or a W profile, as ``phi_seed``
    builds it (or the same term retagged W)."""
    if len(f.terms) == 1:
        ((index, (tag, params, _)),) = f.terms.items()
        arg = Fraction(params.get("arg", 0))
        if tag in ("M", "W") and Fraction(params.get("eexp", 0)) == arg / 2:
            return index, params["s"], params["kappa"], arg
    raise DomainError("a Whittaker seed is one M or W term with eexp = arg/2")


def _on_exponential(terms, index: FourierIndex, ring) -> list:
    """[S_0, S_1, ...] with sum_e c_e d^e (f(y) E) = (sum_j S_j f^(j)) E for
    E = e(n tau + r.z), over the (e, c_e) of ``terms``, none with a d_zbar:
    on f(y) E, d_tau = 2 pi i n - (i/2) d/dy, d_taubar = (i/2) d/dy and
    d_z_j = 2 pi i r_j."""
    zero = ring.zero()
    two_pi_i = ring.var("pi").scale(GaussianRational(0, 2))
    d_tau = (two_pi_i.scale(index.n), ring.const(GaussianRational(0, Fraction(-1, 2))))
    d_taubar = (zero, ring.const(GaussianRational(0, Fraction(1, 2))))
    out = []
    for e, c in terms:
        d = Coordinates.of(e)
        q = [prod((two_pi_i.scale(rj) ** ej for rj, ej in zip(index.r, d.z) if ej), start=c)]
        for alpha, beta in [d_tau] * d.tau + [d_taubar] * d.taubar:
            # (alpha + beta d/dy) sum_j q_j (d/dy)^j
            q = [alpha * a + beta * b for a, b in zip(q + [zero], [zero] + q)]
        out = [a + b for a, b in zip_longest(out, q, fillvalue=zero)]
    return out


def casimir_exact_residuals(cases, casimir) -> list:
    """For each case (f, k, eigenvalue), with f a Whittaker seed, the pair
    (A - eigenvalue, B) of Laurent polynomials in pi and y for which
    C^{k,L} f = A f + B d_y f exactly; the case holds when both are 0.

    With f = f(y) E, E = e(n tau + r.z) and a = pi D/|L|, f(y) = h(a y) e^{a y/2}
    solves Whittaker's equation y^2 f'' + (kappa y - a y^2) f' + c0 f = 0
    (``specfun.whittaker_equation``), which has no pole at 2s in Z<=0.  Every
    coefficient of ``casimir`` stands left of its derivatives and d_zbar f = 0,
    so C f = (sum_j S_j f^(j)) E (``_on_exponential``), and f^(j) = A_j f + B_j f'
    with A_0 = 1, B_0 = 0, A_{j+1} = A_j' + B_j Q and B_{j+1} = A_j + B_j' + B_j P,
    where P = a - kappa/y and Q = -c0/y^2.  The formal k is substituted once
    per distinct k, and the S_j are built once per (k, n, r).
    """
    ring = casimir.op_ring.ring
    dy = ((ring.index["y"], GaussianRational(1)),)
    kept = [(e, c) for e, c in casimir.terms.items() if not any(Coordinates.of(e).zbar)]
    by_k, by_index, out = {}, {}, []
    for f, k, eigenvalue in cases:
        index, s, kappa, arg = _whittaker_seed(f)
        k = Fraction(k)
        if k not in by_k:
            by_k[k] = [(e, c.subs({"k": k})) for e, c in kept]
        if (k, index) not in by_index:
            by_index[k, index] = _on_exponential(by_k[k], index, ring)
        eq = whittaker_equation(s, kappa)
        kappa, c0 = eq[1][1], eq[0][0]
        p = ring.var("pi").scale(arg) - ring.var("y", -1).scale(kappa)
        q = ring.var("y", -2).scale(-c0)
        a_j, b_j = ring.one(), ring.zero()
        A, B = PolySum(ring), PolySum(ring)
        for j, s_j in enumerate(by_index[k, index]):
            if j:
                a_j, b_j = a_j.diff(dy) + b_j * q, a_j + b_j.diff(dy) + b_j * p
            A.add_product(s_j, a_j)
            B.add_product(s_j, b_j)
        out.append((A.poly() - eigenvalue, B.poly()))
    return out


# -- operator annihilation / eigenvalue reports ------------------------------------


def _worst_residual(op, f: FourierExpansion, k_value, lam, points, ctx):
    """max_p |T f - lam f| / max(1, |f|) over the sample points, via jets on
    the operator's ``support_space``; lam None means T f alone.  Runs inside
    the caller's working-precision block."""
    space = support_space(f.lattice.N, [op])
    worst = mp.mpf(0)
    for tau, z in points:
        jet = f._jet_at(coordinate_jets(space, tau, z), ctx)
        val = op.apply_jet(jet, tau, z, k_value)
        if lam is not None:
            val = val - lam * jet.value
        worst = max(worst, abs(val) / max(mp.mpf(1), abs(jet.value)))
    return worst


def casimir_residual(f: FourierExpansion, casimir, k, points, ctx: PrecisionContext,
                     eigenvalue=0):
    """max_p |C^{k,L} f - eigenvalue f| / |f| over sample points, via jets;
    ``casimir`` is build_casimir_op of f's lattice, built once by the caller."""
    with ctx.working():
        return _worst_residual(casimir, f, to_mpc(Fraction(k)), to_mpc(eigenvalue),
                               points, ctx)


def heat_residual(f: FourierExpansion, points, ctx: PrecisionContext):
    """max_p |heat f| / |f| over sample points."""
    op = build_heat(f.lattice)
    with ctx.working():
        return _worst_residual(op, f, None, None, points, ctx)


# -- torsion specialization --------------------------------------------------------


def specialize_torsion(f, lam, mu):
    """Specialize z = lam tau + mu.

    On a function handle f(tau, z) the result is a one-variable handle, and
    lam and mu must have one length; on a FourierExpansion of
    constant-profile terms it is the list of one-variable terms (exponent,
    coeff * e(r.mu)) with exponent n + r.lam, and lam and mu must have the
    expansion's rank.
    """
    lam = [Fraction(x) for x in lam]
    mu = [Fraction(x) for x in mu]

    if isinstance(f, FourierExpansion):
        f.lattice._of_rank(lam)
        f.lattice._of_rank(mu)
        out = []
        for index, (tag, params, coeff) in f.sorted_items():
            if tag != "constant":
                raise DomainError("expansion specialization expects holomorphic terms")
            expo = index.n + sum(Fraction(a) * b for a, b in zip(index.r, lam))
            phase = sum(Fraction(a) * b for a, b in zip(index.r, mu))
            out.append((expo, coeff, phase))
        return out

    if len(lam) != len(mu):
        raise DomainError(f"lam has {len(lam)} entries and mu {len(mu)}")

    def handle(tau):
        z = [to_mpc(a) * tau + to_mpc(b) for a, b in zip(lam, mu)]
        return f(tau, z)

    return handle
