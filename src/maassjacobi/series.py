"""Kloosterman sums, Casimir eigenvalues, and Poincare-series Fourier
coefficients for lattice-index Jacobi forms of both kinds (Maass and
skew-holomorphic), including the data needed for the weight k vs N+2-k
duality checks.

Kloosterman phases are exact rationals; only the final roots of unity are
evaluated at working precision.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from mpmath import mp

from .errors import DomainError
from .gaussian import GaussianRational
from .lattice import GramLattice, discriminant
from .precision import PrecisionContext, e_of, to_mpc, to_mpf
from .specfun import bessel_I, bessel_J, whittaker_W_renorm


def kloosterman(c: int, L: GramLattice, n, r, nprime, rprime,
                ctx: PrecisionContext = None):
    """The higher Kloosterman sum K_{c,L}(n, r, n', r').

    Prefactor e(-r^T L^{-1} r' / 2c) times the sum over units d mod c and
    lambda in (Z/c)^N of e((dbar L[lam] + dbar r.lam + dbar n + n' d
    - r'.lam)/c).  All phases are exact rationals; identical phases are
    collected before any floating evaluation.
    """
    ctx = ctx or PrecisionContext()
    if c < 1:
        raise DomainError("c must be a positive integer")
    n = int(n)
    nprime = int(nprime)
    r = [int(x) for x in r]
    rprime = [int(x) for x in rprime]
    N = L.N

    counts = {}
    for d in range(1, c + 1):
        if gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        nd = (nprime * d) % c
        for lam in product(range(c), repeat=N):
            q = L.quad(lam)
            assert q.denominator == 1
            num = (
                dbar * (int(q) + sum(a * b for a, b in zip(r, lam)) + n)
                + nd
                - sum(a * b for a, b in zip(rprime, lam))
            ) % c
            counts[num] = counts.get(num, 0) + 1

    pre_phase = -Fraction(
        sum(rr * x for rr, x in zip(r, L.inv_apply(rprime)))
    ) / (2 * c)
    with ctx.working():
        acc = mp.mpc(0)
        for num, cnt in counts.items():
            acc += cnt * e_of(Fraction(num, c))
        return e_of(pre_phase) * acc


def casimir_eigenvalue(k, N: int, s) -> Fraction:
    """Eigenvalue of the Casimir operator on the Whittaker seed, exactly:
    2s(1-s) + (k^2 - k(N+2) + N(N+4)/4)/2.

    Sign convention: this is the eigenvalue of the operator the toolkit
    builds (pinned by the enveloping-algebra bridge and verified by jets);
    it is the negative of the closed form printed alongside the seed, whose
    overall sign does not satisfy the eigenvalue equation.  Both
    annihilation roots s = k/2 - N/4 and s = 1 + N/4 - k/2, and the
    s <-> 1-s symmetry, are unaffected.
    """
    k = Fraction(k)
    s = Fraction(s)
    return 2 * s * (1 - s) + Fraction(1, 2) * (
        k * k - k * (N + 2) + Fraction(N * (N + 4), 4)
    )


def _i_power(k: int):
    return (GaussianRational(0, 1) ** int(k)).to_mpc(mp)


def _pow_ratio(num, den, expo: Fraction):
    """(num/den)^expo with the principal branch for negative ratios."""
    ratio = to_mpc(Fraction(num) / Fraction(den))
    return mp.power(ratio, to_mpf(expo))


def poincare_coeff_b(y, s, k, L: GramLattice, n, r, nprime, rprime,
                     c_max: int, ctx: PrecisionContext = None, *,
                     include_profile: bool = True):
    """One unsymmetrized Fourier coefficient of the Maass Poincare series.

    Returns (value, tail_ratio): the displayed product of the Gamma ratio,
    the (D'/D) power, the y-profile e(-iD'y/4|L|) W_{s,k-N/2}(pi D'y/|L|)
    (skippable: the duality statements concern the profile-stripped
    values), and the truncated c-sum; tail_ratio is |last term|/|sum|, the
    recorded truncation heuristic.
    """
    ctx = ctx or PrecisionContext()
    k = int(k)
    s = Fraction(s)
    N = L.N
    if s <= 1 + Fraction(N, 2):
        raise DomainError("convergence requires Re(s) > 1 + N/2")
    D = discriminant(L, n, r)
    Dp = discriminant(L, nprime, rprime)
    if D == 0:
        raise DomainError("seed index must have D != 0")
    if Dp == 0:
        raise DomainError(
            "D' = 0 coefficients are unsupported: the defining constant "
            "a_s(n', r') is not specified"
        )
    if c_max < 0:
        raise DomainError("c_max must be nonnegative")

    with ctx.working():
        if c_max == 0:
            return mp.mpc(0), mp.mpf(0)
        sgn = 1 if Dp > 0 else -1
        gam = mp.gamma(to_mpf(2 * s)) / mp.gamma(
            to_mpf(s - sgn * (Fraction(k, 2) - Fraction(N, 4)))
        )
        pref = (
            mp.power(2, 1 - mp.mpf(N) / 2)
            * mp.pi
            * _i_power(-k)
            / mp.sqrt(to_mpf(L.det))
            * gam
            * _pow_ratio(Dp, D, Fraction(k, 2) - Fraction(N + 2, 4))
        )
        if include_profile:
            yv = mp.mpf(y) if not isinstance(y, Fraction) else to_mpf(y)
            arg = mp.pi * to_mpf(Dp / L.det) * yv
            pref *= mp.exp(arg / 2) * whittaker_W_renorm(
                s, Fraction(k) - Fraction(N, 2), arg, ctx
            )
        acc, last = poincare_csum(s, k, L, n, r, nprime, rprime, 1, c_max, ctx)
        tail = last / abs(acc) if acc != 0 else mp.mpf(0)
        return pref * acc, tail


def poincare_csum(s, k, L: GramLattice, n, r, nprime, rprime,
                  c_lo: int, c_hi: int, ctx: PrecisionContext = None):
    """Partial sum over c in [c_lo, c_hi] of c^{-(N+2)/2} K_c Bessel(..).

    Returns (sum, |last term|), summed in c-order.  J is used when
    D D' > 0 and I otherwise; the skew-holomorphic coefficients use it at
    s = (2k - N)/4.
    """
    ctx = ctx or PrecisionContext()
    s = Fraction(s)
    N = L.N
    D = discriminant(L, n, r)
    Dp = discriminant(L, nprime, rprime)
    with ctx.working():
        bessel = bessel_J if D * Dp > 0 else bessel_I
        xbase = mp.pi * mp.sqrt(abs(to_mpf(Dp * D))) / to_mpf(L.det)
        acc = mp.mpc(0)
        last = mp.mpf(0)
        for c in range(c_lo, c_hi + 1):
            kl = kloosterman(c, L, n, r, nprime, rprime, ctx)
            term = mp.power(c, -mp.mpf(N + 2) / 2) * kl * bessel(
                2 * s - 1, xbase / c, ctx
            )
            acc += term
            last = abs(term)
        return acc, last


def full_coeff_c(y, s, k, L: GramLattice, n, r, nprime, rprime, c_max: int,
                 ctx: PrecisionContext = None, *, include_profile: bool = True):
    """b(n', r') + (-1)^k b(n', -r'), the symmetrized coefficient."""
    b1, t1 = poincare_coeff_b(y, s, k, L, n, r, nprime, rprime, c_max, ctx,
                              include_profile=include_profile)
    b2, t2 = poincare_coeff_b(y, s, k, L, n, r, nprime,
                              [-x for x in rprime], c_max, ctx,
                              include_profile=include_profile)
    return b1 + (-1) ** int(k) * b2, max(t1, t2)


def skew_poincare_coeff(k, L: GramLattice, n, r, nprime, rprime, c_max: int,
                        ctx: PrecisionContext = None, *,
                        symmetrized: bool = True):
    """Fourier coefficient of the skew-holomorphic Poincare series.

    Requires k >= 3 and D, D' > 0; note the -r' inside the Kloosterman sum.
    """
    ctx = ctx or PrecisionContext()
    k = int(k)
    N = L.N
    if k < 3:
        raise DomainError("skew Poincare series require k >= 3")
    D = discriminant(L, n, r)
    Dp = discriminant(L, nprime, rprime)
    if D <= 0 or Dp <= 0:
        raise DomainError("skew coefficients require D, D' > 0")
    if c_max < 0:
        raise DomainError("c_max must be nonnegative")

    def one_sided(rp):
        with ctx.working():
            if c_max == 0:
                return mp.mpc(0)
            pref = (
                mp.power(2, 1 - mp.mpf(N) / 2)
                * mp.pi
                * _i_power(-k + 1)
                / mp.sqrt(to_mpf(L.det))
                * _pow_ratio(Dp, D, Fraction(k, 2) - Fraction(N + 2, 4))
            )
            # at s = (2k - N)/4 the c-sum's J_{2s-1} is J_{k-(N+2)/2}
            acc, _ = poincare_csum(Fraction(2 * k - N, 4), k, L, n, r, nprime,
                                   [-x for x in rp], 1, c_max, ctx)
            return pref * acc

    b = one_sided(rprime)
    if not symmetrized:
        return b
    return b + (-1) ** k * one_sided([-x for x in rprime])


def duality_report(s, k, L: GramLattice, index_pairs, c_max: int,
                   ctx: PrecisionContext = None):
    """Weight k vs N+2-k coefficient ratios over profile-stripped values.

    The primary table pairs the unsymmetrized coefficients b, whose ratio
    the Kloosterman-symmetry mechanism makes exactly constant at matched
    c_max.  The symmetrized c-ratios are recorded alongside: for even N the
    two tables agree; for odd N the (-1)^k symmetrization flips sign on the
    dual side (and with |L| = 1 the odd-weight side vanishes identically),
    so the c-table may be degenerate and is never asserted.  Ratios are
    reported, not asserted.
    """
    ctx = ctx or PrecisionContext()
    N = L.N
    kd = N + 2 - int(k)

    def _stats(ratios):
        clean = [x for x in ratios if x is not None]
        if not clean:
            return None, None
        mean = sum(clean) / len(clean)
        denom = max(abs(mean), mp.mpf("1e-30"))
        return mean, max(abs(x - mean) for x in clean) / denom

    ratios_b, ratios_c = [], []
    with ctx.working():
        for (n, r), (npd, rpd) in index_pairs:
            bA, _ = poincare_coeff_b(1, s, k, L, n, r, npd, rpd, c_max, ctx,
                                     include_profile=False)
            bB, _ = poincare_coeff_b(1, s, kd, L, npd, rpd, n, r, c_max, ctx,
                                     include_profile=False)
            ratios_b.append(bA / bB if abs(bB) > ctx.eps else None)
            # the symmetrized c of full_coeff_c, reusing bA and bB
            bA_neg, _ = poincare_coeff_b(1, s, k, L, n, r, npd, [-x for x in rpd],
                                         c_max, ctx, include_profile=False)
            bB_neg, _ = poincare_coeff_b(1, s, kd, L, npd, rpd, n, [-x for x in r],
                                         c_max, ctx, include_profile=False)
            cA = bA + (-1) ** int(k) * bA_neg
            cB = bB + (-1) ** kd * bB_neg
            ratios_c.append(cA / cB if abs(cB) > ctx.eps else None)
        mean_b, spread_b = _stats(ratios_b)
        mean_c, spread_c = _stats(ratios_c)
    return {
        "k": int(k), "k_dual": kd, "c_max": c_max,
        "b_ratios": ratios_b, "b_mean": mean_b, "b_relative_spread": spread_b,
        "c_ratios": ratios_c, "c_mean": mean_c, "c_relative_spread": spread_c,
    }
