"""Kloosterman sums, Casimir eigenvalues, and Poincare-series Fourier
coefficients for lattice-index Jacobi forms of both kinds (Maass and
skew-holomorphic), including the data needed for the weight k vs N+2-k
duality checks.

A Kloosterman sum is exact integer work up to its last step: one pass over
lambda in (Z/c)^N histograms the pairs (L[lam] + r.lam + n, r'.lam) mod c,
each unit d relabels the bins, and the collected phases num/c index a
cached table of the c-th roots of unity at the working precision; the
prefactor e(-r^T L^{-1} r'/2c) is cached by its exact phase.  The
r' and -r' sides of a symmetrized coefficient share D', so they share one
prefactor, Whittaker profile, c-power and Bessel value per c.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul

from mpmath import mp

from .errors import DomainError
from .gaussian import GaussianRational
from .lattice import GramLattice, discriminant
from .precision import PrecisionContext, e_of, to_mpc, to_mpf
from .specfun import bessel_I, bessel_J, whittaker_W_renorm

# (c, precision) pairs whose tables of c-th roots of unity are kept, and
# (phase, precision) pairs whose prefactors are kept
_ROOT_TABLES = 256
_PREFACTORS = 4096


@lru_cache(maxsize=_ROOT_TABLES)
def _roots_of_unity(c: int, prec: int):
    """(e(0/c), e(1/c), ..., e((c-1)/c)) at prec bits, exactly as e_of gives
    them at that precision."""
    with mp.workprec(prec):
        return tuple(e_of(Fraction(j, c)) for j in range(c))


@lru_cache(maxsize=_PREFACTORS)
def _root(phase: Fraction, prec: int):
    """e(phase) at prec bits, exactly as e_of gives it at that precision."""
    with mp.workprec(prec):
        return e_of(phase)


def kloosterman(c: int, L: GramLattice, n, r, nprime, rprime,
                ctx: PrecisionContext):
    """The higher Kloosterman sum K_{c,L}(n, r, n', r').

    Prefactor e(-r^T L^{-1} r' / 2c) times the sum over units d mod c and
    lambda in (Z/c)^N of e((dbar L[lam] + dbar r.lam + dbar n + n' d
    - r'.lam)/c).  The lambda part does not depend on d: one pass over
    (Z/c)^N, in integers, histograms the pairs (a, b) = (L[lam] + r.lam + n,
    r'.lam) mod c, and each unit d, in increasing order, adds every bin's
    count at the phase (dbar a + n' d - b)/c.  Equal phases are collected
    exactly, in order of first appearance, and only then weighted by the
    cached table of c-th roots of unity at the working precision.
    """
    if c < 1:
        raise DomainError("c must be a positive integer")
    n = int(n)
    nprime = int(nprime)
    r = [int(x) for x in r]
    rprime = [int(x) for x in rprime]
    N = L.N
    # L[lam] = sum_i L_ii lam_i^2 + sum_{i<j} 2 L_ij lam_i lam_j; GramLattice
    # makes these coefficients integers
    terms = [(i, j, int((1 if i == j else 2) * L.entries[i][j]))
             for i in range(N) for j in range(i, N)]

    hist = {}
    for lam in product(range(c), repeat=N):
        q = sum([coef * lam[i] * lam[j] for i, j, coef in terms])
        pair = ((q + sum(map(mul, r, lam)) + n) % c, sum(map(mul, rprime, lam)) % c)
        hist[pair] = hist.get(pair, 0) + 1

    counts = {}
    for d in range(1, c + 1):
        if gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        nd = (nprime * d) % c
        for (a, b), cnt in hist.items():
            num = (dbar * a + nd - b) % c
            counts[num] = counts.get(num, 0) + cnt

    pre_phase = -L.inv_form(r, rprime) / (2 * c)
    with ctx.working():
        roots = _roots_of_unity(c, mp.prec)
        acc = mp.mpc(0)
        for num, cnt in counts.items():
            acc += cnt * roots[num]
        return _root(pre_phase, mp.prec) * acc


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


def annihilation_roots(k, N: int) -> list:
    """The two s at which casimir_eigenvalue(k, N, s) vanishes, exactly:
    k/2 - N/4 and 1 + N/4 - k/2."""
    k = Fraction(k)
    return [k / 2 - Fraction(N, 4), 1 + Fraction(N, 4) - k / 2]


def _empty_c_sum(c_max: int) -> bool:
    """True when c_max = 0 leaves a c-sum without terms; DomainError when
    c_max < 0."""
    if c_max < 0:
        raise DomainError("c_max must be nonnegative")
    return c_max == 0


def _prefactor(L: GramLattice, p: int):
    """2^{1-N/2} pi i^p / sqrt|L|, the leading factor of the Maass (p = -k)
    and skew (p = 1 - k) Poincare coefficients."""
    return (mp.power(2, 1 - mp.mpf(L.N) / 2) * mp.pi
            * (GaussianRational(0, 1) ** p).to_mpc(mp) / mp.sqrt(to_mpf(L.det)))


def _pow_ratio(num, den, expo: Fraction):
    """(num/den)^expo with the principal branch for negative ratios."""
    ratio = to_mpc(Fraction(num) / Fraction(den))
    return mp.power(ratio, to_mpf(expo))


def poincare_coeff_b(y, s, k, L: GramLattice, n, r, nprime, rprime,
                     c_max: int, ctx: PrecisionContext):
    """One unsymmetrized Fourier coefficient of the Maass Poincare series.

    Returns (value, tail_ratio): the displayed product of the Gamma ratio,
    the (D'/D) power, the y-profile e(-iD'y/4|L|) W_{s,k-N/2}(pi D'y/|L|),
    and the truncated c-sum; tail_ratio is |last term|/|sum|, the recorded
    truncation heuristic.
    """
    return _coeff_b_sides(y, s, k, L, n, r, nprime, [rprime], c_max, ctx,
                          include_profile=True)[0]


def _coeff_b_sides(y, s, k, L: GramLattice, n, r, nprime, rprimes, c_max: int,
                   ctx: PrecisionContext, *, include_profile: bool):
    """poincare_coeff_b at (n', r') for each r' of rprimes, which share D'
    (as r' and -r' do): one prefactor and profile, and one c-sum pass.
    Without the profile (``include_profile=False``) the values are the
    profile-stripped ones that the duality statements concern."""
    k = int(k)
    s = Fraction(s)
    N = L.N
    if s <= 1 + Fraction(N, 2):
        raise DomainError("convergence requires Re(s) > 1 + N/2")
    D = discriminant(L, n, r)
    Dp = discriminant(L, nprime, rprimes[0])
    if D == 0:
        raise DomainError("seed index must have D != 0")
    if Dp == 0:
        raise DomainError(
            "D' = 0 coefficients are unsupported: the defining constant "
            "a_s(n', r') is not specified"
        )

    with ctx.working():
        if _empty_c_sum(c_max):
            return [(mp.mpc(0), mp.mpf(0)) for _ in rprimes]
        sgn = 1 if Dp > 0 else -1
        gam = mp.gamma(to_mpf(2 * s)) / mp.gamma(
            to_mpf(s - sgn * (Fraction(k, 2) - Fraction(N, 4)))
        )
        pref = (_prefactor(L, -k) * gam
                * _pow_ratio(Dp, D, Fraction(k, 2) - Fraction(N + 2, 4)))
        if include_profile:
            yv = to_mpf(y)
            arg = mp.pi * to_mpf(Dp / L.det) * yv
            pref *= mp.exp(arg / 2) * whittaker_W_renorm(
                s, Fraction(k) - Fraction(N, 2), arg, ctx
            )
        sides = poincare_csum(s, L, n, r, nprime, rprimes, 1, c_max, ctx)
        return [(pref * acc, last / abs(acc) if acc != 0 else mp.mpf(0))
                for acc, last in sides]


def poincare_csum(s, L: GramLattice, n, r, nprime, rprimes,
                  c_lo: int, c_hi: int, ctx: PrecisionContext):
    """Partial sums over c in [c_lo, c_hi] of c^{-(N+2)/2} K_c Bessel(..),
    one for each r' of rprimes.

    The r' must share D' (as r' and -r' do), so each c has one power and
    one Bessel value for all of them.  Returns [(sum, |last term|)] in the
    order of rprimes, each summed in c-order.  J is used when D D' > 0 and
    I otherwise; the skew-holomorphic coefficients use it at
    s = (2k - N)/4.
    """
    s = Fraction(s)
    N = L.N
    D = discriminant(L, n, r)
    Dp = discriminant(L, nprime, rprimes[0])
    if any(discriminant(L, nprime, rp) != Dp for rp in rprimes):
        raise DomainError("the r' sides of one c-sum must share D'")
    with ctx.working():
        bessel = bessel_J if D * Dp > 0 else bessel_I
        xbase = mp.pi * mp.sqrt(abs(to_mpf(Dp * D))) / to_mpf(L.det)
        accs = [mp.mpc(0)] * len(rprimes)
        lasts = [mp.mpf(0)] * len(rprimes)
        for c in range(c_lo, c_hi + 1):
            w = mp.power(c, -mp.mpf(N + 2) / 2)
            bv = bessel(2 * s - 1, xbase / c, ctx)
            for i, rp in enumerate(rprimes):
                term = w * kloosterman(c, L, n, r, nprime, rp, ctx) * bv
                accs[i] += term
                lasts[i] = abs(term)
        return list(zip(accs, lasts))


def full_coeff_c(y, s, k, L: GramLattice, n, r, nprime, rprime, c_max: int,
                 ctx: PrecisionContext):
    """b(n', r') + (-1)^k b(n', -r'), the symmetrized coefficient."""
    (b1, t1), (b2, t2) = _coeff_b_sides(
        y, s, k, L, n, r, nprime, [rprime, [-x for x in rprime]], c_max, ctx,
        include_profile=True)
    with ctx.working():
        return b1 + (-1) ** int(k) * b2, max(t1, t2)


def skew_poincare_coeff(k, L: GramLattice, n, r, nprime, rprime, c_max: int,
                        ctx: PrecisionContext, *,
                        symmetrized: bool = True):
    """Fourier coefficient of the skew-holomorphic Poincare series.

    Requires k >= 3 and D, D' > 0; note the -r' inside the Kloosterman sum.
    The symmetrized value adds (-1)^k times the side at -r'.
    """
    k = int(k)
    N = L.N
    if k < 3:
        raise DomainError("skew Poincare series require k >= 3")
    D = discriminant(L, n, r)
    Dp = discriminant(L, nprime, rprime)
    if D <= 0 or Dp <= 0:
        raise DomainError("skew coefficients require D, D' > 0")

    with ctx.working():
        if _empty_c_sum(c_max):
            return mp.mpc(0)
        pref = _prefactor(L, 1 - k) * _pow_ratio(Dp, D, Fraction(k, 2) - Fraction(N + 2, 4))
        # at s = (2k - N)/4 the c-sum's J_{2s-1} is J_{k-(N+2)/2}
        sides = [[-x for x in rprime]] + ([rprime] if symmetrized else [])
        sums = poincare_csum(Fraction(2 * k - N, 4), L, n, r, nprime, sides,
                             1, c_max, ctx)
        b = pref * sums[0][0]
        if not symmetrized:
            return b
        return b + (-1) ** k * (pref * sums[1][0])


def duality_report(s, k, L: GramLattice, index_pairs, c_max: int,
                   ctx: PrecisionContext):
    """Weight k vs N+2-k coefficient ratios over profile-stripped values.

    The primary table pairs the unsymmetrized coefficients b, whose ratio
    the Kloosterman-symmetry mechanism makes exactly constant at matched
    c_max.  The symmetrized c-ratios are recorded alongside: for even N the
    two tables agree; for odd N the (-1)^k symmetrization flips sign on the
    dual side (and with |L| = 1 the odd-weight side vanishes identically),
    so the c-table may be degenerate and is never asserted.  A c-ratio is
    None where either side's two terms cancel to within eps of their sizes,
    so rounding noise is never reported as a ratio.  Ratios are reported,
    not asserted.
    """
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
            (bA, _), (bA_neg, _) = _coeff_b_sides(
                1, s, k, L, n, r, npd, [rpd, [-x for x in rpd]], c_max, ctx,
                include_profile=False)
            (bB, _), (bB_neg, _) = _coeff_b_sides(
                1, s, kd, L, npd, rpd, n, [r, [-x for x in r]], c_max, ctx,
                include_profile=False)
            ratios_b.append(bA / bB if abs(bB) > ctx.eps else None)
            # the symmetrized c of full_coeff_c, from the same four b
            cA = bA + (-1) ** int(k) * bA_neg
            cB = bB + (-1) ** kd * bB_neg
            cancelled = (abs(cA) <= ctx.eps * (abs(bA) + abs(bA_neg))
                         or abs(cB) <= ctx.eps * (abs(bB) + abs(bB_neg)))
            ratios_c.append(None if cancelled else cA / cB)
        mean_b, spread_b = _stats(ratios_b)
        mean_c, spread_c = _stats(ratios_c)
    return {
        "k": int(k), "k_dual": kd, "c_max": c_max,
        "b_ratios": ratios_b, "b_mean": mean_b, "b_relative_spread": spread_b,
        "c_ratios": ratios_c, "c_mean": mean_c, "c_relative_spread": spread_c,
    }
