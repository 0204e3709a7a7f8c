"""Kloosterman sums, Casimir eigenvalues, and Poincare-series Fourier
coefficients for lattice-index Jacobi forms of both kinds (Maass and
skew-holomorphic), including the data needed for the weight k vs N+2-k
duality checks.

A Kloosterman sum is exact integer work up to its last step: one pass over
lambda in (Z/c)^N histograms the pairs (L[lam] + r.lam + n, r'.lam) mod c,
and each unit d relabels the bins into counts indexed by phase j/c.  The
sum of the counts times e(j/c) runs over a cached table of the c-th roots
of unity in the integer form of ``fixedpoint``, so it is exact, does not
depend on the order of its terms, and is rounded once; the prefactor
e(-r^T L^{-1} r'/2c) is cached by its exact phase.

A c-sum takes one r' and sums both signs, as the symmetrized coefficient
b(n', r') + (-1)^k b(n', -r') reads them, with one histogram per seed and
c: d -> -d takes the phase j of r' to the phase -j of -r', so the -r'
counts are the r' counts read backwards, and a zero r' is one term for
both.  D, D', L^{-1}(r, r') and each c's power c^{-(N+2)/2} and Bessel
value are taken once for all the sums of a call (the weight-k and dual
seeds of a duality pair share |D D'|).  Nothing is kept between calls but
the tables of roots and prefactors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul

from mpmath import mp

from . import fixedpoint
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
    """(re, im, e): e(j/c) = (re[j] + i im[j]) 2^e for j = 0..c-1, the
    values e_of gives at prec bits, in ``fixedpoint`` integer form."""
    with mp.workprec(prec):
        return fixedpoint.to_ints([e_of(Fraction(j, c)) for j in range(c)])


@lru_cache(maxsize=_PREFACTORS)
def _root(phase: Fraction, prec: int):
    """e(phase) at prec bits, exactly as e_of gives it at that precision."""
    with mp.workprec(prec):
        return e_of(phase)


def _ints(v) -> tuple:
    return tuple(int(x) for x in v)


def _phase_counts(c: int, terms, n: int, r, nprime: int, rprime) -> list:
    """counts[j] = #{(d, lam) : (dbar (L[lam] + r.lam + n) + n' d - r'.lam)
    = j mod c} over units d mod c and lam in (Z/c)^N, exactly.

    The lambda part does not depend on d: one pass over (Z/c)^N histograms
    the pairs (a, b) = (L[lam] + r.lam + n, r'.lam) mod c, and each unit d
    adds every bin's count at the phase dbar a + n' d - b."""
    hist = {}
    for lam in product(range(c), repeat=len(r)):
        q = sum([coef * lam[i] * lam[j] for i, j, coef in terms])
        pair = ((q + sum(map(mul, r, lam)) + n) % c, sum(map(mul, rprime, lam)) % c)
        hist[pair] = hist.get(pair, 0) + 1
    counts = [0] * c
    for d in range(1, c + 1):
        if gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        nd = nprime * d
        for (a, b), cnt in hist.items():
            counts[(dbar * a + nd - b) % c] += cnt
    return counts


def _phase_sum(counts, c: int):
    """sum_j counts[j] e(j/c), summed exactly over the integer roots of unity
    at the working precision and rounded once."""
    re, im, e = _roots_of_unity(c, mp.prec)
    return fixedpoint.rounded([sum(map(mul, counts, re))],
                              [sum(map(mul, counts, im))], e)[0]


def _kloosterman_at(c: int, inv_form: Fraction, counts):
    """K_c(n, r, n', r') at the working precision, given L^{-1}(r, r') and
    the phase counts of (n, r, n', r')."""
    return _root(-inv_form / (2 * c), mp.prec) * _phase_sum(counts, c)


def kloosterman(c: int, L: GramLattice, n, r, nprime, rprime,
                ctx: PrecisionContext):
    """The higher Kloosterman sum K_{c,L}(n, r, n', r').

    Prefactor e(-r^T L^{-1} r' / 2c) times the sum over units d mod c and
    lambda in (Z/c)^N of e((dbar L[lam] + dbar r.lam + dbar n + n' d
    - r'.lam)/c).  The number of (d, lambda) at each phase j/c is counted
    exactly in integers; the sum of those counts times e(j/c) is then
    taken exactly over the integer form of the cached c-th roots of unity
    at the working precision and rounded once, so it does not depend on
    the order of its terms.  ``poincare_csum`` composes the same pieces,
    once per call, for its c-range.
    """
    if c < 1:
        raise DomainError("c must be a positive integer")
    r, rprime = _ints(r), _ints(rprime)
    with ctx.working():
        return _kloosterman_at(c, L.inv_form(r, rprime), _phase_counts(
            c, L.quad_terms, int(n), r, int(nprime), rprime))


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


def _prefactor(L: GramLattice, p: int):
    """2^{1-N/2} pi i^p / sqrt|L|, the leading factor of the Maass (p = -k)
    and skew (p = 1 - k) Poincare coefficients."""
    return (mp.power(2, 1 - mp.mpf(L.N) / 2) * mp.pi
            * to_mpc(GaussianRational(0, 1) ** p) / mp.sqrt(to_mpf(L.det)))


def _pow_ratio(num, den, expo: Fraction):
    """(num/den)^expo with the principal branch for negative ratios."""
    ratio = to_mpc(Fraction(num) / Fraction(den))
    return mp.power(ratio, to_mpf(expo))


def _weight_factor(s: Fraction, k: int, L: GramLattice, sgn: int):
    """2^{1-N/2} pi i^{-k} Gamma(2s) / (sqrt|L| Gamma(s - sgn (k/2 - N/4))) of
    a weight-k Maass coefficient whose D' has sign sgn; exactly 0 at a pole
    of the lower Gamma, as 1/Gamma is entire (s = k/2 - N/4 when sgn = 1)."""
    a = s - sgn * (Fraction(k, 2) - Fraction(L.N, 4))
    if a <= 0 and a.denominator == 1:
        return mp.mpc(0)
    return _prefactor(L, -k) * (mp.gamma(to_mpf(2 * s)) / mp.gamma(to_mpf(a)))


def poincare_coeff_b(y, s, k, L: GramLattice, n, r, nprime, rprime,
                     c_max: int, ctx: PrecisionContext):
    """One unsymmetrized Fourier coefficient of the Maass Poincare series.

    Returns (value, tail_ratio): the displayed product of the weight factor
    (``_weight_factor``), the (D'/D) power, the y-profile
    e(-iD'y/4|L|) W_{s,k-N/2}(pi D'y/|L|), and the truncated c-sum;
    tail_ratio is |last term|/|sum|, the recorded truncation heuristic.
    """
    return _coeff_b_sides(y, s, k, L, n, r, nprime, rprime, c_max, ctx)[0]


def _coeff_b_discriminants(s: Fraction, L: GramLattice, n, r, nprime, rprime):
    """(D, D') of the coefficient b(n', r') of the seed (n, r), after the
    checks that it is defined."""
    if s <= 1 + Fraction(L.N, 2):
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
    return D, Dp


def _coeff_b_sides(y, s, k, L: GramLattice, n, r, nprime, rprime, c_max: int,
                   ctx: PrecisionContext):
    """poincare_coeff_b at (n', r') and at (n', -r'), which share D': one
    weight factor, power and profile, and one c-sum pass."""
    k = int(k)
    s = Fraction(s)
    N = L.N
    D, Dp = _coeff_b_discriminants(s, L, n, r, nprime, rprime)
    if y <= 0:
        raise DomainError("the profile needs a point of H: y = Im tau > 0")
    with ctx.working():
        sides = poincare_csum(s, L, n, r, nprime, rprime, c_max, ctx,
                              discriminants=(D, Dp))
        arg = mp.pi * to_mpf(Dp / L.det) * to_mpf(y)
        profile = mp.exp(arg / 2) * whittaker_W_renorm(s, k - Fraction(N, 2), arg, ctx)
        pref = (_weight_factor(s, k, L, 1 if Dp > 0 else -1)
                * _pow_ratio(Dp, D, Fraction(k, 2) - Fraction(N + 2, 4)) * profile)
        return [(pref * acc, last / abs(acc) if acc != 0 else mp.mpf(0))
                for acc, last in sides]


def poincare_csum(s, L: GramLattice, n, r, nprime, rprime, c_max: int,
                  ctx: PrecisionContext, *, dual=False, discriminants):
    """Partial sums over c = 1..c_max of c^{-(N+2)/2} K_c Bessel(..) at the
    seed (n, r, n', r') and at (n, r, n', -r'), in that order; with ``dual``,
    then those of K_c(n', r', n, r) and K_c(n', r', n, -r), the c-sums of
    the seed (n', r') that the weight N+2-k side of a duality pair takes.

    All of them share |D D'|, so each c has one power and one Bessel value.
    ``discriminants`` is (D, D'), which the caller has checked.  Returns
    [(sum, |last term|)], each summed in c-order and each term ``w * K * bv``
    with K as ``kloosterman`` gives it; c_max = 0 gives zero sums.  Each
    seed makes one ``_phase_counts`` pass per c: its second sign reads the
    counts at -j with the form L^{-1} negated, and is the first when the
    flipped vector is zero.  The dual seed's counts equal the seed's, by
    (d, lam) -> (dbar, -dbar lam), but are counted on their own: they are
    ``verify duality``'s one independent witness of that symmetry.  J is
    used when D D' > 0 and I otherwise; the skew-holomorphic coefficients
    use it at s = (2k - N)/4.
    """
    s = Fraction(s)
    N = L.N
    if c_max < 0:
        raise DomainError("c_max must be nonnegative")
    D, Dp = discriminants
    n, nprime, r, rprime = int(n), int(nprime), _ints(r), _ints(rprime)
    seeds = [(n, r, nprime, rprime)] + ([(nprime, rprime, n, r)] if dual else [])
    forms = [L.inv_form(ra, rb) for _, ra, _, rb in seeds]
    with ctx.working():
        bessel = bessel_J if D * Dp > 0 else bessel_I
        xbase = mp.pi * mp.sqrt(abs(to_mpf(Dp * D))) / to_mpf(L.det)
        accs = [mp.mpc(0)] * (2 * len(seeds))
        lasts = [mp.mpf(0)] * len(accs)
        for c in range(1, c_max + 1):
            w = mp.power(c, -mp.mpf(N + 2) / 2)
            bv = bessel(2 * s - 1, xbase / c, ctx)
            terms = []
            for (a, ra, b, rb), form in zip(seeds, forms):
                counts = _phase_counts(c, L.quad_terms, a, ra, b, rb)
                term = w * _kloosterman_at(c, form, counts) * bv
                flipped = (w * _kloosterman_at(c, -form, counts[:1] + counts[:0:-1]) * bv
                           if any(rb) else term)
                terms += [term, flipped]
            for i, term in enumerate(terms):
                accs[i] += term
                lasts[i] = abs(term)
        return list(zip(accs, lasts))


def _symmetrized(b1, b2, k, ctx: PrecisionContext):
    """b1 + (-1)^k b2 at the working precision, or an exact zero where the
    two sides cancel, |b1 + (-1)^k b2| <= eps (|b1| + |b2|): what is left
    there is rounding residue, not a coefficient."""
    v = b1 + (-1) ** int(k) * b2
    return mp.mpc(0) if abs(v) <= ctx.eps * (abs(b1) + abs(b2)) else v


def full_coeff_c(y, s, k, L: GramLattice, n, r, nprime, rprime, c_max: int,
                 ctx: PrecisionContext):
    """b(n', r') + (-1)^k b(n', -r'), the symmetrized coefficient; an exact
    zero where the two sides cancel (``_symmetrized``)."""
    (b1, t1), (b2, t2) = _coeff_b_sides(y, s, k, L, n, r, nprime, rprime, c_max, ctx)
    with ctx.working():
        return _symmetrized(b1, b2, k, ctx), max(t1, t2)


def skew_poincare_coeff(k, L: GramLattice, n, r, nprime, rprime, c_max: int,
                        ctx: PrecisionContext):
    """Fourier coefficient of the skew-holomorphic Poincare series.

    Requires k >= 3 and D, D' > 0; note the -r' inside the Kloosterman sum.
    The value adds (-1)^k times the side at -r', and is an exact zero
    where the two sides cancel (``_symmetrized``).
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
        # at s = (2k - N)/4 the c-sum's J_{2s-1} is J_{k-(N+2)/2}
        (plus, _), (minus, _) = poincare_csum(Fraction(2 * k - N, 4), L, n, r, nprime,
                                              rprime, c_max, ctx, discriminants=(D, Dp))
        pref = _prefactor(L, 1 - k) * _pow_ratio(Dp, D, Fraction(k, 2) - Fraction(N + 2, 4))
        return _symmetrized(pref * minus, pref * plus, k, ctx)


def duality_report(s, k, L: GramLattice, index_pairs, c_max: int,
                   ctx: PrecisionContext):
    """Weight k vs N+2-k coefficient ratios over profile-stripped values.

    The primary table pairs the unsymmetrized coefficients b, whose ratio
    the Kloosterman-symmetry mechanism makes exactly constant at matched
    c_max >= 1.  The symmetrized c-ratios are recorded alongside: for even
    N the two tables agree; for odd N the (-1)^k symmetrization flips sign
    on the dual side (and with |L| = 1 the odd-weight side vanishes
    identically), so the c-table may be degenerate and is never asserted.
    A c-ratio is None where either side's two terms cancel
    (``_symmetrized``), so rounding noise is never reported as a ratio.
    Ratios are reported, not asserted.  The two sides of a pair have the
    same |D D'|, so one c-sum pass serves both, and the weight factor is
    taken once per weight and sign of D'.
    """
    N = L.N
    k = int(k)
    kd = N + 2 - k
    s = Fraction(s)
    if c_max < 1:
        raise DomainError("duality ratios need c_max >= 1")

    def _stats(ratios):
        clean = [x for x in ratios if x is not None]
        if not clean:
            return None, None
        mean = sum(clean) / len(clean)
        denom = max(abs(mean), mp.mpf("1e-30"))
        return mean, max(abs(x - mean) for x in clean) / denom

    weight = lru_cache(maxsize=None)(lambda kw, sgn: _weight_factor(s, kw, L, sgn))

    def _pref(kw, Dp, D):
        # the profile-free factor of a weight-kw coefficient at D' over D
        return (weight(kw, 1 if Dp > 0 else -1)
                * _pow_ratio(Dp, D, Fraction(kw, 2) - Fraction(N + 2, 4)))

    ratios_b, ratios_c = [], []
    with ctx.working():
        for (n, r), (npd, rpd) in index_pairs:
            D, Dp = _coeff_b_discriminants(s, L, n, r, npd, rpd)
            sums = poincare_csum(s, L, n, r, npd, rpd, c_max, ctx, dual=True,
                                 discriminants=(D, Dp))
            prefA, prefB = _pref(k, Dp, D), _pref(kd, D, Dp)
            bA, bA_neg, bB, bB_neg = (pref * acc for pref, (acc, _) in
                                      zip((prefA, prefA, prefB, prefB), sums))
            ratios_b.append(bA / bB if abs(bB) > ctx.eps else None)
            # the symmetrized c of full_coeff_c, from the same four b
            cA = _symmetrized(bA, bA_neg, k, ctx)
            cB = _symmetrized(bB, bB_neg, kd, ctx)
            ratios_c.append(None if cA == 0 or cB == 0 else cA / cB)
        mean_b, spread_b = _stats(ratios_b)
        mean_c, spread_c = _stats(ratios_c)
    return {
        "k": k, "k_dual": kd, "c_max": c_max,
        "b_ratios": ratios_b, "b_mean": mean_b, "b_relative_spread": spread_b,
        "c_ratios": ratios_c, "c_mean": mean_c, "c_relative_spread": spread_c,
    }
