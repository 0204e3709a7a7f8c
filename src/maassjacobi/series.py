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
e(-r^T L^{-1} r'/2c) is cached by its exact phase.  The root table is
conjugate-symmetric: the sum at -r' is the exact conjugate of that at r'.

A Poincare table is computed as one unit: ``poincare_table`` takes every
row (n', r') of one seed (n, r) at once and walks c outermost over all of
them (``_c_sums``), so each piece of work is taken once for the rows that
share it.  Per table: D, the weight factor of each sign of D' and the skew
prefactor; per distinct D': the (D'/D) power and the profile; per c: the
power c^{-(N+2)/2}; per (c, D D'): the Bessel value; per (c, r'): the
lambda histogram, which n' does not enter, and the prefactor root.  Each
row makes its own pass over the units d and takes one c-sum, whose
conjugate is its other side.  The one-row functions are the one-row case
of the table, and a row's value does not depend on the rows beside it.
Nothing is kept between calls but the tables of roots and prefactors.
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
    """(re, im, e): e(j/c) = (re[j] + i im[j]) 2^e for j = 0..c-1 at prec
    bits in ``fixedpoint`` integer form: e_of(j/c) for 2j < c, exactly -1
    at 2j = c, and at c - j the conjugate of entry j, as e_of(-j/c) is."""
    with mp.workprec(prec):
        half = [e_of(Fraction(j, c)) for j in range((c + 1) // 2)]
        middle = [mp.mpc(-1)] if c % 2 == 0 else []
        return fixedpoint.to_ints(half + middle + [mp.conj(z) for z in half[:0:-1]])


@lru_cache(maxsize=_PREFACTORS)
def _root(phase: Fraction, prec: int):
    """e(phase) at prec bits, exactly as e_of gives it at that precision."""
    with mp.workprec(prec):
        return e_of(phase)


def _integer(x, what: str) -> int:
    """x as an int; DomainError unless x is an integer in value."""
    if int(x) != x:
        raise DomainError(f"{what} must be an integer, not {x}")
    return int(x)


def _index(n, r, prime: str = ""):
    """(n, r) as an int and a tuple of ints, each checked by ``_integer``."""
    return _integer(n, "n" + prime), tuple(_integer(x, f"each entry of r{prime}") for x in r)


def _pair_histogram(c: int, terms, n: int, r, rprime) -> dict:
    """{(a, b): #lam} over lam in (Z/c)^N, with (a, b) = (L[lam] + r.lam + n,
    r'.lam) mod c: the part of the phase counts that n' does not enter."""
    hist = {}
    for lam in product(range(c), repeat=len(r)):
        q = sum([coef * lam[i] * lam[j] for i, j, coef in terms])
        pair = ((q + sum(map(mul, r, lam)) + n) % c, sum(map(mul, rprime, lam)) % c)
        hist[pair] = hist.get(pair, 0) + 1
    return hist


def _unit_counts(c: int, hist: dict, nprime: int) -> list:
    """counts[j] = #{(d, lam)} at the phase dbar a + n' d - b = j mod c, over
    units d mod c and the bins (a, b) of ``hist``, each bin counted as often
    as it holds lambdas."""
    counts = [0] * c
    for d in range(1, c + 1):
        if gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        nd = nprime * d
        for (a, b), cnt in hist.items():
            counts[(dbar * a + nd - b) % c] += cnt
    return counts


def _phase_counts(c: int, terms, n: int, r, nprime: int, rprime) -> list:
    """counts[j] = #{(d, lam) : (dbar (L[lam] + r.lam + n) + n' d - r'.lam)
    = j mod c} over units d mod c and lam in (Z/c)^N, exactly.

    The lambda part does not depend on d: one pass over (Z/c)^N histograms
    the pairs (a, b) (``_pair_histogram``), and one pass over the units d
    adds every bin's count at the phase dbar a + n' d - b."""
    return _unit_counts(c, _pair_histogram(c, terms, n, r, rprime), nprime)


def _phase_sum(counts, roots):
    """sum_j counts[j] e(j/c), summed exactly over ``roots``, the c-th roots
    of unity of ``_roots_of_unity`` at the working precision, and rounded
    once."""
    re, im, e = roots
    return fixedpoint.rounded([sum(map(mul, counts, re))],
                              [sum(map(mul, counts, im))], e)[0]


def kloosterman(c: int, L: GramLattice, n, r, nprime, rprime,
                ctx: PrecisionContext):
    """The higher Kloosterman sum K_{c,L}(n, r, n', r').

    Prefactor e(-r^T L^{-1} r' / 2c) times the sum over units d mod c and
    lambda in (Z/c)^N of e((dbar L[lam] + dbar r.lam + dbar n + n' d
    - r'.lam)/c).  The number of (d, lambda) at each phase j/c is counted
    exactly in integers; the sum of those counts times e(j/c) is then
    taken exactly over the integer form of the cached c-th roots of unity
    at the working precision and rounded once, so it does not depend on
    the order of its terms, and its value at -r' is the exact conjugate of
    its value at r'.  The c-sums of ``_c_sums`` compose the same pieces,
    each taken once for all the rows that share it.
    """
    c = _integer(c, "c")
    if c < 1:
        raise DomainError("c must be a positive integer")
    (n, r), (nprime, rprime) = _index(n, r), _index(nprime, rprime, "'")
    with ctx.working():
        counts = _phase_counts(c, L.quad_terms, n, r, nprime, rprime)
        return (_root(-L.inv_form(r, rprime) / (2 * c), mp.prec)
                * _phase_sum(counts, _roots_of_unity(c, mp.prec)))


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


def _converges(s, N: int) -> Fraction:
    """s as a Fraction, after the check that the Maass series converges."""
    s = Fraction(s)
    if s <= 1 + Fraction(N, 2):
        raise DomainError("convergence requires Re(s) > 1 + N/2")
    return s


def _check_defined(D, Dp):
    """The checks that a Maass coefficient at (D, D') is defined."""
    if D == 0:
        raise DomainError("seed index must have D != 0")
    if Dp == 0:
        raise DomainError(
            "D' = 0 coefficients are unsupported: the defining constant "
            "a_s(n', r') is not specified"
        )


def _c_sums(s: Fraction, L: GramLattice, seeds, c_max: int, ctx: PrecisionContext):
    """Partial sums over c = 1..c_max of c^{-(N+2)/2} K_c Bessel(..) for every
    row of every seed, walked c outermost; call it inside ctx.working().

    ``seeds`` is [(a, ra, rows)] and each row is (b, rb, D D'), with
    integers a, b, integer tuples ra, rb and D D' != 0.  Returns, seed after
    seed and row after row, (sum, |last term|) at K_c(a, ra, b, rb), whose
    conjugate is the sum at -rb, summed in c-order, each term ``w * K * bv``
    with K as ``kloosterman`` gives it; c_max = 0 gives zero sums.  J is
    used when D D' > 0 and I otherwise.

    What terms share is taken once: each c's power w; each (c, D D')'s
    Bessel value; each (c, seed, rb)'s histogram, form L^{-1}(ra, rb) and
    prefactor root e(-L^{-1}(ra, rb)/2c).  Each row makes its own unit pass,
    phase sum and term.  Seeds share the Bessel values only: each seed
    counts its own phases.
    """
    if c_max < 0:
        raise DomainError("c_max must be nonnegative")
    N, terms, prec = L.N, L.quad_terms, mp.prec
    nu = 2 * s - 1
    # (a, ra, rb, L^{-1}(ra, rb), [(slot, b, D D')]) per seed and distinct rb
    groups, slots, kinds = [], 0, {}
    for a, ra, rows in seeds:
        by_rb = {}
        for b, rb, DD in rows:
            by_rb.setdefault(rb, []).append((slots, b, DD))
            slots += 1
            if DD not in kinds:
                kinds[DD] = (bessel_J if DD > 0 else bessel_I,
                             mp.pi * mp.sqrt(abs(to_mpf(DD))) / to_mpf(L.det))
        groups += [(a, ra, rb, L.inv_form(ra, rb), members)
                   for rb, members in by_rb.items()]
    accs = [mp.mpc(0)] * slots
    lasts = [mp.mpf(0)] * slots
    for c in range(1, c_max + 1):
        w = mp.power(c, -mp.mpf(N + 2) / 2)
        bvs = {DD: bessel(nu, xbase / c, ctx) for DD, (bessel, xbase) in kinds.items()}
        roots = _roots_of_unity(c, prec)
        for a, ra, rb, form, members in groups:
            hist = _pair_histogram(c, terms, a, ra, rb)
            root = _root(-form / (2 * c), prec)
            for slot, b, DD in members:
                term = w * (root * _phase_sum(_unit_counts(c, hist, b), roots)) * bvs[DD]
                accs[slot] += term
                lasts[slot] = term
    return [(acc, abs(last)) for acc, last in zip(accs, lasts)]


def poincare_csum(s, L: GramLattice, n, r, nprime, rprime, c_max: int,
                  ctx: PrecisionContext, *, dual=False, discriminants):
    """The c-sums of one row, the one-row case of ``_c_sums``: at
    (n, r, n', r') and at (n, r, n', -r'), its conjugate; with ``dual``,
    then those of K_c(n', r', n, r) and K_c(n', r', n, -r), the c-sums of
    the seed (n', r') that the weight N+2-k side of a duality pair takes.

    ``discriminants`` is (D, D'), which the caller has checked; both seeds
    have the product D D', so each c has one power and one Bessel value.
    The dual seed's counts equal the seed's, by (d, lam) -> (dbar, -dbar
    lam), but are counted on their own: they are ``verify duality``'s one
    independent witness of that symmetry.  The skew-holomorphic
    coefficients take the c-sum at s = (2k - N)/4.
    """
    D, Dp = discriminants
    (n, r), (nprime, rprime) = _index(n, r), _index(nprime, rprime, "'")
    seeds = [(n, r, [(nprime, rprime, D * Dp)])]
    if dual:
        seeds.append((nprime, rprime, [(n, r, D * Dp)]))
    with ctx.working():
        return [side for acc, last in _c_sums(Fraction(s), L, seeds, c_max, ctx)
                for side in ((acc, last), (mp.conj(acc), last))]


def _table_sides(skew, y, s, k, L: GramLattice, n, r, rows, c_max: int,
                 ctx: PrecisionContext) -> list:
    """Per row (n', r') of one table of the seed (n, r): the DomainError of
    its checks, or (b(n', r'), tail, b(n', -r')).

    Maass (``skew`` false): b is the displayed product of the weight factor
    (``_weight_factor``), the (D'/D) power, the y-profile
    e(-iD'y/4|L|) W_{s,k-N/2}(pi D'y/|L|) and the c-sum; tail is
    |last term|/|sum|, the recorded truncation heuristic.  Skew: b(n', r')
    is the prefactor 2^{1-N/2} pi i^{1-k} / sqrt|L| times the (D'/D) power
    times the c-sum of K_c(n, r, n', -r') at s = (2k - N)/4, where the
    c-sum's J_{2s-1} is J_{k-(N+2)/2}; tail is None.  A row takes the one
    c-sum of b(n', r'); that of b(n', -r') is its conjugate.

    A row reports the first check that fails, in this order: k an integer;
    k >= 3 (skew) or Re(s) > 1 + N/2 (Maass); n and r integers, the rank of
    r (these fail every row); n' and r' integers, the rank of r'; D, D' > 0
    (skew) or D != 0, D' != 0 and y > 0 (Maass); c_max >= 0.  Past them no
    row raises a toolkit error: D D' != 0 and y > 0 keep every Bessel and
    Whittaker argument off 0.  The table takes D, the skew prefactor and
    the weight factor of each sign of D' once; the (D'/D) power and the
    profile once per distinct D'; and one ``_c_sums`` walk for all rows.
    """
    N = L.N
    try:
        k = _integer(k, "k")
        if skew:
            if k < 3:
                raise DomainError("skew Poincare series require k >= 3")
            s = Fraction(2 * k - N, 4)
        else:
            s = _converges(s, N)
        n, r = _index(n, r)
        D = discriminant(L, n, r)
    except DomainError as exc:
        # kept without its traceback, whose frame would hold the table
        return [exc.with_traceback(None)] * len(rows)
    out, todo = [], []
    for np_, rp in rows:
        try:
            np_, rp = _index(np_, rp, "'")
            Dp = discriminant(L, np_, rp)
            if skew:
                if D <= 0 or Dp <= 0:
                    raise DomainError("skew coefficients require D, D' > 0")
            else:
                _check_defined(D, Dp)
                if y <= 0:
                    raise DomainError("the profile needs a point of H: y = Im tau > 0")
        except DomainError as exc:
            out.append(exc.with_traceback(None))
        else:
            todo.append((len(out), np_, tuple(-x for x in rp) if skew else rp, Dp))
            out.append(None)
    expo = Fraction(k, 2) - Fraction(N + 2, 4)
    with ctx.working():
        try:
            sums = _c_sums(s, L, [(n, r, [(np_, rp, D * Dp) for _, np_, rp, Dp in todo])],
                           c_max, ctx)
        except DomainError as exc:
            for i, *_ in todo:
                out[i] = exc.with_traceback(None)
            return out
        if skew:
            lead = _prefactor(L, 1 - k)
        weights, prefs = {}, {}
        for (i, _, _, Dp), (acc, last) in zip(todo, sums):
            if Dp not in prefs:
                if skew:
                    prefs[Dp] = lead * _pow_ratio(Dp, D, expo)
                else:
                    arg = mp.pi * to_mpf(Dp / L.det) * to_mpf(y)
                    profile = mp.exp(arg / 2) * whittaker_W_renorm(
                        s, k - Fraction(N, 2), arg, ctx)
                    sgn = 1 if Dp > 0 else -1
                    if sgn not in weights:
                        weights[sgn] = _weight_factor(s, k, L, sgn)
                    prefs[Dp] = weights[sgn] * _pow_ratio(Dp, D, expo) * profile
            tail = None if skew else (last / abs(acc) if acc != 0 else mp.mpf(0))
            out[i] = (prefs[Dp] * acc, tail, prefs[Dp] * mp.conj(acc))
    return out


def _symmetrized(b1, b2, k, ctx: PrecisionContext):
    """b1 + (-1)^k b2 at the working precision, or an exact zero where the
    two sides cancel, |b1 + (-1)^k b2| <= eps (|b1| + |b2|): what is left
    there is rounding residue, not a coefficient."""
    v = b1 + (-1) ** int(k) * b2
    return mp.mpc(0) if abs(v) <= ctx.eps * (abs(b1) + abs(b2)) else v


def poincare_table(skew, y, s, k, L: GramLattice, n, r, rows, c_max: int,
                   ctx: PrecisionContext) -> list:
    """b(n', r') + (-1)^k b(n', -r') at every row (n', r') of one Maass
    (``skew`` false, at s and y) or skew-holomorphic table of the seed
    (n, r): (value, tail ratio), the tail None for skew, or the DomainError
    of the row's checks (``_table_sides``).  A value is an exact zero where
    the two sides cancel (``_symmetrized``).  Each row's value is that of
    the row alone: what rows share is equal for all of them."""
    out = []
    with ctx.working():
        for sides in _table_sides(skew, y, s, k, L, n, r, rows, c_max, ctx):
            if isinstance(sides, DomainError):
                out.append(sides)
            else:
                b1, tail, b2 = sides
                out.append((_symmetrized(b1, b2, k, ctx), tail))
    return out


def _one(results):
    """The result of a one-row table, or its error raised."""
    (result,) = results
    if isinstance(result, DomainError):
        raise result
    return result


def poincare_coeff_b(y, s, k, L: GramLattice, n, r, nprime, rprime,
                     c_max: int, ctx: PrecisionContext):
    """One unsymmetrized Fourier coefficient b(n', r') of the Maass Poincare
    series, as (value, tail_ratio): the one-row case of ``_table_sides``."""
    return _one(_table_sides(False, y, s, k, L, n, r, [(nprime, rprime)], c_max, ctx))[:2]


def full_coeff_c(y, s, k, L: GramLattice, n, r, nprime, rprime, c_max: int,
                 ctx: PrecisionContext):
    """b(n', r') + (-1)^k b(n', -r'), the symmetrized coefficient, as
    (value, tail ratio): the one-row case of ``poincare_table``."""
    return _one(poincare_table(False, y, s, k, L, n, r, [(nprime, rprime)], c_max, ctx))


def skew_poincare_coeff(k, L: GramLattice, n, r, nprime, rprime, c_max: int,
                        ctx: PrecisionContext):
    """Fourier coefficient of the skew-holomorphic Poincare series, the
    one-row case of ``poincare_table``.

    Requires k >= 3 and D, D' > 0; note the -r' inside the Kloosterman sum.
    The value adds (-1)^k times the side at -r', and is an exact zero
    where the two sides cancel (``_symmetrized``).
    """
    return _one(poincare_table(True, None, None, k, L, n, r, [(nprime, rprime)],
                               c_max, ctx))[0]


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
    k = _integer(k, "k")
    kd = N + 2 - k
    if c_max < 1:
        raise DomainError("duality ratios need c_max >= 1")
    s = _converges(s, N)

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
            D, Dp = discriminant(L, n, r), discriminant(L, npd, rpd)
            _check_defined(D, Dp)
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
