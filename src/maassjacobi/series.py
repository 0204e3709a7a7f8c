"""Kloosterman sums, Casimir eigenvalues, and Poincare-series Fourier
coefficients for lattice-index Jacobi forms of both kinds (Maass and
skew-holomorphic), including the data needed for the weight k vs N+2-k
duality checks.

A Kloosterman sum is exact integer work up to its last step: its terms are
counted at each phase j/c (``_phase_counts``).  With L^{-1}(r, r') = a/b,
K_c is a cyclotomic integer over the M-th roots of unity, M = 2bc, and one
rule makes it a number (``_k_sum``): each part is summed exactly over a
cached conjugate-symmetric table of those roots, rounded once, and 0
exactly when it vanishes in Z[zeta_M] (``_vanishes``).  So K_c(-r') is
exactly conj K_c(r'), and plain arithmetic carries zeros on.

A Poincare table walks c outermost over its rows (``_c_sums``), taking
shared work once; a row's c-sum has its -r' side as conjugate, its value
pref (sum + (-1)^k conj(sum)) is 0 where the part it keeps is 0, and its
tail ratio is 0 where its last K_c is.  Only the root tables are kept.
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

# (M, precision) pairs whose tables of M-th roots of unity are kept
_ROOT_TABLES = 256


@lru_cache(maxsize=_ROOT_TABLES)
def _roots_of_unity(c: int, prec: int):
    """(re, im, e): e(j/c) = (re[j] + i im[j]) 2^e for j = 0..c-1 at prec
    bits in ``fixedpoint`` integer form: e_of(j/c) for 2j < c, exactly -1
    at 2j = c, and at c - j the conjugate of entry j, as e_of(-j/c) is."""
    with mp.workprec(prec):
        half = [e_of(Fraction(j, c)) for j in range((c + 1) // 2)]
        middle = [mp.mpc(-1)] if c % 2 == 0 else []
        return fixedpoint.to_ints(half + middle + [mp.conj(z) for z in half[:0:-1]])


def _integer(x, what: str) -> int:
    """x as an int; DomainError unless x is an integer in value, also where
    int() refuses x (nan, an infinity, None)."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be an integer, not {x}")


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


def _vanishes(g, M: int) -> bool:
    """Whether sum_m g[m] zeta^m = 0 at a primitive M-th root of unity zeta,
    i.e. Phi_M | g(x): whether x^M - 1 = prod_{d | M} Phi_d divides g(x)
    prod_{p | M} (x^{M/p} - 1), which holds every Phi_d but Phi_M."""
    for p in range(2, M + 1):
        if M % p == 0 and all(p % q for q in range(2, p)):
            g = [g[m - M // p] - g[m] for m in range(M)]
    return not any(g)


def _k_sum(counts, c: int, form: Fraction, prec: int):
    """K_c = e(-form/2c) sum_j counts[j] e(j/c) at prec bits, form = a/b: the
    count at j goes to index (2bj - a) mod M, M = 2bc, of integers u; each
    part, one exact sum over ``_roots_of_unity(M, prec)`` rounded once, is 0
    exactly when it vanishes: 2 Re K_c = (u + ubar)(zeta_M), 2i Im K_c =
    (u - ubar)(zeta_M), ubar moving the count at m to -m.  Table entries are
    within 2^(4-prec) of their roots (e_of rounds x, pi and 2 pi x), so
    only a part within sum(counts) 2^(4-prec) of 0 is tested."""
    a, b = form.numerator, form.denominator
    M = 2 * b * c
    u = [0] * M
    for j, cnt in enumerate(counts):
        u[(2 * b * j - a) % M] += cnt
    re, im, e = _roots_of_unity(M, prec)
    parts = [sum(map(mul, u, table)) for table in (re, im)]
    total, shift = sum(counts), 4 - prec - e
    for i, sign in ((0, 1), (1, -1)):
        if (abs(parts[i]) << max(-shift, 0) <= total << max(shift, 0)
                and _vanishes([x + sign * u[-m] for m, x in enumerate(u)], M)):
            parts[i] = 0
    return fixedpoint.rounded(parts[:1], parts[1:], e)[0]


def kloosterman(c: int, L: GramLattice, n, r, nprime, rprime,
                ctx: PrecisionContext):
    """The higher Kloosterman sum K_{c,L}(n, r, n', r').

    Prefactor e(-r^T L^{-1} r' / 2c) times the sum over units d mod c and
    lambda in (Z/c)^N of e((dbar L[lam] + dbar r.lam + dbar n + n' d
    - r'.lam)/c).  The (d, lambda) at each phase j/c are counted exactly,
    and ``_k_sum`` sums each part once, rounds it once, and makes it 0
    exactly when it vanishes in Z[zeta_M]; the value at -r' is the exact
    conjugate of that at r'.  ``_c_sums`` composes the same pieces.
    """
    c = _integer(c, "c")
    if c < 1:
        raise DomainError("c must be a positive integer")
    (n, r), (nprime, rprime) = _index(n, r), _index(nprime, rprime, "'")
    with ctx.working():
        return _k_sum(_phase_counts(c, L.quad_terms, n, r, nprime, rprime), c,
                      L.inv_form(r, rprime), mp.prec)


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
    conjugate is the sum at -rb, summed in c-order; each term ``w * K * bv``
    takes K_c from ``_k_sum``, as ``kloosterman`` does: summed and rounded
    once, each part 0 exactly when it vanishes in Z[zeta_M], so a term is 0
    where K_c is.  c_max = 0 gives zero sums.  Bessel J if D D' > 0, else I.

    What terms share is taken once: each c's power w; each (c, D D')'s
    Bessel value; each (c, seed, rb)'s histogram and form L^{-1}(ra, rb).
    Each row makes its own unit pass, ``_k_sum`` and term.  Seeds share the
    Bessel values only: each seed counts its own phases.
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
        for a, ra, rb, form, members in groups:
            hist = _pair_histogram(c, terms, a, ra, rb)
            for slot, b, DD in members:
                term = w * _k_sum(_unit_counts(c, hist, b), c, form, prec) * bvs[DD]
                accs[slot] += term
                lasts[slot] = term
    return [(acc, abs(last)) for acc, last in zip(accs, lasts)]


def poincare_csum(s, L: GramLattice, n, r, nprime, rprime, c_max: int,
                  ctx: PrecisionContext, *, dual=False, discriminants):
    """The c-sums of one row, the one-row case of ``_c_sums``: [(sum, |last
    term|)] at (n, r, n', r'), whose conjugate is the c-sum at -r'; with
    ``dual``, then that at (n', r', n, r), the c-sum of the seed (n', r')
    that the weight N+2-k side of a duality pair takes.  Each K_c is summed
    and rounded once, a part 0 exactly when it vanishes in Z[zeta_M], and a
    last term is 0 where its K_c is.  ``discriminants`` is (D, D'), which
    the caller has checked; both seeds have the product D D', so each c has
    one power and one Bessel value.  The dual seed's counts equal the
    seed's, by (d, lam) -> (dbar, -dbar lam), but are counted on their own:
    they are ``verify duality``'s one independent witness of that symmetry.
    The skew-holomorphic coefficients take the c-sum at s = (2k - N)/4.
    """
    D, Dp = discriminants
    (n, r), (nprime, rprime) = _index(n, r), _index(nprime, rprime, "'")
    seeds = [(n, r, [(nprime, rprime, D * Dp)])]
    if dual:
        seeds.append((nprime, rprime, [(n, r, D * Dp)]))
    with ctx.working():
        return _c_sums(Fraction(s), L, seeds, c_max, ctx)


def _table_sides(skew, y, s, k, L: GramLattice, n, r, rows, c_max: int,
                 ctx: PrecisionContext) -> list:
    """Per row (n', r') of one table of the seed (n, r): the DomainError of
    its checks, or (prefactor, c-sum, tail): b(n', r') = prefactor c-sum,
    b(n', -r') = prefactor conj(c-sum) is not stored, and each K_c of the
    c-sum is summed and rounded once, 0 in a part that vanishes in Z[zeta_M].

    Maass (``skew`` false): the prefactor is the weight factor times the
    (D'/D) power times the y-profile e(-iD'y/4|L|) W_{s,k-N/2}(pi D'y/|L|);
    tail is |last term|/|sum|, the recorded truncation heuristic, 0 where
    the last K_c is.  Skew: the prefactor is 2^{1-N/2} pi i^{1-k} / sqrt|L|
    times the (D'/D) power, and the c-sum that of K_c(n, r, n', -r') at
    s = (2k - N)/4, its J_{2s-1} being J_{k-(N+2)/2}; tail is None.

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
            out[i] = (prefs[Dp], acc, tail)
    return out


def _symmetric(pref, acc, k: int):
    """pref (acc + (-1)^k conj(acc)): b(n', r') + (-1)^k b(n', -r') of b = pref acc."""
    return pref * (acc + (-1) ** k * mp.conj(acc))


def poincare_table(skew, y, s, k, L: GramLattice, n, r, rows, c_max: int,
                   ctx: PrecisionContext) -> list:
    """b(n', r') + (-1)^k b(n', -r') at every row (n', r') of one Maass
    (``skew`` false, at s and y) or skew-holomorphic table of the seed
    (n, r): (value, tail ratio), the tail None for skew, or the DomainError
    of the row's checks (``_table_sides``).  Each K_c is summed and rounded
    once, a part 0 exactly when it vanishes in Z[zeta_M]; so a value is 0
    where the part of every K_c that it keeps is (``_symmetric``), and a
    tail ratio whose last term is 0 is 0.  A row's value is the row's own."""
    out = []
    with ctx.working():
        for sides in _table_sides(skew, y, s, k, L, n, r, rows, c_max, ctx):
            if isinstance(sides, DomainError):
                out.append(sides)
            else:
                pref, acc, tail = sides
                out.append((_symmetric(pref, acc, int(k)), tail))
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
    with ctx.working():
        pref, acc, tail = _one(_table_sides(False, y, s, k, L, n, r, [(nprime, rprime)],
                                            c_max, ctx))
        return pref * acc, tail


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
    The value adds (-1)^k times the side at -r'; each K_c is summed and
    rounded once, and the value is 0 where the part of every K_c that it
    keeps vanishes in Z[zeta_M] (``_symmetric``).
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
    Each K_c is summed and rounded once, a part 0 exactly when it vanishes
    in Z[zeta_M]: a b-ratio is None exactly where the dual b is 0, and a
    c-ratio where either ``_symmetric`` value is.  Ratios are reported, not
    asserted.  The sides of a pair share |D D'|, so one c-sum serves both;
    each weight factor is taken once per weight and sign of D'.
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
            (accA, _), (accB, _) = poincare_csum(s, L, n, r, npd, rpd, c_max, ctx,
                                                 dual=True, discriminants=(D, Dp))
            prefA, prefB = _pref(k, Dp, D), _pref(kd, D, Dp)
            bB = prefB * accB
            ratios_b.append(prefA * accA / bB if bB != 0 else None)
            # the symmetrized c of full_coeff_c, from the same two c-sums
            cA, cB = _symmetric(prefA, accA, k), _symmetric(prefB, accB, kd)
            ratios_c.append(None if cA == 0 or cB == 0 else cA / cB)
        mean_b, spread_b = _stats(ratios_b)
        mean_c, spread_c = _stats(ratios_c)
    return {
        "k": k, "k_dual": kd, "c_max": c_max,
        "b_ratios": ratios_b, "b_mean": mean_b, "b_relative_spread": spread_b,
        "c_ratios": ratios_c, "c_mean": mean_c, "c_relative_spread": spread_c,
    }
