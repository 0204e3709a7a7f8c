"""Arbitrary-precision special functions for Fourier profiles and Poincare
coefficients: renormalized Whittaker functions, Bessel J and I, the upper
incomplete gamma, and the H- and E-profiles, each with a jet variant
carrying derivatives in the real argument.

Scalar evaluation runs under an explicit PrecisionContext.  Kummer's U at
an integer b parameter (every W the Poincare coefficients use) is one
integer fixed-point pass rounded once (``_kummer_u``); everything else is
backed by mpmath's hypergeometric machinery.  Each function solves a
second-order linear equation with polynomial coefficients, and every jet
is the scalar value followed by that equation's Taylor recurrence
(``_ode_jet``): seeded by the value and the first derivative at GUARD_BITS
more bits, it runs exactly and rounds each derivative once.  The tests
keep the parameter-shift Whittaker jets (one Kummer function per order)
and mpmath's numerical differentiation as oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import libmp, mp

from .errors import DomainError, PoleError, PrecisionError
from .precision import GUARD_BITS, MAX_TERMS, PrecisionContext, to_fraction, to_mpf


def _pole_check_M(s):
    """The Kummer series for M has poles when its b-parameter 2s is a
    nonpositive integer."""
    b = 2 * to_fraction(s)
    if b.denominator == 1 and b <= 0:
        raise PoleError(f"Whittaker M parameter pole: 2s = {b}")


def _pochhammer(a, j):
    """(a)_j = a (a + 1) ... (a + j - 1), in the arithmetic of a."""
    return math.prod(a + i for i in range(j))


def _round32(bits: int) -> int:
    # working precisions come in steps of 32 bits, so that the cached
    # constants of _gamma_data serve every x of a step
    return -(-bits // 32) * 32


def _man_exp(v):
    """The mpf v as (man, exp) with v = man 2^exp and man signed."""
    sign, man, exp, _ = v._mpf_
    return (-man if sign else man), exp


@lru_cache(maxsize=256)
def _gamma_data(a: Fraction, wp: int):
    """(psi(a) + 2 gamma as an integer over 2^wp, 1/Gamma(a) to wp bits as a
    signed (man, exp))."""
    with mp.workprec(wp + 8):
        psi = libmp.to_fixed((mp.digamma(to_mpf(a)) + 2 * mp.euler)._mpf_, wp)
    with mp.workprec(wp):
        return psi, _man_exp(mp.rgamma(to_mpf(a)))


def _kummer_u(a, b, x):
    """Kummer's U(a, b, x) at the working precision mp.prec, for exact
    rational a and b and an mpf x > 0.

    At an integer b the value is exact arithmetic on the dyadic x rounded
    once, or one integer fixed-point pass whose error is checked against the
    cancellation it met, rounded once:
    - when a or a - b + 1 is a nonpositive integer, U is the polynomial of
      DLMF 13.2.7, after Kummer's transformation 13.2.40 in the second case;
    - otherwise, after 13.2.40 when b <= 0, the logarithmic series 13.2.9,
      for x up to MAX_TERMS / 2, past which it needs more terms than that.
    At any other b, and past that x, it is mpmath's hyperu.
    """
    a, b = to_fraction(a), to_fraction(b)
    if b.denominator != 1:
        return mp.hyperu(to_mpf(a), to_mpf(b), x)
    b = int(b)
    a2 = a - b + 1
    if a.denominator == 1 and a <= 0:
        return to_mpf(_u_polynomial(-int(a), b, to_fraction(x)))
    if a2.denominator == 1 and a2 <= 0:
        xq = to_fraction(x)
        return to_mpf(xq ** (1 - b) * _u_polynomial(-int(a2), 2 - b, xq))
    if 2 * x > MAX_TERMS:
        return mp.hyperu(to_mpf(a), to_mpf(b), x)
    m = 0
    if b <= 0:
        # U(a, b, x) = x^{1-b} U(a - b + 1, 2 - b, x)
        a, b, m = a2, 2 - b, 1 - b
    man, exp = _u_log_series(a, b - 1, x, mp.prec)
    xman, xexp = _man_exp(x)
    return mp.make_mpf(libmp.from_man_exp(man * xman ** m, exp + xexp * m,
                                          mp.prec, libmp.round_nearest))


def _u_polynomial(m: int, b: int, x: Fraction) -> Fraction:
    """U(-m, b, x) = (-1)^m sum_k C(m, k) (b + k)_{m-k} (-x)^k (DLMF 13.2.7)."""
    return (-1) ** m * sum(math.comb(m, k) * _pochhammer(b + k, m - k) * (-x) ** k
                           for k in range(m + 1))


def _u_log_series(a: Fraction, n: int, x, prec: int):
    """U(a, n + 1, x) for n >= 0 as (man, exp), by DLMF 13.2.9 with
    1/Gamma(a - n) = (a - n)_n / Gamma(a):

        Gamma(a) U = (-1)^{n+1} (a - n)_n / n! S + F,
        S = sum_k (a)_k / ((n + 1)_k k!) x^k (ln x + P_k),
        P_k = psi(a + k) - psi(1 + k) - psi(n + k + 1),
        F = sum_{k=1}^n (k - 1)! (1 - a + k)_{n-k} / (n - k)! x^{-k}.

    a and a - n are not nonpositive integers.  The terms of S, P_k and ln x
    are integers over 2^wp (Gil, Segura & Temme, Numerical Methods for
    Special Functions, SIAM 2007, ch. 6 and 8); F and the factor of S are
    exact rationals.  wp starts at prec + ceil(x / ln 2 + 2 log2(x + 2)) +
    24 guard bits, for the cancellation of terms of size e^x down to a
    result of size x^{-a}; if the terms met more cancellation than that
    left room for, the pass is repeated with the room it needed.
    """
    xf = float(x)
    wp = _round32(prec + math.ceil(xf / math.log(2) + 2 * math.log2(xf + 2)) + 24)
    while True:
        V, lost, terms = _u_bracket(a, n, x, wp)
        need = prec + lost + 2 * terms.bit_length() + 16
        if need <= wp:
            break
        wp = _round32(need + 16)
    man, exp = _gamma_data(a, wp)[1]
    return V * man, exp - wp


def _u_bracket(a: Fraction, n: int, x, wp: int):
    """(Gamma(a) U(a, n + 1, x) as an integer over 2^wp, the bits its sum
    lost to cancellation, the number of terms of S); see _u_log_series."""
    one = 1 << wp
    p, q = a.numerator, a.denominator
    X = libmp.to_fixed(x._mpf_, wp)
    with mp.workprec(wp):
        lnx = libmp.to_fixed(mp.log(x)._mpf_, wp)
    # P_0 = psi(a) + 2 gamma - H_n; the term t_k = |(a)_k x^k / ((n+1)_k k!)|
    # has the sign neg
    psi = _gamma_data(a, wp)[0] - sum(one // j for j in range(1, n + 1))
    t, neg, acc, big, k = one, False, 0, 0, 0
    # from k = 2x + 2|a| + 2 on, each term is at most 3/4 of the one before,
    # so the sum may stop at the first term that truncates to zero
    k_min = 2 * float(x) + 2 * abs(float(a)) + 2
    while k < k_min or t:
        term = t * (lnx + psi)
        acc += -term if neg else term
        big = max(big, abs(term))
        c = p + k * q
        psi += (q << wp) // c - one // (k + 1) - one // (n + k + 1)
        if c < 0:
            neg, c = not neg, -c
        t = (t * X * c >> wp) // (q * (n + 1 + k) * (k + 1))
        k += 1
    factor = Fraction((-1) ** (n + 1), factorial(n)) * _pochhammer(a - n, n)
    xq = to_fraction(x)
    F = sum(Fraction(factorial(j - 1), factorial(n - j)) * _pochhammer(1 - a + j, n - j)
            / xq ** j for j in range(1, n + 1))
    sv = (acc >> wp) * factor.numerator // factor.denominator
    fv = F.numerator * one // F.denominator
    mag = max(abs(factor.numerator) * big // factor.denominator >> wp, abs(fv), one)
    return sv + fv, mag.bit_length() - abs(sv + fv).bit_length(), k


def _kummer(kind: str, a: Fraction, b: Fraction, x):
    """M(a, b, x) or U(a, b, x) at the working precision mp.prec."""
    if kind != "M":
        return _kummer_u(a, b, x)
    try:
        return mp.hyp1f1(to_mpf(a), to_mpf(b), x)
    except ValueError:
        # mpmath's series fails to converge at a zero of M, such as
        # M(1/2, -1/2, 1/2) = 0
        raise PrecisionError(f"Kummer M({a}, {b}, {x}) did not converge "
                             f"at {mp.prec} bits") from None


def _ode_jet(P, x0: Fraction, h0: Fraction, h1: Fraction, order: int) -> list:
    """[h(x0), h'(x0), ..., h^(order)(x0)], exactly, for the solution of
    P[0] h + P[1] h' + P[2] h'' = 0 with h(x0) = h0 and h'(x0) = h1.

    Each P[i] is a polynomial as its rational coefficients, constant term
    first, with P[2](x0) != 0; x0, h0 and h1 are dyadic.  This is the
    Taylor-series method for ODEs (Corliss & Chang, ACM TOMS 8 (1982)
    114-144).  With h = sum h_n u^n and P[i](x0 + u) = sum_j p_ij u^j, the
    coefficient of u^n in the equation gives

        p_20 (n + 1)(n + 2) h_{n+2} = -sum_{(i, j) != (2, 0), j <= n}
                                           p_ij (n - j + 1)_i h_{n-j+i}.
    """
    # p[i][j] = p_ij, the coefficients of P[i] about x0
    p = [[sum(math.comb(l, j) * q[l] * x0 ** (l - j) for l in range(j, len(q)))
          for j in range(len(q))] for q in P]
    h = [h0, h1]
    for n in range(order - 1):
        acc = sum(c * _pochhammer(n - j + 1, i) * h[n - j + i] for i, q in enumerate(p)
                  for j, c in enumerate(q[:n + 1]) if c and (i, j) != (2, 0))
        h.append(-acc / (p[2][0] * (n + 1) * (n + 2)))
    return [factorial(j) * v for j, v in enumerate(h[:order + 1])]


def _derivatives(x0, problem, order: int, ctx: PrecisionContext) -> list:
    """[h'(x0), ..., h^(order)(x0)] for the solution h of the equation P of
    _ode_jet with (P, h(x0), h'(x0)) = problem(c), which runs under the
    PrecisionContext c, GUARD_BITS wider than ctx.  Each derivative is
    rounded once to the working precision; call it inside ctx.working()."""
    if not order:
        return []
    seed = PrecisionContext(ctx.bits + GUARD_BITS)
    with seed.working():
        P, h0, h1 = problem(seed)
    return [to_mpf(v) for v in
            _ode_jet(P, to_fraction(x0), to_fraction(h0), to_fraction(h1), order)[1:]]


def whittaker_equation(s, kappa) -> tuple:
    """Whittaker's equation (DLMF 13.14.1) in t for
    h(t) = |t|^{-kappa/2} M-or-W_{sgn(t) kappa/2, s-1/2}(|t|),

        t^2 h'' + kappa t h' + (c0 + kappa t/2 - t^2/4) h = 0,
        c0 = kappa^2/4 - kappa/2 + 1/4 - (s - 1/2)^2,

    as the P of ``_ode_jet``, so kappa = P[1][1] and c0 = P[0][0].  It has
    no pole at 2s in Z<=0, where M has one.  With f(y) = h(a y) e^{a y/2}
    it reads y^2 f'' + (kappa y - a y^2) f' + c0 f = 0.
    """
    s, kappa = to_fraction(s), to_fraction(kappa)
    mu = s - Fraction(1, 2)
    return ([kappa * kappa / 4 - kappa / 2 + Fraction(1, 4) - mu * mu, kappa / 2,
             Fraction(-1, 4)], [0, kappa], [0, 0, 1])


def _whittaker_jet(kind: str, s, kappa, t, order, ctx: PrecisionContext):
    """Derivatives in t of h(t) = |t|^{-kappa/2} M-or-W_{sgn(t) kappa/2, s-1/2}(|t|).

    With x = |t|, p = -kappa/2, kappa_eff = sgn(t) kappa/2, mu = s - 1/2,
    a = mu - kappa_eff + 1/2, b = 2s and K = M(a, b, .) or U(a, b, .),
    h = x^p e^{-x/2} x^{mu + 1/2} K(x).  The value is that product of
    working-precision factors, formed in that order.  The higher
    derivatives come from Whittaker's equation in t (``whittaker_equation``;
    kappa_eff x = kappa t/2), seeded with K' = (a/b) M(a + 1, b + 1, .) or
    -a U(a + 1, b + 1, .) (DLMF 13.3.15, 13.3.22).
    """
    s = to_fraction(s)
    kappa = to_fraction(kappa)
    if t == 0:
        raise DomainError("Whittaker argument must be nonzero")
    if kind == "M":
        _pole_check_M(s)
    sgn = 1 if t > 0 else -1
    kap_eff = sgn * kappa / 2
    mu = s - Fraction(1, 2)
    a = mu - kap_eff + Fraction(1, 2)
    b = 2 * s
    p = -kappa / 2
    q = p + mu + Fraction(1, 2)

    def problem(_):
        k0 = _kummer(kind, a, b, x0)
        k1 = to_mpf(a / b if kind == "M" else -a) * _kummer(kind, a + 1, b + 1, x0)
        pre = mp.exp(-x0 / 2) * mp.power(x0, to_mpf(q))
        return (whittaker_equation(s, kappa), pre * k0,
                sgn * pre * (k1 + (to_mpf(q) / x0 - mp.mpf(0.5)) * k0))

    with ctx.working():
        x0 = abs(to_mpf(t))
        z = mp.mpc(x0)
        whit = (mp.exp(mp.mpc(-x0 / 2)) * mp.power(z, to_mpf(mu + Fraction(1, 2)))
                * +_kummer(kind, a, b, x0))
        return [mp.power(z, to_mpf(p)) * whit] + [
            mp.mpc(v) for v in _derivatives(sgn * x0, problem, order, ctx)]


def whittaker_M_renorm(s, kappa, t, ctx: PrecisionContext):
    """|t|^{-kappa/2} M_{sgn(t) kappa/2, s-1/2}(|t|)."""
    return _whittaker_jet("M", s, kappa, t, 0, ctx)[0]


def whittaker_M_jet(s, kappa, t, order: int, ctx: PrecisionContext):
    return _whittaker_jet("M", s, kappa, t, order, ctx)


def whittaker_W_renorm(s, kappa, t, ctx: PrecisionContext):
    """|t|^{-kappa/2} W_{sgn(t) kappa/2, s-1/2}(|t|)."""
    return _whittaker_jet("W", s, kappa, t, 0, ctx)[0]


def whittaker_W_jet(s, kappa, t, order: int, ctx: PrecisionContext):
    return _whittaker_jet("W", s, kappa, t, order, ctx)


def _bessel_jet(kind: str, nu, x, order: int, ctx: PrecisionContext):
    """[B(x), B'(x), ..., B^(order)(x)] for B = J_nu or I_nu and x > 0.

    The value is mpmath's, rounded to the working precision (it may carry
    more bits: J_3(5) at 152 bits has 201).  The derivatives come from
    Bessel's equation x^2 B'' + x B' + (+-x^2 - nu^2) B = 0, + for J and -
    for I (DLMF 10.2.1, 10.25.1), seeded with B and B' = (B_{nu-1} -+
    B_{nu+1})/2 (DLMF 10.6.2, 10.29.2).  I at an integer order m is taken
    at |m|: I_{-n} = I_n (DLMF 10.27.1), and mpmath's besseli takes a
    degenerate limit at a negative integer order that is 10-100 times
    slower.  The ODE holds nu^2, so the jets at -n and n are equal."""
    if x <= 0:
        raise DomainError(f"bessel_{kind} requires x > 0")
    fn, sign = (mp.besselj, -1) if kind == "J" else (mp.besseli, 1)
    nu = to_fraction(nu)

    def at(m):
        return fn(to_mpf(abs(m) if kind == "I" and m.denominator == 1 else m), x)

    def problem(_):
        return (([-nu * nu, 0, -sign], [0, 1], [0, 0, 1]), at(nu),
                (at(nu - 1) + sign * at(nu + 1)) / 2)

    with ctx.working():
        x = to_mpf(x)
        return [+at(nu)] + _derivatives(x, problem, order, ctx)


def bessel_J(nu, x, ctx: PrecisionContext):
    return _bessel_jet("J", nu, x, 0, ctx)[0]


def bessel_I(nu, x, ctx: PrecisionContext):
    return _bessel_jet("I", nu, x, 0, ctx)[0]


def bessel_J_jet(nu, x, order: int, ctx: PrecisionContext):
    return _bessel_jet("J", nu, x, order, ctx)


def bessel_I_jet(nu, x, order: int, ctx: PrecisionContext):
    return _bessel_jet("I", nu, x, order, ctx)


def upper_incomplete_gamma(a, x, ctx: PrecisionContext):
    """Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt for x > 0."""
    if x <= 0:
        raise DomainError("upper_incomplete_gamma requires x > 0")
    with ctx.working():
        return mp.gammainc(to_mpf(to_fraction(a)), to_mpf(x))


def upper_incomplete_gamma_jet(a, x, order: int, ctx: PrecisionContext):
    """Derivatives of G = Gamma(a, .) at x > 0, from x G'' + (x + 1 - a) G' = 0,
    seeded with G and G'(x) = -x^{a-1} e^{-x}."""
    if x <= 0:
        raise DomainError("upper_incomplete_gamma requires x > 0")
    a = to_fraction(a)

    def problem(c):
        return (([0], [1 - a, 1], [0, 1]), upper_incomplete_gamma(a, x, c),
                -mp.power(x, to_mpf(a - 1)) * mp.exp(-x))

    with ctx.working():
        x = to_mpf(x)
        return [mp.mpc(v) for v in [upper_incomplete_gamma(a, x, ctx),
                                    *_derivatives(x, problem, order, ctx)]]


def h_profile(k, N: int, y, ctx: PrecisionContext):
    """H(y) = e^{-y} int_{-2y}^inf e^{-t} t^{-k-N/2} dt.

    For y < 0 this is e^{-y} Gamma(1-k-N/2, -2y), real.  For y > 0 the
    integral crosses t = 0 and converges only for k + N/2 < 1; in that
    region the value is the analytic continuation along the principal
    branch, which is real exactly when the exponent is an integer, and a
    complex number is returned otherwise.  Divergent parameter combinations
    raise instead of regularizing.
    """
    a = to_fraction(k) + Fraction(N, 2)
    with ctx.working():
        yv = to_mpf(y)
        if yv > 0 and a >= 1:
            raise DomainError(
                f"H(y) diverges at t=0 for y > 0 with k + N/2 = {a} >= 1"
            )
        val = mp.exp(-yv) * mp.gammainc(to_mpf(1 - a), -2 * yv)
        return mp.re(val) if yv < 0 or a.denominator == 1 else val


def h_profile_jet(k, N: int, y, order: int, ctx: PrecisionContext):
    """Derivatives of H at y < 0, from y H'' + a H' + (a - y) H = 0 with
    a = k + N/2, seeded with H and H'(y) = -H(y) + 2 e^y (-2y)^{-a}."""
    a = to_fraction(k) + Fraction(N, 2)

    def problem(c):
        h = h_profile(k, N, yv, c)
        return ([a, -1], [a], [0, 1]), h, 2 * mp.exp(yv) * mp.power(-2 * yv, to_mpf(-a)) - h

    with ctx.working():
        yv = to_mpf(y)
        if yv >= 0:
            raise DomainError("the H jet is implemented on y < 0 (negative index terms)")
        return [mp.mpc(v) for v in [h_profile(k, N, yv, ctx),
                                    *_derivatives(yv, problem, order, ctx)]]


def e_profile(z, ctx: PrecisionContext):
    """E(z) = 2 int_0^z e^{-pi u^2} du = erf(sqrt(pi) z)."""
    with ctx.working():
        zv = to_mpf(z)
        return mp.erf(mp.sqrt(mp.pi) * zv)


def e_profile_jet(z, order: int, ctx: PrecisionContext):
    """Derivatives of E from E'' + 2 pi z E' = 0, with pi taken at the seeds'
    precision, seeded with E and E'(z) = 2 e^{-pi z^2}."""

    def problem(c):
        return (([0], [0, 2 * to_fraction(+mp.pi)], [1]), e_profile(zv, c),
                2 * mp.exp(-mp.pi * zv * zv))

    with ctx.working():
        zv = to_mpf(z)
        return [mp.mpc(v) for v in [e_profile(zv, ctx), *_derivatives(zv, problem, order, ctx)]]
