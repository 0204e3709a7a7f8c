"""Arbitrary-precision special functions for Fourier profiles and Poincare
coefficients: renormalized Whittaker functions, Bessel J and I, the upper
incomplete gamma, and the H- and E-profiles, each with a jet variant
carrying derivatives in the real argument.

Scalar evaluation is backed by mpmath's hypergeometric machinery under an
explicit PrecisionContext; jet derivatives come from shifted-parameter
closed forms (Kummer/Bessel contiguous relations) or the defining ODE, so
ODE-residual tests exercise independently computed orders.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add, sub

from mpmath import mp

from .errors import DomainError, PoleError
from .jets import Jet, JetSpace, compose_univariate
from .precision import PrecisionContext, to_mpf


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _pole_check_M(s):
    """The Kummer series for M has poles when its b-parameter 2s is a
    nonpositive integer."""
    b = 2 * _frac(s)
    if b.denominator == 1 and b <= 0:
        raise PoleError(f"Whittaker M parameter pole: 2s = {b}")


def _pochhammer(a, j):
    out = mp.mpf(1)
    for i in range(j):
        out *= a + i
    return out


def _kummer_derivs(kind: str, a, b, x, order):
    """[F(x), F'(x), ...] for F = M(a, b, .) or U(a, b, .), via parameter
    shifts."""
    if kind == "M":
        return [_pochhammer(a, j) / _pochhammer(b, j) * mp.hyp1f1(a + j, b + j, x)
                for j in range(order + 1)]
    return [(-1) ** j * _pochhammer(a, j) * mp.hyperu(a + j, b + j, x)
            for j in range(order + 1)]


def _whittaker_x_jet(kind: str, s, kappa, t, order):
    """The Whittaker map (s, kappa, t) -> (sgn, x, a, b, mu) and the jet in x.

    With sgn = sgn(t), x = |t|, kappa_eff = sgn kappa/2, mu = s - 1/2,
    a = mu - kappa_eff + 1/2 and b = 1 + 2 mu, returns (sgn, xjet, kappa_eff,
    mu, w), where w is the jet in x of the unrenormalized e^{-x/2} x^{mu+1/2}
    times M(a, b, x) or U(a, b, x), i.e. M-or-W_{kappa_eff, mu}(x).
    """
    s = _frac(s)
    kappa = _frac(kappa)
    if t == 0:
        raise DomainError("Whittaker argument must be nonzero")
    sgn = 1 if t > 0 else -1
    x0 = abs(to_mpf(t))
    kap_eff = Fraction(sgn, 1) * kappa / 2
    mu = s - Fraction(1, 2)
    a = to_mpf(mu - kap_eff + Fraction(1, 2))
    b = to_mpf(1 + 2 * mu)
    space = JetSpace(1, order)
    xjet = Jet.variable(space, 0, x0)
    if kind == "M":
        _pole_check_M(s)
    dvals = _kummer_derivs(kind, a, b, x0, order)
    hyp = compose_univariate([d / factorial(j) for j, d in enumerate(dvals)], xjet)
    whit = (xjet * mp.mpf("-0.5")).exp() * xjet.pow_scalar(to_mpf(mu + Fraction(1, 2))) * hyp
    return sgn, xjet, kap_eff, mu, whit


def _whittaker_jet(kind: str, s, kappa, t, order, ctx: PrecisionContext):
    """Derivatives in t of |t|^{-kappa/2} M-or-W_{sgn(t) kappa/2, s-1/2}(|t|)."""
    with ctx.working():
        sgn, xjet, _, _, whit = _whittaker_x_jet(kind, s, kappa, t, order)
        renorm = xjet.pow_scalar(to_mpf(-_frac(kappa) / 2)) * whit
        # d/dt = sgn * d/dx
        return [renorm.derivative_at_base((j,)) * sgn ** j for j in range(order + 1)]


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


def whittaker_ode_residual(kind: str, s, kappa, t, ctx: PrecisionContext):
    """Residual of w'' + (-1/4 + kap/x + (1/4 - mu^2)/x^2) w for the
    unrenormalized Whittaker function at x = |t|, all three orders from
    independent parameter-shift evaluations."""
    with ctx.working():
        _, xjet, kap_eff, mu, w = _whittaker_x_jet(kind, s, kappa, t, 2)
        x = xjet.value.real
        w0 = w.derivative_at_base((0,))
        w2 = w.derivative_at_base((2,))
        q = mp.mpf("-0.25") + to_mpf(kap_eff) / x + (mp.mpf("0.25") - to_mpf(mu) ** 2) / x ** 2
        return abs(w2 + q * w0) / max(mp.mpf(1), abs(w0))


def _bessel_jet(kind: str, nu, x, order: int, ctx: PrecisionContext):
    """[B(x), B'(x), ..., B^(order)(x)] for B = J_nu or I_nu and x > 0: values
    from mpmath, derivatives from the contiguous recurrence
    B_nu' = (B_{nu-1} -+ B_{nu+1})/2."""
    if x <= 0:
        raise DomainError(f"bessel_{kind} requires x > 0")
    fn, pm = (mp.besselj, sub) if kind == "J" else (mp.besseli, add)
    with ctx.working():
        nu, x = to_mpf(_frac(nu)), to_mpf(x)
        # row[m] is the j-th derivative of B_{nu+m}, for |m| <= order - j
        row = {m: fn(nu + m, x) for m in range(-order, order + 1)}
        out = [row[0]]
        for j in range(1, order + 1):
            row = {m: pm(row[m - 1], row[m + 1]) / 2 for m in range(j - order, order - j + 1)}
            out.append(row[0])
        return out


def bessel_J(nu, x, ctx: PrecisionContext):
    return _bessel_jet("J", nu, x, 0, ctx)[0]


def bessel_I(nu, x, ctx: PrecisionContext):
    return _bessel_jet("I", nu, x, 0, ctx)[0]


def bessel_J_jet(nu, x, order: int, ctx: PrecisionContext):
    return _bessel_jet("J", nu, x, order, ctx)


def bessel_I_jet(nu, x, order: int, ctx: PrecisionContext):
    return _bessel_jet("I", nu, x, order, ctx)


def _integrated_jet(value, base, derivative, order: int, *, minus_value=False):
    """[f, f', ..., f^(order)] at ``base`` of the function with f(base) =
    ``value`` and f' = derivative(t), less f itself when ``minus_value``;
    ``derivative`` maps the variable jet t of degree order - 1 to a jet."""
    g = derivative(Jet.variable(JetSpace(1, max(order - 1, 0)), 0, base))
    # f = sum taylor[m] (t - base)^m with taylor[m+1] = g_m/(m+1), or
    # (g_m - taylor[m])/(m+1) when minus_value
    taylor = [mp.mpc(value)]
    for m in range(order):
        gm = g.derivative_at_base((m,)) / factorial(m)
        if minus_value:
            gm = gm - taylor[m]
        taylor.append(gm / (m + 1))
    return [taylor[j] * factorial(j) for j in range(order + 1)]


def upper_incomplete_gamma(a, x, ctx: PrecisionContext):
    """Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt for x > 0."""
    if x <= 0:
        raise DomainError("upper_incomplete_gamma requires x > 0")
    with ctx.working():
        return mp.gammainc(to_mpf(_frac(a)), to_mpf(x))


def upper_incomplete_gamma_jet(a, x, order: int, ctx: PrecisionContext):
    """Derivatives of Gamma(a, .) via d/dx Gamma(a, x) = -x^{a-1} e^{-x}."""
    if x <= 0:
        raise DomainError("upper_incomplete_gamma requires x > 0")
    a = _frac(a)
    with ctx.working():
        return _integrated_jet(
            upper_incomplete_gamma(a, x, ctx), to_mpf(x),
            lambda t: -(t.pow_scalar(to_mpf(a - 1)) * (-t).exp()), order)


def h_profile(k, N: int, y, ctx: PrecisionContext):
    """H(y) = e^{-y} int_{-2y}^inf e^{-t} t^{-k-N/2} dt.

    For y < 0 this is e^{-y} Gamma(1-k-N/2, -2y), real.  For y > 0 the
    integral crosses t = 0 and converges only for k + N/2 < 1; in that
    region the value is the analytic continuation along the principal
    branch, which is real exactly when the exponent is an integer, and a
    complex number is returned otherwise.  Divergent parameter combinations
    raise instead of regularizing.
    """
    a = _frac(k) + Fraction(N, 2)
    with ctx.working():
        yv = to_mpf(y)
        if yv > 0 and a >= 1:
            raise DomainError(
                f"H(y) diverges at t=0 for y > 0 with k + N/2 = {a} >= 1"
            )
        val = mp.exp(-yv) * mp.gammainc(to_mpf(1 - a), -2 * yv)
        if mp.im(val) == 0 or abs(mp.im(val)) < abs(val) * ctx.eps:
            return mp.re(val)
        return val


def h_profile_jet(k, N: int, y, order: int, ctx: PrecisionContext):
    """Derivatives of H via H'(y) = -H(y) + 2 e^y (-2y)^{-k-N/2}."""
    a = _frac(k) + Fraction(N, 2)
    with ctx.working():
        yv = to_mpf(y)
        if yv >= 0:
            raise DomainError("the H jet is implemented on y < 0 (negative index terms)")
        return _integrated_jet(
            h_profile(k, N, y, ctx), yv,
            lambda t: t.exp() * (t * mp.mpf(-2)).pow_scalar(to_mpf(-a)) * 2, order,
            minus_value=True)


def e_profile(z, ctx: PrecisionContext):
    """E(z) = 2 int_0^z e^{-pi u^2} du = erf(sqrt(pi) z)."""
    with ctx.working():
        zv = to_mpf(z)
        return mp.erf(mp.sqrt(mp.pi) * zv)


def e_profile_jet(z, order: int, ctx: PrecisionContext):
    """Derivatives of E via E'(z) = 2 e^{-pi z^2}."""
    with ctx.working():
        return _integrated_jet(e_profile(z, ctx), to_mpf(z),
                               lambda t: (t * t * (-mp.pi)).exp() * 2, order)
