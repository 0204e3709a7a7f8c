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


def _kummer_M_derivs(a, b, x, order):
    """[M(a,b,x), M'(a,b,x), ...] via parameter shifts."""
    return [
        _pochhammer(a, j) / _pochhammer(b, j) * mp.hyp1f1(a + j, b + j, x)
        for j in range(order + 1)
    ]


def _kummer_U_derivs(a, b, x, order):
    return [
        (-1) ** j * _pochhammer(a, j) * mp.hyperu(a + j, b + j, x)
        for j in range(order + 1)
    ]


def _whittaker_jet(kind: str, s, kappa, t, order, ctx: PrecisionContext):
    """Jet (in t) of |t|^{-kappa/2} M-or-W_{sgn(t) kappa/2, s-1/2}(|t|)."""
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
        dvals = _kummer_M_derivs(a, b, x0, order)
    else:
        dvals = _kummer_U_derivs(a, b, x0, order)
    hyp = compose_univariate([d / factorial(j) for j, d in enumerate(dvals)], xjet)
    whit = (xjet * mp.mpf("-0.5")).exp() * xjet.pow_scalar(to_mpf(mu + Fraction(1, 2))) * hyp
    renorm = xjet.pow_scalar(to_mpf(-kappa / 2)) * whit
    # d/dt = sgn * d/dx
    return [renorm.derivative_at_base((j,)) * sgn ** j for j in range(order + 1)]


def whittaker_M_renorm(s, kappa, t, ctx: PrecisionContext = None):
    """|t|^{-kappa/2} M_{sgn(t) kappa/2, s-1/2}(|t|)."""
    ctx = ctx or PrecisionContext()
    with ctx.working():
        return _whittaker_jet("M", s, kappa, t, 0, ctx)[0]


def whittaker_M_jet(s, kappa, t, order: int = 4, ctx: PrecisionContext = None):
    ctx = ctx or PrecisionContext()
    with ctx.working():
        return _whittaker_jet("M", s, kappa, t, order, ctx)


def whittaker_W_renorm(s, kappa, t, ctx: PrecisionContext = None):
    """|t|^{-kappa/2} W_{sgn(t) kappa/2, s-1/2}(|t|)."""
    ctx = ctx or PrecisionContext()
    with ctx.working():
        return _whittaker_jet("W", s, kappa, t, 0, ctx)[0]


def whittaker_W_jet(s, kappa, t, order: int = 4, ctx: PrecisionContext = None):
    ctx = ctx or PrecisionContext()
    with ctx.working():
        return _whittaker_jet("W", s, kappa, t, order, ctx)


def whittaker_ode_residual(kind: str, s, kappa, t, ctx: PrecisionContext = None):
    """Residual of w'' + (-1/4 + kap/x + (1/4 - mu^2)/x^2) w for the
    unrenormalized Whittaker function at x = |t|, all three orders from
    independent parameter-shift evaluations."""
    ctx = ctx or PrecisionContext()
    s = _frac(s)
    kappa = _frac(kappa)
    with ctx.working():
        sgn = 1 if t > 0 else -1
        x = abs(to_mpf(t))
        kap_eff = to_mpf(Fraction(sgn) * kappa / 2)
        mu = to_mpf(s - Fraction(1, 2))
        a = mu - kap_eff + mp.mpf("0.5")
        b = 1 + 2 * mu
        space = JetSpace(1, 2)
        xjet = Jet.variable(space, 0, x)
        if kind == "M":
            _pole_check_M(s)
            dv = _kummer_M_derivs(a, b, x, 2)
        else:
            dv = _kummer_U_derivs(a, b, x, 2)
        hyp = compose_univariate([dv[0], dv[1], dv[2] / 2], xjet)
        w = (xjet * mp.mpf("-0.5")).exp() * xjet.pow_scalar(mu + mp.mpf("0.5")) * hyp
        w0 = w.derivative_at_base((0,))
        w2 = w.derivative_at_base((2,))
        q = mp.mpf("-0.25") + kap_eff / x + (mp.mpf("0.25") - mu ** 2) / x ** 2
        return abs(w2 + q * w0) / max(mp.mpf(1), abs(w0))


def bessel_J(nu, x, ctx: PrecisionContext = None):
    ctx = ctx or PrecisionContext()
    if x <= 0:
        raise DomainError("bessel_J requires x > 0")
    with ctx.working():
        return mp.besselj(to_mpf(_frac(nu)), to_mpf(x))


def bessel_I(nu, x, ctx: PrecisionContext = None):
    ctx = ctx or PrecisionContext()
    if x <= 0:
        raise DomainError("bessel_I requires x > 0")
    with ctx.working():
        return mp.besseli(to_mpf(_frac(nu)), to_mpf(x))


def _bessel_derivs(kind, nu, x, order):
    """Derivative list via the contiguous recurrences, memoized over offsets."""
    cache = {}

    def value(m):
        if m not in cache:
            cache[m] = (mp.besselj if kind == "J" else mp.besseli)(nu + m, x)
        return cache[m]

    def deriv(m, j):
        if j == 0:
            return value(m)
        if kind == "J":
            return (deriv(m - 1, j - 1) - deriv(m + 1, j - 1)) / 2
        return (deriv(m - 1, j - 1) + deriv(m + 1, j - 1)) / 2

    return [deriv(0, j) for j in range(order + 1)]


def bessel_J_jet(nu, x, order: int = 4, ctx: PrecisionContext = None):
    ctx = ctx or PrecisionContext()
    if x <= 0:
        raise DomainError("bessel_J requires x > 0")
    with ctx.working():
        return _bessel_derivs("J", to_mpf(_frac(nu)), mp.mpf(x), order)


def bessel_I_jet(nu, x, order: int = 4, ctx: PrecisionContext = None):
    ctx = ctx or PrecisionContext()
    if x <= 0:
        raise DomainError("bessel_I requires x > 0")
    with ctx.working():
        return _bessel_derivs("I", to_mpf(_frac(nu)), mp.mpf(x), order)


def upper_incomplete_gamma(a, x, ctx: PrecisionContext = None):
    """Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt for x > 0."""
    ctx = ctx or PrecisionContext()
    if x <= 0:
        raise DomainError("upper_incomplete_gamma requires x > 0")
    with ctx.working():
        return mp.gammainc(to_mpf(_frac(a)), to_mpf(x))


def upper_incomplete_gamma_jet(a, x, order: int = 4, ctx: PrecisionContext = None):
    """Derivatives of Gamma(a, .) via d/dx Gamma(a, x) = -x^{a-1} e^{-x}."""
    ctx = ctx or PrecisionContext()
    if x <= 0:
        raise DomainError("upper_incomplete_gamma requires x > 0")
    a = _frac(a)
    with ctx.working():
        xv = to_mpf(x)
        space = JetSpace(1, max(order - 1, 0))
        xjet = Jet.variable(space, 0, xv)
        g = -(xjet.pow_scalar(to_mpf(a - 1)) * (-xjet).exp())
        taylor = [mp.mpc(upper_incomplete_gamma(a, x, ctx))]
        for m in range(order):
            gm = g.derivative_at_base((m,)) / factorial(m)
            taylor.append(gm / (m + 1))
        return [taylor[j] * factorial(j) for j in range(order + 1)]


def h_profile(k, N: int, y, ctx: PrecisionContext = None):
    """H(y) = e^{-y} int_{-2y}^inf e^{-t} t^{-k-N/2} dt.

    For y < 0 this is e^{-y} Gamma(1-k-N/2, -2y), real.  For y > 0 the
    integral crosses t = 0 and converges only for k + N/2 < 1; in that
    region the value is the analytic continuation along the principal
    branch, which is real exactly when the exponent is an integer, and a
    complex number is returned otherwise.  Divergent parameter combinations
    raise instead of regularizing.
    """
    ctx = ctx or PrecisionContext()
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


def h_profile_jet(k, N: int, y, order: int = 4, ctx: PrecisionContext = None):
    """Derivatives of H via H'(y) = -H(y) + 2 e^y (-2y)^{-k-N/2}."""
    ctx = ctx or PrecisionContext()
    a = _frac(k) + Fraction(N, 2)
    with ctx.working():
        yv = to_mpf(y)
        if yv >= 0:
            raise DomainError("the H jet is implemented on y < 0 (negative index terms)")
        space = JetSpace(1, max(order - 1, 0))
        yjet = Jet.variable(space, 0, yv)
        elem = yjet.exp() * (yjet * mp.mpf(-2)).pow_scalar(to_mpf(-a)) * 2
        # H = sum taylor[m] (y - y0)^m with taylor[m+1] = (elem_m - taylor[m])/(m+1)
        taylor = [mp.mpc(h_profile(k, N, y, ctx))]
        for m in range(order):
            em = elem.derivative_at_base((m,)) / factorial(m)
            taylor.append((em - taylor[m]) / (m + 1))
        return [taylor[j] * factorial(j) for j in range(order + 1)]


def e_profile(z, ctx: PrecisionContext = None):
    """E(z) = 2 int_0^z e^{-pi u^2} du = erf(sqrt(pi) z)."""
    ctx = ctx or PrecisionContext()
    with ctx.working():
        zv = to_mpf(z)
        return mp.erf(mp.sqrt(mp.pi) * zv)


def e_profile_jet(z, order: int = 4, ctx: PrecisionContext = None):
    """Derivatives of E via E'(z) = 2 e^{-pi z^2}."""
    ctx = ctx or PrecisionContext()
    with ctx.working():
        zv = to_mpf(z)
        space = JetSpace(1, max(order - 1, 0))
        zjet = Jet.variable(space, 0, zv)
        g = (zjet * zjet * (-mp.pi)).exp() * 2
        taylor = [mp.mpc(e_profile(z, ctx))]
        for m in range(order):
            gm = g.derivative_at_base((m,)) / factorial(m)
            taylor.append(gm / (m + 1))
        return [taylor[j] * factorial(j) for j in range(order + 1)]


def monotone_precision_digits(fn, ctx: PrecisionContext, digits: int = 20) -> bool:
    """True when doubling the working precision leaves the leading digits
    of fn(ctx) unchanged."""
    lo = fn(ctx)
    hi = fn(ctx.doubled())
    with ctx.doubled().working():
        lo, hi = mp.mpc(lo), mp.mpc(hi)
        scale = max(abs(hi), mp.mpf(10) ** (-digits))
        return bool(abs(lo - hi) / scale < mp.mpf(10) ** (-digits))
