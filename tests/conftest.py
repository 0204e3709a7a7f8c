"""Hypothesis profiles, the shared precision fixture, and the helpers that
more than one test module uses: an 8th-order finite difference, the
parameter-shift Whittaker jets (the oracle of the jets that ``specfun``
takes from Whittaker's equation), and the loop that is the oracle of the
sums at a point."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import settings
from mpmath import mp

from maassjacobi.errors import DomainError
from maassjacobi.jets import Jet, JetSpace, compose_univariate
from maassjacobi.precision import PrecisionContext, to_fraction, to_mpf
from maassjacobi.specfun import _kummer_u, _pochhammer, _pole_check_M

# Property tests over the exact core: derandomized, so that every run draws
# the same examples, and bounded, so that tier-1 stays quick.
settings.register_profile("exact", derandomize=True, database=None,
                          max_examples=25, deadline=None)
# Property tests of numeric kernels against slower mpmath oracles: also
# derandomized, and fewer examples, because each oracle call costs
# milliseconds.
settings.register_profile("numeric", derandomize=True, database=None,
                          max_examples=20, deadline=None)


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(bits=128)


FD_WEIGHTS_8 = tuple(
    zip(
        range(-4, 5),
        (Fraction(1, 280), Fraction(-4, 105), Fraction(1, 5), Fraction(-4, 5),
         Fraction(0), Fraction(4, 5), Fraction(-1, 5), Fraction(4, 105),
         Fraction(-1, 280)),
    )
)


def sum_by_loop(terms):
    """A sum started from its first term: the accumulator that the sums at a
    point (tr(L a), L[v], h.v, n tau + r.z and the seed's exponent) used
    before they started from zero, kept as their oracle."""
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def finite_difference(fun, base: list, var: int, h):
    """8th-order central first difference of fun over coordinate tuples."""
    acc = mp.mpc(0)
    for n, w in FD_WEIGHTS_8:
        if w == 0:
            continue
        pt = list(base)
        pt[var] = pt[var] + n * h
        acc += (mp.mpf(w.numerator) / w.denominator) * fun(pt)
    return acc / h


def _kummer_derivs(kind: str, a: Fraction, b: Fraction, x, order):
    """[F(x), F'(x), ...] for F = M(a, b, .) or U(a, b, .), by the parameter
    shifts d/dx M(a, b, x) = (a/b) M(a + 1, b + 1, x) and d/dx U(a, b, x) =
    -a U(a + 1, b + 1, x) (DLMF 13.3.15, 13.3.22): one Kummer function per
    order."""
    if kind == "M":
        a, b = to_mpf(a), to_mpf(b)
        return [_pochhammer(a, j) / _pochhammer(b, j) * mp.hyp1f1(a + j, b + j, x)
                for j in range(order + 1)]
    return [to_mpf((-1) ** j * _pochhammer(a, j)) * _kummer_u(a + j, b + j, x)
            for j in range(order + 1)]


def whittaker_x_jet_by_shifts(kind: str, s, kappa, t, order):
    """The Whittaker map (s, kappa, t) -> (sgn, x, a, b, mu) and the jet in x.

    With sgn = sgn(t), x = |t|, kappa_eff = sgn kappa/2, mu = s - 1/2,
    a = mu - kappa_eff + 1/2 and b = 1 + 2 mu, returns (sgn, xjet, w), where
    w is the jet in x of the unrenormalized e^{-x/2} x^{mu+1/2} times
    M(a, b, x) or U(a, b, x), i.e. M-or-W_{kappa_eff, mu}(x), each order from
    its own Kummer function.
    """
    s = to_fraction(s)
    kappa = to_fraction(kappa)
    if t == 0:
        raise DomainError("Whittaker argument must be nonzero")
    sgn = 1 if t > 0 else -1
    x0 = abs(to_mpf(t))
    kap_eff = Fraction(sgn, 1) * kappa / 2
    mu = s - Fraction(1, 2)
    a = mu - kap_eff + Fraction(1, 2)
    b = 1 + 2 * mu
    space = JetSpace(1, order)
    xjet = Jet.variable(space, 0, x0)
    if kind == "M":
        _pole_check_M(s)
    dvals = _kummer_derivs(kind, a, b, x0, order)
    hyp = compose_univariate([d / factorial(j) for j, d in enumerate(dvals)], xjet)
    whit = (xjet * mp.mpf("-0.5")).exp() * xjet.pow_scalar(to_mpf(mu + Fraction(1, 2))) * hyp
    return sgn, xjet, whit


def whittaker_jet_by_shifts(kind: str, s, kappa, t, order, ctx: PrecisionContext):
    """Derivatives in t of |t|^{-kappa/2} M-or-W_{sgn(t) kappa/2, s-1/2}(|t|),
    by jet arithmetic on ``whittaker_x_jet_by_shifts``."""
    with ctx.working():
        sgn, xjet, whit = whittaker_x_jet_by_shifts(kind, s, kappa, t, order)
        renorm = xjet.pow_scalar(to_mpf(-to_fraction(kappa) / 2)) * whit
        # d/dt = sgn * d/dx
        return [renorm.derivative_at_base((j,)) * sgn ** j for j in range(order + 1)]
