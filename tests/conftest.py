"""Hypothesis profiles, the shared precision fixture, and the helpers that
more than one test module uses: an 8th-order finite difference, and the
residuals of acceptance criteria 06 and 15 that test modules check again
at their own sizes."""

from fractions import Fraction

import pytest
from hypothesis import settings
from mpmath import mp

from maassjacobi.enveloping import build_classical_invariants
from maassjacobi.precision import PrecisionContext, to_fraction, to_mpf
from maassjacobi.specfun import _whittaker_x_jet

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


def classical_relations_residuals(N: int):
    """The two quadratic relations among Q0, Q_ij, C_ij, over all indices."""
    data = build_classical_invariants(N)
    Q0, Q, C = data["Q0"], data["Q"], data["C"]
    residuals = []
    rng = range(N)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    r1 = Q[i][j] * Q[k][l] + Q[i][l] * Q[j][k] + Q[i][k] * Q[l][j]
                    r2 = C[i][j] * C[k][l] - C[i][k] * C[j][l] + Q0 * Q[i][l] * Q[j][k]
                    residuals.append(((i, j, k, l), r1, r2))
    return residuals


def whittaker_ode_residual(kind: str, s, kappa, t, ctx: PrecisionContext):
    """Residual of w'' + (-1/4 + kap/x + (1/4 - mu^2)/x^2) w for the
    unrenormalized Whittaker function at x = |t|, all three orders from
    independent parameter-shift evaluations."""
    with ctx.working():
        sgn, xjet, w = _whittaker_x_jet(kind, s, kappa, t, 2)
        kap_eff = sgn * to_fraction(kappa) / 2
        mu = to_fraction(s) - Fraction(1, 2)
        x = xjet.value.real
        w0 = w.derivative_at_base((0,))
        w2 = w.derivative_at_base((2,))
        q = mp.mpf("-0.25") + to_mpf(kap_eff) / x + (mp.mpf("0.25") - to_mpf(mu) ** 2) / x ** 2
        return abs(w2 + q * w0) / max(mp.mpf(1), abs(w0))
