import random
from fractions import Fraction
from math import factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from maassjacobi import jets, specfun
from maassjacobi.errors import DomainError, PoleError, PrecisionError
from maassjacobi.jets import Jet, JetSpace, compose_univariate, coordinate_jets, imaginary_parts
from maassjacobi.precision import PrecisionContext, to_fraction, to_mpf
from maassjacobi.specfun import (
    _kummer_u,
    bessel_I,
    bessel_I_jet,
    bessel_J,
    bessel_J_jet,
    e_profile,
    e_profile_jet,
    h_profile,
    h_profile_jet,
    upper_incomplete_gamma,
    upper_incomplete_gamma_jet,
    whittaker_M_jet,
    whittaker_M_renorm,
    whittaker_W_jet,
    whittaker_W_renorm,
)

from conftest import sum_by_loop, whittaker_jet_by_shifts


def _nilpotent_part(j):
    """The jet minus its constant term."""
    out = dict(j.terms)
    out.pop(j.space._zero, None)
    return Jet(j.space, out)


def _max_abs(j):
    return max((abs(c) for c in j.terms.values()), default=mp.mpf(0))


def _monotone_precision_digits(fn, ctx, digits=20):
    """True when doubling the working precision leaves the leading digits
    of fn(ctx) unchanged."""
    doubled = PrecisionContext(bits=2 * ctx.bits)
    lo = fn(ctx)
    hi = fn(doubled)
    with doubled.working():
        lo, hi = mp.mpc(lo), mp.mpc(hi)
        scale = max(abs(hi), mp.mpf(10) ** (-digits))
        return bool(abs(lo - hi) / scale < mp.mpf(10) ** (-digits))


def test_jet_arithmetic(ctx):
    with ctx.working():
        sp = JetSpace(3, 4)
        x = Jet.variable(sp, 0, mp.mpf("0.7"))
        y = Jet.variable(sp, 1, mp.mpc("0.2", "0.5"))
        z = Jet.variable(sp, 2, mp.mpf("-1.1"))
        f = (x * y + z).exp()
        g = f * f.reciprocal()
        assert abs(g.value - 1) < mp.mpf("1e-35")
        assert _max_abs(_nilpotent_part(g)) < mp.mpf("1e-35")
        p = (x * x + 2).pow_scalar(mp.mpf("0.5"))
        assert _max_abs(p * p - (x * x + 2)) < mp.mpf("1e-35")
        # mixed partial of exp(xy + z): d^3/dx dy dz = (1 + xy) exp(..)
        d = f.derivative_at_base((1, 1, 1))
        expect = (1 + x.value * y.value) * mp.exp(x.value * y.value + z.value)
        assert abs(d - expect) < mp.mpf("1e-33")


def test_jet_compose(ctx):
    with ctx.working():
        sp = JetSpace(2, 4)
        a = Jet.variable(sp, 0, mp.mpf("0.3"))
        b = Jet.variable(sp, 1, mp.mpf("0.9"))
        inner1 = a * b + 1          # value 1.27
        inner2 = (a + b) * mp.mpf("0.5")
        outer_space = JetSpace(2, 4)
        u = Jet.variable(outer_space, 0, inner1.value)
        v = Jet.variable(outer_space, 1, inner2.value)
        outer = (u * u + v).exp()
        composed = outer.compose([inner1, inner2])
        direct = (inner1 * inner1 + inner2).exp()
        assert _max_abs(composed - direct) < mp.mpf("1e-30")


# -- the dict-of-mpc engine, the oracle of the table-driven one ----------------

_scalar_mul = Jet.__mul__


def _oracle_mul(a, b):
    """Jet product summed term by term in mpc, rounding after every product
    and every partial sum."""
    if not isinstance(b, Jet):
        return _scalar_mul(a, b)
    deg = a.space.degree
    x, y = a.terms, b.terms
    if len(y) < len(x):
        x, y = y, x
    out = {}
    for e1, c1 in x.items():
        d1 = sum(e1)
        for e2, c2 in y.items():
            if d1 + sum(e2) > deg:
                continue
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, mp.mpc(0)) + c1 * c2
    return Jet(a.space, {e: c for e, c in out.items() if c != 0})


def _oracle_compose_univariate(series, inner):
    delta = _nilpotent_part(inner)
    acc = Jet.const(inner.space, series[0])
    power = Jet.const(inner.space, 1)
    for n in range(1, min(len(series), inner.space.degree + 1)):
        power = _oracle_mul(power, delta)
        if not power.terms:
            break
        acc = acc + power * series[n]
    return acc


def _oracle_compose(outer, inners):
    target = inners[0].space
    deltas = [_nilpotent_part(j) for j in inners]
    prod_cache = {(0,) * outer.space.nvars: Jet.const(target, 1)}

    def product_for(e):
        if e not in prod_cache:
            i = max(j for j, k in enumerate(e) if k)
            prev = e[:i] + (e[i] - 1,) + e[i + 1:]
            prod_cache[e] = _oracle_mul(product_for(prev), deltas[i])
        return prod_cache[e]

    out = Jet.const(target, 0)
    for e in sorted(outer.terms, key=lambda t: (sum(t), t)):
        out = out + product_for(e) * outer.terms[e]
    return out


def _random_jet(sp, rng, fill=1.0, dyadic=False, value=None):
    """A jet whose coefficients span 1e-40 to 1e40 (or are small dyadic
    numbers), with exact zeros: absent terms, and zero real or imaginary
    parts."""
    monos = jets._tables(sp.nvars, sp.degree).monos
    terms = {}
    for e in monos:
        if rng.random() > fill:
            continue
        parts = []
        for _ in range(2):
            r = rng.random()
            if r < 0.2:
                parts.append(mp.mpf(0))
            elif dyadic:
                parts.append(mp.mpf(rng.randint(-64, 64)) / 8)
            else:
                parts.append(mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** rng.uniform(-40, 40)
                             + mp.mpf(rng.uniform(-1, 1)) * mp.mpf(2) ** -mp.prec)
        c = mp.mpc(*parts)
        if c != 0:
            terms[e] = c
    if value is not None:
        terms[sp._zero] = mp.mpc(value)
    return Jet(sp, terms)


def _assert_close(new, old, bits=8):
    """Per coefficient, relative 2^-(prec - bits)."""
    assert new.space == old.space
    tol = mp.mpf(2) ** (bits - mp.prec)
    for e in set(new.terms) | set(old.terms):
        a, b = new.terms.get(e, mp.mpc(0)), old.terms.get(e, mp.mpc(0))
        assert abs(a - b) <= tol * abs(b), (e, a, b)


SPACES = [JetSpace(1, 5), JetSpace(4, 3), JetSpace(6, 4)]


@pytest.mark.parametrize("sp", SPACES, ids=lambda sp: f"{sp.nvars},{sp.degree}")
def test_jet_engine_matches_dict_oracle(ctx, sp, monkeypatch):
    rng = random.Random(sp.nvars * 10 + sp.degree)
    fill = 0.3 if sp.nvars == 6 else 1.0
    with ctx.working():
        a = _random_jet(sp, rng, fill)
        b = _random_jet(sp, rng, fill)
        u = _random_jet(sp, rng, fill, value=mp.mpc("1.3", "-0.4"))
        series = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / factorial(n)
                  for n in range(sp.degree + 2)]
        alpha = mp.mpf(1) / 3
        new = [a * b, compose_univariate(series, a), u.reciprocal(), u.exp(),
               u.pow_scalar(alpha)]
        with monkeypatch.context() as m:
            m.setattr(Jet, "__mul__", _oracle_mul)
            m.setattr(Jet, "__rmul__", _oracle_mul)
            m.setattr(jets, "compose_univariate", _oracle_compose_univariate)
            old = [a * b, _oracle_compose_univariate(series, a), u.reciprocal(), u.exp(),
                   u.pow_scalar(alpha)]
        for x, y in zip(new, old):
            _assert_close(x, y)
        # compose: an outer jet in a space of its own, inner jets in sp
        outer_sp = JetSpace(3, sp.degree)
        outer = _random_jet(outer_sp, rng)
        inners = [_random_jet(sp, rng, fill, value=i + 1) for i in range(3)]
        _assert_close(outer.compose(inners), _oracle_compose(outer, inners))


@pytest.mark.parametrize("sp", SPACES, ids=lambda sp: f"{sp.nvars},{sp.degree}")
def test_jet_engine_is_correctly_rounded(ctx, sp):
    # the dict oracle at a precision where it makes no rounding at all,
    # rounded once to the working precision, is the new engine's result
    rng = random.Random(sp.nvars * 7 + sp.degree)
    fill = 0.3 if sp.nvars == 6 else 1.0

    def exactly(fn, *args):
        with mp.workprec(8000):
            out = fn(*args)
        return Jet(out.space, {e: +c for e, c in out.terms.items()})

    with ctx.working():
        a = _random_jet(sp, rng, fill)
        b = _random_jet(sp, rng, fill)
        series = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / factorial(n)
                  for n in range(sp.degree + 1)]
        assert a * b == exactly(_oracle_mul, a, b)
        assert compose_univariate(series, a) == exactly(_oracle_compose_univariate, series, a)
        outer = _random_jet(JetSpace(2, sp.degree), rng)
        inners = [_random_jet(sp, rng, fill, value=3), _random_jet(sp, rng, fill, value=-1)]
        assert outer.compose(inners) == exactly(_oracle_compose, outer, inners)


@pytest.mark.parametrize("sp", SPACES, ids=lambda sp: f"{sp.nvars},{sp.degree}")
def test_jet_engine_dyadic_sums_are_exact(ctx, sp):
    rng = random.Random(sp.nvars + sp.degree)
    with ctx.working():
        a = _random_jet(sp, rng, dyadic=True)
        b = _random_jet(sp, rng, dyadic=True)
        assert a * b == _oracle_mul(a, b)
        assert a * b == b * a
        series = [mp.mpf(rng.randint(-8, 8)) / 4 for _ in range(sp.degree + 1)]
        assert compose_univariate(series, a) == _oracle_compose_univariate(series, a)
        outer = _random_jet(JetSpace(2, sp.degree), rng, dyadic=True)
        inners = [_random_jet(sp, rng, 0.5, dyadic=True), _random_jet(sp, rng, 0.5, dyadic=True)]
        assert outer.compose(inners) == _oracle_compose(outer, inners)
    # the order of the terms does not matter either
    with ctx.working():
        a = _random_jet(sp, rng)
        b = _random_jet(sp, rng)
        shuffled = list(b.terms.items())
        rng.shuffle(shuffled)
        assert a * b == b * a == a * Jet(sp, dict(shuffled))


@settings(settings.get_profile("exact"))
@given(N=st.sampled_from([1, 2]), degree=st.integers(0, 4), data=st.data())
def test_jet_sums_from_zero_match_the_loop(N, degree, data):
    # small integer parts cancel often, so keys leave and come back; the
    # thirds round, so coefficients that are not exact sums are met too
    space = JetSpace.for_rank(N, degree)
    monos = jets._tables(space.nvars, degree).monos
    parts = st.integers(-2, 2)
    terms = data.draw(st.lists(st.dictionaries(
        st.sampled_from(monos), st.tuples(parts, parts, st.sampled_from([1, 3])),
        max_size=6), min_size=1, max_size=6))
    with mp.workprec(128):
        terms = [Jet(space, {e: mp.mpc(a, b) / d for e, (a, b, d) in t.items() if a or b})
                 for t in terms]
        got = sum(terms, Jet.const(space, 0))
        assert list(got.terms.items()) == list(sum_by_loop(terms).terms.items())
        values = [t.value for t in terms]
        assert sum(values, values[0] * 0) == sum_by_loop(values)


@pytest.mark.parametrize("N, degree", [(1, 0), (1, 2), (2, 1), (2, 3)])
def test_coordinate_jets_are_the_variables_in_order(ctx, N, degree):
    space = JetSpace.for_rank(N, degree)
    tau, z = mp.mpc("0.3", "1.2"), [mp.mpc("0.1", "-0.4"), mp.mpc("-0.7", "0.25")][:N]
    with ctx.working():
        coords = coordinate_jets(space, tau, z)
        bases = [tau, mp.conj(tau), *z, *(mp.conj(w) for w in z)]
        assert [coords.tau, coords.taubar, *coords.z, *coords.zbar] == \
            [Jet.variable(space, i, b) for i, b in enumerate(bases)]
        # y = (tau - taubar)/(2i) and v_j = (z_j - zbar_j)/(2i), as built
        # before they were the imaginary parts of Coordinates
        y, v = imaginary_parts(coords)
        assert y == (coords.tau - coords.taubar) * mp.mpc(0, -0.5)
        assert v == tuple((zj - zbj) * mp.mpc(0, -0.5) for zj, zbj in zip(coords.z, coords.zbar))
        assert y.value == tau.imag and [vj.value for vj in v] == [w.imag for w in z]


def test_non_finite_jet_coefficients_raise(ctx):
    with ctx.working():
        sp = JetSpace(2, 3)
        x = Jet.variable(sp, 0, mp.mpf("0.5"))
        for bad in (mp.inf, -mp.inf, mp.nan, mp.mpc(1, mp.inf), mp.mpc(mp.nan, 0)):
            j = x + Jet(sp, {(1, 1): mp.mpc(bad)})
            with pytest.raises(DomainError):
                x * j
            with pytest.raises(DomainError):
                j * x
            with pytest.raises(DomainError):
                j.exp()
            with pytest.raises(DomainError):
                compose_univariate([1, 1], j)
            with pytest.raises(DomainError):
                x.compose([j, x])
            with pytest.raises(DomainError):
                j.compose([x, x])
            with pytest.raises(DomainError):
                x * bad
            # the constructors check too, so a scalar sum cannot smuggle one in
            with pytest.raises(DomainError):
                x + bad
            with pytest.raises(DomainError):
                Jet.const(sp, bad)
            with pytest.raises(DomainError):
                Jet.variable(sp, 1, bad)
        with pytest.raises(DomainError):
            Jet(sp, {(0, 0): mp.mpc(mp.inf)}).reciprocal()
        # an exponent outside the space is a domain error too, not a KeyError
        with pytest.raises(DomainError):
            x * Jet(sp, {(4, 0): mp.mpc(1)})


def test_whittaker_closed_forms(ctx):
    with ctx.working():
        # M with kappa = 0, s = 1: 2 sinh(|t|/2), both signs of t
        for t in (mp.mpf("0.7"), mp.mpf("-1.3"), mp.mpf("2.5")):
            v = whittaker_M_renorm(1, 0, t, ctx)
            assert abs(v - 2 * mp.sinh(abs(t) / 2)) < mp.mpf("1e-40")
        # W at the duality parameters: e^{-y/2} for y > 0, incomplete gamma
        # for y < 0 (checked at weights mirrored under k <-> N+2-k)
        for (N, k) in ((1, 3), (2, 4), (1, -2), (1, 3 - 3), (2, 4 - 4 + 2)):
            s = Fraction(1) + Fraction(N, 4) - Fraction(k, 2)
            kap = Fraction(k) - Fraction(N, 2)
            y = mp.mpf("1.7")
            assert abs(whittaker_W_renorm(s, kap, y, ctx) - mp.exp(-y / 2)) \
                < mp.mpf("1e-25")
            y = mp.mpf("-1.3")
            expect = mp.exp(-y / 2) * mp.gammainc(to_mpf(Fraction(N + 2, 2) - k), -y)
            assert abs(whittaker_W_renorm(s, kap, y, ctx) - expect) < mp.mpf("1e-25")


def test_whittaker_sign_symmetry(ctx):
    with ctx.working():
        # flipping t flips the first Whittaker index: at -t the value is
        # |t|^{-kap/2} M_{-kap/2, s-1/2}(|t|), checked against the direct
        # Kummer series
        s, kap = Fraction(9, 4), Fraction(3, 2)
        t = mp.mpf("1.9")
        v_neg = whittaker_M_renorm(s, kap, -t, ctx)
        mu = to_mpf(s - Fraction(1, 2))
        kk = to_mpf(-kap / 2)
        direct = mp.power(t, to_mpf(-kap / 2)) * (
            mp.exp(-t / 2) * mp.power(t, mu + mp.mpf("0.5"))
            * mp.hyp1f1(mu - kk + mp.mpf("0.5"), 1 + 2 * mu, t))
        assert abs(v_neg - direct) < mp.mpf("1e-38")
        # and at +t the first index is +kap/2
        v_pos = whittaker_M_renorm(s, kap, t, ctx)
        kk = to_mpf(kap / 2)
        direct = mp.power(t, to_mpf(-kap / 2)) * (
            mp.exp(-t / 2) * mp.power(t, mu + mp.mpf("0.5"))
            * mp.hyp1f1(mu - kk + mp.mpf("0.5"), 1 + 2 * mu, t))
        assert abs(v_pos - direct) < mp.mpf("1e-38")


def test_whittaker_small_t_growth(ctx):
    # M_{s,kappa}(y) ~ y^{Re s - kappa/2} as y -> 0: the renormalized seed
    # estimate exponent with kappa = k - N/2 is Re(s) - (2k - N)/4
    with ctx.working():
        N, k = 1, 2
        s = Fraction(5, 2)
        kap = Fraction(k) - Fraction(N, 2)
        expo = to_mpf(s - Fraction(2 * k - N, 4))
        vals = []
        for y in (mp.mpf("1e-3"), mp.mpf("1e-4")):
            vals.append(whittaker_M_renorm(s, kap, y, ctx) / mp.power(y, expo))
        assert abs(vals[0] - vals[1]) / abs(vals[1]) < mp.mpf("1e-2")


def test_whittaker_pole_and_domain_errors(ctx):
    with pytest.raises(PoleError):
        whittaker_M_renorm(Fraction(-1), 0, mp.mpf(1), ctx)
    with pytest.raises(DomainError):
        whittaker_M_renorm(Fraction(1), 0, 0, ctx)


def test_whittaker_jets_vs_fd(ctx):
    with ctx.working():
        s, kap, t = Fraction(9, 4), Fraction(1, 2), mp.mpf("1.3")
        jets = whittaker_M_jet(s, kap, t, 4, ctx)
        h = mp.mpf("1e-7")
        fd = (whittaker_M_renorm(s, kap, t + h, ctx)
              - whittaker_M_renorm(s, kap, t - h, ctx)) / (2 * h)
        assert abs(jets[1] - fd) < mp.mpf("1e-10")
        jets = whittaker_W_jet(s, kap, -t, 4, ctx)
        fd = (whittaker_W_renorm(s, kap, -t + h, ctx)
              - whittaker_W_renorm(s, kap, -t - h, ctx)) / (2 * h)
        assert abs(jets[1] - fd) < mp.mpf("1e-10")


def test_bessel(ctx):
    with ctx.working():
        x = mp.mpf(1)
        assert abs(bessel_J(Fraction(1, 2), x, ctx)
                   - mp.sqrt(2 / (mp.pi * x)) * mp.sin(x)) < mp.mpf("1e-30")
        assert bessel_I(Fraction(7, 3), mp.mpf("2.2"), ctx) > 0
        # recurrence J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu at random points
        rng = random.Random(4)
        for _ in range(10):
            nu = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            x = mp.mpf(rng.uniform(0.3, 5.0))
            lhs = bessel_J(nu - 1, x, ctx) + bessel_J(nu + 1, x, ctx)
            rhs = 2 * to_mpf(nu) / x * bessel_J(nu, x, ctx)
            assert abs(lhs - rhs) < mp.mpf("1e-30")
        # ODE residuals from jets
        for nu in (Fraction(7, 3), Fraction(-1, 2), Fraction(2)):
            nuv = to_mpf(nu)
            for x in (mp.mpf("0.9"), mp.mpf("2.7")):
                dj = bessel_J_jet(nu, x, 4, ctx)
                assert abs(x ** 2 * dj[2] + x * dj[1] + (x ** 2 - nuv ** 2) * dj[0]) \
                    < mp.mpf("1e-20")
                di = bessel_I_jet(nu, x, 4, ctx)
                assert abs(x ** 2 * di[2] + x * di[1] - (x ** 2 + nuv ** 2) * di[0]) \
                    < mp.mpf("1e-20")
    with pytest.raises(DomainError):
        bessel_J(1, -1, ctx)


def test_bessel_I_at_a_negative_integer_order_is_the_positive_one(ctx, monkeypatch):
    # I_{-n} = I_n (DLMF 10.27.1) and the ODE holds nu^2, so the jets agree
    # exactly; mpmath's slow limit at a negative integer order is never taken
    orders, besseli = [], mp.besseli
    monkeypatch.setattr(mp, "besseli", lambda nu, x: orders.append(nu) or besseli(nu, x))
    for n in range(5):
        for x in (mp.mpf("0.05"), mp.mpf("2.7")):
            assert bessel_I(-n, x, ctx) == bessel_I(n, x, ctx)
            assert bessel_I_jet(-n, x, 4, ctx) == bessel_I_jet(n, x, 4, ctx)
    assert orders and min(orders) >= 0


def test_incomplete_gamma(ctx):
    with ctx.working():
        x = mp.mpf("0.9")
        assert abs(upper_incomplete_gamma(1, x, ctx) - mp.exp(-x)) < mp.mpf("1e-35")
        # Gamma(a, x) -> Gamma(a) as x -> 0+ for a > 0
        a = Fraction(7, 4)
        assert abs(upper_incomplete_gamma(a, mp.mpf("1e-30"), ctx)
                   - mp.gamma(to_mpf(a))) < mp.mpf("1e-25")
        # recurrence
        r = upper_incomplete_gamma(a + 1, x, ctx) \
            - to_mpf(a) * upper_incomplete_gamma(a, x, ctx) \
            - mp.power(x, to_mpf(a)) * mp.exp(-x)
        assert abs(r) < mp.mpf("1e-35")


def test_h_profile(ctx):
    with ctx.working():
        # y < 0: e^{-y} Gamma(1 - k - N/2, -2y), quadrature cross check
        rng = random.Random(8)
        for _ in range(20):
            k = Fraction(rng.randint(-3, 4), rng.choice([1, 2]))
            N = rng.choice([1, 2])
            y = mp.mpf(rng.uniform(-3.0, -0.2))
            a = k + Fraction(N, 2)
            v = h_profile(k, N, y, ctx)
            q = mp.exp(-y) * mp.quad(
                lambda t: mp.exp(-t) * mp.power(t, -to_mpf(a)), [-2 * y, mp.inf])
            assert abs(v - q) / abs(q) < mp.mpf("1e-20")
        # k + N/2 = 0 gives e^y on both sides of 0
        for y in (mp.mpf("0.8"), mp.mpf("-0.6")):
            assert abs(h_profile(Fraction(-1), 2, y, ctx) - mp.exp(y)) < mp.mpf("1e-35")
        # divergence refused
        with pytest.raises(DomainError):
            h_profile(Fraction(2), 1, mp.mpf("0.5"), ctx)
        # jets match finite differences of the scalar version
        k, N, y = Fraction(2), 1, mp.mpf("-1.2")
        dj = h_profile_jet(k, N, y, 4, ctx)
        h = mp.mpf("1e-6")
        fd = (h_profile(k, N, y + h, ctx) - h_profile(k, N, y - h, ctx)) / (2 * h)
        assert abs(dj[1] - fd) < mp.mpf("1e-10")


def test_h_profile_continues_past_zero(ctx):
    # at y > 0 and a = k + N/2 < 1 the integral from -2y crosses t = 0; on
    # the principal branch t^{-a} = e^{-i pi a} u^{-a} at t = -u, so
    # H(y) = e^{-y} (Gamma(1 - a) + e^{-i pi a} int_0^{2y} e^u u^{-a} du),
    # which is real exactly when a is an integer
    with ctx.working():
        for k, N in ((Fraction(-1), 1), (Fraction(-5, 2), 2), (Fraction(-3, 2), 1)):
            a = to_mpf(k + Fraction(N, 2))
            for y in (mp.mpf("0.3"), mp.mpf("1.1")):
                v = h_profile(k, N, y, ctx)
                q = mp.exp(-y) * (mp.gamma(1 - a) + mp.exp(-1j * mp.pi * a) * mp.quad(
                    lambda u: mp.exp(u) * mp.power(u, -a), [0, 2 * y]))
                assert abs(v - q) < abs(q) * mp.mpf("1e-35")
                assert isinstance(v, mp.mpc) == (a != int(a))


def test_e_profile(ctx):
    with ctx.working():
        assert e_profile(0, ctx) == 0
        for z in (mp.mpf("0.3"), mp.mpf("1.7")):
            assert abs(e_profile(z, ctx) + e_profile(-z, ctx)) < mp.mpf("1e-40")
        q = 2 * mp.quad(lambda u: mp.exp(-mp.pi * u ** 2), [0, 1])
        assert abs(e_profile(1, ctx) - q) < mp.mpf("1e-25")
        assert e_profile(mp.mpf(30), ctx) - 1 < mp.mpf("1e-50")
        # monotone increasing
        assert e_profile(mp.mpf("0.4"), ctx) < e_profile(mp.mpf("0.5"), ctx)
        # jets vs finite differences
        z = mp.mpf("0.4")
        dj = e_profile_jet(z, 4, ctx)
        h = mp.mpf("1e-6")
        fd = (e_profile(z + h, ctx) - e_profile(z - h, ctx)) / (2 * h)
        assert abs(dj[1] - fd) < mp.mpf("1e-10")


def test_monotone_precision(ctx):
    checks = [
        lambda c: whittaker_M_renorm(Fraction(5, 2), Fraction(3, 2), mp.mpf("1.7"), c),
        lambda c: whittaker_W_renorm(Fraction(5, 2), Fraction(3, 2), mp.mpf("-2.3"), c),
        lambda c: bessel_J(Fraction(7, 3), mp.mpf("2.2"), c),
        lambda c: h_profile(Fraction(2), 1, mp.mpf("-1.2"), c),
        lambda c: e_profile(mp.mpf("0.77"), c),
    ]
    for fn in checks:
        assert _monotone_precision_digits(fn, ctx)


def test_incomplete_gamma_jet(ctx):
    with ctx.working():
        a, x = Fraction(7, 4), mp.mpf("1.3")
        dj = upper_incomplete_gamma_jet(a, x, 4, ctx)
        # first derivative closed form
        expect = -mp.power(x, to_mpf(a - 1)) * mp.exp(-x)
        assert abs(dj[1] - expect) < mp.mpf("1e-35")
        h = mp.mpf("1e-7")
        fd2 = (upper_incomplete_gamma(a, x + h, ctx)
               - 2 * upper_incomplete_gamma(a, x, ctx)
               + upper_incomplete_gamma(a, x - h, ctx)) / h ** 2
        assert abs(dj[2] - fd2) < mp.mpf("1e-10")


def test_whittaker_W_large_t_decay(ctx):
    # leading order W ~ e^{-|t|/2} |t|^{sgn(t) kap/2 - kap/2}: checked as a
    # two-point asymptotic-ratio oracle (the 1/t correction shrinks)
    with ctx.working():
        s, kap = Fraction(9, 4), Fraction(3, 2)
        for sgn in (1, -1):
            def reduced(t):
                x = abs(t)
                lead = mp.exp(-x / 2) * mp.power(
                    x, to_mpf(Fraction(sgn, 2) * kap - kap / 2))
                return whittaker_W_renorm(s, kap, t, ctx) / lead
            r50 = reduced(mp.mpf(50) * sgn)
            r100 = reduced(mp.mpf(100) * sgn)
            # ratios tend to 1 with O(1/t) error
            assert abs(r50 - 1) < mp.mpf("0.1")
            assert abs(r100 - 1) < abs(r50 - 1)
            assert abs(r100 - 1) < mp.mpf("0.05")


def test_bessel_values_are_rounded_to_working_precision(ctx):
    # mpmath returns J_3(5) with 201 bits at 152; rounded, every value and
    # derivative has at most the working precision's bits
    for jet in (bessel_J_jet, bessel_I_jet):
        for nu, x in ((3, 5), (Fraction(7, 3), mp.mpf("2.2")), (Fraction(-1, 2), mp.mpf("0.9"))):
            values = jet(nu, x, 4, ctx)
            with ctx.working():
                assert all(v.man.bit_length() <= mp.prec for v in values), (jet, nu, x)


def _hyperu(a, b, x):
    """Kummer's U by mpmath, the evaluator W used before _kummer_u; at an
    integer b it takes mpmath's degenerate-limit path."""
    return mp.hyperu(to_mpf(a), to_mpf(b), x)


def _close(value, oracle, bits):
    return abs(value - oracle) <= mp.mpf(2) ** (8 - bits) * abs(oracle)


# (s, kappa, t) of the Whittaker seeds: b = 2s is an integer, b <= 0 at
# s = 0 and s = -1/2, kappa in (1/2)Z reaches the polynomial cases, and t
# ranges from near 0 to |t| = 60
_S = st.sampled_from([Fraction(j, 2) for j in range(-2, 9)])
_KAPPA = st.integers(-8, 12).map(lambda j: Fraction(j, 2))
_T = st.tuples(st.sampled_from([1, -1]),
               st.one_of(st.floats(1e-6, 1e-2), st.floats(0.1, 60))).map(lambda p: p[0] * p[1])


@settings(settings.get_profile("numeric"))
@given(a=st.tuples(st.integers(-16, 40), st.sampled_from([1, 2, 3, 4])).map(
           lambda p: Fraction(*p)),
       b=st.integers(-4, 10), x=st.floats(1e-6, 200), bits=st.sampled_from([64, 128]))
@example(a=Fraction(9, 4), b=5, x=3.7, bits=128)       # the log series
@example(a=Fraction(-1), b=0, x=1.3, bits=128)         # a polynomial
@example(a=Fraction(2), b=3, x=1.3, bits=128)          # a - b + 1 = 0: a polynomial
@example(a=Fraction(7, 4), b=-1, x=40.0, bits=128)     # Kummer's transformation
@example(a=Fraction(1, 4), b=1, x=150.0, bits=128)     # large x: the log series cancels most
@example(a=Fraction(-3, 4), b=-4, x=190.0, bits=128)   # and after Kummer's transformation
@example(a=Fraction(-3, 4), b=2, x=20.0, bits=128)     # a, a - b + 1 < 0: the log series
@example(a=Fraction(-17, 4), b=3, x=150.0, bits=128)
@example(a=Fraction(1, 4), b=1, x=10001.0, bits=128)   # past MAX_TERMS / 2: mpmath's hyperu
def test_kummer_u_matches_hyperu_at_double_precision(a, b, x, bits):
    with mp.workprec(bits):
        value = _kummer_u(a, b, mp.mpf(x))
    with mp.workprec(2 * bits):
        assert _close(value, _hyperu(a, b, mp.mpf(x)), bits)


def _whitw(s, kappa, t, bits):
    """|t|^{-kappa/2} W_{sgn(t) kappa/2, s-1/2}(|t|) by mpmath's whitw."""
    with mp.workprec(bits):
        x = abs(mp.mpf(t))
        kap = to_mpf(Fraction(1 if t > 0 else -1) * kappa / 2)
        return mp.power(x, -to_mpf(kappa / 2)) * mp.whitw(kap, to_mpf(s - Fraction(1, 2)), x)


@settings(settings.get_profile("numeric"))
@given(s=_S, kappa=_KAPPA, t=_T)
@example(s=Fraction(0), kappa=Fraction(2), t=1.7)           # U(-1, 0, x), a polynomial
@example(s=Fraction(0), kappa=Fraction(2), t=-1.3)          # U(1, 0, x)
@example(s=Fraction(-1, 2), kappa=Fraction(1, 2), t=2.2)
@example(s=Fraction(5, 2), kappa=Fraction(1, 2), t=16.8)
@example(s=Fraction(3), kappa=Fraction(-3, 2), t=-1e-6)
def test_whittaker_W_matches_whitw_at_double_precision(ctx, s, kappa, t):
    with mock.patch.object(mp, "hyperu", side_effect=AssertionError("mp.hyperu called")):
        value = whittaker_W_renorm(s, kappa, t, ctx)
    assert _close(value, _whitw(s, kappa, t, 2 * ctx.bits), ctx.bits)


@settings(settings.get_profile("numeric"))
@given(s=_S, kappa=_KAPPA, t=_T)
@example(s=Fraction(0), kappa=Fraction(0), t=7.3)
@example(s=Fraction(-1, 2), kappa=Fraction(3), t=-0.4)
def test_whittaker_W_jet_matches_hyperu_path(ctx, s, kappa, t):
    # every order of the jet, against the same jet built on mpmath's hyperu
    with mock.patch.object(mp, "hyperu", side_effect=AssertionError("mp.hyperu called")):
        jet = whittaker_W_jet(s, kappa, t, 4, ctx)
    with mock.patch.object(specfun, "_kummer_u", _hyperu):
        oracle = whittaker_W_jet(s, kappa, t, 4, ctx)
    with ctx.working():
        for j, (value, expect) in enumerate(zip(jet, oracle)):
            assert _close(value, expect, ctx.bits), j


# (kind, s, kappa, t) of the Whittaker jets: s in (1/4)Z, so that b = 2s
# takes integer, half-integer and pole values, and |t| up to 20
_WHITTAKER = st.tuples(st.sampled_from("MW"), st.integers(-4, 12).map(lambda j: Fraction(j, 4)),
                       _KAPPA, st.tuples(st.sampled_from([1, -1]), st.floats(1e-3, 20)).map(
                           lambda p: p[0] * p[1]))


def _whittaker_pole(kind, s):
    return kind == "M" and (2 * s).denominator == 1 and 2 * s <= 0


@settings(settings.get_profile("numeric"))
@given(case=_WHITTAKER, order=st.integers(0, 4), bits=st.sampled_from([128, 256]))
@example(case=("M", Fraction(9, 4), Fraction(1, 2), 18.4), order=4, bits=128)
@example(case=("W", Fraction(5, 2), Fraction(-3, 2), -13.3), order=4, bits=256)
@example(case=("W", Fraction(0), Fraction(2), 1.7), order=3, bits=128)   # U(-1, 0, x)
@example(case=("M", Fraction(-1, 2), Fraction(1), 2.0), order=2, bits=128)   # the pole
# M(1/2, -1/2, x) = e^x (1 - 2x) vanishes at x = 1/2
@example(case=("M", Fraction(-1, 4), Fraction(-3, 2), 0.5), order=2, bits=128)
def test_whittaker_jets_match_the_parameter_shift_oracle(case, order, bits):
    # the jets from Whittaker's equation against one Kummer function per
    # order (conftest), at every order; the oracle runs at twice the
    # precision, since its jet products cancel as |t|^-order near t = 0
    kind, s, kappa, t = case
    ctx = PrecisionContext(bits=bits)
    jet_of = whittaker_M_jet if kind == "M" else whittaker_W_jet
    if _whittaker_pole(kind, s):
        with pytest.raises(PoleError, match=f"^Whittaker M parameter pole: 2s = {2 * s}$"):
            jet_of(s, kappa, t, order, ctx)
        return
    try:
        oracle = whittaker_jet_by_shifts(kind, s, kappa, t, order, PrecisionContext(bits=2 * bits))
    except ValueError:
        # mpmath's hyp1f1 does not converge at an exact zero of M; the jet
        # reports it as a PrecisionError
        with pytest.raises(PrecisionError):
            jet_of(s, kappa, t, order, ctx)
        return
    jet = jet_of(s, kappa, t, order, ctx)
    assert len(jet) == order + 1
    with mp.workprec(2 * bits):
        for j, (value, expect) in enumerate(zip(jet, oracle)):
            assert _close(value, expect, bits), j


@settings(settings.get_profile("numeric"))
@given(case=_WHITTAKER, bits=st.sampled_from([128, 256]))
@example(case=("W", Fraction(3, 2), Fraction(1, 2), -0.7), bits=128)
@example(case=("M", Fraction(5, 4), Fraction(0), 9.1), bits=256)
def test_whittaker_values_keep_the_parameter_shift_bits(case, bits):
    # the value, alone or as order 0 of a jet, is the oracle's product of
    # working-precision factors bit for bit
    kind, s, kappa, t = case
    if _whittaker_pole(kind, s):
        return
    ctx = PrecisionContext(bits=bits)
    renorm, jet_of = ((whittaker_M_renorm, whittaker_M_jet) if kind == "M"
                      else (whittaker_W_renorm, whittaker_W_jet))
    try:
        expect = whittaker_jet_by_shifts(kind, s, kappa, t, 0, ctx)[0]
    except ValueError:
        # as in the test above
        with pytest.raises(PrecisionError):
            renorm(s, kappa, t, ctx)
        return
    assert renorm(s, kappa, t, ctx) == expect
    assert jet_of(s, kappa, t, 3, ctx)[0] == expect


def _renormalized(whit):
    """(s, kappa) -> t -> |t|^{-kappa/2} whit(sgn(t) kappa/2, s - 1/2, |t|), by mpmath."""
    return lambda s, kappa: lambda t: mp.power(abs(t), -to_mpf(kappa / 2)) * whit(
        mp.sign(t) * to_mpf(kappa / 2), to_mpf(s - Fraction(1, 2)), abs(t))


def _signed(lo, hi):
    return st.tuples(st.sampled_from([1, -1]), st.floats(lo, hi)).map(lambda p: p[0] * p[1])


def _rational(lo, hi, dens):
    return st.tuples(st.integers(lo, hi), st.sampled_from(dens)).map(lambda p: Fraction(*p))


def _i_order(nu):
    """I_{-n} = I_n (DLMF 10.27.1): mpmath's besseli takes a slow limit at a
    negative integer order."""
    return abs(nu) if nu.denominator == 1 else nu


def _whitw_by_m(k, m, z):
    """W_{k,m}(z) from M_{k,m} and M_{k,-m} (DLMF 13.14.33), for 2m not an
    integer: at the oracle's precision mpmath's whitw is seconds a call."""
    return (mp.gamma(-2 * m) * mp.rgamma(mp.mpf(1) / 2 - m - k) * mp.whitm(k, m, z)
            + mp.gamma(2 * m) * mp.rgamma(mp.mpf(1) / 2 + m - k) * mp.whitm(k, -m, z))


def _upper_gamma(a, x):
    """Gamma(a, x) by mpmath; at a not an integer as Gamma(a) - x^a M(a, a + 1,
    -x)/a (DLMF 8.2.3, 8.5.1), since there gammainc is a quarter of a second
    a call at the oracle's precision."""
    if a.denominator == 1:
        return mp.gammainc(int(a), x)
    a = to_mpf(a)
    return mp.gamma(a) - mp.power(x, a) * mp.hyp1f1(a, a + 1, -x) / a


# W draws s in 1/4 + Z, where 2m = 2s - 1 is not an integer; the other
# Whittaker oracles cover the integer b = 2s
# name: (jet, scalar function, mpmath oracle of the parameters, parameters, argument)
_EVERY_JET = {
    "M": (whittaker_M_jet, whittaker_M_renorm, _renormalized(mp.whitm),
          st.tuples(_rational(1, 12, [4]), _rational(-8, 12, [2])), _signed(0.01, 20)),
    "W": (whittaker_W_jet, whittaker_W_renorm, _renormalized(_whitw_by_m),
          st.tuples(_rational(-2, 6, [1]).map(lambda j: j + Fraction(1, 4)), _rational(-8, 12, [2])),
          _signed(0.01, 20)),
    "J": (bessel_J_jet, bessel_J, lambda nu: lambda x: mp.besselj(to_mpf(nu), x),
          st.tuples(_rational(-12, 12, [1, 2, 3, 4])), st.floats(0.05, 15)),
    "I": (bessel_I_jet, bessel_I, lambda nu: lambda x: mp.besseli(to_mpf(_i_order(nu)), x),
          st.tuples(_rational(-12, 12, [1, 2, 3, 4])), st.floats(0.05, 15)),
    "Gamma": (upper_incomplete_gamma_jet, upper_incomplete_gamma,
              lambda a: lambda x: _upper_gamma(a, x),
              st.tuples(_rational(-16, 16, [1, 2, 3, 4])), st.floats(0.05, 30)),
    "H": (h_profile_jet, h_profile,
          lambda k, N: lambda y: mp.exp(-y) * _upper_gamma(1 - k - Fraction(N, 2), -2 * y),
          st.tuples(_rational(-6, 8, [1, 2]), st.sampled_from([1, 2, 3])), st.floats(-15, -0.05)),
    "E": (e_profile_jet, e_profile, lambda: lambda z: mp.erf(mp.sqrt(mp.pi) * z),
          st.just(()), _signed(0.01, 4)),
}


@pytest.mark.parametrize("name", list(_EVERY_JET))
@settings(settings.get_profile("numeric"))
@given(data=st.data(), order=st.integers(0, 4), bits=st.sampled_from([128, 256]))
def test_every_jet_matches_numerical_differentiation(name, data, order, bits):
    # every order of every jet against mpmath's numerical differentiation of
    # the function at twice the bits, and order 0 bit for bit the scalar value
    jet_of, scalar, oracle, params, arg = _EVERY_JET[name]
    params, x = data.draw(params), mp.mpf(data.draw(arg))
    ctx = PrecisionContext(bits=bits)
    jet = jet_of(*params, x, order, ctx)
    assert len(jet) == order + 1
    assert jet[0] == scalar(*params, x, ctx)
    with mp.workprec(2 * bits):
        for j, (value, expect) in enumerate(zip(jet, mp.diffs(oracle(*params), x, order))):
            assert _close(value, expect, bits), j


def test_to_mpf_rounds_a_fraction_once():
    # a numerator wider than the working precision is rounded with the
    # division, not before it: within half an ulp of the exact rational
    with mp.workprec(128):
        for k in range(399):
            v = Fraction(3 ** k + 1, 7 ** (k % 50 + 1))
            r = to_mpf(v)
            sign, man, exp, bc = r._mpf_
            assert 2 * abs(to_fraction(r) - v) <= Fraction(2) ** (exp + bc - 128), k
    # and to_fraction reads an mpf exactly
    with mp.workprec(300):
        x = mp.mpf(2) ** -200 + 1
    assert to_fraction(x) == 1 + Fraction(1, 2 ** 200)
    # and refuses an infinity rather than read it as the zero of its mantissa
    with pytest.raises(TypeError):
        to_fraction(mp.inf)
