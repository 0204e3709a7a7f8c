import copy
import operator
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from maassjacobi import linalg
from maassjacobi.enveloping import JacobiLieAlgebra, PBWElement, pbw_normal_order
from maassjacobi.errors import DivisibilityError
from maassjacobi.gaussian import (
    ZERO,
    GaussianRational,
    I,
    format_gaussian,
    parse_gaussian,
    power,
)
from maassjacobi.jets import Jet, JetSpace, _tables
from maassjacobi.opcalc import DiffOp, OpRing
from maassjacobi.polys import Poly, PolyRing


class FractionPairOracle:
    """The slow, obviously correct Q(i): a pair of Fractions, each operation
    written out on the real and imaginary parts.  It is the ``==`` oracle of
    the integer-triple ``GaussianRational``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPairOracle is immutable")

    @staticmethod
    def coerce(x) -> "FractionPairOracle":
        if isinstance(x, FractionPairOracle):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionPairOracle(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to FractionPairOracle")

    def __add__(self, other):
        other = FractionPairOracle.coerce(other)
        return FractionPairOracle(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionPairOracle(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-FractionPairOracle.coerce(other))

    def __rsub__(self, other):
        return FractionPairOracle.coerce(other) + (-self)

    def __mul__(self, other):
        other = FractionPairOracle.coerce(other)
        return FractionPairOracle(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FractionPairOracle":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return FractionPairOracle(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * FractionPairOracle.coerce(other).inverse()

    def __rtruediv__(self, other):
        return FractionPairOracle.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, FractionPairOracle(1))

    def conjugate(self) -> "FractionPairOracle":
        return FractionPairOracle(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_mpc(self, mp):
        return mp.mpc(mp.mpf(self.re.numerator) / self.re.denominator,
                      mp.mpf(self.im.numerator) / self.im.denominator)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


def test_gaussian_field_axioms():
    rng = random.Random(1)
    for _ in range(200):
        a = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        b = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == GaussianRational(1)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert I * I == GaussianRational(-1)
    assert I ** 4 == 1


def _det_by_loop(a):
    """Cofactor expansion along the first row by the None-started loop that
    linalg.det had before it started from the zero of its entries."""
    n = len(a)
    if n <= 2:
        return linalg.det(a)
    acc = None
    for j in range(n):
        if not a[0][j]:
            continue
        minor = tuple(tuple(a[r][c] for c in range(n) if c != j) for r in range(1, n))
        term = a[0][j] * _det_by_loop(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return a[0][0] * 0 if acc is None else acc


def test_det_matches_the_loop():
    # Fraction, Gaussian-rational and polynomial entries, first rows with
    # zeros and all zero; polynomial terms in the same order
    rng = random.Random(11)
    R = PolyRing(["a", "b"])
    kinds = [lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
             lambda: GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)),
             lambda: R.var("a").scale(rng.randint(-2, 2)) + R.var("b") * rng.randint(-1, 1)]
    for entry in kinds:
        for n in (3, 4):
            for zeros in (0, 1, n):
                m = [[entry() for _ in range(n)] for _ in range(n)]
                for j in rng.sample(range(n), zeros):
                    m[0][j] = m[0][j] * 0
                m = tuple(map(tuple, m))
                got, expect = linalg.det(m), _det_by_loop(m)
                assert got == expect and type(got) is type(expect)
                if isinstance(got, Poly):
                    assert list(got.terms.items()) == list(expect.terms.items())


def test_gaussian_format_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        x = GaussianRational(Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
                             Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
        assert parse_gaussian(format_gaussian(x)) == x
    assert format_gaussian(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4 i"


def test_exact_linear_algebra():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for _ in range(20):
            m = tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(n)) for _ in range(n))
            d = linalg.det(m)
            adj = linalg.adjugate(m)
            prod = linalg.mul(m, adj)
            expect = linalg.scale(d, linalg.identity(n, Fraction(1), Fraction(0)))
            assert prod == expect
            if d:
                assert linalg.mul(m, linalg.inverse(m)) == linalg.identity(
                    n, Fraction(1), Fraction(0))


def test_poly_arithmetic_and_division():
    R = PolyRing(["a", "b", "c"])
    a, b, c = R.var("a"), R.var("b"), R.var("c")
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    q = (a * a - b * b) * (c + 2) + R.zero()
    assert q.divide_exact(a + b) == (a - b) * (c + 2)
    with pytest.raises(DivisibilityError):
        (a * a + b).divide_exact(a + b)
    # laurent variables
    Ry = PolyRing(["y", "v"], laurent=("y",))
    y = Ry.var("y")
    yi = Ry.var("y", -1)
    assert y * yi == Ry.one()


def test_exact_scalar_on_the_left_of_a_poly():
    # each mixed operation equals the one with both operands in the ring
    R = PolyRing(["y", "v"], laurent=("y",))
    y, lifted = R.var("y") + R.var("v"), R.const(I)
    assert I * y == lifted * y == y * I
    assert I + y == lifted + y
    assert I - y == lifted - y
    with pytest.raises(TypeError):
        I * mp.mpf(2)  # neither operand takes the other


def test_poly_subs_and_eval():
    from mpmath import mp

    R = PolyRing(["k", "y"], laurent=("y",))
    k, y = R.var("k"), R.var("y")
    p = k * k + y.scale(3)
    assert p.subs({"k": k + 2}) == k * k + k.scale(4) + 4 + y.scale(3)
    with mp.workprec(100):
        v = p.eval_numeric({"k": mp.mpf(2), "y": mp.mpf("0.5")},
                           lambda c: c.to_mpc(mp))
        assert abs(v - mp.mpf("5.5")) < 1e-25


# Parts with numerators and denominators up to about 2^70, zero included.
_BIG = 2 ** 70
_PARTS = st.one_of(st.just(Fraction(0)), st.integers(-_BIG, _BIG).map(Fraction),
                   st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)))
_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _matches(x, oracle):
    """x is a canonical GaussianRational with the oracle's value."""
    a, b, d = x._abd
    return (type(x) is GaussianRational and d > 0 and gcd(a, b, d) == 1
            and (x.re, x.im) == (oracle.re, oracle.im))


def _outcome(f):
    try:
        return f()
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(settings.get_profile("exact"))
@given(p=st.tuples(_PARTS, _PARTS), q=st.tuples(_PARTS, _PARTS),
       n=st.integers(-_BIG, _BIG), f=_PARTS, k=st.integers(-4, 4))
# parts whose triple has a 140-bit numerator, which to_mpc must not round
# before it divides; and zero, to divide by
@example(p=(Fraction(427008840626317280013, 942482401220205907790),
            Fraction(66024586325606718782, 174316075802420825023)),
         q=(Fraction(0), Fraction(0)), n=0, f=Fraction(0), k=-1)
def test_gaussian_rational_matches_the_fraction_pair_oracle(p, q, n, f, k):
    x, ox = GaussianRational(*p), FractionPairOracle(*p)
    y, oy = GaussianRational(*q), FractionPairOracle(*q)
    for v, ov in ((x, ox), (y, oy)):
        assert _matches(v, ov)
        assert _matches(v.conjugate(), ov.conjugate())
        assert _matches(-v, -ov)
        assert bool(v) == bool(ov)
        assert str(v) == str(ov) and repr(v) == repr(ov)
        assert parse_gaussian(str(v)) == v
        assert hash(v) == hash(ov)
        with mp.workprec(128):
            assert v.to_mpc(mp)._mpc_ == ov.to_mpc(mp)._mpc_
        for got, want in ((_outcome(v.inverse), _outcome(ov.inverse)),
                          (_outcome(lambda: v ** k), _outcome(lambda: ov ** k))):
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                assert _matches(got, want)
    # every operation with a GaussianRational, int or Fraction on either side
    pairs = ((x, y, ox, oy), (x, n, ox, n), (n, x, n, ox), (x, f, ox, f), (f, x, f, ox))
    for op in _OPS:
        for lhs, rhs, olhs, orhs in pairs:
            got, want = _outcome(lambda: op(lhs, rhs)), _outcome(lambda: op(olhs, orhs))
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                assert _matches(got, want)
    # a real element equals its real part, also as a dict key
    r = GaussianRational(p[0])
    assert r == p[0] and hash(r) == hash(r.re)
    assert {r: 1}[r.re] == 1 and {r.re: 1}[r] == 1


def test_gaussian_rational_zero_division():
    zero = GaussianRational(Fraction(0), Fraction(0))
    assert zero._abd == (0, 0, 1) and zero == ZERO and not zero
    for f in (zero.inverse, lambda: I / zero, lambda: I / 0, lambda: 1 / zero,
              lambda: Fraction(1, 3) / zero, lambda: zero ** -1):
        with pytest.raises(ZeroDivisionError):
            f()


def test_exact_objects_copy_and_pickle():
    x = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    R = PolyRing(["y", "v"], laurent=("y",))
    p = (R.var("y", -1) * R.var("v") + R.var("y")).scale(x) + 2
    alg, opr = JacobiLieAlgebra(2), OpRing(2)
    e = pbw_normal_order(alg, ["e1", "F", "Z12"]).scale(x)
    op = DiffOp(opr, {(1, 0, 0, 0, 0, 2): opr.k.scale(x)}, shift=-1)
    for obj in (x, GaussianRational(1, 2), ZERO, p, e, op):
        for clone in (copy.copy(obj), copy.deepcopy(obj),
                      pickle.loads(pickle.dumps(obj))):
            assert clone == obj
    # the rank-N algebra and operator ring stay one instance per rank
    assert copy.deepcopy(e).alg is alg and pickle.loads(pickle.dumps(op)).op_ring is opr
    assert pickle.loads(pickle.dumps(x))._abd == (2, -3, 4)


# -- the SparseTerms laws, with ==, over each exact kind --------------------

_COEFFS = st.builds(GaussianRational,
                    st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))
_POLY_RING = PolyRing(["y", "u", "v"], laurent=("y",))


@st.composite
def _polys(draw):
    exps = st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2))
    terms = draw(st.dictionaries(exps, _COEFFS, max_size=4))
    return Poly(_POLY_RING, {e: c for e, c in terms.items() if c})


@st.composite
def _pbw_elements(draw, alg):
    words = st.lists(st.integers(0, alg.ngen - 1), max_size=2)
    out = PBWElement.zero(alg)
    for word, c in draw(st.lists(st.tuples(words, _COEFFS), max_size=3)):
        out = out + pbw_normal_order(alg, word).scale(c)
    return out


@st.composite
def _diffops(draw, R, shift):
    dexps = st.tuples(*[st.integers(0, 1)] * R.ndirs)
    polys = st.builds(lambda name, c: R.ring.var(name).scale(c),
                      st.sampled_from(["k", "y", "x", "v1", "u1"]), _COEFFS)
    terms = draw(st.dictionaries(dexps, polys, max_size=3))
    return DiffOp(R, terms, shift)


def _check_sum_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    d = a - a
    assert d.is_zero() and not d


@settings(settings.get_profile("exact"))
@given(data=st.data(), m=st.integers(0, 2), n=st.integers(0, 2))
def test_sparse_terms_laws_on_polys(data, m, n):
    a, b, c = (data.draw(_polys()) for _ in range(3))
    _check_sum_laws(a, b, c)
    assert a ** (m + n) == a ** m * a ** n


def _sum_by_loop(a, b):
    """The terms of a + b, one key of b at a time: an existing key keeps its
    place, a zero sum leaves, and a new key is appended.  The oracle of the
    terms and key order of ``SparseTerms.__add__``."""
    out = dict(a.terms)
    for e, c in b.terms.items():
        s = out.get(e, ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


@settings(settings.get_profile("exact"))
@given(a=_polys(), data=st.data())
def test_poly_sum_has_the_terms_and_order_of_the_loop(a, data):
    # b cancels some terms of a and shares or adds others, in a drawn order
    cancel = data.draw(st.sets(st.sampled_from(sorted(a.terms)))) if a.terms else set()
    terms = {**data.draw(_polys()).terms, **{e: -a.terms[e] for e in cancel}}
    b = Poly(_POLY_RING, {e: terms[e] for e in data.draw(st.permutations(list(terms)))})
    for x, y in ((a, b), (b, a)):
        got, want = (x + y).terms, _sum_by_loop(x, y)
        assert got == want and list(got) == list(want)


@settings(settings.get_profile("exact"))
@given(N=st.sampled_from([1, 2]), data=st.data(), m=st.integers(0, 2), n=st.integers(0, 1))
def test_sparse_terms_laws_on_pbw_elements(N, data, m, n):
    alg = JacobiLieAlgebra(N)
    a, b, c = (data.draw(_pbw_elements(alg)) for _ in range(3))
    _check_sum_laws(a, b, c)
    assert a ** (m + n) == a ** m * a ** n


@settings(settings.get_profile("exact"))
@given(N=st.sampled_from([1, 2]), shift=st.integers(-2, 2), data=st.data(),
       n=st.integers(0, 3))
def test_sparse_terms_laws_on_diffops(N, shift, data, n):
    R = OpRing(N)
    a, b, c = (data.draw(_diffops(R, shift)) for _ in range(3))
    _check_sum_laws(a, b, c)
    with pytest.raises(TypeError):
        a ** n


def test_jet_constructors_round_to_the_working_precision():
    # a sum stores a new key's coefficient as it is, so the constructors
    # store values at the working precision (mp.mpc rounds its argument)
    with mp.workprec(300):
        value = mp.mpc(mp.pi, mp.e)
    with mp.workprec(128):
        rounded = +value
        assert rounded != value
        assert Jet.const(JetSpace(2, 1), value).terms == {(0, 0): rounded}
        assert Jet.variable(JetSpace(2, 1), 1, value).terms == {(0, 0): rounded,
                                                                 (0, 1): mp.mpc(1)}


_JET_SPACE = JetSpace(3, 3)


@st.composite
def _jets(draw):
    """A jet with dyadic coefficients of a few bits each, so that every sum
    and product below is exact at the working precision."""
    dyadic = st.builds(lambda n: mp.mpf(n) / 4, st.integers(-8, 8))
    monos = st.sampled_from(_tables(_JET_SPACE.nvars, _JET_SPACE.degree).monos)
    terms = draw(st.dictionaries(monos, st.builds(mp.mpc, dyadic, dyadic), max_size=6))
    return Jet(_JET_SPACE, {e: c for e, c in terms.items() if c})


@settings(settings.get_profile("exact"))
@given(data=st.data(), m=st.integers(0, 2), n=st.integers(0, 2))
def test_sparse_terms_laws_on_jets(data, m, n):
    with mp.workprec(128):
        a, b, c = (data.draw(_jets()) for _ in range(3))
        _check_sum_laws(a, b, c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a ** (m + n) == a ** m * a ** n

