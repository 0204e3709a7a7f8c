import copy
import operator
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from maassjacobi import linalg
from maassjacobi.enveloping import JacobiLieAlgebra, PBWElement, pbw_normal_order
from maassjacobi.errors import DomainError
from maassjacobi.gaussian import (
    GaussianRational,
    I,
    format_gaussian,
    parse_gaussian,
    power,
)
from maassjacobi.jets import Jet, JetSpace
from maassjacobi.opcalc import DiffOp, OpRing
from maassjacobi.polys import Keyed, Poly, PolyRing
from maassjacobi.precision import to_mpc

ZERO = GaussianRational(0)


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
        # each exact part divided, and so rounded, once by mpmath's own
        # division of its integers
        return mp.mpc(mp.fdiv(self.re.numerator, self.re.denominator),
                      mp.fdiv(self.im.numerator, self.im.denominator))

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


def _random_entries(rng):
    # Fraction, Gaussian-rational and polynomial entries, about a fifth of
    # them zero, so that expansions skip entries
    R = PolyRing(["a", "b", "c"])

    def sparse(draw):
        return lambda: draw() * 0 if rng.random() < 0.2 else draw()

    return [sparse(lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))),
            sparse(lambda: GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))),
            sparse(lambda: R.var("a").scale(rng.randint(-2, 2)) + R.var("b") * rng.randint(-1, 1)
                   + R.var("c"))]


def _same_entry(got, expect):
    assert got == expect and type(got) is type(expect)
    if isinstance(got, Poly):
        assert list(got.terms.items()) == list(expect.terms.items())


def test_minors_match_the_loop():
    # every square minor of 4 x 4 and 5 x 5 matrices, read from one table,
    # against the cofactor loop on the submatrix; sizes 1 and 2 against
    # the entry and the 2 x 2 formula, which the loop defers to det for
    rng = random.Random(12)
    for entry in _random_entries(rng):
        for n in (4, 5):
            m = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
            minor = linalg.Minors(m)
            for size in range(1, n + 1):
                for rows in combinations(range(n), size):
                    for cols in combinations(range(n), size):
                        sub = tuple(tuple(m[r][c] for c in cols) for r in rows)
                        got = minor[rows, cols]
                        if size == 1:
                            _same_entry(got, sub[0][0])
                        elif size == 2:
                            _same_entry(got, sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0])
                        else:
                            _same_entry(got, _det_by_loop(sub))
            assert minor[(), ()] == 1
            _same_entry(minor.det(), linalg.det(m))


def test_adjugate_from_a_shared_table():
    # the table that has already answered det and smaller minors gives the
    # adjugate of a fresh one, and a adj(a) = det(a) I
    rng = random.Random(13)
    for entry in _random_entries(rng):
        for n in (1, 2, 3, 4):
            m = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
            minor = linalg.Minors(m)
            d = minor.det()
            for rows in combinations(range(n), n - 1):
                minor[rows, rows]
            adj = minor.adjugate()
            for got, expect in zip(sum(adj, ()), sum(linalg.adjugate(m), ())):
                _same_entry(got, expect)
            zero, one = m[0][0] * 0, m[0][0] * 0 + 1
            assert linalg.mul(m, adj) == linalg.scale(d, linalg.identity(n, one, zero))
    with pytest.raises(ValueError):
        linalg.Minors(((1, 2),))


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


def test_poly_arithmetic_and_division():
    R = PolyRing(["a", "b", "c"])
    a, b, c = R.var("a"), R.var("b"), R.var("c")
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    q = (a * a - b * b) * (c + 2) + R.zero()
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
        v = p.eval_numeric([mp.mpf(2), mp.mpf("0.5")])
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
            assert to_mpc(v)._mpc_ == ov.to_mpc(mp)._mpc_
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


@pytest.mark.parametrize("a, b", [
    (0, 0), (1, 0), (3, -7), (-5, 2),
    # at 128 bits: a tie, broken to even, a part that rounds up, and 206 bits
    (2 ** 128 + 1, -(2 ** 129 + 3)), (-(3 ** 130), 3 ** 130 + 1),
])
def test_integer_to_mpc_is_the_divided_value(a, b):
    # over d = 1 each part is rounded once as it is, to what dividing each
    # part by d in lowest terms gives
    with mp.workprec(128):
        want = mp.mpc(mp.mpf(a) / 1, mp.mpf(b) / 1)
        assert to_mpc(GaussianRational(a, b))._mpc_ == want._mpc_


def _wide_part(rng) -> Fraction:
    """A numerator of up to 300 bits over a denominator of up to 200 bits,
    each width drawn uniformly."""
    num = rng.getrandbits(rng.randint(0, 300)) * rng.choice((-1, 1))
    return Fraction(num, rng.getrandbits(rng.randint(0, 200)) + 1)


@settings(settings.get_profile("exact"))
@given(rng=st.randoms(use_true_random=False), bits=st.sampled_from([53, 128, 152]))
def test_wide_parts_are_rounded_once(rng, bits):
    # to_mpc of a GaussianRational, and eval_numeric of a one-term Poly,
    # give each part the nearest mpf to its exact value, as mpmath divides
    # the part's integers, however wide they are
    R = PolyRing(["x"])
    parts = [(_wide_part(rng), _wide_part(rng)) for _ in range(40)]
    # a 161-bit numerator over 3 at 152 bits: rounding the numerator before
    # dividing lands one ulp off the nearest value
    parts.append((Fraction(2871496717442553517632561761299637186624589704039, 3), Fraction(0)))
    with mp.workprec(bits):
        for re, im in parts:
            x = GaussianRational(re, im)
            want = mp.mpc(mp.fdiv(re.numerator, re.denominator),
                          mp.fdiv(im.numerator, im.denominator))._mpc_
            assert to_mpc(x)._mpc_ == want
            assert R.var("x").scale(x).eval_numeric([mp.mpc(1)])._mpc_ == want


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


# keys of each structure built once per key: for JetSpace, a total-degree
# space and the space on 1, tau and tau^2 of two variables
_KEYS = {OpRing: [(2,)], JacobiLieAlgebra: [(2,)],
         JetSpace: [(6, 2), (2, 2, ((0, 0), (1, 0), (2, 0)))]}


@pytest.mark.parametrize("cls", Keyed.__subclasses__(), ids=lambda cls: cls.__name__)
def test_keyed_structures_are_one_instance_per_key(cls):
    for key in _KEYS[cls]:
        obj = cls(*key)
        assert cls(*key) is obj
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert clone is obj


def test_a_jets_clones_share_its_space():
    space = JetSpace(2, 2)
    jet = Jet(space, {(0, 0): mp.mpc(1, 2), (1, 1): mp.mpc(-3)})
    for clone in (copy.copy(jet), copy.deepcopy(jet), pickle.loads(pickle.dumps(jet))):
        assert clone.space is space and clone == jet


def test_a_refused_key_builds_nothing():
    # the instance is stored only once it is built, so a refused key is
    # refused again
    for _ in range(2):
        with pytest.raises(DomainError):
            JetSpace(2, -1)
        with pytest.raises(DomainError):
            JacobiLieAlgebra(0)


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
    monos = st.sampled_from(_JET_SPACE.monos)
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



# -- the dict-of-GaussianRational polynomial, kept as the oracle of Poly ------


class DictPoly:
    """A polynomial as a dict from exponent tuples to GaussianRationals, each
    operation done coefficient by coefficient: ``Poly`` as it was before it
    stored packed monomials over one common denominator.  It is the ``==``
    oracle of ``Poly``, of its values and of the order of its terms."""

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @staticmethod
    def of(p):
        return DictPoly(p.ring, p.terms)

    def const(self, c):
        c = GaussianRational.coerce(c)
        return DictPoly(self.ring, {(0,) * self.ring.nvars: c} if c else {})

    def var(self, i, k):
        return DictPoly(self.ring, {tuple(k if j == i else 0 for j in range(self.ring.nvars)):
                                    GaussianRational(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            elif s + c:
                out[e] = s + c
            else:
                del out[e]
        return DictPoly(self.ring, out)

    def __neg__(self):
        return DictPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        t1, t2 = self.terms, other.terms
        pairs = [(tuple(map(operator.add, e1, e2)), c1 * c2)
                 for e1, c1 in t1.items() for e2, c2 in t2.items()]
        if len(t1) == 1 or len(t2) == 1:
            return DictPoly(self.ring, dict(pairs))
        return sum((DictPoly(self.ring, {e: c}) for e, c in pairs), DictPoly(self.ring, {}))

    def __pow__(self, n):
        return power(self, n, self.const(1))

    def scale(self, c):
        c = GaussianRational.coerce(c)
        return DictPoly(self.ring, {e: c * v for e, v in self.terms.items()} if c else {})

    def subs(self, assignment):
        out = DictPoly(self.ring, {})
        for e, c in self.terms.items():
            term = self.const(c)
            for i, k in enumerate(e):
                if k:
                    repl = assignment.get(self.ring.names[i])
                    term = term * (self.var(i, k) if repl is None else repl ** k)
            out = out + term
        return out

    def derivative(self, rules, delta):
        """OpRing.derivative, one rule at a time."""
        poly = self
        for rule, d in zip(rules, delta):
            for _ in range(d):
                if not poly.terms:
                    return poly
                poly = sum((DictPoly(self.ring, {e[:j] + (e[j] - 1,) + e[j + 1:]:
                                                 rate * (c * e[j])})
                            for j, rate in rule for e, c in poly.terms.items() if e[j]),
                           DictPoly(self.ring, {}))
        return poly

    def eval_numeric(self, values, to_num):
        acc = None
        for e, c in self.terms.items():
            t = to_num(c)
            for i, k in enumerate(e):
                if k:
                    t = t * values[i] ** k
            acc = t if acc is None else acc + t
        return acc if acc is not None else to_num(ZERO)


def _same(got, want):
    """A Poly with the oracle's terms, in the oracle's order."""
    assert isinstance(got, Poly)
    assert list(got.terms.items()) == list(want.terms.items())


_OP_RING = OpRing(1)  # k, pi, y, x, v1, u1, with pi and y Laurent


@st.composite
def _op_polys(draw, max_size=5):
    """A Poly of the operator ring: small exponents, so that products
    collide and cancel, and coefficients over 1, 2 or 3 and their products."""
    exps = st.tuples(st.integers(0, 2), st.integers(-2, 1), st.integers(-2, 2),
                     st.integers(0, 1), st.integers(0, 2), st.integers(0, 1))
    parts = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    coeffs = st.builds(GaussianRational, parts, st.one_of(st.just(0), parts))
    return Poly(_OP_RING.ring, draw(st.dictionaries(exps, coeffs, max_size=max_size)))


@settings(settings.get_profile("exact"), max_examples=60)
@given(p=_op_polys(), q=_op_polys(), s=_op_polys(max_size=2),
       c=st.builds(GaussianRational, st.fractions(-4, 4, max_denominator=6),
                    st.fractions(-4, 4, max_denominator=6)),
       delta=st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_poly_arithmetic_matches_the_dict_oracle(p, q, s, c, delta):
    op, oq, os_ = DictPoly.of(p), DictPoly.of(q), DictPoly.of(s)
    assert DictPoly.of(Poly(p.ring, op.terms)).terms == op.terms  # the boundary
    for got, want in ((p * q, op * oq), (q * p, oq * op), (p * s, op * os_),
                      (s * p, os_ * op), (p * p.ring.one(), op), (p + q, op + oq),
                      (q + p, oq + op), (p - q, op - oq), (p - p, op - op),
                      (p.scale(c), op.scale(c)), (p.scale(3), op.scale(3)),
                      (-p, -op), (s ** 3, os_ ** 3)):
        _same(got, want)
        assert got == Poly(p.ring, want.terms)
    # k -> k + 2 as in a composition, and x, v1 -> polynomials
    k, x = p.ring.var("k"), p.ring.var("x")
    for assignment in ({"k": k + 2}, {"x": s, "v1": q}, {"k": k * x - I, "u1": 0}):
        oracle = {name: DictPoly.of(p._coerce(v)) for name, v in assignment.items()}
        _same(p.subs(assignment), op.subs(oracle))
    # OpRing.derivative, with every direction of rank 1
    _same(_OP_RING.derivative(p, delta), op.derivative(_OP_RING.rules, delta))


@settings(settings.get_profile("exact"), max_examples=60)
@given(p=_op_polys(), k=st.fractions(-3, 3, max_denominator=4),
       tau=st.tuples(st.integers(-9, 9), st.integers(1, 9)), bits=st.sampled_from([53, 128]))
def test_eval_numeric_matches_the_dict_oracle(p, k, tau, bits):
    # the coefficients of an operator at a point: each rounded as to_mpc
    with mp.workprec(bits):
        t = mp.mpc(tau[0], tau[1]) / 7
        values = [mp.mpc(mp.mpf(k.numerator) / k.denominator), mp.pi, mp.mpc(t.imag),
                  mp.mpc(t.real), mp.mpc(mp.mpf(1) / 3), mp.mpc(mp.mpf(-2) / 5)]
        want = DictPoly.of(p).eval_numeric(values, to_mpc)
        assert p.eval_numeric(values) == want


def test_poly_cancellations_and_big_coefficients_match_the_dict_oracle():
    # products whose terms cancel, substitutions of two many-term
    # polynomials into one term, and a coefficient too wide for the
    # working precision, which is rounded only once
    R = _OP_RING.ring
    x, y, v, u = R.var("x"), R.var("y"), R.var("v1"), R.var("u1")
    for p, q in (((x + y), (x - y)), (x + y.scale(I), x - y.scale(I)),
                 ((x + y) * (x - v), x.scale(Fraction(1, 2)) + v - y)):
        _same(p * q, DictPoly.of(p) * DictPoly.of(q))
    p = (x * v + u * u).scale(Fraction(2, 3)) + x * x * v
    assignment = {"x": y + u.scale(I), "v1": u - y * y + 1}
    _same(p.subs(assignment),
          DictPoly.of(p).subs({n: DictPoly.of(r) for n, r in assignment.items()}))
    # over the common denominator 15 * 2^70, the real part's numerator
    # rounded to 53 bits and then divided is not the real part rounded
    a = 2238205843402315372195116849690123733952655
    big = GaussianRational(Fraction(a, 15 * 2 ** 70), Fraction(1, 15))
    p = (x * y).scale(big) + v.scale(Fraction(1, 2 ** 70))
    with mp.workprec(53):
        values = [mp.mpc(1), mp.pi, mp.mpc(mp.mpf(1) / 3), mp.mpc(mp.mpf(3) / 7),
                  mp.mpc(0), mp.mpc(0)]
        assert p.eval_numeric(values) == DictPoly.of(p).eval_numeric(values, to_mpc)


def test_exponent_outside_its_field_raises_and_does_not_spill():
    R = PolyRing(["a", "b"], laurent=("b",))
    top = 2 ** 14 - 1  # the largest exponent a field holds
    a, b = R.var("a", top), R.var("b", -top - 1)
    assert list(a.terms) == [(top, 0)] and list(b.terms) == [(0, -top - 1)]
    assert list((a * R.var("b", top)).terms) == [(top, top)]
    for overflow in (lambda: a * R.var("a"), lambda: b * R.var("b", -1),
                     lambda: (a + b) ** 2, lambda: Poly(R, {(top + 1, 0): 1}),
                     lambda: Poly(R, {(0, -top - 2): 1}), lambda: R.var("a", top + 1),
                     lambda: b.diff([(1, GaussianRational(1))])):
        with pytest.raises(DomainError, match="outside"):
            overflow()
    # an exponent one short of either end stays in its own variable
    assert list((R.var("a", top - 1) * R.var("a") * R.var("b", 1 - top)).terms) == [
        (top, 1 - top)]


def test_poly_of_another_ring_is_refused():
    a, b = PolyRing(["a"]).var("a"), PolyRing(["b"]).var("b")
    for op in (operator.mul, operator.add, operator.sub):
        with pytest.raises(ValueError, match="mixed polynomial rings"):
            op(a, b)
    assert a * PolyRing(["a"]).var("a") == PolyRing(["a"]).var("a", 2)
