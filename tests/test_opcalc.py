import hashlib
import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from maassjacobi import opcalc
from maassjacobi.cli import covariance_jobs, main, parse_rational_matrix
from maassjacobi.enveloping import JacobiLieAlgebra, PBWElement, build_casimir
from maassjacobi.errors import DegreeError, DomainError
from maassjacobi.gaussian import GaussianRational
from maassjacobi.group import AlgebraElement, Point, automorphy_factor, slash
from maassjacobi.jets import Jet, JetSpace, coordinate_jets, imaginary_parts
from maassjacobi.lattice import GramLattice
from maassjacobi.opcalc import (
    DiffOp,
    OpRing,
    bridge_check,
    bridge_rhs,
    build_casimir_op,
    build_casimir_RL,
    build_D_minus,
    build_heat,
    build_laplace,
    build_lie_slash,
    build_raising_lowering,
    calL,
    covariance_check,
    covariance_residuals,
    d_minus_direct,
    kernel_seed,
    random_group_element,
    random_point,
    semiholomorphic_casimir,
    GaussianSeed,
    slashed_jet,
    support_space,
)
from maassjacobi.polys import FIELD_BITS, Poly
from maassjacobi.precision import PrecisionContext, to_mpc

from conftest import finite_difference

LATTICES = {
    1: [GramLattice([[1]]), GramLattice([[2]])],
    2: [GramLattice([[1, 0], [0, 1]]), GramLattice([[2, 1], [1, 2]])],
    3: [GramLattice([[1, 0, 0], [0, 2, 0], [0, 0, 1]]),
        GramLattice([[2, Fraction(1, 2), 0], [Fraction(1, 2), 1, 0], [0, 0, 3]])],
}


def _random_op(R, rng, order=2):
    terms = {}
    for _ in range(3):
        e = [0] * R.ndirs
        for _ in range(rng.randint(0, order)):
            e[rng.randrange(R.ndirs)] += 1
        names = ["y", "x"] + [f"v{j}" for j in range(1, R.N + 1)]
        poly = R.ring.var(rng.choice(names)).scale(
            GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)))
        if not poly.is_zero():
            terms[tuple(e)] = terms.get(tuple(e), R.ring.zero()) + poly
    return DiffOp(R, terms)


# -- the slow versions, kept as oracles of DiffOp.compose and the bridge ----------


def _deriv(poly, name):
    """d poly / d name, term by term: lowering one exponent maps distinct
    terms to distinct terms, so nothing merges."""
    i = poly.ring.index[name]
    return Poly(poly.ring, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                            for e, c in poly.terms.items() if e[i]})


def _named_rules(N):
    """The rule of each direction by variable name, d_tau, d_taubar, d_z_j,
    d_zbar_j, as OpRing kept them before it kept them by variable index."""
    half = GaussianRational(Fraction(1, 2))
    minus, plus = GaussianRational(0, -half.re), GaussianRational(0, half.re)
    return ([{"y": minus, "x": half}, {"y": plus, "x": half}]
            + [{f"v{j}": minus, f"u{j}": half} for j in range(1, N + 1)]
            + [{f"v{j}": plus, f"u{j}": half} for j in range(1, N + 1)])


def _derivative_by_sums(R, poly, delta):
    """d^delta poly as a sum of scaled polynomials, one per rule of each
    direction, direction 0 first, stopping at the first zero."""
    rules = _named_rules(R.N)
    for i, d in enumerate(delta):
        for _ in range(d):
            if poly.is_zero():
                return poly
            poly = sum((_deriv(poly, name).scale(rate) for name, rate in rules[i].items()),
                       R.ring.zero())
    return poly


def _leibniz_compose(A, B):
    """A after B by the recursive Leibniz expansion: each direction in turn
    splits A's derivatives between B's coefficient and B's derivatives."""
    R = A.op_ring
    ksub = {"k": R.ring.var("k") + R.ring.const(B.shift)} if B.shift else None
    out = {}
    for ae, ap in A.terms.items():
        if ksub is not None and ap.uses("k"):
            ap = ap.subs(ksub)
        for be, bp in B.terms.items():

            def rec(i, gamma, mult, poly):
                if poly.is_zero():
                    return
                if i == len(ae):
                    e = tuple(g + b for g, b in zip(gamma, be))
                    add = (ap * poly).scale(mult)
                    out[e] = add if e not in out else out[e] + add
                    return
                for g in range(ae[i] + 1):
                    p2 = _derivative_by_sums(R, poly, [0] * i + [ae[i] - g])
                    rec(i + 1, gamma + [g], mult * comb(ae[i], g), p2)

            rec(0, [], 1, bp)
    return DiffOp(R, out, A.shift + B.shift)


def _uea_to_op_wordwise(a, L):
    """Each PBW term's word composed letter by letter, Z letters included."""
    R = OpRing(L.N)
    out = DiffOp.zero(R)
    for exp, coeff in a.flat_terms().items():
        term = DiffOp.identity(R)
        for name, kexp in zip(a.alg.names, exp):
            for _ in range(kexp):
                term = _leibniz_compose(build_lie_slash(name, L), term)
        out = out + term.scale(coeff)
    return out


def _layout(op):
    """An operator's shift and its terms in their stored order."""
    return op.shift, [(e, list(p.terms.items())) for e, p in op.terms.items()]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_derivative_matches_the_sum_of_scaled_rules(N):
    # merged in place, the terms must keep the order of the sum
    R = OpRing(N)
    assert R.rules == [tuple((R.ring.index[name], rate) for name, rate in rule.items())
                       for rule in _named_rules(N)]
    rng = random.Random(60 + N)
    coords = [n for n in R.ring.names if n not in ("k", "pi")]
    for _ in range(40):
        # small exponents, so that the rules of one direction collide
        poly = sum((R.ring.const(GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)))
                    * prod(R.ring.var(n, rng.randint(-1 if n == "y" else 0, 2))
                           for n in rng.sample(coords, 3))
                    for _ in range(10)), R.ring.zero())
        delta = [0] * R.ndirs
        for _ in range(rng.randint(1, 3)):
            delta[rng.randrange(R.ndirs)] += 1
        got, expect = R.derivative(poly, delta), _derivative_by_sums(R, poly, delta)
        assert list(got.terms.items()) == list(expect.terms.items())


@pytest.mark.parametrize("N", [1, 2, 3])
def test_compose_matches_the_recursive_leibniz_oracle(N):
    R = OpRing(N)
    rng = random.Random(40 + N)

    def draw(order):
        return ((_random_op(R, rng, order) + _random_op(R, rng, order).scale(R.k))
                .with_shift(rng.choice([-2, -1, 1, 2])))

    for _ in range(20):
        A, B = draw(2), draw(2)
        got, expect = A.compose(B), _leibniz_compose(A, B)
        assert got == expect
        assert _layout(got) == _layout(expect)
    # up to the Casimir's order 4, where binomials of 2 and more split
    # exponents, and chains of three compositions either way round
    for _ in range(6):
        A, B, C = draw(4), draw(4), draw(2)
        got, expect = A.compose(B), _leibniz_compose(A, B)
        assert got == expect
        assert _layout(got) == _layout(expect)
        for got, expect in ((got.compose(C), _leibniz_compose(expect, C)),
                            (A.compose(B.compose(C)), _leibniz_compose(A, _leibniz_compose(B, C)))):
            assert got == expect
            assert _layout(got) == _layout(expect)


def test_compose_past_a_packed_field_is_a_domain_error():
    # each direction's field holds exponents in [0, 2^(FIELD_BITS - 2)); the
    # bound is met with constant coefficients, which take one split each
    R = OpRing(2)
    top = 2 ** (FIELD_BITS - 2)
    one = R.ring.one()

    def dexp(j, n):
        return tuple(n if i == j else 0 for i in range(R.ndirs))

    def power(j, n, coeff=one):
        return DiffOp(R, {dexp(j, n): coeff})

    assert R.exponent(R.pack(dexp(3, top - 1))) == dexp(3, top - 1)
    with pytest.raises(DomainError):
        R.pack(dexp(3, top))
    with pytest.raises(DomainError):
        R.exponent(R.pack(dexp(3, top // 2)) + R.pack(dexp(3, top // 2)) - R.dring.origin)
    assert power(3, top // 2).compose(power(3, top // 2 - 1)) == power(3, top - 1)
    with pytest.raises(DomainError):
        power(3, top // 2).compose(power(3, top // 2))
    # a coefficient in v_1, flat in d_tau, meets one split there too
    with pytest.raises(DomainError):
        power(0, top - 1).compose(power(0, 1, R.v[0]))
    # a coefficient the left factor differentiates takes the splits:
    # d_z1^3 v_1 = v_1 d_z1^3 + 3 (-i/2) d_z1^2
    vmul = DiffOp.multiplication(R, R.v[0])
    assert power(2, 3).compose(vmul) == power(2, 3, R.v[0]) + power(2, 2).scale(
        GaussianRational(0, Fraction(-3, 2)))
    with pytest.raises(DomainError):
        power(0, top).compose(DiffOp.identity(R))
    with pytest.raises(DomainError):
        DiffOp.identity(R).compose(DiffOp(R, {(1, 0, 0): one}))
    # a negative entry fits a field of the ring but is no derivative
    with pytest.raises(DomainError):
        R.pack(dexp(1, -1))
    with pytest.raises(DomainError):
        power(1, -1).compose(DiffOp.identity(R))


def _golden_builders(L):
    """Every builder the golden test pins, by name."""
    rl = build_raising_lowering(L)
    N = L.N
    ops = {"X+": rl["X+"], "X-": rl["X-"],
           "casimir": build_casimir_op(L),
           "semiholomorphic": semiholomorphic_casimir(L),
           "heat": build_heat(L),
           "d_minus_direct": d_minus_direct(L),
           "D_minus": build_D_minus(L),
           "laplace": build_laplace(L, [[int(i == j) for j in range(N)]
                                        for i in range(N)])}
    for j in range(N):
        ops[f"Y+{j + 1}"] = rl["Y+"][j]
        ops[f"Y-{j + 1}"] = rl["Y-"][j]
    return ops


@pytest.mark.parametrize("entries", [[[1]], [[2, 1], [1, 2]],
                                     [[2, 1, 0], [1, 2, 1], [0, 1, 2]]])
def test_builders_keep_their_term_order_under_the_oracle(entries, monkeypatch):
    # apply_jet sums in the stored order, so the order is part of the output
    L = GramLattice(entries)
    got = {name: _layout(op) for name, op in _golden_builders(L).items()}
    monkeypatch.setattr(DiffOp, "compose",
                        lambda self, other: _leibniz_compose(self, self._coerce(other)))
    expect = {name: _layout(op) for name, op in _golden_builders(L).items()}
    assert got == expect


@pytest.mark.parametrize("N", [1, 2])
def test_bridge_matches_the_wordwise_oracle_on_casimir(N):
    # the formula on the letters under the opposite product is the image of
    # the PBW normal form of Omega_N, each word composed letter by letter
    omega = build_casimir(N)
    for L in LATTICES[N]:
        assert bridge_check(L)[0] == _uea_to_op_wordwise(omega, L)


# sha256 of the _layout of bridge_rhs(L), taken before compose merged its
# coefficients in place
@pytest.mark.parametrize("gram, rhs_digest", [
    ("1", "7c69217698796ca42d13e756434e926edf3bf6bfeefa1ad4c60a7b01bfd065dd"),
    ("2", "30b1b928b16a92961f4a73f992083a78da6eff8861da8640f326ad9c439af55a"),
    ("3", "a8e89c0c0edb4674403101faaec2fbef57576d9b7a5aea0f2cbd922849b327ba"),
    ("2,1;1,2", "e50cec3d09e11a5bd9a41c62fb0f07647542ab4324615feabed9489ca3821eeb"),
    ("2,0;0,4", "743e0a01339ae142b60b8db94b6120531db9941d49e96fb77596e957de8909bf"),
    ("1,1/2;1/2,1", "c2ad9dd106996e917fbf95ec228a0f5d3d485532622df5f0fbf4277abae444e7"),
    ("2,1,0;1,2,1;0,1,2", "8e8fe1120973821d10558019bc4aa3f98dc2d1e34263ef66b033330a21148fdc"),
])
def test_bridge_sides_keep_their_term_order(gram, rhs_digest):
    L = GramLattice(parse_rational_matrix(gram))
    assert hashlib.sha256(repr(_layout(bridge_rhs(L))).encode()).hexdigest() == rhs_digest


def test_laplace_needs_a_positive_definite_c():
    L = GramLattice([[2, 1], [1, 2]])
    build_laplace(L, [[2, 1], [1, 2]])
    with pytest.raises(DomainError, match="leading principal minor 2 is not positive"):
        build_laplace(L, [[1, 2], [2, 1]])
    with pytest.raises(DomainError, match="leading principal minor 1 is not positive"):
        build_laplace(L, [[0, 0], [0, 1]])
    # the quadratic form of Y+ and Y- reads a symmetric C of the lattice's rank
    for C in ([[1, 2], [0, 1]], [[1, 0], [2, 1]], [[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
              [[1, 0], [0]]):
        with pytest.raises(DomainError, match="symmetric 2 x 2"):
            build_laplace(L, C)


def test_compose_identity_and_derivation_rule():
    R = OpRing(1)
    A = _random_op(R, random.Random(0))
    one = DiffOp.identity(R)
    assert one.compose(A) == A
    assert A.compose(one) == A
    # [d_tau, y] = -i/2
    dtau = R.d.tau
    ymul = DiffOp.multiplication(R, R.ring.var("y"))
    c = dtau.commutator(ymul)
    assert c == DiffOp.multiplication(R, R.ring.const(GaussianRational(0, Fraction(-1, 2))))


def test_diffop_has_no_power():
    # operators compose; the power of the shared sparse-term core needs *
    with pytest.raises(TypeError):
        DiffOp.identity(OpRing(1)) ** 2


def test_compose_associativity_random():
    R = OpRing(2)
    rng = random.Random(3)
    for _ in range(50):
        A, B, C = (_random_op(R, rng) for _ in range(3))
        assert A.compose(B).compose(C) == A.compose(B.compose(C))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_prop_commutator_table_symbolic(N):
    for L in LATTICES[N]:
        R = OpRing(N)
        ops = build_raising_lowering(L)
        Xp, Xm, Yp, Ym = ops["X+"], ops["X-"], ops["Y+"], ops["Y-"]
        k = R.ring.var("k")
        assert Xm.commutator(Xp) == DiffOp.multiplication(R, -k)
        cl = calL(R, L)
        for j in range(N):
            for jp in range(N):
                assert Ym[j].commutator(Yp[jp]) == DiffOp.multiplication(
                    R, cl[j][jp].scale(GaussianRational(0, 1)))
            assert Xm.commutator(Yp[j]) == -Ym[j]
            assert Ym[j].commutator(Xp) == Yp[j]
            assert Xp.commutator(Yp[j]).is_zero()
            assert Xm.commutator(Ym[j]).is_zero()
            for jp in range(N):
                assert Yp[j].commutator(Yp[jp]).is_zero()
                assert Ym[j].commutator(Ym[jp]).is_zero()


@pytest.mark.parametrize("N", [1, 2, 3])
def test_casimir_op_equalities(N):
    for L in LATTICES[N]:
        C = build_casimir_op(L)
        assert C.order() == (3 if N == 1 else 4)
        assert C == build_casimir_RL(L)
        assert C.restrict_semiholomorphic() == semiholomorphic_casimir(L)
        assert build_D_minus(L) == d_minus_direct(L)
        # trivial restrictions
        ops = build_raising_lowering(L)
        assert all(y.restrict_semiholomorphic().is_zero() for y in ops["Y-"])
        assert ops["X+"].restrict_semiholomorphic() == ops["X+"]


def test_rl_casimir_minus_2xpxm_is_lower_order_in_z():
    # the -2 X+ X- term alone matches the -2 Delta part modulo v-terms
    L = GramLattice([[1]])
    R = OpRing(1)
    from maassjacobi.opcalc import weighted_laplacian
    ops = build_raising_lowering(L)
    diff = ops["X+"].compose(ops["X-"]).scale(-2) - weighted_laplacian(
        R, R.ring.var("k") - R.ring.const(Fraction(1, 2))).scale(-2)
    # every residual term involves a z-direction or a v/L[v] coefficient
    for e, p in diff.terms.items():
        pure_tau = e[2:] == (0,) * (R.ndirs - 2)
        if pure_tau and not p.is_zero():
            assert p.uses("v1"), diff.canonical_text()


def test_central_generators_at_rank_10_are_their_calL_entries():
    # names such as Z110 (Z_1,10) have two-digit indices; on the A10 Cartan
    # matrix, Z_1,10, Z_2,10, Z_9,10 and Z_10,10 differ from the Z_i,1 and
    # Z_1,10 that reading one digit for each index gives
    N = 10
    L = GramLattice([[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(N)]
                     for i in range(N)])
    R = OpRing(N)
    cl = calL(R, L)
    for i in range(1, N + 1):
        for j in range(i, N + 1):
            assert build_lie_slash(f"Z{i}{j}", L) == DiffOp.multiplication(R, cl[i - 1][j - 1])
    for name in ("Z1", "Z0110", "e0", "e11", "f11", "G"):
        with pytest.raises(DomainError):
            build_lie_slash(name, L)
    # the structures a rank fixes are built once, in polynomial time in N
    assert len(R.d.flat()) == 22
    assert len(JacobiLieAlgebra(N).e_gens) == 10


def _check_letter_relations(L):
    """[op(a), op(b)] = op([b, a]) for all pairs of basis letters."""
    R = OpRing(L.N)
    alg = JacobiLieAlgebra(L.N)
    for a in alg.names:
        for b in alg.names:
            lhs = build_lie_slash(a, L).commutator(build_lie_slash(b, L))
            br = PBWElement.gen(alg, b).commutator(PBWElement.gen(alg, a))
            rhs = DiffOp.zero(R)
            for exp, c in br.flat_terms().items():
                idx = [i for i, kk in enumerate(exp) if kk][0]
                rhs = rhs + build_lie_slash(alg.names[idx], L).scale(c)
            assert lhs == rhs, (a, b)


def test_lie_slash_table_and_anti_homomorphism():
    L = GramLattice([[1]])
    R = OpRing(1)
    # |[Z11] = calL_11, |[E] = d_x = d_tau + d_taubar, |[e1] = d_u1
    cl = calL(R, L)
    assert build_lie_slash("Z11", L) == DiffOp.multiplication(R, cl[0][0])
    d = R.d
    assert build_lie_slash("E", L) == d.tau + d.taubar
    assert build_lie_slash("e1", L) == d.z[0] + d.zbar[0]
    _check_letter_relations(L)
    # linearity through AlgebraElement input
    Y = AlgebraElement(((0, 2), (0, 0)), [[Fraction(1, 2), 0]], [[-1]])  # 2 E + f1/2 - Z11
    got = build_lie_slash(Y, L)
    expect = build_lie_slash("E", L).scale(2) + \
        build_lie_slash("f1", L).scale(Fraction(1, 2)) - build_lie_slash("Z11", L)
    assert got == expect


@pytest.mark.parametrize("gram", ["2,1;1,2", "2,1,0;1,2,1;0,1,2",
                                  "2,1,0,0;1,2,1,0;0,1,2,1;0,0,1,2"])
def test_letter_relations_at_higher_rank(gram):
    # the bridge reads the Casimir formula's words on the letters, and that
    # is the image of Omega_N because these relations hold at every rank
    _check_letter_relations(GramLattice(parse_rational_matrix(gram)))


EXACT_SUITES = ("commutators", "casimir-equality", "bridge")


def _exact_suite_codes(capsys):
    """The exit code of each exact suite on 2,1;1,2 (verify reads no cache)."""
    codes = {}
    for suite in EXACT_SUITES:
        codes[suite] = main(["verify", suite, "--L", "2,1;1,2"])
        capsys.readouterr()
    return codes


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_exact_suites_catch_a_leibniz_binomial_set_to_1(j, monkeypatch, capsys):
    # the split table as compose reads it, with C(2, 1) = 2 of the square of
    # direction 2 + j set to 1 (d_z_1, d_z_2, d_zbar_1, d_zbar_2 at rank 2):
    # on a coefficient in v_j, d_z_j^2 is read by casimir-equality and the
    # bridge, d_zbar_j^2 by the bridge's words alone.  These are the only
    # splits with a binomial above 1 that these suites read at rank 2
    R = OpRing(2)
    alpha = R.pack(tuple(2 * (i == 2 + j) for i in range(R.ndirs)))
    gamma = R.pack(tuple(int(i == 2 + j) for i in range(R.ndirs)))
    splits = OpRing.splits
    read = []

    def defective(self, p, flat):
        out = splits(self, p, flat)
        if p != alpha:
            return out
        read.append(flat)
        return [(g, d, 1 if g == gamma else binom) for g, d, binom in out]

    assert _exact_suite_codes(capsys) == dict.fromkeys(EXACT_SUITES, 0)
    monkeypatch.setattr(OpRing, "splits", defective)
    codes = _exact_suite_codes(capsys)
    assert read and codes["casimir-equality" if j < 2 else "bridge"] == 1


@pytest.mark.parametrize("name", JacobiLieAlgebra(2).names)
def test_exact_suites_catch_a_letter_missing_a_term(name, monkeypatch, capsys):
    true_letter = opcalc.build_lie_slash
    for drop in range(len(true_letter(name, LATTICES[2][1]).terms)):

        def defective(Y, L, drop=drop):
            op = true_letter(Y, L)
            if Y != name:
                return op
            return DiffOp(op.op_ring, {e: p for i, (e, p) in enumerate(op.terms.items())
                                       if i != drop}, op.shift)

        monkeypatch.setattr(opcalc, "build_lie_slash", defective)
        assert _exact_suite_codes(capsys)["bridge"] == 1, drop


def test_opposite_product_reverses_order():
    L = GramLattice([[1]])
    E, F = build_lie_slash("E", L), build_lie_slash("F", L)
    got = opcalc._Opposite(E) * opcalc._Opposite(F)
    assert got.op == F.compose(E)


@pytest.mark.parametrize("entries", [[[1]], [[2]]])
def test_bridge_identity_n1(entries):
    L = GramLattice(entries)
    lhs, rhs, eq, xu_free = bridge_check(L)
    assert eq and xu_free


@pytest.mark.parametrize("entries", [[[1, 0], [0, 1]], [[2, 1], [1, 2]]])
def test_bridge_identity_n2(entries):
    L = GramLattice(entries)
    lhs, rhs, eq, xu_free = bridge_check(L)
    assert eq and xu_free


def test_covariance_numeric(ctx):
    # spot checks here; the full operator zoo runs in the acceptance suite
    L = GramLattice([[2]])
    ops = build_raising_lowering(L)
    k = Fraction(3)
    assert covariance_check(ops["X+"], k, L, k + 2, 10, ctx) < mp.mpf("1e-22")
    C = build_casimir_op(L)
    assert covariance_check(C, k, L, k, 5, ctx) < mp.mpf("1e-22")
    # identity operator is trivially covariant with k'=k
    R = OpRing(1)
    assert covariance_check(DiffOp.identity(R), k, L, k, 3, ctx) < mp.mpf("1e-30")


def test_covariance_check_keeps_its_precision():
    # the automorphy factor on the right-hand side is computed at the
    # check's precision, not at the default 128 bits
    L = GramLattice([[1]])
    X_plus = build_raising_lowering(L)["X+"]
    r = covariance_check(X_plus, 3, L, 5, 4, PrecisionContext(bits=256))
    assert r < mp.mpf("1e-70")


def test_covariance_check_rejects_a_fractional_weight_gap(ctx):
    # target weights (11/2, 0) give no single-valued automorphy factor
    L = GramLattice([[1]])
    X_plus = build_raising_lowering(L)["X+"]
    with pytest.raises(DomainError):
        covariance_check(X_plus, 3, L, Fraction(11, 2), 1, ctx)


@pytest.mark.parametrize("entries, k, kbar", [
    ([[2]], 3, 0),
    ([[1]], Fraction(7, 2), Fraction(3, 2)),
    ([[2, 1], [1, 2]], 3, 0),
    ([[2, Fraction(1, 2)], [Fraction(1, 2), 1]], Fraction(5, 2), Fraction(1, 2)),
])
def test_slashed_jet_value_is_the_slash(ctx, entries, k, kbar):
    # the jet path and group.slash share the action and the a-cocycle, but
    # not the weight: slashed_jet builds it from the independent taubar jet
    L = GramLattice(entries)
    N = L.N
    seed = GaussianSeed(N)
    rng = random.Random(80 + N)
    with ctx.working():
        for _ in range(4):
            g = random_group_element(N, rng)
            tau, z = random_point(N, rng)
            (jet,), _, _ = slashed_jet(seed, [(k, kbar)], L, g, tau, z,
                                       JetSpace.for_rank(N, 1))
            expect = slash(lambda p: _seed_value(seed, p.tau, p.z), k, kbar, L.entries,
                           g, ctx)(Point(tau, z))
            assert abs(jet.value - expect) < mp.mpf("1e-30") * abs(expect)


def _per_operator_residuals(jobs, L, samples, ctx):
    """The covariance loop before the samples were shared, kept as the
    oracle of covariance_residuals: each job redraws the samples, builds
    its own slashed jet at the order of its operator and its own
    automorphy factor."""
    N = L.N
    seed = GaussianSeed(N)
    out = []
    for T, k, k2, kbar, kbar2 in jobs:
        rng = random.Random(77001)
        worst = mp.mpf(0)
        with ctx.working():
            kv = to_mpc(Fraction(k))
            for _ in range(samples):
                g = random_group_element(N, rng)
                tau, z = random_point(N, rng)
                (sj,), f_at_q, (q_tau, q_z) = slashed_jet(
                    seed, [(k, kbar)], L, g, tau, z, JetSpace.for_rank(N, T.order()))
                lhs = T.apply_jet(sj, tau, z, k_value=kv)
                (factor,) = automorphy_factor([(k2, kbar2)], L.entries, g.to_numeric(),
                                              Point(tau, z), ctx)
                rhs = factor * T.apply_jet(f_at_q, q_tau, q_z, k_value=kv)
                worst = max(worst, abs(lhs - rhs) / max(mp.mpf(1), abs(rhs)))
        out.append(worst)
    return out


@pytest.mark.parametrize("N, which, samples, bits", [
    (1, 0, 3, 128), (1, 1, 2, 256),
    (2, 1, 2, 128), (2, 0, 1, 256),
    (3, 1, 1, 128), (3, 0, 1, 256),
])
def test_shared_covariance_matches_the_per_operator_oracle(N, which, samples, bits):
    # every operator of `verify covariance`, heat's (N/2, N/2 - 1) weights
    # included, with the same bits as one check per operator
    L = LATTICES[N][which]
    ctx = PrecisionContext(bits=bits)
    jobs = list(covariance_jobs(L).values())
    # heat's source weights are the second pair
    assert len({(k, kbar) for _, k, _, kbar, _ in jobs}) == 2
    shared = covariance_residuals(jobs, L, samples, ctx)
    assert shared == _per_operator_residuals(jobs, L, samples, ctx)
    assert all(r < mp.mpf("1e-22") for r in shared)


# -- jets on the monomials the operators read ------------------------------------

SUPPORT_LATTICES = [GramLattice([[2]]), GramLattice([[2, 1], [1, 2]]),
                    GramLattice([[2, 0], [0, 4]]),
                    GramLattice([[2, 1, 0], [1, 2, 1], [0, 1, 2]])]
SUPPORT_IDS = ["2", "2,1;1,2", "2,0;0,4", "A3"]


def _on(jet, space):
    """The terms of ``jet`` at the monomials of ``space``."""
    return {e: c for e, c in jet.terms.items() if e in space.index}


def _total_degree_space(N, ops):
    """The oracle of ``support_space``: every monomial up to the highest
    order of ``ops``."""
    return JetSpace.for_rank(N, max(T.order() for T in ops))


@pytest.mark.parametrize("L", SUPPORT_LATTICES, ids=SUPPORT_IDS)
def test_support_space_jets_have_the_bits_of_the_total_degree_ones(L, monkeypatch):
    # every source weight pair of `verify covariance`, and the residuals
    ctx = PrecisionContext(bits=128)
    N = L.N
    jobs = list(covariance_jobs(L).values())
    ops = [T for T, *_ in jobs]
    space, full = support_space(N, ops), _total_degree_space(N, ops)
    assert len(space.monos) < len(full.monos)
    sources = list(dict.fromkeys((k, kbar) for _, k, _, kbar, _ in jobs))
    seed = GaussianSeed(N)
    rng = random.Random(90 + N)
    with ctx.working():
        for _ in range(3):
            g = random_group_element(N, rng)
            tau, z = random_point(N, rng)
            sjs, f_at_q, q = slashed_jet(seed, sources, L, g, tau, z, space)
            full_sjs, full_f_at_q, full_q = slashed_jet(seed, sources, L, g, tau, z, full)
            assert q == full_q
            assert f_at_q.terms == _on(full_f_at_q, space)
            for sj, full_sj in zip(sjs, full_sjs):
                assert sj.terms == _on(full_sj, space)
    on_support = covariance_residuals(jobs, L, 2, ctx)
    monkeypatch.setattr("maassjacobi.opcalc.support_space", _total_degree_space)
    assert on_support == covariance_residuals(jobs, L, 2, ctx)


def test_the_moves_are_what_the_composition_needs(ctx):
    # d_tau^2 alone at N = 2: its downward closure 1, tau, tau^2 misses the
    # outer monomials z_j that the composition carries into tau^2
    L = GramLattice([[2, 1], [1, 2]])
    d = OpRing(2).d
    op = d.tau.compose(d.tau)
    space = support_space(2, [op])
    assert len(space.monos) == 10
    bare = JetSpace.of_monomials([(0,) * 6, (1,) + (0,) * 5, (2,) + (0,) * 5])
    full = JetSpace.for_rank(2, 2)
    seed = GaussianSeed(2)
    rng = random.Random(91)
    tau2 = (2,) + (0,) * 5
    with ctx.working():
        for _ in range(3):
            g = random_group_element(2, rng)
            tau, z = random_point(2, rng)
            jets = {sp: slashed_jet(seed, [(3, 0)], L, g, tau, z, sp)[0][0]
                    for sp in (space, bare, full)}
            assert jets[space].terms == _on(jets[full], space)
            assert jets[bare].terms[tau2] != jets[full].terms[tau2]


@pytest.mark.parametrize("L", SUPPORT_LATTICES, ids=SUPPORT_IDS)
def test_support_space_is_closed_and_holds_the_operators(L):
    N = L.N
    ops = [T for T, *_ in covariance_jobs(L).values()]
    space = support_space(N, ops)
    held = set(space.monos)
    assert space.monos[0] == (0,) * (2 * N + 2)
    assert all(e in held for T in ops for e in T.terms)
    for e in space.monos:
        for v, x in enumerate(e):
            if x:
                assert e[:v] + (x - 1,) + e[v + 1:] in held
        for a, b in [(0, 2 + j) for j in range(N)] + [(1, 2 + N + j) for j in range(N)]:
            if e[a]:
                m = list(e)
                m[a] -= 1
                m[b] += 1
                assert tuple(m) in held
    # the same set, given to of_monomials, is the same instance
    assert JetSpace.of_monomials(reversed(space.monos)) is space
    assert space.degree == max(T.order() for T in ops)


def test_of_monomials_checks_the_set_and_keeps_total_degree_spaces():
    assert JetSpace.of_monomials(JetSpace(3, 2).monos) is JetSpace(3, 2)
    assert JetSpace.of_monomials([(2, 0), (0, 0), (1, 0)]) is \
        JetSpace(2, 2, ((0, 0), (1, 0), (2, 0)))
    for monos in ([], [(1, 0)], [(0, 0), (2, 0)], [(0, 0), (0, 1, 0)], [(0, 0), (-1, 1)]):
        with pytest.raises(DomainError):
            JetSpace.of_monomials(monos)


def test_heat_covariance_type(ctx):
    # exact at holomorphic weight N/2 (any conjugate weight), broken elsewhere
    for L in (GramLattice([[1]]), GramLattice([[1, 0], [0, 1]])):
        N = L.N
        heat = build_heat(L)
        k1 = Fraction(N, 2)
        good = covariance_check(heat, k1, L, k1 + 2, 6, ctx,
                                kbar=k1 - 1, kbar2=k1 - 1)
        assert good < mp.mpf("1e-22")
        bad = covariance_check(heat, k1 + 1, L, k1 + 3, 6, ctx,
                               kbar=k1, kbar2=k1)
        assert bad > mp.mpf("1e-12")


def _seed_value(seed, tau, z):
    """The seed's value at (tau, z): the value of its degree-0 jet."""
    return seed.jet(coordinate_jets(JetSpace.for_rank(len(z), 0), tau, z)).value


def _seed_exponent_by_loop(seed, vars_):
    """GaussianSeed's exponent by the None-started loop it had before it
    started from the zero of its variables, kept as its oracle."""
    acc = None
    for c, w in zip(seed.lin, vars_):
        t = w * c
        acc = t if acc is None else acc + t
    for c, w in zip(seed.quad, vars_):
        acc = acc + w * w * c
    return acc


@pytest.mark.parametrize("N, degree", [(1, 0), (1, 4), (2, 2)])
def test_seed_sums_match_the_loop(ctx, N, degree):
    seed = GaussianSeed(N)
    tau, z = mp.mpc("0.2", "1.1"), [mp.mpc("0.3", "-0.2"), mp.mpc("-0.1", "0.6")][:N]
    with ctx.working():
        coords = coordinate_jets(JetSpace.for_rank(N, degree), tau, z)
        vars_ = [coords.tau, coords.taubar, *coords.z, *coords.zbar]
        got, expect = seed.jet(coords), _seed_exponent_by_loop(seed, vars_).exp()
        assert list(got.terms.items()) == list(expect.terms.items())
        numbers = [v.value for v in vars_]
        assert _seed_value(seed, tau, z) == mp.exp(_seed_exponent_by_loop(seed, numbers))


def test_jet_engine_against_finite_differences(ctx):
    # cross-validate jet application of an operator against 8th order FD
    L = GramLattice([[1]])
    ops = build_raising_lowering(L)
    seed = GaussianSeed(1)
    with ctx.working():
        tau, z = mp.mpc("0.2", "1.1"), [mp.mpc("0.3", "-0.2")]
        space = JetSpace.for_rank(1, 2)
        jet = seed.jet(coordinate_jets(space, tau, z))
        got = ops["X-"].apply_jet(jet, tau, z)
        # X- = -2iy(y d_taubar + v d_zbar); realize with FD in real coordinates
        y0, v0 = tau.imag, z[0].imag

        def fun(pt):
            x, y, u, v = pt
            return _seed_value(seed, mp.mpc(x, y), [mp.mpc(u, v)])

        base = [tau.real, tau.imag, z[0].real, z[0].imag]
        h = mp.mpf("1e-3")
        dx = finite_difference(fun, base, 0, h)
        dy = finite_difference(fun, base, 1, h)
        du = finite_difference(fun, base, 2, h)
        dv = finite_difference(fun, base, 3, h)
        dtaubar = (dx + 1j * dy) / 2
        dzbar = (du + 1j * dv) / 2
        expect = -2j * y0 * (y0 * dtaubar + v0 * dzbar)
        assert abs(got - expect) < mp.mpf("1e-8")


def test_apply_jet_degree_error(ctx):
    L = GramLattice([[1]])
    C = build_casimir_op(L)
    seed = GaussianSeed(1)
    with ctx.working():
        space = JetSpace.for_rank(1, 1)
        jet = seed.jet(coordinate_jets(space, mp.mpc(0, 1), [mp.mpc(0)]))
        with pytest.raises(DegreeError):
            C.apply_jet(jet, mp.mpc(0, 1), [mp.mpc(0)], k_value=mp.mpf(2))


def test_an_exponent_the_jet_lacks_is_an_error_not_a_zero(ctx):
    # a rank-2 operator on a rank-1 jet, whose z has the operator's two
    # entries, read 0 once; so did an exponent of another length
    X_plus = build_raising_lowering(GramLattice([[2, 1], [1, 2]]))["X+"]
    tau, z = mp.mpc("0.1", "1.1"), [mp.mpc("0.2", "0.1"), mp.mpc("-0.1", "0.3")]
    with ctx.working():
        jet = GaussianSeed(1).jet(coordinate_jets(JetSpace.for_rank(1, 2), tau, z[:1]))
        with pytest.raises(DomainError, match="entries"):
            X_plus.apply_jet(jet, tau, z, k_value=mp.mpf(3))
        with pytest.raises(DomainError):
            jet.derivative_at_base((1, 0, 0, 0, 0, 0))
        with pytest.raises(DegreeError):
            jet.derivative_at_base((3, 0, 0, 0))
        # below the degree, but outside a space on 1, tau and tau^2
        space = JetSpace.of_monomials([(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)])
        jet = GaussianSeed(1).jet(coordinate_jets(space, tau, z[:1]))
        assert jet.derivative_at_base((2, 0, 0, 0)) != 0
        with pytest.raises(DegreeError):
            jet.derivative_at_base((0, 1, 0, 0))
        with pytest.raises(DegreeError):
            build_heat(GramLattice([[2]])).apply_jet(jet, tau, z[:1])


def test_formal_k_without_a_k_value_is_a_domain_error(ctx):
    # the Casimir's coefficients hold the formal k; the heat operator's do not
    L = GramLattice([[2]])
    with ctx.working():
        with pytest.raises(DomainError, match="k_value"):
            build_casimir_op(L).coefficients_at(mp.mpc(0.1, 1), [mp.mpc(0.2)])
        assert build_heat(L).coefficients_at(mp.mpc(0.1, 1), [mp.mpc(0.2)])


def _base_values(tau, z) -> dict:
    """A point's values keyed by variable name, as DiffOp.apply_jet took
    them before it read the ring's variables by position."""
    tau = mp.mpc(tau)
    out = {"x": mp.mpc(tau.real), "y": mp.mpc(tau.imag)}
    for j, w in enumerate(z, start=1):
        w = mp.mpc(w)
        out[f"u{j}"] = mp.mpc(w.real)
        out[f"v{j}"] = mp.mpc(w.imag)
    return out


def _eval_by_name(poly, values: dict, to_num):
    """Poly.eval_numeric before it read values by variable index."""
    acc = None
    for e, c in poly.terms.items():
        t = to_num(c)
        for i, k in enumerate(e):
            if k == 0:
                continue
            t = t * values[poly.ring.names[i]] ** k
        acc = t if acc is None else acc + t
    return acc if acc is not None else to_num(GaussianRational(0))


def _coefficients_by_name(op, tau, z, k_value):
    """DiffOp.coefficients_at by the name-keyed evaluation, kept as its
    oracle."""
    values = _base_values(tau, z)
    values["pi"] = mp.pi
    if k_value is not None:
        values["k"] = to_mpc(k_value)
    return [(e, c) for e, c in ((e, _eval_by_name(p, values, to_mpc))
                                for e, p in op.terms.items()) if c]


def _apply_jet_per_term(op, jet, tau, z, k_value):
    """(T f)(p) from the name-keyed coefficient values, summed in the stored
    order: the oracle of DiffOp.apply_jet."""
    acc = mp.mpc(0)
    for e, c in _coefficients_by_name(op, tau, z, k_value):
        acc += c * jet.derivative_at_base(e)
    return acc


@settings(settings.get_profile("numeric"))
@given(N=st.sampled_from([1, 2]), which=st.sampled_from(["casimir", "heat"]),
       k=st.integers(-6, 6).map(lambda j: Fraction(j, 2)), seed=st.integers(0, 2 ** 32),
       bits=st.sampled_from([128, 256]))
def test_shared_coefficients_match_the_per_term_oracle(N, which, k, seed, bits):
    # the coefficient values of one point and k, read by variable position,
    # are those of the name-keyed evaluation, and apply_jet gives each of
    # three drawn jets the bits of the per-term loop
    L = LATTICES[N][seed % 2]
    op = build_casimir_op(L) if which == "casimir" else build_heat(L)
    k_value = to_mpc(k) if which == "casimir" else None
    rng = random.Random(seed)
    space = JetSpace.for_rank(N, op.order())
    monos = [e for e in product(range(space.degree + 1), repeat=space.nvars)
             if sum(e) <= space.degree]
    with PrecisionContext(bits=bits).working():
        tau, z = random_point(N, rng)
        shared = op.coefficients_at(tau, z, k_value)
        assert shared == _coefficients_by_name(op, tau, z, k_value)
        for _ in range(3):
            jet = Jet(space, {e: mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for e in monos})
            expect = _apply_jet_per_term(op, jet, tau, z, k_value)
            assert op.apply_jet(jet, tau, z, k_value=k_value) == expect


def test_kernel_seed(ctx):
    L = GramLattice([[1]])
    rep = kernel_seed(Fraction(2), L, Fraction(1), [Fraction(1, 2)], ctx)
    with ctx.working():
        # the ODE oracle rederives the exponent constant as -2i inside e(.)
        assert rep["derived_vs_minus_2i"] < mp.mpf("1e-30")
        assert rep["max_X+"] < mp.mpf("1e-30")
        assert rep["max_Y+"] < mp.mpf("1e-30")
    # sanity inversion: dropping the L[v] term leaves a nonzero X+ residual
    ops = build_raising_lowering(L)
    with ctx.working():
        space = JetSpace.for_rank(1, 1)
        tau, z = mp.mpc("0.1", "0.8"), [mp.mpc("0.2", "0.3")]
        coords = coordinate_jets(space, tau, z)
        y, _ = imaginary_parts(coords)
        naked = y.pow_scalar(mp.mpf(-2)) * (
            (coords.taubar + coords.zbar[0] * mp.mpf("0.5")) * (2j * mp.pi)).exp()
        resid = abs(ops["X+"].apply_jet(naked, tau, z, k_value=mp.mpf(2))) / abs(naked.value)
        assert resid > mp.mpf("1e-6")
    # h = l = 0, k = 0 reduces to exp(4 pi L[v]/y); Y+ still annihilates
    rep0 = kernel_seed(0, L, 0, [0], ctx)
    with ctx.working():
        assert rep0["max_Y+"] < mp.mpf("1e-30")
    with pytest.raises(DomainError):  # one h_j for each of the N coordinates
        kernel_seed(0, L, 0, [0, 1], ctx)


def test_invariant_operator_basis_elements_are_invariant(ctx):
    # X+ Y-_i Y-_j, Y+_i Y+_j X-, X+ X-, Y+_i Y-_j, 1 all pass the k'=k check
    L = GramLattice([[1, 0], [0, 1]])
    ops = build_raising_lowering(L)
    k = Fraction(3)
    cands = [DiffOp.identity(OpRing(2)), ops["X+"].compose(ops["X-"])]
    for i in range(2):
        for j in range(2):
            cands.append(ops["Y+"][i].compose(ops["Y-"][j]))
            if i <= j:
                cands.append(ops["X+"].compose(ops["Y-"][i].compose(ops["Y-"][j])))
                cands.append(ops["Y+"][i].compose(ops["Y+"][j].compose(ops["X-"])))
    for T in cands:
        assert T.shift == 0
        assert covariance_check(T, k, L, k, 4, ctx) < mp.mpf("1e-22")


def test_xi_apply_and_dminus_on_semiholomorphic(ctx):
    from maassjacobi.opcalc import xi_apply

    L = GramLattice([[1]])
    with ctx.working():
        tau, z = mp.mpc("0.2", "1.1"), [mp.mpc("0.3", "-0.2")]
        space = JetSpace.for_rank(1, 2)
        coords = coordinate_jets(space, tau, z)
        # semi-holomorphic seed: no zbar dependence
        f = (coords.tau * mp.mpc("0.3", "0.1")
             + coords.taubar * mp.mpc("0.2")
             + coords.z[0] * mp.mpc("0.4", "-0.2")).exp()
        dm = build_D_minus(L)
        got = dm.apply_jet(f, tau, z)
        # D- acts on semi-holomorphic jets by -2iy^2 d_taubar
        y0 = tau.imag
        expect = -2j * y0 ** 2 * f.derivative_at_base((0, 1, 0, 0))
        assert abs(got - expect) < mp.mpf("1e-35")
        # xi = y^{k - 5/2} D-
        k = Fraction(7, 2)
        v = xi_apply(k, L, f, tau, z, ctx)
        assert abs(v - mp.power(y0, mp.mpf(1)) * expect) < mp.mpf("1e-33")


def test_diffop_canonical_text_golden():
    # frozen rendering of the rank-1 Casimir operator: the golden file for
    # the canonical text interface
    L = GramLattice([[1]])
    got = build_casimir_op(L).canonical_text()
    golden = (
        "((2 i)*k*v1 + (-2 i)*v1) * dzbar1\n"
        "((4 i)*k*y + (-2 i)*y) * dtaubar\n"
        "(2*v1^2 - 1/2*k*pi^-1*y) * dzbar1^2\n"
        "(-1/2*k*pi^-1*y) * dz1 dzbar1\n"
        "(-8*y*v1) * dtau dzbar1\n"
        "(-8*y^2) * dtau dtaubar\n"
        "((-1 i)*pi^-1*y*v1) * dz1 dzbar1^2\n"
        "((-1 i)*pi^-1*y*v1) * dz1^2 dzbar1\n"
        "((-1 i)*pi^-1*y^2) * dtaubar dz1^2\n"
        "((-1 i)*pi^-1*y^2) * dtau dzbar1^2"
    )
    assert got == golden, got
    # higher rank: each builder's shift and the sha256 of its canonical text
    for entries, pinned in GOLDEN_SHA256.items():
        ops = _golden_builders(GramLattice([list(row) for row in entries]))
        assert set(ops) == set(pinned)
        for name, op in ops.items():
            digest = hashlib.sha256(op.canonical_text().encode()).hexdigest()
            assert (op.shift, digest) == pinned[name], (entries, name)


GOLDEN_SHA256 = {
    ((2, 1), (1, 2)): {
        "X+": (2, "8a69ae5e053e197d2600f30167f80347"
              "d867717cb899f4678119e39eb499ee7c"),
        "X-": (-2, "4aabd220a829186e2dcd691445627cad"
              "35259aabe2d3b83f2ef6b1bea9177ba2"),
        "Y+1": (1, "f32b2fa848e69eb8a5bf56b38e1972c2"
               "70ba48f65289b29690db8ee4d418e577"),
        "Y-1": (-1, "042a378df69a4d4ed6bd762fac347575"
               "54504ef80455c86bf0cab4d583e75b9b"),
        "Y+2": (1, "eccbd53c43539f4a09dab7379c7ff096"
               "cc3a163c0e9ebb5ac5a509bdc1125132"),
        "Y-2": (-1, "d4adb064879cdcf0d51cfc32b4c17aa3"
               "c6270dbe3bc548786f7d7e9bd6670ac4"),
        "casimir": (0, "499e08bd89ac5e06307fd9c6985c7f36"
                   "7832cf090cb8a861170f234279198f82"),
        "semiholomorphic": (0, "f21f7d56b9294b0eb17e40b7092eea22"
                           "8a9a1beb6a42c2334bb324849a779336"),
        "heat": (2, "793d16b2ea8fe998f9f7a09f9df5d734"
                "c822aff82bc1f304cc79e97ddea5f6b2"),
        "d_minus_direct": (-2, "7ed426141711f922706e7a7aa51c45a5"
                          "3f94058133178ea7565e1aa18cdb951b"),
        "D_minus": (-2, "7ed426141711f922706e7a7aa51c45a5"
                   "3f94058133178ea7565e1aa18cdb951b"),
        "laplace": (0, "7baf2cc2cd4e246f1d7f12d2ed87b69e"
                   "d21cacbcfbae2ca87696d83cb0405885"),
    },
    ((2, 1, 0), (1, 2, 1), (0, 1, 2)): {
        "X+": (2, "4661629004fd2c1acd31d58dce705c47"
              "064d94d09e75152625bda9adb85c9c7a"),
        "X-": (-2, "b5f1e12fd707438e04e4ee0b9bed9b7c"
              "f78bbd07cc2719427e93908f1f224188"),
        "Y+1": (1, "f32b2fa848e69eb8a5bf56b38e1972c2"
               "70ba48f65289b29690db8ee4d418e577"),
        "Y-1": (-1, "042a378df69a4d4ed6bd762fac347575"
               "54504ef80455c86bf0cab4d583e75b9b"),
        "Y+2": (1, "658732104fe3a7a4b4f0332074018d32"
               "d1f2b590f196c59a57320b60b458634f"),
        "Y-2": (-1, "d4adb064879cdcf0d51cfc32b4c17aa3"
               "c6270dbe3bc548786f7d7e9bd6670ac4"),
        "Y+3": (1, "655276fb835a90c8a3574f004c51613e"
               "981f2df9d6b390793ea63a3ca0ee4403"),
        "Y-3": (-1, "9a650316fa56c0467effb7bcf6763f63"
               "d038e49b2ba0331c777812f50fc2e090"),
        "casimir": (0, "967aef22e657347123bcf78360ba3c37"
                   "b8a7cad99f0b30fc0f02661bbccba9be"),
        "semiholomorphic": (0, "5dc64de0653c31af56fcbd7d09b06667"
                           "c1e5c4d777f61b68234932ec7dac339b"),
        "heat": (2, "b3f63a08bb5829284f50f66e809774e4"
                "f73545e164f771e6d8c721f5880660b5"),
        "d_minus_direct": (-2, "d4197a7d904356457ea4d14cb780e2f8"
                          "2bea3745b65fb46de237c36af022a767"),
        "D_minus": (-2, "d4197a7d904356457ea4d14cb780e2f8"
                   "2bea3745b65fb46de237c36af022a767"),
        "laplace": (0, "f1e689a09bf93fdf657ba9b0f60798df"
                   "6b48bf9bed46c76e73fa590f60994736"),
    },
}
