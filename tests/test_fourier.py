import json
import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from mpmath import mp

from maassjacobi.cli import eigen_grid
from maassjacobi.errors import DomainError, NotSemiHolomorphicError
from maassjacobi.fourier import (
    FourierExpansion,
    FourierIndex,
    _index_exponential_jet,
    _profile_jet,
    _worst_residual,
    casimir_exact_residuals,
    casimir_residual,
    heat_residual,
    maass_fourier_term,
    mixed_mock_term,
    phi_seed,
    residue_classes,
    residue_reduce,
    skew_fourier_term,
    specialize_torsion,
    theta_decompose_semi,
    theta_klr,
    theta_lmu,
    theta_reassemble,
)
from maassjacobi.gaussian import GaussianRational
from maassjacobi.lattice import GramLattice, discriminant
from maassjacobi.opcalc import DiffOp, build_casimir_op
from maassjacobi.jets import (Coordinates, Jet, JetSpace, compose_univariate, coordinate_jets,
                              imaginary_parts)
from maassjacobi.precision import PrecisionContext, to_mpc, to_mpf
from maassjacobi.specfun import e_profile_jet
from maassjacobi.series import casimir_eigenvalue

from conftest import finite_difference, sum_by_loop

PTS1 = [(mp.mpc("0.13", "0.9"), [mp.mpc("0.21", "0.17")]),
        (mp.mpc("-0.4", "1.3"), [mp.mpc("-0.3", "0.4")]),
        (mp.mpc("0.05", "0.72"), [mp.mpc("0.4", "-0.2")])]


def eigen_points(N, ctx):
    """Three sample points of rank N from random.Random(99): the numeric
    oracle's points for the exact `verify eigen` grid."""
    rng = random.Random(99)
    with ctx.working():
        pts = []
        for _ in range(3):
            tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.2))
            z = [mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
                 for _ in range(N)]
            pts.append((tau, z))
    return pts


def eigenfunction_ratio_residual(f: FourierExpansion, k, probe_point, points, ctx):
    """Fit the eigenvalue at probe_point, then report the worst residual of
    C f = lambda f at the other points (the paper states eigenfunction-ness
    without the eigenvalue)."""
    op = build_casimir_op(f.lattice)
    with ctx.working():
        kv = to_mpc(Fraction(k))
        tau, z = probe_point
        jet = f.jet(tau, z, degree=op.order(), ctx=ctx)
        lam = op.apply_jet(jet, tau, z, k_value=kv) / jet.value
        return _worst_residual(op, f, kv, lam, points, ctx), lam


def test_theta_lmu_examples():
    L2 = GramLattice([[2]])
    th = theta_lmu(L2, [0], 2)
    got = {(i.n, i.r): c for i, (t, p, c) in th.terms.items()}
    assert got == {
        (Fraction(0), (0,)): GaussianRational(1),
        (Fraction(1, 2), (2,)): GaussianRational(1),
        (Fraction(1, 2), (-2,)): GaussianRational(1),
        (Fraction(2), (4,)): GaussianRational(1),
        (Fraction(2), (-4,)): GaussianRational(1),
    }
    th = theta_lmu(L2, [1], 1)
    assert sorted((i.n, i.r) for i in th.terms) == \
        [(Fraction(1, 8), (-1,)), (Fraction(1, 8), (1,))]
    assert len(theta_lmu(L2, [1], 0)) == 0
    with pytest.raises(DomainError):
        theta_lmu(GramLattice([[1, Fraction(1, 2)], [Fraction(1, 2), 1]]), [0, 0], 1)


def test_theta_lmu_term_count_oracle():
    # enumeration completeness vs naive box enumeration for bound <= 4
    for entries, mu in [([[1]], [0]), ([[2]], [1]), ([[3]], [2]),
                        ([[2, 1], [1, 2]], [1, 0]), ([[1, 0], [0, 2]], [0, 1])]:
        L = GramLattice(entries)
        for bound in (1, 2, 4):
            th = theta_lmu(L, mu, bound)
            count = 0
            for r in product(range(-14, 15), repeat=L.N):
                diff = [a - b for a, b in zip(r, mu)]
                lam = L.inv_apply(diff)
                if all(x.denominator == 1 for x in lam) and L.inv_quad(r) <= 4 * bound:
                    count += 1
            assert len(th) == count, (entries, mu, bound)


def test_theta_klr():
    L1 = GramLattice([[1]])
    assert len(theta_klr(3, L1, [0], 6)) == 0           # k odd, r = 0
    th = theta_klr(2, L1, [0], 4)
    got = {(i.n, i.r): c for i, (t, p, c) in th.terms.items()}
    assert got == {
        (Fraction(0), (0,)): GaussianRational(2),
        (Fraction(1), (2,)): GaussianRational(2),
        (Fraction(1), (-2,)): GaussianRational(2),
        (Fraction(4), (4,)): GaussianRational(2),
        (Fraction(4), (-4,)): GaussianRational(2),
    }
    # lambda = 0 contributes (1 + (-1)^k) zeta^r
    th = theta_klr(2, L1, [1], 0)
    assert th.terms[FourierIndex.of(0, (1,))][2] == GaussianRational(2)
    # variant flag changes the second family's vector
    tha = theta_klr(2, L1, [1], 2)
    thb = theta_klr(2, L1, [1], 2, zeta_variant=True)
    assert tha != thb


def test_expansion_json_round_trip():
    # one expansion per profile tag
    L, L2 = GramLattice([[1]]), GramLattice([[2, 1], [1, 2]])
    k = Fraction(5, 2)
    seed = phi_seed(k, L2, Fraction(5, 3), 1, [1, 0])
    expansions = [
        theta_klr(2, L2, [1, 0], 3),
        maass_fourier_term("c0", k, L, 1, [2]),
        maass_fourier_term("c+", k, L, 1, [1]),
        maass_fourier_term("c-", k, L, -1, [1]),
        skew_fourier_term(L2, 1, [1, 0]),
        mixed_mock_term(k, L2, 1, [1, 0], 3, [Fraction(1, 2), -3]),
        seed,
        FourierExpansion(L2, {i: ("W", p, c) for i, (_, p, c) in seed.terms.items()}),
    ]
    tags = {tag for f in expansions for tag, _, _ in f.terms.values()}
    assert tags == {"y_power", "constant", "H", "exp_real", "E", "M", "W"}
    for f in expansions:
        s = f.to_json()
        back = FourierExpansion.from_json(s)
        assert back == f
        assert back.to_json() == s


@pytest.mark.parametrize("h, r", [([0], [0]), ([Fraction(1, 2)], [3]), ([0, 0], [1, 0]),
                                  ([0, -3], [0, 2]), ([Fraction(1, 2), -3], [-1, 1])])
@pytest.mark.parametrize("degree", [0, 1, 3])
def test_point_sums_match_the_loop(ctx, h, r, degree):
    # h.v of the E profile and n tau + r.z of e(n tau + r.z), each against
    # its loop, with zero and nonzero h_j and r_j
    N, n, nu = len(h), Fraction(-3, 4), 1
    tau, z = mp.mpc("-0.4", "1.3"), [mp.mpc("-0.3", "0.4"), mp.mpc("0.1", "0.25")][:N]
    with ctx.working():
        coords = coordinate_jets(JetSpace.for_rank(N, degree), tau, z)
        y, v = imag = imaginary_parts(coords)
        hv = sum_by_loop([vj * to_mpf(hj) for vj, hj in zip(v, h) if hj])
        w = Jet.const(y.space, nu)
        if hv is not None:
            w = w + hv * y.reciprocal()
        w = w * (y * 2).pow_scalar(mp.mpf("0.5"))
        derivs = e_profile_jet(w.value.real, degree, ctx)
        expect = compose_univariate([d / factorial(j) for j, d in enumerate(derivs)], w)
        got = _profile_jet("E", {"nu": nu, "h": h}, imag, ctx)
        assert list(got.terms.items()) == list(expect.terms.items())
        expo = sum_by_loop([coords.tau * to_mpc(n)]
                            + [zj * rj for zj, rj in zip(coords.z, r) if rj])
        got = _index_exponential_jet(FourierIndex.of(n, r), coords)
        assert list(got.terms.items()) == list((expo * (2j * mp.pi)).exp().terms.items())


def _template_residuals():
    """The residuals of test_16_fourier_term_templates, at 128 bits: the c-
    term, two skew terms and the mixed-mock term at k = 1 and at k = 2."""
    ctx = PrecisionContext(bits=128)
    with ctx.working():
        pts = [(mp.mpc("0.13", "0.9"), [mp.mpc("0.21", "0.17")]),
               (mp.mpc("-0.4", "0.8"), [mp.mpc("-0.3", "0.4")]),
               (mp.mpc("0.05", "0.6"), [mp.mpc("0.4", "-0.2")])]
    L1, L2 = GramLattice([[1]]), GramLattice([[2]])
    C1, C2 = build_casimir_op(L1), build_casimir_op(L2)
    return [casimir_residual(maass_fourier_term("c-", 2, L1, -1, [1]), C1, 2, pts, ctx),
            heat_residual(skew_fourier_term(L1, 1, [1]), pts, ctx),
            heat_residual(skew_fourier_term(L2, 1, [2]), pts, ctx),
            casimir_residual(mixed_mock_term(1, L2, 0, [2], 1, [0]), C2, 1, pts, ctx),
            casimir_residual(mixed_mock_term(2, L2, 0, [2], 1, [0]), C2, 2, pts, ctx)]


def test_worst_residual_has_the_bits_of_the_total_degree_space(monkeypatch):
    # the cases of test_16_fourier_term_templates, on the operators'
    # support space and, as the oracle, on the total-degree space of their
    # order
    on_support = _template_residuals()
    monkeypatch.setattr("maassjacobi.fourier.support_space",
                        lambda N, ops: JetSpace.for_rank(N, max(T.order() for T in ops)))
    assert on_support == _template_residuals()
    assert on_support[4] > mp.mpf("1e-3") > max(on_support[:4])


# 40 digits of each residual, as the per-point caches of the batched
# residuals gave them: one case at a time, every jet and sum keeps its bits
TEMPLATE_DIGITS = [
    "7.70943216759044447040091064590404081077e-50",
    "2.888850790713520936080208593475312630402e-45",
    "9.080704639780414121770540412090008392203e-46",
    "1.935288372246823236135208335037390604013e-48",
    "0.05081569873458914251130570743695097118072",
]
EIGEN_DIGITS = [  # the s = 5/2 seeds of eigen_grid on 2,1;1,2, in its order
    "3.196828251938273604115664465171199197524e-44",
    "1.916728426386958772350847816086628417944e-44",
    "2.00163698799888201597876644241018769189e-44",
    "5.469087923655163596352332529232749598208e-44",
    "7.21521022185927688653631380938426557504e-44",
    "4.919672807329186839806080913641616035126e-44",
    "4.954540054496226262366025173226639220689e-44",
    "8.915062821584391181964408541800748087084e-44",
    "5.149801059797741169285687886653201353108e-44",
    "3.585944689744261897717613000559784542386e-44",
    "3.905278297540735239727566031848760272076e-44",
    "1.198655247890550681295657398359583890959e-43",
]


def test_template_residuals_keep_their_digits():
    assert [mp.nstr(x, 40) for x in _template_residuals()] == TEMPLATE_DIGITS
    L = GramLattice([[2, 1], [1, 2]])
    ctx = PrecisionContext(bits=128)
    C, pts = build_casimir_op(L), eigen_points(L.N, ctx)
    got = [casimir_residual(f, C, k, pts, ctx, eigenvalue=ev)
           for name, (f, k, ev) in eigen_grid(L) if " s=5/2 " in name]
    assert [mp.nstr(x, 40) for x in got] == EIGEN_DIGITS


@pytest.mark.parametrize("h", [[1], [1, 0, 2]], ids=["short", "long"])
def test_e_profile_h_of_another_rank_is_a_domain_error(h):
    L = GramLattice([[2, 1], [1, 2]])
    with pytest.raises(DomainError, match="rank 2"):  # refused where it enters
        mixed_mock_term(Fraction(5, 2), L, 1, [1, 0], 0, h)
    # and so is a terms dict given to the constructor
    with pytest.raises(DomainError, match="rank 2"):
        FourierExpansion(L, {FourierIndex.of(1, [1, 0]):
                             ("E", {"nu": 0, "h": h}, GaussianRational(1))})


@pytest.mark.parametrize("r", [[1], [1, 0, 0]], ids=["short", "long"])
def test_term_of_another_rank_is_refused_where_it_enters(r):
    # by add_term, and by from_json as a file that is not an expansion
    L = GramLattice([[2, 1], [1, 2]])
    f = FourierExpansion(L)
    with pytest.raises(DomainError, match="rank 2"):
        f.add_term(FourierIndex.of(1, r), "constant", {}, GaussianRational(1))
    with pytest.raises(DomainError, match="rank 2"):
        mixed_mock_term(Fraction(5, 2), L, 1, r, 0, [1, 0])
    assert len(f) == 0
    for key, value in (("r", r), ("params", {"nu": "0", "h": [str(x) for x in r]})):
        data = json.loads(mixed_mock_term(Fraction(5, 2), L, 1, [1, 0], 0, [1, 0]).to_json())
        data["terms"][0][key] = value
        with pytest.raises(ValueError, match="rank 2"):
            FourierExpansion.from_json(json.dumps(data))


@pytest.mark.parametrize("z", [[], [mp.mpc("0.2", "0.1"), mp.mpc(5, 5)]],
                         ids=["empty", "long"])
def test_z_of_another_length_is_a_domain_error(ctx, z):
    # the coordinate jets and an operator's values at a point read one z_j
    # for each of the N coordinates
    L = GramLattice([[2]])
    th = theta_lmu(L, [1], 2)
    with pytest.raises(DomainError, match="rank 1"):
        th.evaluate(mp.mpc("0.1", "1.2"), z, ctx)
    with pytest.raises(DomainError, match="rank 1"):
        coordinate_jets(JetSpace.for_rank(1, 2), mp.mpc("0.1", "1.2"), z)
    op = build_casimir_op(L)
    with ctx.working(), pytest.raises(DomainError, match="rank 1"):
        op.coefficients_at(mp.mpc("0.1", "1.2"), z, to_mpc(Fraction(5, 2)))


def test_residual_over_no_points_is_zero(ctx):
    # as in covariance_residuals, each maximum starts from zero
    L = GramLattice([[2]])
    f = theta_lmu(L, [1], 2)
    with ctx.working():
        assert _worst_residual(build_casimir_op(L), f, None, None, [], ctx) == mp.mpf(0)


_E_CASES = [(GramLattice([[2]]), [1], 0, [Fraction(1, 2)], PTS1[0]),
            (GramLattice([[2, 1], [1, 2]]), [1, 0], 1, [Fraction(1, 2), -3],
             (mp.mpc("-0.4", "1.3"), [mp.mpc("-0.3", "0.4"), mp.mpc("0.1", "0.25")]))]


@pytest.mark.parametrize("L, r, nu, h, point", _E_CASES, ids=["rank1", "rank2"])
def test_mixed_mock_profile_with_h(ctx, L, r, nu, h, point):
    # the multivariable-Appell profile E((nu + h.v/y) sqrt(2y)) e(n tau + r.z)
    # at h != 0, where the profile reads the v_j
    n = 1
    f = mixed_mock_term(Fraction(5, 2), L, n, r, nu, h)
    tau, z = point
    with ctx.working():
        y, hv = tau.imag, sum(to_mpc(hj) * zj.imag for hj, zj in zip(h, z))
        e = mp.exp(2j * mp.pi * (n * tau + sum(rj * zj for rj, zj in zip(r, z))))
        expect = mp.erf(mp.sqrt(mp.pi) * (nu + hv / y) * mp.sqrt(2 * y)) * e
        assert abs(f.evaluate(tau, z, ctx) - expect) < mp.mpf("1e-40")

        # each first derivative of the jet, in tau, taubar, z_j, zbar_j, from
        # differences in the real coordinates x, y, u_j, v_j
        N = L.N
        jet = f.jet(tau, z, 1, ctx)

        def fun(pt):
            return f.evaluate(mp.mpc(pt[0], pt[1]),
                              [mp.mpc(pt[2 + j], pt[2 + N + j]) for j in range(N)], ctx)

        base = [tau.real, tau.imag] + [w.real for w in z] + [w.imag for w in z]
        h_step = mp.mpf("1e-6")
        for re_var, im_var, holo, anti in [(0, 1, 0, 1)] + [
                (2 + j, 2 + N + j, 2 + j, 2 + N + j) for j in range(N)]:
            d_re = finite_difference(fun, base, re_var, h_step)
            d_im = finite_difference(fun, base, im_var, h_step)
            for var, sign in ((holo, -1), (anti, 1)):
                alpha = tuple(int(i == var) for i in range(2 * N + 2))
                got = jet.derivative_at_base(alpha)
                assert abs(got - (d_re + sign * 1j * d_im) / 2) < mp.mpf("1e-40")


def test_bool_parameter_is_refused_at_serialization():
    # "True" would not read back as a parameter, so it is not written
    L = GramLattice([[1]])
    index = FourierIndex.of(1, [1])
    for params in ({"s": Fraction(5, 2), "nu": True}, {"mu": [1, False]}):
        with pytest.raises(DomainError):
            FourierExpansion(L, {index: ("W", params, 1)}).to_json()


def test_residue_classes_and_reduce():
    for entries in ([[1]], [[2]], [[3]], [[2, 1], [1, 2]], [[2, 0], [0, 2]],
                    [[2, 0], [0, 4]], [[4, 1], [1, 2]], [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
                    [[4, 2, 1], [2, 4, 1], [1, 1, 2]]):
        L = GramLattice(entries)
        cls = residue_classes(L)
        # |L| distinct classes, each its own canonical representative
        assert len(cls) == len(set(cls)) == int(L.det)
        assert all(residue_reduce(L, c) == c for c in cls)
        # reduction is constant on cosets and lands in the class list
        rng = random.Random(0)
        for _ in range(20):
            r = [rng.randint(-6, 6) for _ in range(L.N)]
            lam = [rng.randint(-3, 3) for _ in range(L.N)]
            shift = [int(a + b) for a, b in zip(r, L.apply(lam))]
            assert residue_reduce(L, r) == residue_reduce(L, shift)
            assert residue_reduce(L, r) in cls


def test_theta_decomposition_round_trip():
    LL = GramLattice([[2, 1], [1, 2]])
    rng = random.Random(5)
    f = FourierExpansion(LL)
    coefmap = {}
    for _ in range(25):
        n = Fraction(rng.randint(0, 6))
        r = (rng.randint(-3, 3), rng.randint(-3, 3))
        key = (residue_reduce(LL, r), discriminant(LL, n, r))
        if key not in coefmap:
            coefmap[key] = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        if coefmap[key]:
            f.terms[FourierIndex.of(n, r)] = ("constant", {}, coefmap[key])
    comp = theta_decompose_semi(f)
    assert theta_reassemble(comp, f) == f
    comp = theta_decompose_semi(f, conjugate=True)
    assert theta_reassemble(comp, f, conjugate=True) == f
    # component exponents are D/(4|L|)
    for mu, c in comp.items():
        for expo, (_, indices) in c.items():
            for idx in indices:
                assert expo == discriminant(LL, idx.n, idx.r) / (4 * LL.det)


def test_theta_decomposition_delta_and_violation():
    LL = GramLattice([[2, 1], [1, 2]])
    th = theta_lmu(LL, [1, 0], 3)
    comp = theta_decompose_semi(th)
    mu0 = residue_reduce(LL, (1, 0))
    assert set(comp.keys()) == {mu0}
    assert set(comp[mu0].keys()) == {Fraction(0)}
    assert comp[mu0][Fraction(0)][0] == GaussianRational(1)

    bad = FourierExpansion(LL)
    r, rp = (1, 0), (3, 1)
    n = Fraction(1)
    D = discriminant(LL, n, r)
    npf = (D / LL.det + LL.inv_quad(rp)) / 4
    assert discriminant(LL, npf, rp) == D
    bad.terms[FourierIndex.of(n, r)] = ("constant", {}, GaussianRational(1))
    bad.terms[FourierIndex.of(npf, rp)] = ("constant", {}, GaussianRational(2))
    with pytest.raises(NotSemiHolomorphicError):
        theta_decompose_semi(bad)


def test_maass_fourier_terms(ctx):
    L = GramLattice([[1]])
    with pytest.raises(DomainError):
        maass_fourier_term("c0", 2, L, 1, [1])   # D != 0
    with pytest.raises(DomainError):
        maass_fourier_term("c-", 2, L, 1, [2])   # D = 0
    with pytest.raises(DomainError):
        maass_fourier_term("oops", 2, L, 1, [1])
    C = build_casimir_op(L)
    with ctx.working():
        f = maass_fourier_term("c+", 2, L, 1, [1])
        assert casimir_residual(f, C, 2, PTS1, ctx) < mp.mpf("1e-10")
        f = maass_fourier_term("c-", 2, L, -1, [1])
        assert casimir_residual(f, C, 2, PTS1, ctx) < mp.mpf("1e-8")
        f = maass_fourier_term("c0", 2, L, 1, [2])
        assert casimir_residual(f, C, 2, PTS1, ctx) < mp.mpf("1e-10")


def test_skew_term_heat_annihilation(ctx):
    L = GramLattice([[1]])
    f = skew_fourier_term(L, 1, [1])
    assert heat_residual(f, PTS1, ctx) < mp.mpf("1e-10")
    L2 = GramLattice([[2, 1], [1, 2]])
    f = skew_fourier_term(L2, 1, [1, 0])
    pts = [(t, [z[0], mp.mpc("0.1", "0.05")]) for t, z in PTS1]
    assert heat_residual(f, pts, ctx) < mp.mpf("1e-10")


def test_phi_seed_eigen(ctx):
    L = GramLattice([[1]])
    with pytest.raises(DomainError):
        phi_seed(2, L, Fraction(5, 2), 1, [2])  # D = 0
    # the (n, r) = (0, [1]) index over the (k, s) grid of `verify eigen`,
    # which checks only (1, [0]) and (-1, [1])
    grid = [(k, s, 0, [1]) for k in (0, 2, 3)
            for s in (Fraction(k, 2) - Fraction(1, 4), Fraction(5, 4) - Fraction(k, 2),
                      Fraction(5, 2))]
    C = build_casimir_op(L)
    for (k, s, n, r) in [(2, Fraction(5, 2), 1, [0]),
                         (3, Fraction(5, 4), -1, [1]),
                         (0, Fraction(5, 4), 1, [0]),
                         (4, Fraction(7, 2), 1, [1])] + grid:
        f = phi_seed(k, L, s, n, r)
        ev = casimir_eigenvalue(k, 1, s)
        assert casimir_residual(f, C, k, PTS1, ctx, eigenvalue=ev) < mp.mpf("1e-10")


def _at_the_pole_as_w(f):
    """The seed f, retagged W where 2s is a nonpositive integer: there M has
    a Kummer pole, and W solves the same Whittaker equation."""
    ((index, (_, params, coeff)),) = f.terms.items()
    two_s = 2 * Fraction(params["s"])
    if two_s.denominator == 1 and two_s <= 0:
        return FourierExpansion(f.lattice, {index: ("W", params, coeff)})
    return f


@pytest.mark.parametrize("entries, size, poles, bits", [
    pytest.param([[1]], 18, 0, 128, id="entries0-18-0"),
    pytest.param([[2, 1], [1, 2]], 36, 8, 128, id="entries1-36-8"),
    pytest.param([[3]], 18, 0, 256, id="entries2-18-0-256"),
])
def test_exact_eigen_agrees_with_the_numeric_oracle(entries, size, poles, bits):
    # the exact identity on every case of the `verify eigen` grid, and the
    # jets of the same seeds at three points; at N = 2 the pole points
    # (k, s) = (0, -1/2) and (3, 0) are reached through the W seed.  Few
    # lattices a rank keep it cheap: the numeric N = 2 path is the slow one
    L = GramLattice(entries)
    ctx = PrecisionContext(bits=bits)
    grid = [case for _, case in eigen_grid(L)]
    cases = [(_at_the_pole_as_w(f), k, ev) for f, k, ev in grid]
    assert len(cases) == size
    assert sum(g is not f for (g, _, _), (f, _, _) in zip(cases, grid)) == poles
    C = build_casimir_op(L)
    assert all(not (a or b) for a, b in casimir_exact_residuals(cases, C))
    pts = eigen_points(L.N, ctx)
    assert all(casimir_residual(f, C, k, pts, ctx, eigenvalue=ev) < mp.mpf("1e-10")
               for f, k, ev in cases)


@pytest.mark.parametrize("entries, seen", [
    ([[1]], 3), ([[2, 1], [1, 2]], 5), ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], 8),
])
def test_exact_eigen_catches_each_doubled_casimir_term(entries, seen):
    # the seed has no d_zbar derivative, so the grid sees exactly the terms
    # without one; doubling any of them fails some case of the grid
    L = GramLattice(entries)
    C = build_casimir_op(L)
    cases = [case for _, case in eigen_grid(L)]
    assert all(not (a or b) for a, b in casimir_exact_residuals(cases, C))
    kept = [e for e in C.terms if not any(Coordinates.of(e).zbar)]
    assert len(kept) == seen
    for e in kept:
        doubled = DiffOp(C.op_ring, {**C.terms, e: C.terms[e].scale(2)}, C.shift)
        assert any(a or b for a, b in casimir_exact_residuals(cases, doubled)), e
    # and a wrong eigenvalue, or the Casimir of another weight, fails every case
    wrong = [(f, k, ev + 1) for f, k, ev in cases] + [(f, k + 1, ev) for f, k, ev in cases]
    assert all(a or b for a, b in casimir_exact_residuals(wrong, C))


def test_exact_eigen_refuses_a_term_that_is_not_a_whittaker_seed():
    L = GramLattice([[1]])
    C = build_casimir_op(L)
    seed = phi_seed(2, L, Fraction(5, 2), 1, [0])
    ((index, (tag, params, coeff)),) = seed.terms.items()
    for f in (maass_fourier_term("c+", 2, L, 1, [1]), FourierExpansion(L),
              FourierExpansion(L, {index: (tag, {**params, "eexp": params["arg"]}, coeff)})):
        with pytest.raises(DomainError):
            casimir_exact_residuals([(f, 2, 0)], C)


def test_mixed_mock_terms(ctx):
    # E(0) = 0 at nu = 0, h = 0: the term vanishes identically
    L = GramLattice([[1]])
    f0 = mixed_mock_term(1, L, 1, [1], 0, [0])
    with ctx.working():
        assert abs(f0.evaluate(mp.mpc("0.2", "0.9"), [mp.mpc("0.1", "0.2")], ctx)) == 0
    # matched parameters (D = -2|L| nu^2, h = 0): annihilated iff k = 1
    L2 = GramLattice([[2]])
    C2 = build_casimir_op(L2)
    f = mixed_mock_term(1, L2, 0, [2], 1, [0])
    assert casimir_residual(f, C2, 1, PTS1, ctx) < mp.mpf("1e-8")
    f2 = mixed_mock_term(2, L2, 0, [2], 1, [0])
    assert casimir_residual(f2, C2, 2, PTS1, ctx) > mp.mpf("1e-3")
    # ratio-based eigen test gives the same verdict
    probe = (mp.mpc("0.3", "1.05"), [mp.mpc("0.2", "0.3")])
    r1, _ = eigenfunction_ratio_residual(f, 1, probe, PTS1, ctx)
    assert r1 < mp.mpf("1e-8")


def specialization_chain_rule_residual(f: FourierExpansion, lam, mu, tau0,
                                       ctx: PrecisionContext):
    """d/dtaubar of the specialized function vs (d_taubar + sum lam_i
    d_zbar_i) f at the specialized point, via jets of f and a finite
    difference in taubar of the specialization."""
    L = f.lattice
    N = L.N
    lam = [Fraction(x) for x in lam]
    mu = [Fraction(x) for x in mu]
    with ctx.working():
        h = mp.mpf("1e-6")
        tau0 = mp.mpc(tau0)
        z0 = [to_mpc(a) * tau0 + to_mpc(b) for a, b in zip(lam, mu)]
        jet = f.jet(tau0, z0, degree=1, ctx=ctx)
        rhs = jet.derivative_at_base((0, 1) + (0,) * (2 * N))
        for i in range(N):
            e = [0] * (2 * N + 2)
            e[2 + N + i] = 1
            rhs += to_mpc(lam[i]) * jet.derivative_at_base(tuple(e))

        # d/dtaubar = (d/dx + i d/dy)/2 on the specialized one-variable function
        def g(pt):
            x, y = pt
            tau = mp.mpc(x, y)
            z = [to_mpc(a) * tau + to_mpc(b) for a, b in zip(lam, mu)]
            return f.evaluate(tau, z, ctx)

        base = [tau0.real, tau0.imag]
        dx = finite_difference(g, base, 0, h)
        dy = finite_difference(g, base, 1, h)
        lhs = (dx + 1j * dy) / 2
        return abs(lhs - rhs)


@pytest.mark.parametrize("lam, mu", [([1], [0, 0]), ([1, 0, 5], [0, 0]),
                                     ([0, 0], [1]), ([0, 0], [])])
def test_specialize_refuses_a_vector_of_another_rank(lam, mu):
    th = theta_lmu(GramLattice([[2, 1], [1, 2]]), [0, 0], 1)
    with pytest.raises(DomainError):
        specialize_torsion(th, lam, mu)


@pytest.mark.parametrize("lam, mu", [([1, 2], [0]), ([1], []), ([], [0])])
def test_specialize_refuses_a_handle_with_lam_and_mu_of_two_lengths(lam, mu):
    # a handle has no rank to check against; z = lam tau + mu needs one length
    with pytest.raises(DomainError, match="entries and mu"):
        specialize_torsion(lambda tau, z: len(z), lam, mu)


def test_specialize_torsion(ctx):
    L = GramLattice([[2]])
    th = theta_lmu(L, [1], 2)
    # q^n zeta^r -> q^{n + r lam} e(r mu)
    lam, mu = [Fraction(1, 3)], [Fraction(1, 2)]
    terms = specialize_torsion(th, lam, mu)
    for (expo, coeff, phase) in terms:
        matched = [i for i in th.terms
                   if i.n + Fraction(i.r[0], 3) == expo
                   and Fraction(i.r[0], 2) == phase]
        assert matched
    # lam = mu = 0 restricts to z = 0
    def fn(tau, z):
        return th.evaluate(tau, z, ctx)
    h = specialize_torsion(fn, [0], [0])
    with ctx.working():
        tau = mp.mpc("0.2", "1.2")
        assert abs(h(tau) - th.evaluate(tau, [mp.mpc(0)], ctx)) == 0
    # chain rule jet check
    res = specialization_chain_rule_residual(th, lam, mu, mp.mpc("0.2", "1.1"), ctx)
    with ctx.working():
        assert res < mp.mpf("1e-8")


def test_theta_exponent_denominators():
    # exponents produced by the theta routines have denominator dividing 4|L|
    for entries, mu in [([[2]], [1]), ([[3]], [2]), ([[2, 1], [1, 2]], [1, 0])]:
        L = GramLattice(entries)
        th = theta_lmu(L, mu, 3)
        for idx in th.terms:
            assert (4 * L.det) % idx.n.denominator == 0


def test_theta_lmu_satisfies_heat_equation(ctx):
    # every q^{L^{-1}[r]/4} zeta^r term has D = 0, so the theta series lies
    # in the heat operator's kernel
    for entries, mu in [([[2]], [1]), ([[2, 1], [1, 2]], [1, 0])]:
        L = GramLattice(entries)
        th = theta_lmu(L, mu, 2)
        pts = [(mp.mpc("0.2", "1.1"), [mp.mpc("0.1", "0.2")] * L.N),
               (mp.mpc("-0.3", "0.8"), [mp.mpc("-0.2", "0.1")] * L.N)]
        assert heat_residual(th, pts, ctx) < mp.mpf("1e-30")
