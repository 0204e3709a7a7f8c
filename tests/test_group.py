import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from maassjacobi import fixedpoint, linalg
from maassjacobi.errors import DomainError, MalformedElementError, PrecisionError
from maassjacobi.gaussian import GaussianRational
from maassjacobi.group import (
    J2,
    AlgebraElement,
    GroupElement,
    Point,
    act,
    cocycle_a,
    cocycle_beta,
    embed_algebra,
    embed_group,
    expm,
    jacobi_exp,
    jacobi_identity_element,
    jacobi_inv,
    jacobi_mul,
    mobius,
    slash,
    weight_gap,
)
from maassjacobi.jets import JetSpace, coordinate_jets
from maassjacobi.opcalc import random_algebra_element, random_group_element, random_point
from maassjacobi.precision import MAX_TERMS, PrecisionContext, to_mpc

GR = GaussianRational


def test_identity_and_central_products():
    e = jacobi_identity_element(2)
    g = random_group_element(2, random.Random(0))
    assert jacobi_mul(e, g) == g
    assert jacobi_mul(g, e) == g
    # central elements add
    kap1 = [[GR(1), GR(2)], [GR(2), GR(0)]]
    kap2 = [[GR(-3), GR(1)], [GR(1), GR(5)]]
    z1 = GroupElement(linalg.identity(2, GR(1), GR(0)), linalg.zeros(2, 2, GR(0)), kap1)
    z2 = GroupElement(linalg.identity(2, GR(1), GR(0)), linalg.zeros(2, 2, GR(0)), kap2)
    z12 = jacobi_mul(z1, z2)
    assert z12.kappa == linalg.add(linalg.mat(kap1), linalg.mat(kap2))
    assert jacobi_inv(z1).kappa == linalg.neg(linalg.mat(kap1))


def test_malformed_elements_rejected():
    with pytest.raises(MalformedElementError):
        GroupElement(((GR(2), GR(0)), (GR(0), GR(1))), [[GR(0), GR(0)]], [[GR(0)]])
    with pytest.raises(MalformedElementError):
        # kappa + X J2 X^T / 2 not symmetric
        GroupElement(linalg.identity(2, GR(1), GR(0)),
                     [[GR(1), GR(0)], [GR(0), GR(1)]],
                     [[GR(0), GR(0)], [GR(0), GR(0)]])
    with pytest.raises(MalformedElementError):
        AlgebraElement(((GR(1), GR(0)), (GR(0), GR(1))), [[GR(0), GR(0)]], [[GR(0)]])


def test_malformed_numeric_elements_rejected():
    # numeric entries are checked to a tolerance instead of with ==
    one, zero, half = mp.mpf(1), mp.mpf(0), mp.mpf("0.5")
    with pytest.raises(MalformedElementError, match="det"):
        GroupElement([[one, half], [zero, one + half]], [[zero, zero]], [[zero]])
    with pytest.raises(MalformedElementError, match="symmetric"):
        GroupElement([[one, zero], [zero, one]], [[one, zero], [zero, one]],
                     [[zero, zero], [zero, zero]])
    with pytest.raises(MalformedElementError, match="invariants"):
        AlgebraElement([[one, zero], [zero, half]], [[zero, zero]], [[zero]])
    # within the tolerance of 1e-9, the same elements are well formed
    GroupElement([[one, half], [zero, one + mp.mpf("1e-12")]], [[zero, zero]], [[zero]])
    AlgebraElement([[one, zero], [zero, -one]], [[half, zero]], [[one]])


def test_embedding_homomorphism_and_inverse():
    for N in (1, 2):
        rng = random.Random(10 + N)
        for _ in range(20):
            g, h = random_group_element(N, rng), random_group_element(N, rng)
            assert embed_group(jacobi_mul(g, h)) == linalg.mul(embed_group(g),
                                                               embed_group(h))
            assert jacobi_mul(g, jacobi_inv(g)) == jacobi_identity_element(N)
            a, b = random_algebra_element(N, rng), random_algebra_element(N, rng)
            lhs = embed_algebra(a.bracket(b))
            rhs = linalg.sub(linalg.mul(embed_algebra(a), embed_algebra(b)),
                             linalg.mul(embed_algebra(b), embed_algebra(a)))
            assert lhs == rhs


@settings(settings.get_profile("exact"))
@given(N=st.sampled_from([1, 2]), rng=st.randoms(use_true_random=False))
def test_associativity_exact(N, rng):
    g, h, f = (random_group_element(N, rng) for _ in range(3))
    assert jacobi_mul(jacobi_mul(g, h), f) == jacobi_mul(g, jacobi_mul(h, f))


@settings(settings.get_profile("exact"))
@given(N=st.sampled_from([1, 2]), rng=st.randoms(use_true_random=False))
def test_inverse_is_two_sided_exact(N, rng):
    g = random_group_element(N, rng)
    e = jacobi_identity_element(N)
    assert jacobi_mul(g, jacobi_inv(g)) == e == jacobi_mul(jacobi_inv(g), g)


@settings(settings.get_profile("exact"))
@given(k=st.fractions(min_value=-8, max_value=8, max_denominator=12),
       gap=st.fractions(min_value=-8, max_value=8, max_denominator=12))
def test_weight_gap_rejects_fractional_gaps(k, gap):
    if gap.denominator == 1:
        assert weight_gap(k + gap, k) == gap
    else:
        with pytest.raises(DomainError):
            weight_gap(k + gap, k)


def _perm_matrix(size, perm):
    rows = [[GR(0)] * size for _ in range(size)]
    for old, new in perm.items():
        rows[new][old] = GR(1)
    return linalg.mat(rows)


def _symplectic_form(half):
    z, o = GR(0), GR(1)
    rows = [[z] * (2 * half) for _ in range(2 * half)]
    for i in range(half):
        rows[i][half + i] = -o
        rows[half + i][i] = o
    return linalg.mat(rows)


def test_cyclic_conjugation_lands_in_symplectic_group():
    for N in (1, 2):
        size = 2 * N + 2
        perm = {i: (i + 1) % (N + 1) for i in range(N + 1)}
        for i in range(N + 1, size):
            perm[i] = i
        P = _perm_matrix(size, perm)
        Pinv = linalg.transpose(P)
        J = _symplectic_form(N + 1)
        rng = random.Random(20 + N)
        for _ in range(10):
            g = random_group_element(N, rng)
            m = linalg.mul(linalg.mul(P, embed_group(g)), Pinv)
            assert linalg.mul(linalg.mul(linalg.transpose(m), J), m) == J


def test_exp_matches_matrix_exponential(ctx):
    rng = random.Random(31)
    with ctx.working():
        worst = mp.mpf(0)
        for N in (1, 2):
            for _ in range(10):
                Y = random_algebra_element(N, rng)
                lhs = embed_group(jacobi_exp(Y, ctx))
                rhs = expm(embed_algebra(Y), ctx)
                worst = max(worst, max(abs(a - b) for ra, rb in zip(lhs, rhs)
                                       for a, b in zip(ra, rb)))
        assert worst < mp.mpf("1e-25")


def test_exp_halves_large_elements(ctx):
    # ||M|| = 9 exceeds the series bound, so jacobi_exp halves before summing
    M = ((GR(5), GR(4)), (GR(-3), GR(-5)))
    for N in (1, 2):
        rng = random.Random(N)
        X = [[GR(rng.randint(-2, 2)) for _ in range(2)] for _ in range(N)]
        kap = [[GR(1 + i + j) for j in range(N)] for i in range(N)]
        Y = AlgebraElement(M, X, kap)
        with ctx.working():
            lhs = embed_group(jacobi_exp(Y, ctx))
            rhs = expm(embed_algebra(Y), ctx)
            scale = max(abs(b) for rb in rhs for b in rb)
            worst = max(abs(a - b) for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))
            assert worst < mp.mpf("1e-25") * scale


# -- the mpc exponentials, the oracles of the fixed-point ones ----------------

_EXP_NORM_BOUND = 8


def _mat_norm(M):
    return max(sum(abs(complex(x)) for x in row) for row in M)


def _mpc_exp_series_2x2(M, ctx: PrecisionContext):
    """exp, g, h power series on a 2x2 matrix with rigorous tail control.

    g(z) = (e^z - 1)/z and h(z) = (e^z - z - 1)/z^2, summed jointly as
    sum M^n/n!, sum M^n/(n+1)!, sum M^n/(n+2)!.
    """
    one = linalg.identity(2, mp.mpf(1), mp.mpf(0))
    term = one
    exp_acc = one
    g_acc = linalg.scale(mp.mpf(1), one)
    h_acc = linalg.scale(mp.mpf("0.5"), one)
    norm = _mat_norm(M)
    bound = mp.mpf(norm)
    fact = mp.mpf(1)
    tol = mp.mpf(2) ** (-(ctx.bits + 16))
    n = 0
    while True:
        n += 1
        if n > MAX_TERMS:
            ctx.exhausted("matrix exponential series")
        term = linalg.mul(term, M)
        fact *= n
        exp_acc = linalg.add(exp_acc, linalg.scale(1 / fact, term))
        g_acc = linalg.add(g_acc, linalg.scale(1 / (fact * (n + 1)), term))
        h_acc = linalg.add(h_acc, linalg.scale(1 / (fact * (n + 1) * (n + 2)), term))
        # once the ratio bound norm/(n+1) < 1/2, the remaining tail is below
        # twice the next term bound
        tail = bound ** (n + 1) / (fact * (n + 1))
        if norm < (n + 1) / 2 and tail < tol:
            break
    return exp_acc, g_acc, h_acc


def _mpc_jacobi_exp(Y: AlgebraElement, ctx: PrecisionContext) -> GroupElement:
    """exp(M, X, kappa) = (e^M, X g(M), kappa - X h(M) J2 X^T).

    Inputs with ||M|| beyond the series bound are halved recursively and
    recombined with the group law (exact squaring in the group).
    """
    with ctx.working():
        M = tuple(tuple(to_mpc(x) for x in r) for r in Y.M)
        X = tuple(tuple(to_mpc(x) for x in r) for r in Y.X)
        kappa = tuple(tuple(to_mpc(x) for x in r) for r in Y.kappa)
        if _mat_norm(M) > _EXP_NORM_BOUND:
            half = AlgebraElement(
                linalg.scale(mp.mpf("0.5"), M),
                linalg.scale(mp.mpf("0.5"), X),
                linalg.scale(mp.mpf("0.5"), kappa),
                check=False,
            )
            ghalf = _mpc_jacobi_exp(half, ctx)
            return jacobi_mul(ghalf, ghalf)
        eM, gM, hM = _mpc_exp_series_2x2(M, ctx)
        Xg = linalg.mul(X, gM)
        corr = linalg.mul(linalg.mul(linalg.mul(X, hM), J2), linalg.transpose(X))
        return GroupElement(eM, Xg, linalg.sub(kappa, corr), check=False)


def _mpc_expm(A, ctx: PrecisionContext):
    """Scaling-and-squaring exponential of a general square matrix.

    Kept independent of jacobi_exp on purpose: it is the oracle the
    exponential map is tested against.
    """
    with ctx.working():
        n = len(A)
        A = tuple(tuple(to_mpc(x) for x in r) for r in A)
        s = 0
        while _mat_norm(A) > mp.mpf("0.5"):
            A = linalg.scale(mp.mpf("0.5"), A)
            s += 1
        one = linalg.identity(n, mp.mpf(1), mp.mpf(0))
        acc = one
        term = one
        tol = mp.mpf(2) ** (-(ctx.bits + 16))
        k = 0
        while True:
            k += 1
            if k > MAX_TERMS:
                ctx.exhausted("expm series")
            term = linalg.scale(1 / mp.mpf(k), linalg.mul(term, A))
            acc = linalg.add(acc, term)
            if _mat_norm(term) < tol and k > 4:
                break
        for _ in range(s):
            acc = linalg.mul(acc, acc)
        return acc


def _assert_close(new, old, ctx):
    """Entrywise within 2^-(bits-8) of the largest entry of the oracle."""
    with ctx.working():
        scale = max(abs(b) for rb in old for b in rb)
        worst = max(abs(a - b) for ra, rb in zip(new, old) for a, b in zip(ra, rb))
        assert worst <= mp.mpf(2) ** (8 - ctx.bits) * scale


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def _mpc_matrices(draw, m, n, real):
    """m x n matrices of mpc entries that span about 2^-60 to 2^60, with
    exact zeros."""
    def part():
        if real is None and draw(st.booleans()):
            return mp.mpf(0)
        return mp.ldexp(draw(st.integers(-2 ** 60, 2 ** 60)), draw(st.integers(-120, 0)))
    return tuple(tuple(mp.mpc(part(), mp.mpf(0) if real else part()) for _ in range(n))
                 for _ in range(m))


@settings(settings.get_profile("numeric"))
@given(dims=st.tuples(*[st.integers(1, 6)] * 3), real=st.sampled_from([True, False, None]),
       data=st.data())
def test_kernel_product_matches_linalg_mul(ctx, dims, real, data):
    m, k, n = dims
    with ctx.working():
        a = data.draw(_mpc_matrices(m, k, real))
        b = data.draw(_mpc_matrices(k, n, real))
        new = fixedpoint.to_mpc(fixedpoint.matmul(fixedpoint.matrix(a), fixedpoint.matrix(b)))
        old = linalg.mul(a, b)
        tol = mp.mpf(2) ** (8 - ctx.bits)
        for i in range(m):
            for j in range(n):
                size = sum(abs(a[i][q] * b[q][j]) for q in range(k))
                assert abs(new[i][j] - old[i][j]) <= tol * size
        # and each entry is the exact sum, rounded once
        with mp.workprec(4000):
            exact = linalg.mul(a, b)
        assert new == tuple(tuple(+x for x in r) for r in exact)


@settings(settings.get_profile("numeric"))
@given(N=st.sampled_from([1, 2]), rng=st.randoms(use_true_random=False), data=st.data())
def test_expm_matches_the_mpc_oracle(ctx, N, rng, data):
    # the embedding of an algebra element at N = 1, 2, and a complex matrix
    A = embed_algebra(random_algebra_element(N, rng))
    _assert_close(expm(A, ctx), _mpc_expm(A, ctx), ctx)
    n = data.draw(st.integers(1, 4))
    A = [[GR(data.draw(_SMALL), data.draw(_SMALL)) for _ in range(n)] for _ in range(n)]
    _assert_close(expm(A, ctx), _mpc_expm(A, ctx), ctx)


@settings(settings.get_profile("numeric"))
@given(N=st.sampled_from([1, 2]), data=st.data())
def test_exp_halving_matches_the_mpc_oracle(ctx, N, data):
    # ||M|| = 9 exceeds the series bound, so both halve once before summing
    M = ((GR(5), GR(4)), (GR(-3), GR(-5)))
    X = [[GR(data.draw(_SMALL)) for _ in range(2)] for _ in range(N)]
    kap = [[GR(0)] * N for _ in range(N)]
    for i in range(N):
        for j in range(i, N):
            kap[i][j] = kap[j][i] = GR(data.draw(_SMALL))
    Y = AlgebraElement(M, X, kap)
    _assert_close(embed_group(jacobi_exp(Y, ctx)), embed_group(_mpc_jacobi_exp(Y, ctx)), ctx)


@pytest.mark.parametrize("bad", [mp.inf, mp.nan], ids=["inf", "nan"])
def test_expm_rejects_non_finite_entries(ctx, bad):
    with pytest.raises(DomainError):
        expm(((mp.mpf(1), bad), (mp.mpf(0), mp.mpf(1))), ctx)


@pytest.mark.parametrize("bad", [mp.inf, mp.nan], ids=["inf", "nan"])
def test_jacobi_exp_rejects_non_finite_entries(ctx, bad):
    with ctx.working():
        Y = AlgebraElement(((mp.mpf(0), bad), (mp.mpf(0), mp.mpf(0))),
                           ((mp.mpf(1), mp.mpf(0)),), ((mp.mpf(0),),))
    with pytest.raises(DomainError):
        jacobi_exp(Y, ctx)


def test_expm_refuses_norms_beyond_its_fixed_point_range(ctx):
    # the guard bits keep a tiny entry to full relative precision
    tiny = expm(((GR(2047), GR(0)), (GR(0), GR(-2047))), ctx)[1][1]
    with ctx.working():
        assert abs(tiny / mp.exp(-2047) - 1) < mp.mpf(2) ** (8 - ctx.bits)
    with pytest.raises(PrecisionError):
        expm(((GR(4096), GR(0)), (GR(0), GR(0))), ctx)


def test_exp_special_cases(ctx):
    # exp(0, X, kappa) = (I, X, kappa - X J2 X^T / 2)
    X = [[GR(2), GR(-1)], [GR(1), GR(3)]]
    kap = [[GR(1), GR(0)], [GR(0), GR(2)]]
    Y = AlgebraElement(linalg.zeros(2, 2, GR(0)), X, kap)
    g = jacobi_exp(Y, ctx)
    with ctx.working():
        j2 = ((mp.mpf(0), mp.mpf(-1)), (mp.mpf(1), mp.mpf(0)))
        Xm = tuple(tuple(to_mpc(x) for x in r) for r in linalg.mat(X))
        corr = linalg.scale(mp.mpf("0.5"),
                            linalg.mul(linalg.mul(Xm, j2), linalg.transpose(Xm)))
        kapm = tuple(tuple(to_mpc(x) for x in r) for r in linalg.mat(kap))
        expect = linalg.sub(kapm, corr)
        assert max(abs(a - b) for ra, rb in zip(g.kappa, expect)
                   for a, b in zip(ra, rb)) < mp.mpf("1e-30")
        assert max(abs(a - b) for ra, rb in zip(g.X, Xm)
                   for a, b in zip(ra, rb)) < mp.mpf("1e-30")
    # exp(M, 0, 0) = (e^M, 0, 0)
    Y = AlgebraElement(((GR(1), GR(2)), (GR(0), GR(-1))),
                       [[GR(0), GR(0)]], [[GR(0)]])
    g = jacobi_exp(Y, ctx)
    with ctx.working():
        assert all(abs(x) < mp.mpf("1e-40") for r in g.X for x in r)
        rhs = expm(Y.M, ctx)
        assert max(abs(a - b) for ra, rb in zip(g.M, rhs)
                   for a, b in zip(ra, rb)) < mp.mpf("1e-30")


def test_action_properties(ctx):
    rng = random.Random(40)
    with ctx.working():
        # identity fixes every point; rotation fixes (i, 0); translations act on z
        p = Point(mp.mpc(0.3, 1.1), (mp.mpc(0.2, 0.4),))
        e = jacobi_identity_element(1).to_numeric()
        q = act(e, p)
        assert abs(q.tau - p.tau) == 0 and abs(q.z[0] - p.z[0]) == 0
        rot = GroupElement(((GR(0), GR(-1)), (GR(1), GR(0))),
                           [[GR(0), GR(0)]], [[GR(0)]]).to_numeric()
        pi0 = Point(mp.mpc(0, 1), (mp.mpc(0),))
        q = act(rot, pi0)
        assert abs(q.tau - pi0.tau) < mp.mpf("1e-30") and abs(q.z[0]) < mp.mpf("1e-30")
        lam, mu_ = GR(2), GR(-1)
        tr = GroupElement(linalg.identity(2, GR(1), GR(0)), [[lam, mu_]],
                          [[GR(0)]]).to_numeric()
        q = act(tr, p)
        assert abs(q.tau - p.tau) == 0
        assert abs(q.z[0] - (p.z[0] + 2 * p.tau - 1)) < mp.mpf("1e-30")
        # left action property
        for N in (1, 2):
            for _ in range(10):
                g, h = random_group_element(N, rng), random_group_element(N, rng)
                tau, z = random_point(N, rng)
                p = Point(tau, z)
                q1 = act(jacobi_mul(g, h).to_numeric(), p)
                q2 = act(g.to_numeric(), act(h.to_numeric(), p))
                assert abs(q1.tau - q2.tau) < mp.mpf("1e-38")
                assert all(abs(a - b) < mp.mpf("1e-38") for a, b in zip(q1.z, q2.z))


def test_cocycle_identities(ctx):
    # the numeric additivity of a is `verify cocycle`'s check, asserted at
    # N = 1 by acceptance 12 and at N = 2 by test_cocycle_alpha_multiplicative
    rng = random.Random(50)
    with ctx.working():
        worst_beta = mp.mpf(0)
        for N in (1, 2):
            for _ in range(50):
                g, h = random_group_element(N, rng), random_group_element(N, rng)
                tau, _ = random_point(N, rng)
                gm, hm = g.to_numeric(), h.to_numeric()
                b1 = cocycle_beta(linalg.mul(gm.M, hm.M), tau)
                beta = cocycle_beta(hm.M, tau)
                b2 = cocycle_beta(gm.M, mobius(hm.M, tau, beta)) * beta
                worst_beta = max(worst_beta, abs(b1 - b2))
        assert worst_beta < mp.mpf("1e-30")


_FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def exact_points(draw, N):
    """A Gaussian-rational point of H x C^N."""
    tau = GR(draw(_FRACTIONS),
             draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=6)))
    return Point(tau, [GR(draw(_FRACTIONS), draw(_FRACTIONS)) for _ in range(N)])


@settings(settings.get_profile("exact"))
@given(N=st.sampled_from([1, 2]), rng=st.randoms(use_true_random=False), data=st.data())
def test_cocycle_identities_exact(N, rng, data):
    g, h = random_group_element(N, rng), random_group_element(N, rng)
    p = data.draw(exact_points(N))
    beta = cocycle_beta(h.M, p.tau)
    assert cocycle_beta(linalg.mul(g.M, h.M), p.tau) == (
        cocycle_beta(g.M, mobius(h.M, p.tau, beta)) * beta)
    assert cocycle_a(jacobi_mul(g, h), p) == linalg.add(cocycle_a(g, act(h, p)),
                                                         cocycle_a(h, p))


def test_cocycle_a_special_values(ctx):
    with ctx.working():
        p = Point(mp.mpc(0.1, 0.9), (mp.mpc(0.2, -0.1), mp.mpc(0.3, 0.5)))
        e = jacobi_identity_element(2).to_numeric()
        assert max(abs(x) for r in cocycle_a(e, p) for x in r) == 0
        kap = [[GR(1), GR(2)], [GR(2), GR(-1)]]
        gz = GroupElement(linalg.identity(2, GR(1), GR(0)),
                          linalg.zeros(2, 2, GR(0)), kap).to_numeric()
        a = cocycle_a(gz, p)
        assert max(abs(a[i][j] - to_mpc(kap[i][j])) for i in range(2)
                   for j in range(2)) == 0


def test_slash_right_action_and_central_triviality(ctx):
    rng = random.Random(60)
    L = ((Fraction(2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))

    def seed(p):
        quad = p.tau * mp.mpc("0.1", "0.2") + sum(
            w * c for w, c in zip(p.z, [mp.mpc("0.3", "-0.1"), mp.mpc("0.05", "0.02")])
        )
        return mp.exp(quad + 1j * p.tau - sum(w ** 2 for w in p.z) * mp.mpf("0.1"))

    with ctx.working():
        worst = mp.mpf(0)
        N = 2
        for _ in range(50):
            g, h = random_group_element(N, rng), random_group_element(N, rng)
            tau, z = random_point(N, rng)
            p = Point(tau, z)
            k, kp = Fraction(7, 2), Fraction(3, 2)
            f1 = slash(slash(seed, k, kp, L, g, ctx), k, kp, L, h, ctx)
            f2 = slash(seed, k, kp, L, jacobi_mul(g, h), ctx)
            v1, v2 = f1(p), f2(p)
            worst = max(worst, abs(v1 - v2) / max(mp.mpf(1), abs(v2)))
        assert worst < mp.mpf("1e-25")

        # slash by a central (I, 0, kappa) with integral symmetric kappa is trivial
        kap = [[GR(3), GR(-2)], [GR(-2), GR(1)]]
        gz = GroupElement(linalg.identity(2, GR(1), GR(0)),
                          linalg.zeros(2, 2, GR(0)), kap)
        tau, z = random_point(N, rng)
        p = Point(tau, z)
        fz = slash(seed, 2, 0, L, gz, ctx)
        assert abs(fz(p) - seed(p)) / abs(seed(p)) < mp.mpf("1e-30")

    with pytest.raises(DomainError):
        slash(seed, Fraction(1, 2), 0, L, jacobi_identity_element(2), ctx)


def test_point_requires_upper_half_plane():
    with pytest.raises(DomainError):
        Point(mp.mpc(0.5, -1.0), ())
    coords = coordinate_jets(JetSpace.for_rank(1, 2), mp.mpc(0.5, -1.0), [mp.mpc(0)])
    with pytest.raises(DomainError):
        Point(coords.tau, coords.z)


def test_cocycle_alpha_multiplicative(ctx):
    # the checks are `verify cocycle`'s, here at N = 2 on a Gram matrix with
    # a half-integral off-diagonal entry and 20 samples
    from maassjacobi.cli import SUITES
    from maassjacobi.lattice import GramLattice

    L = GramLattice([[2, Fraction(1, 2)], [Fraction(1, 2), 1]])
    checks = {c["name"]: c for c in SUITES["cocycle"][0](L, ctx, 20)}
    assert checks["multiplicativity of alpha_L"]["status"] == "pass"
    assert checks["cocycle additivity of a"]["status"] == "pass"
