"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line.  Criteria that ``maassjacobi verify`` also
checks run its suite functions, where their tolerances are defined.
Everything runs on a desktop in minutes."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from maassjacobi.cli import SUITES
from maassjacobi.enveloping import (
    JacobiLieAlgebra,
    LocalizedPBW,
    PBWElement,
    build_casimir,
    build_classical_invariants,
    det_z,
    eta,
    nu,
    nu_casimir_identity,
    pbw_normal_order,
    symmetrize,
    tau_automorphism,
    tilde_basis,
)
from maassjacobi.fourier import (
    FourierExpansion,
    FourierIndex,
    casimir_residual,
    heat_residual,
    maass_fourier_term,
    mixed_mock_term,
    residue_reduce,
    skew_fourier_term,
    theta_decompose_semi,
    theta_lmu,
    theta_reassemble,
)
from maassjacobi.gaussian import GaussianRational, I
from maassjacobi.group import Point, jacobi_mul, slash
from maassjacobi.lattice import GramLattice, discriminant
from maassjacobi.opcalc import build_casimir_op, random_group_element, random_point
from maassjacobi.precision import PrecisionContext, to_fraction, to_mpf
from maassjacobi.specfun import (
    bessel_I_jet,
    bessel_J_jet,
    whittaker_W_renorm,
)

from conftest import whittaker_x_jet_by_shifts


CTX = PrecisionContext(bits=128)
LATTICES = {1: GramLattice([[1]]),
            2: GramLattice([[1, 0], [0, 1]]),
            3: GramLattice([[1, 0, 0], [0, 2, 0], [0, 0, 1]])}


def run_suites(names, lattices, samples=0, **kwargs):
    """Every check of the named ``maassjacobi verify`` suites over the
    lattices; each criterion and its tolerance is defined there."""
    return [check for L in lattices for name in names
            for check in SUITES[name][0](L, CTX, samples, **kwargs)]


def passed(checks):
    return all(c["status"] == "pass" for c in checks)


def worst(checks):
    """The largest residual the residual checks report, for the report
    line; an exact identity's detail is "exact"."""
    residuals = [mp.mpf(c["detail"]) for c in checks if c["detail"] != "exact"]
    return f"worst {float(max(residuals)):.2e}"


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {num:02d}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {num}: {name} {detail}"


def test_01_lie_algebra_soundness():
    # Test-only: a self-check of the bracket table, which depends on N alone;
    # the verify suites check what is computed from it for a given lattice.
    # antisymmetry and the Jacobi identity of all structure constants
    ok = True
    for N in (1, 2, 3):
        alg = JacobiLieAlgebra(N)

        def br(a, b):
            return {g: c for c, g in alg.bracket_gens(a, b)}

        for a in range(alg.ngen):
            for b in range(alg.ngen):
                ab, ba = br(a, b), br(b, a)
                if {g: -c for g, c in ab.items()} != ba:
                    ok = False
        for a in range(alg.ngen):
            for b in range(alg.ngen):
                for c in range(alg.ngen):
                    acc = {}
                    for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                        for cf, g in alg.bracket_gens(y, z):
                            for cf2, g2 in alg.bracket_gens(x, g):
                                acc[g2] = acc.get(g2, 0) + cf * cf2
                    if any(v for v in acc.values()):
                        ok = False
    report(1, "Lie-algebra antisymmetry + Jacobi identity, exact, N <= 3", ok)


def test_02_pbw_confluence():
    # Test-only: a self-check of PBW normal ordering on fixed random words,
    # which depends on N alone; verify centrality runs the same engine.
    alg = JacobiLieAlgebra(2)
    rng = random.Random(7)
    ok = True
    for _ in range(100):
        length = rng.randint(2, 6)
        word = [rng.randrange(alg.ngen) for _ in range(length)]
        cut = rng.randint(1, length - 1)
        a = pbw_normal_order(alg, word[:cut]) * pbw_normal_order(alg, word[cut:])
        if a != pbw_normal_order(alg, word):
            ok = False
    report(2, "PBW confluence: 100 random associativity instances, N = 2, exact", ok)


def test_03_casimir_centrality():
    checks = run_suites(["centrality"], [LATTICES[1], LATTICES[2]])
    report(3, "Casimir centrality [Omega_N, g] = 0, exact, N = 1 and 2",
           passed(checks))


def test_04_virtual_copy_identities():
    # Test-only: the virtual copies live in the localization at det(Z), which
    # no command uses, and the identities depend on N alone.
    ok = True
    for N in (1, 2):
        alg = JacobiLieAlgebra(N)
        eE, eF, eH = eta(alg, "E"), eta(alg, "F"), eta(alg, "H")
        ok &= eE.commutator(eF) == eH
        ok &= eH.commutator(eE) == eE * 2
        ok &= eH.commutator(eF) == eF * (-2)
        radical = [nm for nm in alg.names if nm not in ("E", "F", "H")]
        for gen in ("E", "F", "H"):
            nx = nu(alg, gen)
            for rname in radical:
                ok &= nx.commutator(
                    LocalizedPBW(PBWElement.gen(alg, rname), 0)).is_zero()
        ok &= nu_casimir_identity(N)[2]
    report(4, "virtual copy: eta homomorphism, [nu(x), r] = 0, "
              "nu(Omega_sl2) identity, exact, N = 1, 2", ok)


def test_05_symmetrizer_identity():
    # Test-only: the symmetrizer and the classical invariants feed no
    # command, and the identity depends on N alone.
    ok = True
    for N in (1, 2):
        alg = JacobiLieAlgebra(N)
        got = symmetrize(build_classical_invariants(N)["PN"], alg)
        ok &= got == build_casimir(N) + det_z(alg).scale(Fraction(N * (N + 3), 4))
    report(5, "Sym(P_N) = Omega_N + N(N+3)/4 det(Z), exact, N = 1 and 2", ok)


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


def test_06_classical_invariant_relations():
    # Test-only: identities of the symmetric algebra in N alone, among
    # classical invariants that no command uses.
    ok = all(r1.is_zero() and r2.is_zero()
             for N in (2, 3) for _, r1, r2 in classical_relations_residuals(N))
    report(6, "classical-invariant quadratic relations vanish, exact, N <= 3", ok)


def test_07_tau_automorphism():
    # Test-only: tau is used by no command, and its identities depend on N
    # alone.
    ok = True
    for N in (1, 2):
        alg = JacobiLieAlgebra(N)
        images = tilde_basis(N)
        for a in range(alg.ngen):
            for b in range(alg.ngen):
                lhs = images[alg.names[a]].commutator(images[alg.names[b]])
                rhs = PBWElement.zero(alg)
                for c, g in alg.bracket_gens(a, b):
                    rhs = rhs + images[alg.names[g]].scale(c)
                ok &= lhs == rhs
        om = build_casimir(N)
        ok &= tau_automorphism(om) == om.scale(
            (I * GaussianRational(Fraction(1, 2))) ** N)
    report(7, "tau preserves brackets and tau(Omega_N) = (i/2)^N Omega_N, "
              "exact, N = 1, 2", ok)


def test_08_operator_identities():
    checks = run_suites(["commutators", "casimir-equality"], LATTICES.values())
    report(8, "operator identities (commutator table, Casimir equality, "
              "semi-holomorphic form, D- decomposition), symbolic in k, N <= 3",
           passed(checks))


def test_09_bridge_identity():
    checks = run_suites(["bridge"], [GramLattice([[1]]), GramLattice([[2]]),
                                     LATTICES[2]])
    report(9, "bridge: uea image of Omega_N = det(calL)(k(k-N-2) - 2C), "
              "exact symbolic in k, N = 1 and N = 2 (identity Gram)", passed(checks))


@pytest.mark.parametrize("N", [1, 2])
def test_10_numeric_covariance(N):
    checks = run_suites(["covariance"], [LATTICES[N]], samples=100)
    report(10, f"numeric covariance of the operator zoo, N = {N}, "
               "100 samples at 128 bits", passed(checks), detail=worst(checks))


def test_11_eigenfunction_check():
    checks = run_suites(["eigen"], [GramLattice([[1]])])
    report(11, f"Casimir eigenvalue of the seed, as an exact identity, on a (k,s,n,r) "
               f"grid of {len(checks)} cases incl. both annihilation roots", passed(checks),
           detail=" ".join(sorted({str(c["detail"]) for c in checks})))


def test_12_cocycle_and_slash():
    # The slash half stays test-only: it slashes the seed function defined
    # here, and the CLI takes no function; the cocycle half is verify cocycle.
    checks = run_suites(["cocycle"], [GramLattice([[1]])], samples=100)
    rng = random.Random(1234)
    L = ((Fraction(1),),)

    def seed(p):
        return mp.exp(1j * p.tau + mp.mpc("0.2", "0.1") * p.z[0]
                      - mp.mpf("0.1") * p.z[0] ** 2)

    with CTX.working():
        worst_s = mp.mpf(0)
        for _ in range(50):
            g, h = random_group_element(1, rng), random_group_element(1, rng)
            p = Point(*random_point(1, rng))
            f1 = slash(slash(seed, 3, 0, L, g, CTX), 3, 0, L, h, CTX)
            f2 = slash(seed, 3, 0, L, jacobi_mul(g, h), CTX)
            worst_s = max(worst_s, abs(f1(p) - f2(p)) / max(mp.mpf(1), abs(f2(p))))
        ok = passed(checks) and worst_s < mp.mpf("1e-25")
    report(12, "cocycle additivity (100 samples), exp vs matrix exponential, "
               "slash right action (50 pairs, < 1e-25)",
           ok, detail=f"{worst(checks)}, slash {float(worst_s):.2e}")


def test_13_kloosterman_symmetry():
    checks = run_suites(["kloosterman-symmetry"],
                        [GramLattice([[1]]), GramLattice([[2, 1], [1, 2]])], samples=25)
    report(13, "Kloosterman symmetry, 50 tuples, c <= 24, N <= 2", passed(checks),
           detail=worst(checks))


def test_14_zagier_duality():
    checks = run_suites(["duality"], [GramLattice([[1]])], c_max=50)
    details = []
    for c in checks:
        d = c["detail"]
        ratio = mp.mpc(*d["b_mean_ratio"].strip("()j").split())
        details.append(f"{c['name']}: ratio {mp.nstr(ratio, 10)} spread "
                       f"{float(mp.mpf(d['b_relative_spread'])):.2e}; symmetrized-c "
                       f"table {d['c_mean_ratio'] or 'degenerate'}")
    report(14, "Zagier-type duality: ratio constant over 5 pairs per regime "
               "at matched c_max = 50, s = 5/2, N = 1 (ratio recorded, not "
               "asserted)", passed(checks), detail=" | ".join(details))


def whittaker_ode_residual(kind: str, s, kappa, t, ctx: PrecisionContext):
    """Residual of w'' + (-1/4 + kap/x + (1/4 - mu^2)/x^2) w for the
    unrenormalized Whittaker function at x = |t|, all three orders from
    independent parameter-shift evaluations.  ``specfun`` takes its jets
    from this equation, so the residual is checked on the oracle's."""
    with ctx.working():
        sgn, xjet, w = whittaker_x_jet_by_shifts(kind, s, kappa, t, 2)
        kap_eff = sgn * to_fraction(kappa) / 2
        mu = to_fraction(s) - Fraction(1, 2)
        x = xjet.value.real
        w0 = w.derivative_at_base((0,))
        w2 = w.derivative_at_base((2,))
        q = mp.mpf("-0.25") + to_mpf(kap_eff) / x + (mp.mpf("0.25") - to_mpf(mu) ** 2) / x ** 2
        return abs(w2 + q * w0) / max(mp.mpf(1), abs(w0))


def test_15_special_function_certification():
    # Test-only: certifies the special-function kernels at fixed arguments;
    # the eigen and duality suites check what is built from their values.
    with CTX.working():
        worst_ode = mp.mpf(0)
        for kind in ("M", "W"):
            for s in (Fraction(5, 2), Fraction(3, 2), Fraction(7, 4), Fraction(3)):
                for kap in (Fraction(1, 2), Fraction(-3, 2), Fraction(2), Fraction(0)):
                    for t in (mp.mpf("0.8"), mp.mpf("-2.1"), mp.mpf("3.3")):
                        worst_ode = max(worst_ode,
                                        whittaker_ode_residual(kind, s, kap, t, CTX))
        for nu in (Fraction(7, 3), Fraction(-1, 2), Fraction(5, 2)):
            nuv = mp.mpf(nu.numerator) / nu.denominator
            for x in (mp.mpf("0.9"), mp.mpf("2.7")):
                dj = bessel_J_jet(nu, x, 4, CTX)
                worst_ode = max(worst_ode, abs(
                    x ** 2 * dj[2] + x * dj[1] + (x ** 2 - nuv ** 2) * dj[0]))
                di = bessel_I_jet(nu, x, 4, CTX)
                worst_ode = max(worst_ode, abs(
                    x ** 2 * di[2] + x * di[1] - (x ** 2 + nuv ** 2) * di[0]))
        worst_cf = mp.mpf(0)
        for (N, k) in ((1, 3), (1, -2), (2, 4), (2, 0)):
            sdual = Fraction(1) + Fraction(N, 4) - Fraction(k, 2)
            kap = Fraction(k) - Fraction(N, 2)
            y = mp.mpf("1.7")
            worst_cf = max(worst_cf, abs(
                whittaker_W_renorm(sdual, kap, y, CTX) - mp.exp(-y / 2)))
            y = mp.mpf("-1.3")
            expect = mp.exp(-y / 2) * mp.gammainc(
                mp.mpf(N + 2) / 2 - k, -y)
            worst_cf = max(worst_cf, abs(
                whittaker_W_renorm(sdual, kap, y, CTX) - expect))
        ok = worst_ode < mp.mpf("1e-20") and worst_cf < mp.mpf("1e-25")
    report(15, "Whittaker/Bessel ODE jet residuals < 1e-20; W closed forms "
               "(e^{-y/2} and incomplete gamma) < 1e-25",
           ok, detail=f"ode {float(worst_ode):.2e}, closed {float(worst_cf):.2e}")


def test_16_fourier_term_templates():
    # Test-only: its mixed-mock half must fail at k = 2, which a verify
    # check, passing on correct code, does not express.
    with CTX.working():
        pts = [(mp.mpc("0.13", "0.9"), [mp.mpc("0.21", "0.17")]),
               (mp.mpc("-0.4", "0.8"), [mp.mpc("-0.3", "0.4")]),
               (mp.mpc("0.05", "0.6"), [mp.mpc("0.4", "-0.2")])]
    L1 = GramLattice([[1]])
    L2 = GramLattice([[2]])
    C1, C2 = build_casimir_op(L1), build_casimir_op(L2)
    r_cm = casimir_residual(maass_fourier_term("c-", 2, L1, -1, [1]), C1, 2, pts, CTX)
    r_sk = heat_residual(skew_fourier_term(L1, 1, [1]), pts, CTX)
    r_sk2 = heat_residual(skew_fourier_term(L2, 1, [2]), pts, CTX)
    # matched mixed-mock parameters: D = -2|L| nu^2, h = 0
    mm1 = casimir_residual(mixed_mock_term(1, L2, 0, [2], 1, [0]), C2, 1, pts, CTX)
    mm2 = casimir_residual(mixed_mock_term(2, L2, 0, [2], 1, [0]), C2, 2, pts, CTX)
    ok = (r_cm < mp.mpf("1e-8") and r_sk < mp.mpf("1e-8")
          and r_sk2 < mp.mpf("1e-8") and mm1 < mp.mpf("1e-8")
          and mm2 > mp.mpf("1e-3"))
    report(16, "c- and skew terms annihilated (< 1e-8); mixed-mock E-terms "
               "pass at k = 1 and demonstrably fail at k = 2",
           ok, detail=f"c- {float(r_cm):.2e}, skew {float(r_sk):.2e}, "
                      f"mm(k=1) {float(mm1):.2e}, mm(k=2) {float(mm2):.2e}")


def test_17_theta_decomposition():
    # Test-only: a round trip over randomly drawn expansions; maassjacobi
    # decompose already applies the decomposition to a user's file.
    LL = GramLattice([[2, 1], [1, 2]])
    rng = random.Random(5)
    ok = True
    for _ in range(5):
        f = FourierExpansion(LL)
        coefmap = {}
        for _ in range(20):
            n = Fraction(rng.randint(0, 6))
            r = (rng.randint(-3, 3), rng.randint(-3, 3))
            key = (residue_reduce(LL, r), discriminant(LL, n, r))
            if key not in coefmap:
                coefmap[key] = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
            if coefmap[key]:
                f.terms[FourierIndex.of(n, r)] = ("constant", {}, coefmap[key])
        comp = theta_decompose_semi(f)
        ok &= theta_reassemble(comp, f) == f
    th = theta_lmu(LL, [1, 0], 3)
    comp = theta_decompose_semi(th)
    mu0 = residue_reduce(LL, (1, 0))
    ok &= set(comp.keys()) == {mu0}
    ok &= set(comp[mu0].keys()) == {Fraction(0)}
    ok &= comp[mu0][Fraction(0)][0] == GaussianRational(1)
    report(17, "theta decomposition: exact round trip on truncations; "
               "delta behavior on theta_{L,mu0}", ok)
