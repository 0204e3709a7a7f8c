import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maassjacobi import cache
from maassjacobi.cli import main

from maassjacobi.enveloping import (
    JacobiLieAlgebra,
    LocalizedPBW,
    PBWElement,
    bilinear_adj,
    build_casimir,
    build_classical_invariants,
    check_centrality,
    det_z,
    divide_by_det,
    eta,
    nu,
    nu_casimir_identity,
    pbw_from_json,
    pbw_normal_order,
    pbw_to_json,
    symmetrize,
    tau_automorphism,
    tilde_basis,
)
from maassjacobi.errors import DivisibilityError, DomainError
from maassjacobi.gaussian import ZERO, GaussianRational, I
from maassjacobi.group import AlgebraElement
from maassjacobi.opcalc import random_algebra_element


def _generator(N, name):
    """The algebra element of one basis generator in the matrix
    realization, the inverse of AlgebraElement.basis_coefficients."""
    M = [[0, 0], [0, 0]]
    X = [[0, 0] for _ in range(N)]
    K = [[0] * N for _ in range(N)]
    if name == "E":
        M[0][1] = 1
    elif name == "F":
        M[1][0] = 1
    elif name == "H":
        M[0][0], M[1][1] = 1, -1
    elif name[0] in "ef":
        X[int(name[1:]) - 1][name[0] == "e"] = 1
    else:
        i, j = int(name[1]) - 1, int(name[2]) - 1
        K[i][j] = K[j][i] = 1 if i == j else Fraction(1, 2)
    return AlgebraElement(M, X, K)


def _structure_bracket(alg, a, b):
    """Bracket of two generators via the matrix realization, in basis
    coordinates; the independent oracle for the bracket table."""
    ea = _generator(alg.N, alg.names[a])
    eb = _generator(alg.N, alg.names[b])
    return ea.bracket(eb).basis_coefficients()


class _FlatAlgebra:
    """The straightening engine of the flat layout, in which a PBW term is
    one exponent tuple over all generators, Z's last.  ``mul_nc``,
    ``_mul_gen``, ``_mk_z`` and the body of ``mul`` are the engine and the
    product that PBWElement had before it stored its terms over the
    centre, kept verbatim as the oracle of today's product."""

    def __init__(self, alg):
        self.z_start = alg.z_start
        self.nz = alg.ngen - alg.z_start
        self._zero_z = (0,) * self.nz
        self._gen_cache = {}
        self._mul_cache = {}
        self.is_central = alg.is_central
        self._ad_powers = alg._ad_powers

    def mul_nc(self, a: tuple, b: tuple) -> dict:
        """Product of two normal noncentral monomials.

        Returns a dict mapping (noncentral exponents, Z exponents) to int
        coefficients.
        """
        if not any(b):
            return {(a, self._zero_z): 1}
        if not any(a):
            return {(b, self._zero_z): 1}
        key = (a, b)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        g = next(i for i, k in enumerate(b) if k)
        rest = b[:g] + (b[g] - 1,) + b[g + 1:]
        out = {}
        for (m, z1), c1 in self._mul_gen(a, g).items():
            for (m2, z2), c2 in self.mul_nc(m, rest).items():
                k = (m2, tuple(x + y for x, y in zip(z1, z2)))
                out[k] = out.get(k, 0) + c1 * c2
        out = {k: c for k, c in out.items() if c}
        self._mul_cache[key] = out
        return out

    def _mul_gen(self, a: tuple, g: int) -> dict:
        """Normal noncentral monomial times a single noncentral generator."""
        t = max((i for i, k in enumerate(a) if k), default=-1)
        if t <= g:
            m = a[:g] + (a[g] + 1,) + a[g + 1:]
            return {(m, self._zero_z): 1}
        key = (a, g)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit
        e = a[t]
        p = a[:t] + (0,) + a[t + 1:]
        out = {}
        ads = self._ad_powers(t, g, e)
        for j, combo in enumerate(ads):
            if not combo:
                break
            binom = comb(e, j)
            for s, cs in combo.items():
                coeff = binom * cs
                if self.is_central(s):
                    zidx = s - self.z_start
                    heads = {(p, self._mk_z(zidx)): 1}
                else:
                    heads = self._mul_gen(p, s)
                tp = tuple(
                    (e - j) if i == t else 0 for i in range(self.z_start)
                )
                for (hm, hz), hc in heads.items():
                    if e - j == 0:
                        k = (hm, hz)
                        out[k] = out.get(k, 0) + coeff * hc
                    else:
                        for (fm, fz), fc in self.mul_nc(hm, tp).items():
                            k = (fm, tuple(x + y for x, y in zip(hz, fz)))
                            out[k] = out.get(k, 0) + coeff * hc * fc
        out = {k: c for k, c in out.items() if c}
        self._gen_cache[key] = out
        return out

    def _mk_z(self, zidx: int) -> tuple:
        return tuple(1 if i == zidx else 0 for i in range(self.nz))

    def mul(self, a_terms: dict, b_terms: dict) -> dict:
        """The flat terms of a b, from the flat terms of a and b."""
        alg = self
        zs = alg.z_start
        out = {}
        for e1, c1 in a_terms.items():
            nc1, z1 = e1[:zs], e1[zs:]
            for e2, c2 in b_terms.items():
                nc2, z2 = e2[:zs], e2[zs:]
                zadd = tuple(x + y for x, y in zip(z1, z2))
                c12 = c1 * c2
                for (m, z), k in alg.mul_nc(nc1, nc2).items():
                    full = m + tuple(x + y for x, y in zip(z, zadd))
                    s = out.get(full, ZERO) + c12 * k
                    if s:
                        out[full] = s
                    else:
                        out.pop(full, None)
        return out


_FLAT = {N: _FlatAlgebra(JacobiLieAlgebra(N)) for N in (1, 2, 3)}


@st.composite
def _elements(draw, alg):
    """Up to three normal monomials of up to three letters each, any
    generator (Z's included) at power 1 or 2, with small coefficients."""
    letters = st.lists(st.tuples(st.integers(0, alg.ngen - 1), st.integers(1, 2)),
                       max_size=3)
    coeffs = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))
    terms = {}
    for mono, c in draw(st.lists(st.tuples(letters, coeffs), max_size=3)):
        exp = [0] * alg.ngen
        for g, k in mono:
            exp[g] += k
        terms[tuple(exp)] = c
    return PBWElement.from_flat(alg, terms)


@settings(settings.get_profile("exact"))
@given(N=st.sampled_from([1, 2, 3]), data=st.data())
def test_product_matches_the_flat_oracle(N, data):
    alg = JacobiLieAlgebra(N)
    a, b = (data.draw(_elements(alg)) for _ in range(2))
    assert (a * b).flat_terms() == _FLAT[N].mul(a.flat_terms(), b.flat_terms())


def test_bracket_table_matches_matrix_realization():
    for N in (1, 2, 3):
        alg = JacobiLieAlgebra(N)
        for a in range(alg.ngen):
            for b in range(alg.ngen):
                table = {alg.names[g]: GaussianRational(c)
                         for c, g in alg.bracket_gens(a, b)}
                oracle = {k: v for k, v in _structure_bracket(alg, a, b).items() if v}
                assert table == oracle, (alg.names[a], alg.names[b])


def test_structure_constants_antisymmetry_and_jacobi():
    rng = random.Random(1)
    for N in (1, 2, 3):
        for _ in range(15):
            x = random_algebra_element(N, rng)
            y = random_algebra_element(N, rng)
            z = random_algebra_element(N, rng)
            xy = x.bracket(y)
            yx = y.bracket(x)
            assert xy.M == tuple(tuple(-c for c in r) for r in yx.M)
            assert xy.X == tuple(tuple(-c for c in r) for r in yx.X)
            assert xy.kappa == tuple(tuple(-c for c in r) for r in yx.kappa)
            jac = x.bracket(y.bracket(z)).add(
                y.bracket(z.bracket(x))).add(z.bracket(x.bracket(y)))
            assert all(not c for r in jac.M for c in r)
            assert all(not c for r in jac.X for c in r)
            assert all(not c for r in jac.kappa for c in r)


def test_normal_order_basics():
    alg = JacobiLieAlgebra(1)
    # f1 e1 -> e1 f1 + 2 Z11
    x = pbw_normal_order(alg, ["f1", "e1"])
    expect = pbw_normal_order(alg, ["e1", "f1"]) + PBWElement.gen(alg, "Z11").scale(2)
    assert x == expect
    # F E -> EF - H
    y = pbw_normal_order(alg, ["F", "E"])
    expect = pbw_normal_order(alg, ["E", "F"]) - PBWElement.gen(alg, "H")
    assert y == expect
    # [E, f1] = -e1 matches the ad-table
    c = PBWElement.gen(alg, "E").commutator(PBWElement.gen(alg, "f1"))
    assert c == -PBWElement.gen(alg, "e1")
    # [x, 1] = 0 and [Z, anything] = 0
    one = PBWElement.const(alg, 1)
    assert PBWElement.gen(alg, "E").commutator(one).is_zero()
    w = pbw_normal_order(alg, ["E", "f1", "H"])
    assert PBWElement.gen(alg, "Z11").commutator(w).is_zero()


def test_pbw_confluence_random_associativity():
    alg = JacobiLieAlgebra(2)
    rng = random.Random(7)
    for _ in range(100):
        length = rng.randint(2, 6)
        word = [rng.randrange(alg.ngen) for _ in range(length)]
        cut1 = rng.randint(1, length - 1)
        w1, w23 = word[:cut1], word[cut1:]
        a = pbw_normal_order(alg, w1) * pbw_normal_order(alg, w23)
        if len(w23) > 1:
            cut2 = rng.randint(1, len(w23) - 1)
            b = (pbw_normal_order(alg, w1) * pbw_normal_order(alg, w23[:cut2])) * \
                pbw_normal_order(alg, w23[cut2:])
        else:
            b = pbw_normal_order(alg, word)
        assert a == b == pbw_normal_order(alg, word)


def test_adjugate_substitute():
    alg1 = JacobiLieAlgebra(1)
    assert bilinear_adj(alg1, "e", "f") == pbw_normal_order(alg1, ["e1", "f1"])
    alg2 = JacobiLieAlgebra(2)
    # N=2: det(Z) e^T Z^{-1} e = Z22 e1^2 - 2 Z12 e1 e2 + Z11 e2^2
    got = bilinear_adj(alg2, "e", "e")
    e1, e2 = PBWElement.gen(alg2, "e1"), PBWElement.gen(alg2, "e2")
    Z11, Z12, Z22 = (PBWElement.gen(alg2, z) for z in ("Z11", "Z12", "Z22"))
    expect = Z22 * e1 * e1 - (Z12 * e1 * e2).scale(2) + Z11 * e2 * e2
    assert got == expect


def test_divide_by_det():
    for N in (1, 2):
        alg = JacobiLieAlgebra(N)
        d = det_z(alg)
        assert divide_by_det(d) == PBWElement.const(alg, 1)
        # divide then multiply is the identity on random elements
        rng = random.Random(N)
        for _ in range(10):
            w = [rng.randrange(alg.ngen) for _ in range(rng.randint(0, 4))]
            a = pbw_normal_order(alg, w).scale(
                GaussianRational(Fraction(rng.randint(1, 5), rng.randint(1, 3))))
            assert divide_by_det(a * d) == a
        # the quartic numerator is divisible (the P element)
        eZf = bilinear_adj(alg, "e", "f")
        eZe = bilinear_adj(alg, "e", "e")
        fZf = bilinear_adj(alg, "f", "f")
        quart = PBWElement.zero(alg)
        from maassjacobi.enveloping import adj_z, _e_vec, _f_vec
        adj = adj_z(alg)
        ev, fv = _e_vec(alg), _f_vec(alg)
        for i in range(N):
            for j in range(N):
                quart = quart + ev[i] * eZf * adj[i][j] * fv[j]
        quart = quart - eZe * fZf
        divide_by_det(quart)  # must not raise
    alg2 = JacobiLieAlgebra(2)
    with pytest.raises(DivisibilityError):
        divide_by_det(PBWElement.gen(alg2, "Z11") * PBWElement.gen(alg2, "e1"))


def test_casimir_n1_matches_displayed_expansion():
    alg = JacobiLieAlgebra(1)
    Z = PBWElement.gen(alg, "Z11")
    E, F, H = (PBWElement.gen(alg, g) for g in "EFH")
    e1, f1 = PBWElement.gen(alg, "e1"), PBWElement.gen(alg, "f1")
    # Z(H^2 - 3H + 4EF) - (H - 2) e1 f1 + E f1^2 - e1^2 F, normal ordered by
    # the engine (the engine is the oracle for expanding the display)
    expect = Z * (H * H - H.scale(3) + (E * F).scale(4)) \
        - (H - PBWElement.const(alg, 2)) * e1 * f1 + E * f1 * f1 - e1 * e1 * F
    assert build_casimir(1) == expect


def test_casimir_degree_and_centrality():
    for N in (1, 2, 3):
        om = build_casimir(N)
        assert om.degree() == N + 2
        alg = om.alg
        assert om.commutator(PBWElement.gen(alg, "Z11")).is_zero()
    for N in (1, 2):
        assert check_centrality(build_casimir(N)) == []
    alg = JacobiLieAlgebra(1)
    assert check_centrality(PBWElement.const(alg, 1)) == []
    bad = check_centrality(PBWElement.gen(alg, "E"))
    assert bad and any(name == "F" for name, _ in bad)


def test_centrality_at_rank_4(tmp_path, monkeypatch, capsys):
    # the A4 Gram matrix: Omega_4 has degree 6
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    code = main(["verify", "centrality", "--L", "2,1,0,0;1,2,1,0;0,1,2,1;0,0,1,2"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and rep["pass"] and rep["N"] == 4


def test_eta_is_sl2_homomorphism_and_nu_commutes_with_radical():
    for N in (1, 2):
        alg = JacobiLieAlgebra(N)
        half = GaussianRational(Fraction(1, 2))
        # eta(H) = (N + e^T Z^{-1} f)/2
        expect_h = LocalizedPBW(
            det_z(alg).scale(half * N) + bilinear_adj(alg, "e", "f").scale(half), 1)
        assert eta(alg, "H") == expect_h
        eE, eF, eH = eta(alg, "E"), eta(alg, "F"), eta(alg, "H")
        assert eE.commutator(eF) == eH
        assert eH.commutator(eE) == eE * 2
        assert eH.commutator(eF) == eF * (-2)
        # nu(x) commutes with the radical
        radical = [f"e{i}" for i in range(1, N + 1)] + \
                  [f"f{i}" for i in range(1, N + 1)] + \
                  [nm for nm in alg.names if nm.startswith("Z")]
        for gen in ("E", "F", "H"):
            nx = nu(alg, gen)
            for rname in radical:
                r = LocalizedPBW(PBWElement.gen(alg, rname), 0)
                assert nx.commutator(r).is_zero(), (gen, rname)


def test_exact_scalar_and_pbw_element_on_the_left():
    # each mixed product equals the one with both operands lifted, in
    # written order
    alg = JacobiLieAlgebra(1)
    E, F = PBWElement.gen(alg, "E"), PBWElement.gen(alg, "F")
    assert I * E == PBWElement.const(alg, I) * E == E * I
    nE = nu(alg, "E")
    assert F * nE == LocalizedPBW(F) * nE
    assert F * nE != nE * LocalizedPBW(F)


def test_nu_casimir_identity():
    for N in (1, 2):
        _, _, eq = nu_casimir_identity(N)
        assert eq
    # sanity inversion: dropping the constant N(N+4)/4 breaks it
    lhs, rhs, _ = nu_casimir_identity(1)
    assert lhs != rhs - Fraction(5, 4)


def test_classical_invariants_and_relations():
    # the quadratic relations are acceptance criterion 06; here Q_ii = 0 and
    # P_1 = Z11 Q0 + C11
    data = build_classical_invariants(2)
    for i in range(2):
        assert data["Q"][i][i].is_zero()
    d1 = build_classical_invariants(1)
    alg = JacobiLieAlgebra(1)
    R = alg.sym_ring
    expect = R.var("Z11") * d1["Q0"] + d1["C"][0][0]
    assert d1["PN"] == expect


def test_symmetrizer():
    alg = JacobiLieAlgebra(1)
    R = alg.sym_ring
    # Sym(EF) = EF - H/2
    got = symmetrize(R.var("E") * R.var("F"), alg)
    expect = pbw_normal_order(alg, ["E", "F"]) - PBWElement.gen(alg, "H").scale(
        Fraction(1, 2))
    assert got == expect
    # Sym is the identity on degree <= 1 and on Z-only polynomials
    assert symmetrize(R.var("e1") + R.const(3), alg) == \
        PBWElement.gen(alg, "e1") + PBWElement.const(alg, 3)
    zpoly = R.var("Z11") ** 3 + R.var("Z11").scale(2)
    got = symmetrize(zpoly, alg)
    Z = PBWElement.gen(alg, "Z11")
    assert got == Z * Z * Z + Z.scale(2)


def test_symmetrizer_ad_equivariance():
    # Sym(ad_g p) = [g, Sym(p)] on random degree-2 inputs
    rng = random.Random(9)
    for N in (1, 2):
        alg = JacobiLieAlgebra(N)
        R = alg.sym_ring
        for _ in range(10):
            i, j = rng.randrange(alg.ngen), rng.randrange(alg.ngen)
            p = R.var(alg.names[i]) * R.var(alg.names[j])
            g = rng.randrange(alg.ngen)
            # ad_g as a derivation on S(g)
            def ad_var(idx):
                out = R.zero()
                for c, t in alg.bracket_gens(g, idx):
                    out = out + R.var(alg.names[t]).scale(c)
                return out
            ad_p = ad_var(i) * R.var(alg.names[j]) + R.var(alg.names[i]) * ad_var(j)
            lhs = symmetrize(ad_p, alg)
            rhs = PBWElement.gen(alg, g).commutator(symmetrize(p, alg))
            assert lhs == rhs


def test_sym_of_pn_is_casimir_plus_constant():
    for N in (1, 2):
        alg = JacobiLieAlgebra(N)
        data = build_classical_invariants(N)
        got = symmetrize(data["PN"], alg)
        expect = build_casimir(N) + det_z(alg).scale(Fraction(N * (N + 3), 4))
        assert got == expect


def test_tau_automorphism():
    for N in (1, 2):
        alg = JacobiLieAlgebra(N)
        images = tilde_basis(N)
        # bracket preservation on all basis pairs
        for a in range(alg.ngen):
            for b in range(alg.ngen):
                lhs = images[alg.names[a]].commutator(images[alg.names[b]])
                rhs = PBWElement.zero(alg)
                for c, g in alg.bracket_gens(a, b):
                    rhs = rhs + images[alg.names[g]].scale(c)
                assert lhs == rhs, (alg.names[a], alg.names[b])
        # tilde H-weights: [H~, e~_j] = e~_j, [H~, f~_j] = -f~_j, [H~, E~] = 2E~
        Ht = images["H"]
        assert Ht.commutator(images["E"]) == images["E"].scale(2)
        assert Ht.commutator(images["F"]) == images["F"].scale(-2)
        for j in range(1, N + 1):
            assert Ht.commutator(images[f"e{j}"]) == images[f"e{j}"]
            assert Ht.commutator(images[f"f{j}"]) == images[f"f{j}"].scale(-1)
        # tau(Omega_N) = (i/2)^N Omega_N
        om = build_casimir(N)
        assert tau_automorphism(om) == om.scale((I * GaussianRational(Fraction(1, 2))) ** N)


# sha256 of pbw_to_json(build_casimir(N)) as the flat layout wrote it
@pytest.mark.parametrize("N, digest", [
    (1, "44043f09128e3cd86cd33b80ba782d6474bd8ff5094ef6cf5d5ea2dc0e2dad8f"),
    (2, "bb1e380ad7e036daf8cb9c5daccdd6d5fd11410603a3a781eeefffcc2db2399c"),
    (3, "a8e3c2721661da58d4497b96d3c8e911c3ded546dddef07019b14540b313eba0"),
])
def test_casimir_json_is_unchanged(N, digest):
    assert hashlib.sha256(pbw_to_json(build_casimir(N)).encode()).hexdigest() == digest


@pytest.mark.parametrize("call", [
    lambda: JacobiLieAlgebra(0),
    lambda: PBWElement.gen(JacobiLieAlgebra(1), "E") * PBWElement.gen(JacobiLieAlgebra(2), "E"),
    lambda: LocalizedPBW(PBWElement.const(JacobiLieAlgebra(1), 1), -1),
    lambda: eta(JacobiLieAlgebra(1), "e1"),
    lambda: symmetrize(JacobiLieAlgebra(2).sym_ring.var("E"), JacobiLieAlgebra(1)),
], ids=["rank-0", "mixed-algebras", "negative-detpow", "eta-of-e1", "symmetrize-ring"])
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_pbw_json_round_trip():
    rng = random.Random(11)
    alg = JacobiLieAlgebra(2)
    for _ in range(5):
        w = [rng.randrange(alg.ngen) for _ in range(rng.randint(0, 5))]
        a = pbw_normal_order(alg, w).scale(
            GaussianRational(Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 2)))
        s = pbw_to_json(a)
        assert pbw_from_json(s) == a
        assert pbw_to_json(pbw_from_json(s)) == s
