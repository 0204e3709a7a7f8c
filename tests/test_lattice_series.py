import hashlib
import json
import os
import random
from fractions import Fraction
from itertools import product
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from maassjacobi import linalg
from maassjacobi.cli import parse_rational_matrix
from maassjacobi.errors import DomainError
from maassjacobi.lattice import (
    GramLattice,
    discriminant,
    enumerate_shifted,
    h_of_r,
)
from maassjacobi.precision import PrecisionContext, e_of, to_fraction, to_mpf
from maassjacobi.specfun import bessel_I, bessel_J, whittaker_W_renorm
from maassjacobi.series import (
    _phase_counts,
    _pow_ratio,
    _weight_factor,
    casimir_eigenvalue,
    duality_report,
    full_coeff_c,
    kloosterman,
    poincare_coeff_b,
    poincare_csum,
    poincare_table,
    skew_poincare_coeff,
)


def test_gram_lattice_validation():
    GramLattice([[2, Fraction(1, 2)], [Fraction(1, 2), 1]])
    with pytest.raises(DomainError):
        GramLattice([[1, 1], [1, 1]])          # not positive definite
    with pytest.raises(DomainError):
        GramLattice([[Fraction(1, 2)]])        # diagonal not integral
    with pytest.raises(DomainError):
        GramLattice([[1, Fraction(1, 3)], [Fraction(1, 3), 1]])  # not half-integral
    with pytest.raises(DomainError):
        GramLattice([[1, 0], [1, 1]])          # not symmetric
    L = GramLattice([[2, 1], [1, 2]])
    assert L.det == 3
    # even lattice: L[lambda] is an integer for integer vectors
    rng = random.Random(0)
    for _ in range(50):
        lam = [rng.randint(-5, 5) for _ in range(2)]
        assert L.quad(lam).denominator == 1


@pytest.mark.parametrize("entries, minor", [
    ([[1, 1], [1, 1]], 2),
    ([[-2]], 1),
    ([[2, 1, 1], [1, 2, 1], [1, 1, 0]], 3),
])
def test_positive_definiteness_names_the_first_nonpositive_minor(entries, minor):
    with pytest.raises(DomainError, match=f"leading principal minor {minor} is not positive"):
        GramLattice(entries)
    with pytest.raises(DomainError, match=f"leading principal minor {minor} "):
        linalg.ldl(linalg.mat(entries))


def test_determinant_is_the_product_of_the_ldl_pivots():
    # the same Fraction as the cofactor expansion
    rng = random.Random(3)
    for entries in ([[1]], [[2, 1], [1, 2]], [[1, Fraction(1, 2)], [Fraction(1, 2), 1]],
                    [[2, 1, 0], [1, 2, 1], [0, 1, 2]]):
        L = GramLattice(entries)
        assert L.det == linalg.det(L.entries) and isinstance(L.det, Fraction)
    for _ in range(30):
        N = rng.randint(1, 4)
        B = [[rng.randint(-3, 3) for _ in range(N)] for _ in range(N)]
        G = [[2 * sum(B[k][i] * B[k][j] for k in range(N)) + 2 * (i == j)
              for j in range(N)] for i in range(N)]
        L = GramLattice(G)
        assert L.det == linalg.det(L.entries)


def test_vectors_must_have_the_lattice_rank(ctx):
    L = GramLattice([[2, 1], [1, 2]])
    methods = [L.quad, L.apply, L.inv_apply, L.inv_quad,
               lambda v: L.inv_form(v, [0, 0]), lambda v: L.inv_form([0, 0], v),
               lambda v: discriminant(L, 1, v), lambda v: h_of_r(L, v),
               lambda v: kloosterman(3, L, 1, [1, 0], 1, v, ctx)]
    for bad in ([1], [1, 2, 3], []):
        for method in methods:
            with pytest.raises(DomainError, match="rank 2"):
                method(bad)


def test_discriminant_identities():
    L1 = GramLattice([[1]])
    assert discriminant(L1, 1, [0]) == 4
    rng = random.Random(1)
    for _ in range(100):
        n, r = rng.randint(-9, 9), [rng.randint(-6, 6)]
        assert discriminant(L1, n, r) == 4 * n - r[0] ** 2
    L = GramLattice([[2, Fraction(1, 2)], [Fraction(1, 2), 3]])
    for _ in range(100):
        n = Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
        r = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert discriminant(L, n, r) + h_of_r(L, r) == 4 * n * L.det


def test_enumeration_matches_box_oracle():
    for entries, bound in [([[1]], 4), ([[2]], 4),
                           ([[2, Fraction(1, 2)], [Fraction(1, 2), 1]], 4),
                           ([[2, 1], [1, 2]], 4), ([[1, 0], [0, 3]], 4)]:
        L = GramLattice(entries)
        got = list(enumerate_shifted(L, [0] * L.N, bound))
        want = sorted(lam for lam in product(range(-10, 11), repeat=L.N)
                      if L.quad(lam) <= bound)
        assert got == want
        assert len(got) == len(set(got))


def test_shifted_enumeration():
    L = GramLattice([[2, 1], [1, 2]])
    center = [Fraction(1, 3), Fraction(-1, 2)]
    got = list(enumerate_shifted(L, center, 4))
    want = sorted(lam for lam in product(range(-9, 10), repeat=2)
                  if L.quad([a + c for a, c in zip(lam, center)]) <= 4)
    assert got == want


def test_dense_rank_10_lattice_inverts_exactly():
    # 2 on the diagonal and 1 elsewhere: no zero entry for cofactor
    # expansion to skip, so only the LDL^T route builds it in time
    N = 10
    L = GramLattice([[2 if i == j else 1 for j in range(N)] for i in range(N)])
    assert L.det == 11
    assert linalg.mul(L.inv, L.entries) == linalg.identity(N)


@settings(settings.get_profile("exact"))
@given(data=st.data(), N=st.integers(1, 4))
def test_inverse_matches_the_cofactor_oracle(data, N):
    # off-diagonal entries in (1/2)Z of size at most 1 and a diagonal of at
    # least N: diagonally dominant, so positive definite
    off = {(i, j): Fraction(data.draw(st.integers(-2, 2)), 2)
           for i in range(N) for j in range(i + 1, N)}
    diag = [data.draw(st.integers(N, N + 3)) for _ in range(N)]
    L = GramLattice([[diag[i] if i == j else off[min(i, j), max(i, j)] for j in range(N)]
                     for i in range(N)])
    m = L.entries
    assert L.inv == linalg.scale(Fraction(1) / linalg.det(m), linalg.adjugate(m))


def test_kloosterman_closed_forms(ctx):
    L1 = GramLattice([[1]])
    with ctx.working():
        # c = 1: single term e(-r L^{-1} r'/2)
        v = kloosterman(1, L1, 1, [3], 2, [5], ctx)
        assert abs(v - e_of(Fraction(-15, 2))) < mp.mpf("1e-40")
        # hand-checked c = 2 vanishing
        v = kloosterman(2, L1, 1, [0], 1, [0], ctx)
        assert abs(v) < mp.mpf("1e-40")
    with pytest.raises(DomainError):
        kloosterman(0, L1, 0, [0], 0, [0], ctx)


def _inv_apply_fractions(L, v):
    """L^{-1} v by Fraction arithmetic on the cached inverse."""
    return linalg.matvec(L.inv, tuple(Fraction(x) for x in v))


_RATIONAL = st.one_of(st.integers(-6, 6),
                      st.fractions(-6, 6, max_denominator=4))


@settings(settings.get_profile("exact"))
@given(entries=st.sampled_from([[[1]], [[3]], [[2, 1], [1, 2]], [[2, 0], [0, 4]],
                                [[1, Fraction(1, 2)], [Fraction(1, 2), 1]],
                                [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
                                [[2, Fraction(1, 2), 0], [Fraction(1, 2), 2, Fraction(1, 2)],
                                 [0, Fraction(1, 2), 2]]]),
       n=_RATIONAL, u=st.lists(_RATIONAL, min_size=3, max_size=3),
       v=st.lists(_RATIONAL, min_size=3, max_size=3))
def test_integer_forms_of_the_inverse_match_fractions(entries, n, u, v):
    # the forms of L^{-1} over one integer denominator equal the Fraction
    # arithmetic they replace
    L = GramLattice(entries)
    u, v = u[:L.N], v[:L.N]
    inv_v = _inv_apply_fractions(L, v)
    assert L.inv_apply(v) == inv_v
    assert L.inv_form(u, v) == sum(Fraction(a) * b for a, b in zip(u, inv_v))
    assert L.inv_quad(v) == linalg.quad_form(L.inv, tuple(Fraction(x) for x in v))
    assert discriminant(L, n, v) == L.det * (4 * Fraction(n) - linalg.quad_form(
        L.inv, tuple(Fraction(x) for x in v)))


def _kloosterman_oracle(c, L, n, r, nprime, rprime, ctx, reverse=False):
    """The definitional double sum over units d, then lambda in (Z/c)^N, with
    L[lam] in Fractions and one root per distinct phase, e_of at its
    representative in (-1/2, 1/2) and exactly -1 at 1/2: the counts times
    those roots are summed exactly in Fractions, in order of first
    appearance (or the reverse), and rounded once."""
    counts = {}
    for d in range(1, c + 1):
        if gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        for lam in product(range(c), repeat=L.N):
            q = L.quad(lam)
            num = (dbar * (int(q) + sum(a * b for a, b in zip(r, lam)) + n)
                   + nprime * d - sum(a * b for a, b in zip(rprime, lam))) % c
            counts[num] = counts.get(num, 0) + 1
    pre_phase = -Fraction(sum(a * b for a, b in zip(r, _inv_apply_fractions(L, rprime)))) / (2 * c)
    items = list(counts.items())
    if reverse:
        items.reverse()
    with ctx.working():
        re = im = Fraction(0)
        for num, cnt in items:
            root = mp.mpc(-1) if 2 * num == c else e_of(Fraction(num, c) - (2 * num > c))
            re += cnt * to_fraction(root.real)
            im += cnt * to_fraction(root.imag)
        return e_of(pre_phase) * mp.mpc(to_mpf(re), to_mpf(im))


def test_kloosterman_matches_oracle_exactly():
    # the pair histogram and the cached roots reproduce the double loop bit
    # for bit; the same c at two precisions in one process shows that the
    # root tables are kept apart by precision
    rng = random.Random(11)
    half = Fraction(1, 2)
    cases = []
    for entries, samples in [([[1]], 8), ([[3]], 8), ([[2, 1], [1, 2]], 6),
                             ([[1, half], [half, 1]], 6),
                             ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], 3)]:
        L = GramLattice(entries)
        for _ in range(samples):
            cases.append((rng.randint(1, 15), L,
                          rng.randint(-6, 6), [rng.randint(-4, 4) for _ in range(L.N)],
                          rng.randint(-6, 6), [rng.randint(-4, 4) for _ in range(L.N)]))
    for bits in (128, 256):
        ctx = PrecisionContext(bits=bits)
        for case in cases:
            assert kloosterman(*case, ctx) == _kloosterman_oracle(*case, ctx), (bits, case)


def test_kloosterman_does_not_depend_on_the_order_of_its_counts():
    # the exact phase sum is rounded once, so the counts summed in reverse
    # order of first appearance give the same bits
    rng = random.Random(12)
    ctx = PrecisionContext(bits=128)
    for entries in ([[1]], [[2]], [[2, 1], [1, 2]], [[2, 0], [0, 4]]):
        L = GramLattice(entries)
        for _ in range(6):
            case = (rng.randint(2, 12 if L.N == 1 else 6), L,
                    rng.randint(-4, 4), [rng.randint(-3, 3) for _ in range(L.N)],
                    rng.randint(-4, 4), [rng.randint(-3, 3) for _ in range(L.N)])
            k = kloosterman(*case, ctx)
            assert k == _kloosterman_oracle(*case, ctx, reverse=True), case
            assert k == _kloosterman_oracle(*case, ctx), case


_MAX_C = {1: 24, 2: 12, 3: 8}


@st.composite
def _even_gram(draw):
    """An even Gram matrix of rank 1 to 3: off-diagonal entries in (1/2)Z,
    each diagonal entry above its row's off-diagonal sum, hence positive
    definite."""
    N = draw(st.integers(1, 3))
    entries = [[Fraction(0)] * N for _ in range(N)]
    for i in range(N):
        for j in range(i + 1, N):
            entries[i][j] = entries[j][i] = Fraction(draw(st.integers(-2, 2)), 2)
    for i in range(N):
        off = sum(abs(x) for j, x in enumerate(entries[i]) if j != i)
        entries[i][i] = Fraction(floor(off) + draw(st.integers(1, 3)))
    return GramLattice(entries)


@settings(settings.get_profile("numeric"))
@given(L=_even_gram(), data=st.data())
def test_kloosterman_properties(ctx, L, data):
    # the engine against the definitional double sum, bit for bit, and the
    # symmetry K(n, r, n', r') = K(n', r', n, r) at the suite's 1e-30
    c = data.draw(st.integers(1, _MAX_C[L.N]), label="c")
    n, nprime = data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6))
    index = st.lists(st.integers(-4, 4), min_size=L.N, max_size=L.N)
    r, rprime = data.draw(index), data.draw(index)
    k = kloosterman(c, L, n, r, nprime, rprime, ctx)
    assert k == _kloosterman_oracle(c, L, n, r, nprime, rprime, ctx)
    with ctx.working():
        assert abs(k - kloosterman(c, L, nprime, rprime, n, r, ctx)) < mp.mpf("1e-30")


@pytest.mark.parametrize("prec", [128, 152, 170])
def test_root_table_is_conjugate_symmetric(prec):
    # entry j is e_of(j/c) for 2j < c and exactly -1 at 2j = c, and entry
    # c - j is the exact conjugate of entry j, as e_of(-j/c) is
    from maassjacobi import fixedpoint
    from maassjacobi.series import _roots_of_unity

    for c in range(1, 51):
        re, im, e = _roots_of_unity(c, prec)
        assert len(re) == len(im) == c
        for j in range(1, c):
            assert (re[c - j], im[c - j]) == (re[j], -im[j]), (c, j)
        with mp.workprec(prec):
            roots = fixedpoint.rounded(re, im, e)
            for j in range(c):
                if 2 * j < c:
                    assert roots[j] == e_of(Fraction(j, c)) == mp.conj(e_of(Fraction(-j, c)))
                elif 2 * j == c:
                    assert roots[j] == -1


@settings(settings.get_profile("exact"))
@given(L=_even_gram(), data=st.data())
def test_kloosterman_at_minus_rprime_is_the_exact_conjugate(ctx, L, data):
    # d -> -d takes the phase j at r' to the phase -j at -r', and the roots
    # at -j are the conjugates of those at j, so the two sums agree exactly
    c = data.draw(st.integers(1, _MAX_C[L.N]), label="c")
    n, nprime = data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6))
    index = st.lists(st.integers(-4, 4), min_size=L.N, max_size=L.N)
    r, rprime = data.draw(index), data.draw(index)
    with ctx.working():
        assert kloosterman(c, L, n, r, nprime, [-x for x in rprime], ctx) == \
            mp.conj(kloosterman(c, L, n, r, nprime, rprime, ctx))


def test_series_inputs_that_must_be_integers_are_checked(ctx):
    # a non-integral index or weight is a DomainError, not truncated toward
    # zero; an integral value of another type is read as its integer
    half = Fraction(1, 2)
    L1, L2 = GramLattice([[1]]), GramLattice([[2]])
    for args, what in [((5, L2, half, [1], 0, [Fraction(3, 2)]), "n must"),
                       ((5, L2, 0, [half], 0, [1]), "each entry of r must"),
                       ((5, L2, 0, [1], 1.5, [1]), "n' must"),
                       ((5, L2, 0, [1], 0, [Fraction(3, 2)]), "each entry of r' must"),
                       ((Fraction(5, 2), L2, 0, [1], 0, [1]), "c must")]:
        with pytest.raises(DomainError, match=what):
            kloosterman(*args, ctx)
    assert kloosterman(5, L2, 0.0, [Fraction(2, 2)], mp.mpf(1), [1], ctx) == \
        kloosterman(5, L2, 0, [1], 1, [1], ctx)
    s = Fraction(5, 2)
    with pytest.raises(DomainError, match="k must be an integer"):
        full_coeff_c(1, s, Fraction(5, 2), L1, -1, [1], -1, [0], 4, ctx)
    with pytest.raises(DomainError, match="k must be an integer"):
        skew_poincare_coeff(3.9, L1, 1, [1], 1, [1], 4, ctx)
    with pytest.raises(DomainError, match="k must be an integer"):
        duality_report(s, Fraction(3, 2), L1, [((0, [1]), (-1, [0]))], 4, ctx)
    with pytest.raises(DomainError, match="n' must be an integer"):
        poincare_csum(s, L1, -1, [1], half, [0], 4, ctx, discriminants=(-3, -2))
    # in a table, k, s, n and r fail every row, n' and r' their own row,
    # each in the stated order
    rows = [(-1, [0]), (half, [0]), (-1, [half]), (half, [half]), (1, [2])]
    assert [str(x) for x in poincare_table(False, 1, s, 1, L1, -1, [half], rows, 4, ctx)] \
        == ["each entry of r must be an integer, not 1/2"] * len(rows)
    assert [str(x) for x in poincare_table(False, 1, 1, half, L1, -1, [half], rows, 4, ctx)] \
        == ["k must be an integer, not 1/2"] * len(rows)
    got = poincare_table(False, 1, s, 1, L1, -1, [1], rows, 4, ctx)
    assert [str(x) for x in got[1:]] == ["n' must be an integer, not 1/2",
                                         "each entry of r' must be an integer, not 1/2",
                                         "n' must be an integer, not 1/2",
                                         "D' = 0 coefficients are unsupported: the defining "
                                         "constant a_s(n', r') is not specified"]
    assert got[0] == full_coeff_c(1, s, 1, L1, -1, [1], -1, [0], 4, ctx)


def _counts_oracle(c, L, n, r, nprime, rprime, inverse=True):
    """counts[j] of the definitional double sum over units d, then lambda in
    (Z/c)^N, with L[lam] in Fractions: the (d, lambda) at phase j/c.  With
    inverse=False d stands in place of dbar, a planted defect."""
    counts = [0] * c
    for d in range(1, c + 1):
        if gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c) if inverse else d
        for lam in product(range(c), repeat=L.N):
            counts[(dbar * (int(L.quad(lam)) + sum(a * b for a, b in zip(r, lam)) + n)
                    + nprime * d - sum(a * b for a, b in zip(rprime, lam))) % c] += 1
    return counts


@settings(settings.get_profile("exact"))
@given(L=_even_gram(), data=st.data())
def test_minus_rprime_counts_are_the_rprime_counts_at_minus_j(L, data):
    # d -> -d maps the phase j of (n, r, n', r') to the phase -j of
    # (n, r, n', -r'), so over conjugate-symmetric roots the sum at -r' is
    # the conjugate of the sum at r'
    c = data.draw(st.integers(1, min(12, _MAX_C[L.N])), label="c")
    n, nprime = data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6))
    index = st.lists(st.integers(-4, 4), min_size=L.N, max_size=L.N)
    r, rprime = data.draw(index), data.draw(index)
    counts = _phase_counts(c, L.quad_terms, n, r, nprime, rprime)
    assert counts == _counts_oracle(c, L, n, r, nprime, rprime)
    assert counts[:1] + counts[:0:-1] == _counts_oracle(c, L, n, r, nprime,
                                                        [-x for x in rprime])


@settings(settings.get_profile("exact"))
@given(L=_even_gram(), data=st.data())
def test_swapped_seed_counts_are_the_seed_counts(L, data):
    # (d, lam) -> (dbar, -dbar lam) takes the phase j of (n, r, n', r') to
    # the phase j of (n', r', n, r): the symmetry that `verify
    # kloosterman-symmetry` checks to 1e-30 holds exactly on the counts
    c = data.draw(st.integers(1, _MAX_C[L.N]), label="c")
    n, nprime = data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6))
    index = st.lists(st.integers(-4, 4), min_size=L.N, max_size=L.N)
    r, rprime = data.draw(index), data.draw(index)
    assert _phase_counts(c, L.quad_terms, n, r, nprime, rprime) == \
        _phase_counts(c, L.quad_terms, nprime, rprime, n, r)


@pytest.mark.parametrize("gram", ["1", "2,1;1,2"])
def test_series_suites_catch_d_in_place_of_dbar(gram, monkeypatch, capsys):
    # the unit pass with d in place of dbar: over the units d -> dbar its
    # phases d (L[lam] + r.lam + n) + n' d - r'.lam are the true phases of
    # (n + n', r, 0, r').  Both sides of the symmetry and of the duality
    # ratios carry the defect, and the dual c-sum, computed on its own, is
    # what lets `verify duality` see it
    from maassjacobi import series
    from maassjacobi.cli import main

    def defective(c, hist, nprime):
        counts = [0] * c
        for d in range(1, c + 1):
            if gcd(d, c) == 1:
                for (a, b), cnt in hist.items():
                    counts[(d * a + nprime * d - b) % c] += cnt
        return counts

    L = GramLattice(parse_rational_matrix(gram))
    r, rprime = [1] + [0] * (L.N - 1), [0] * (L.N - 1) + [-1]
    for c in range(1, 8):
        assert defective(c, series._pair_histogram(c, L.quad_terms, 1, r, rprime), 2) == \
            _counts_oracle(c, L, 1, r, 2, rprime, inverse=False)
    monkeypatch.setattr(series, "_unit_counts", defective)
    for suite in ("kloosterman-symmetry", "duality"):
        assert main(["verify", suite, "--L", gram]) == 1, suite
        capsys.readouterr()


def test_casimir_eigenvalue_values():
    # |value| at (N,k,s) = (1,0,2) is 27/8; the toolkit's sign convention is
    # fixed by the operator it builds (see the docstring and ledger)
    assert casimir_eigenvalue(0, 1, 2) == Fraction(-27, 8)
    assert abs(casimir_eigenvalue(0, 1, 2)) == Fraction(27, 8)
    for (k, N) in ((2, 1), (5, 2), (0, 3)):
        assert casimir_eigenvalue(k, N, Fraction(k, 2) - Fraction(N, 4)) == 0
        assert casimir_eigenvalue(k, N, 1 + Fraction(N, 4) - Fraction(k, 2)) == 0
        s = Fraction(7, 3)
        assert casimir_eigenvalue(k, N, s) == casimir_eigenvalue(k, N, 1 - s)


def _symmetrized_oracle(b1, b2, k, ctx):
    """b1 + (-1)^k b2, or 0 where the two sides cancel to within eps of
    their sizes."""
    v = b1 + (-1) ** k * b2
    return 0 if abs(v) <= ctx.eps * (abs(b1) + abs(b2)) else v


def test_poincare_coeff_basics(ctx):
    L = GramLattice([[1]])
    s = Fraction(5, 2)
    with ctx.working():
        # c_max = 0 -> 0 (empty sum)
        v, tail = poincare_coeff_b(1, s, 2, L, -1, [1], -1, [0], 0, ctx)
        assert v == 0
        # symmetrization wrapper identities
        b0, _ = poincare_coeff_b(1, s, 2, L, -1, [1], -1, [0], 4, ctx)
        c0, _ = full_coeff_c(1, s, 2, L, -1, [1], -1, [0], 4, ctx)
        assert c0 == 2 * b0                         # r' = 0, k even
        c1, _ = full_coeff_c(1, s, 3, L, -1, [1], -1, [0], 4, ctx)
        assert abs(c1) < mp.mpf("1e-30")            # r' = 0, k odd
        # random-input wrapper assembly
        rng = random.Random(5)
        for _ in range(3):
            n, r = -1, [1]
            np_, rp = rng.randint(-2, 0), [rng.randint(1, 2)]
            if discriminant(L, np_, rp) == 0:
                continue
            k = rng.choice([1, 2, 3])
            b1, _ = poincare_coeff_b(1, s, k, L, n, r, np_, rp, 3, ctx)
            b2, _ = poincare_coeff_b(1, s, k, L, n, r, np_, [-rp[0]], 3, ctx)
            cc, _ = full_coeff_c(1, s, k, L, n, r, np_, rp, 3, ctx)
            assert cc == _symmetrized_oracle(b1, b2, k, ctx)
    # the two sides are combined at the working precision, not the ambient one
    cc, _ = full_coeff_c(1, s, 1, L, -1, [1], -1, [2], 3, ctx)
    with ctx.working():
        assert cc == full_coeff_c(1, s, 1, L, -1, [1], -1, [2], 3, ctx)[0]
    # error paths
    with pytest.raises(DomainError):
        poincare_coeff_b(1, Fraction(5, 2), 2, L, -1, [1], 1, [2], 4, ctx)  # D'=0
    with pytest.raises(DomainError):
        poincare_coeff_b(1, Fraction(1, 2), 2, L, -1, [1], -1, [0], 4, ctx)  # s too small
    with pytest.raises(DomainError):
        poincare_coeff_b(1, Fraction(5, 2), 2, L, 0, [0], -1, [0], 4, ctx)  # D=0 seed


def test_bessel_kind_dispatch(ctx):
    # DD' > 0 uses J, DD' < 0 uses I: verified by reproducing the b value
    # with the dispatch forced by hand
    L = GramLattice([[1]])
    s = Fraction(5, 2)
    with ctx.working():
        for (np_, rp) in [(-1, [0]), (1, [0])]:
            n, r = -1, [1]
            D, Dp = discriminant(L, n, r), discriminant(L, np_, rp)
            (acc, _), _ = poincare_csum(s, L, n, r, np_, rp, 6, ctx,
                                        discriminants=(D, Dp))
            bess = bessel_J if D * Dp > 0 else bessel_I
            expect = mp.mpc(0)
            xb = mp.pi * mp.sqrt(abs(mp.mpf(int(D * Dp)))) / 1
            for c in range(1, 7):
                kl = kloosterman(c, L, n, r, np_, rp, ctx)
                expect += mp.power(c, -mp.mpf(1.5)) * kl * bess(2 * s - 1, xb / c, ctx)
            assert abs(acc - expect) < mp.mpf("1e-30")


def _csum_oracle(s, L, n, r, nprime, rprime, c_max, ctx, dual=False):
    """Each side's own loop sum_c w * kloosterman(c, ...) * bv, with every
    K from the public function: the seed (n, r) at r' and at -r', then with
    ``dual`` the seed (n', r') at r and at -r."""
    s = Fraction(s)
    D, Dp = discriminant(L, n, r), discriminant(L, nprime, rprime)
    problems = [(n, r, nprime, rprime), (n, r, nprime, [-x for x in rprime])]
    if dual:
        problems += [(nprime, rprime, n, r), (nprime, rprime, n, [-x for x in r])]
    out = []
    with ctx.working():
        bessel = bessel_J if D * Dp > 0 else bessel_I
        xbase = mp.pi * mp.sqrt(abs(to_mpf(Dp * D))) / to_mpf(L.det)
        for a, ra, b, rb in problems:
            acc, last = mp.mpc(0), mp.mpf(0)
            for c in range(1, c_max + 1):
                w = mp.power(c, -mp.mpf(L.N + 2) / 2)
                term = w * kloosterman(c, L, a, ra, b, rb, ctx) * bessel(
                    2 * s - 1, xbase / c, ctx)
                acc += term
                last = abs(term)
            out.append((acc, last))
    return out


@pytest.mark.parametrize("entries, n, r, nprime, rprime, c_max, dual", [
    ([[1]], -1, [1], -1, [0], 8, False),                    # r' = 0, J
    ([[1]], -1, [1], 1, [0], 8, False),                     # I
    ([[1]], -1, [1], -2, [1], 9, False),                    # +-r'
    ([[1]], -1, [1], 1, [1], 6, True),                      # dual sides, I
    ([[2, 1], [1, 2]], 0, [1, 0], -1, [1, 1], 4, True),
    ([[2, 0], [0, 4]], -1, [0, 0], 0, [1, 0], 4, True),     # r = 0 on the dual seed
    ([[1, Fraction(1, 2)], [Fraction(1, 2), 1]], 1, [1, 0], 1, [0, 1], 3, False),
    ([[1]], -1, [1], -2, [1], 0, False),                    # empty c-range
])
def test_poincare_csum_matches_the_per_side_loop(ctx, entries, n, r, nprime, rprime,
                                                 c_max, dual):
    # the c-sum, with its -r' side the conjugate of its r' side, equals the
    # per-side loop over the public Kloosterman sum bit for bit
    L = GramLattice(entries)
    s = Fraction(5, 2)
    D, Dp = discriminant(L, n, r), discriminant(L, nprime, rprime)
    got = poincare_csum(s, L, n, r, nprime, rprime, c_max, ctx, dual=dual,
                        discriminants=(D, Dp))
    assert got == _csum_oracle(s, L, n, r, nprime, rprime, c_max, ctx, dual)
    with pytest.raises(DomainError):
        poincare_csum(s, L, n, r, nprime, rprime, -1, ctx, dual=dual,
                      discriminants=(D, Dp))


@pytest.mark.parametrize("rprime, dual", [([1, 1], False), ([1, 1], True),
                                          ([0, 0], False), ([0, 0], True)])
def test_poincare_csum_makes_one_phase_count_pass_per_seed_and_c(ctx, monkeypatch,
                                                                 rprime, dual):
    # a table takes one histogram per (c, distinct r') and one unit pass and
    # one phase sum per (row, c), the -r' side being the conjugate of the r'
    # side; a duality pair takes one of each per c for its seed and again for
    # its dual seed, which counts its own phases
    from maassjacobi import series

    hists, units, phase_sums = [], [], []
    for name, calls in (("_pair_histogram", hists), ("_unit_counts", units),
                        ("_phase_sum", phase_sums)):
        def counted(first, *args, _original=getattr(series, name), _calls=calls):
            # the c of the call: its first argument, or the length of its counts
            _calls.append(first if isinstance(first, int) else len(first))
            return _original(first, *args)
        monkeypatch.setattr(series, name, counted)
    L = GramLattice([[2, 1], [1, 2]])
    n, r, c_max = 0, [1, 0], 5
    if dual:
        D, Dp = discriminant(L, n, r), discriminant(L, -1, rprime)
        poincare_csum(Fraction(5, 2), L, n, r, -1, rprime, c_max, ctx, dual=True,
                      discriminants=(D, Dp))
        assert sorted(hists) == sorted(units) == sorted(phase_sums) == \
            sorted(list(range(1, c_max + 1)) * 2)
        return
    # r', -r' and (1, 0) at each n', where D' = 12 n' - 2 or 12 n' is not 0
    rows = [(np_, rp) for np_ in (-1, 1, 2)
            for rp in (rprime, [-x for x in rprime], [1, 0])]
    results = poincare_table(False, 1, Fraction(5, 2), 1, L, n, r, rows, c_max, ctx)
    assert not any(isinstance(x, DomainError) for x in results)
    distinct = len({tuple(rp) for _, rp in rows})
    assert sorted(hists) == sorted(list(range(1, c_max + 1)) * distinct)
    assert sorted(units) == sorted(phase_sums) == sorted(list(range(1, c_max + 1)) * len(rows))


def _row_oracle(skew, y, s, k, L, n, r, np_, rp, c_max, ctx):
    """One table row on its own: the message of its first failing check, in
    the stated order, or (value, tail ratio) from each side's own c-sum
    (``_csum_oracle``, ``_skew_side`` for skew) times the displayed
    prefactor, symmetrized."""
    N = L.N
    D, Dp = discriminant(L, n, r), discriminant(L, np_, rp)
    if skew:
        failed = ("skew Poincare series require k >= 3" if k < 3 else
                  "skew coefficients require D, D' > 0" if D <= 0 or Dp <= 0 else None)
    else:
        failed = ("convergence requires Re(s) > 1 + N/2" if s <= 1 + Fraction(N, 2) else
                  "seed index must have D != 0" if D == 0 else
                  "D' = 0 coefficients are unsupported" if Dp == 0 else
                  "y = Im tau > 0" if y <= 0 else None)
    if failed is None and c_max < 0:
        failed = "c_max must be nonnegative"
    if failed:
        return failed
    sums = None if skew else _csum_oracle(s, L, n, r, np_, rp, c_max, ctx)
    with ctx.working():
        if skew:
            b1 = _skew_side(k, L, n, r, np_, rp, c_max, ctx)
            b2 = _skew_side(k, L, n, r, np_, [-x for x in rp], c_max, ctx)
            return _symmetrized_oracle(b1, b2, k, ctx), None
        arg = mp.pi * to_mpf(Dp / L.det) * to_mpf(y)
        pref = (_weight_factor(s, k, L, 1 if Dp > 0 else -1)
                * _pow_ratio(Dp, D, Fraction(k, 2) - Fraction(N + 2, 4))
                * (mp.exp(arg / 2) * whittaker_W_renorm(s, k - Fraction(N, 2), arg, ctx)))
        (b1, t1), (b2, t2) = [(pref * acc, last / abs(acc) if acc != 0 else 0)
                              for acc, last in sums]
        return _symmetrized_oracle(b1, b2, k, ctx), max(t1, t2)


def _matches(got, want) -> bool:
    if isinstance(want, str):
        return isinstance(got, DomainError) and want in str(got)
    return got == want


def _window_rows(L, window):
    """The rows of a ``poincare --window`` table, then each r' != 0 again at
    -r' (so rows with equal D' share a table) and a full-support r' at +-."""
    rows = [(np_, [rp0] + [0] * (L.N - 1)) for np_ in range(-window, window + 1)
            for rp0 in range(0, window + 1)]
    rows += [(np_, [-x for x in rp]) for np_, rp in rows if any(rp)]
    return rows + [(1, [1] * L.N), (1, [-1] * L.N), (-1, [1] * L.N)]


def _drawn_tables():
    """Tables of ranks 1-3 at windows 1 and 2, Maass and skew, with seeds
    drawn so that D != 0 (Maass) or D > 0 (skew), and tables whose every
    row fails a check: k < 3, D = 0, y <= 0, c_max < 0."""
    rng = random.Random(46)
    half = Fraction(1, 2)
    tables = []
    for entries, c_max in [([[1]], 8), ([[2]], 6), ([[3]], 5), ([[2, 1], [1, 2]], 3),
                           ([[2, 0], [0, 4]], 3), ([[1, half], [half, 1]], 3),
                           ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], 2)]:
        L = GramLattice(entries)
        s = Fraction(5, 2) if L.N < 3 else Fraction(3)
        for window in (1, 2):
            for skew in (False, True):
                while True:
                    n, r = rng.randint(-2, 2), [rng.randint(-1, 1) for _ in range(L.N)]
                    D = discriminant(L, n, r)
                    if (D > 0) if skew else (D != 0):
                        break
                k = rng.choice((3, 4)) if skew else rng.choice((1, 2))
                y = None if skew else rng.choice((Fraction(1), Fraction(3, 2)))
                tables.append((skew, y, None if skew else s, k, L, n, r,
                               _window_rows(L, window), c_max))
    L = GramLattice([[1]])
    rows = _window_rows(L, 1)
    tables += [(True, None, None, 2, L, 1, [1], rows, 3),                 # k < 3
               (True, None, None, 3, L, -1, [1], rows, 3),                # D < 0
               (False, Fraction(1), Fraction(5, 2), 1, L, 0, [0], rows, 3),   # D = 0
               (False, Fraction(0), Fraction(5, 2), 1, L, -1, [1], rows, 3),  # y = 0
               (False, Fraction(1), Fraction(5, 2), 1, L, -1, [1], rows, -1),
               (True, None, None, 3, L, 1, [1], rows, 0),
               (False, Fraction(1), Fraction(3, 2), 1, L, -1, [1], rows, 3)]  # s too small
    return tables


def _table_and_oracle(table, ctx):
    skew, y, s, k, L, n, r, rows, c_max = table
    got = poincare_table(skew, y, s, k, L, n, r, rows, c_max, ctx)
    want = [_row_oracle(skew, y, s, k, L, n, r, np_, rp, c_max, ctx) for np_, rp in rows]
    return got, want


def test_every_table_row_equals_its_own_c_sums(ctx):
    # what the rows of a table share (histograms, Bessel values, prefactors)
    # changes no row: each equals its per-side oracle bit for bit, and each
    # error row reports its own first failing check
    kinds = set()
    for table in _drawn_tables():
        got, want = _table_and_oracle(table, ctx)
        assert len(got) == len(want)
        for row, g, w in zip(table[7], got, want):
            assert _matches(g, w), (table[:7], table[8], row, g, w)
            kinds.add(w if isinstance(w, str) else "value")
    assert len(kinds) == 8          # values and every check's message


def _pinned_table_requests():
    with open(os.path.join(os.path.dirname(__file__), "benchmark_requests.json"),
              encoding="utf-8") as fh:
        return [req for req in json.load(fh) if req["workload"] == "series"
                and req["argv"][0] in ("poincare", "skew-poincare")]


def _pins_moved(capsys, reset) -> int:
    """How many pinned ``series`` table requests print other bytes, with
    ``reset()`` called before each."""
    from maassjacobi.cli import main

    moved = 0
    for req in _pinned_table_requests():
        reset()
        code = main(list(req["argv"]))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        moved += (code, digest) != (req["exit"], req["sha256"])
    return moved


def _defect_tables():
    L1, L2 = GramLattice([[2]]), GramLattice([[2, 1], [1, 2]])
    return [(False, Fraction(1), Fraction(5, 2), 2, L1, -2, [1], _window_rows(L1, 1), 6),
            (True, None, None, 3, L2, 1, [1, 0], _window_rows(L2, 2), 3)]


def _assert_caught(ctx, monkeypatch, capsys, plant, reset):
    """With the defect that ``plant(monkeypatch)`` sets, some row of the
    defect tables differs from its oracle (taken before the plant) and some
    pinned table request prints other bytes; ``reset()`` starts each table
    afresh."""
    tables = _defect_tables()
    wants = [_table_and_oracle(table, ctx)[1] for table in tables]
    plant(monkeypatch)
    misses = 0
    for table, want in zip(tables, wants):
        reset()
        got = poincare_table(*table, ctx)
        misses += sum(not _matches(g, w) for g, w in zip(got, want))
    assert misses > 0
    assert _pins_moved(capsys, reset) > 0


def test_table_checks_catch_one_histogram_for_every_rprime(ctx, monkeypatch, capsys):
    # planted: each (c, seed) of a table reuses the histogram of its first r'
    # for every r'
    from maassjacobi import series

    true_histogram, first = series._pair_histogram, {}

    def defective(c, terms, n, r, rprime):
        key = (c, terms, n, tuple(r))
        if key not in first:
            first[key] = true_histogram(c, terms, n, r, rprime)
        return first[key]

    _assert_caught(ctx, monkeypatch, capsys,
                   lambda mp_: mp_.setattr(series, "_pair_histogram", defective),
                   first.clear)


def test_table_checks_catch_one_bessel_value_for_both_signs_of_dd(ctx, monkeypatch,
                                                                   capsys):
    # planted: J and I share one value per (order, argument), so rows whose
    # D D' differ only in sign share a Bessel value; the D' = +-4|L| rows at
    # r' = 0 of every poincare window are such a pair
    from maassjacobi import series

    memo = {}

    def plant(mp_):
        for name in ("bessel_J", "bessel_I"):
            def shared(nu, x, ctx, _original=getattr(series, name)):
                if (nu, x) not in memo:
                    memo[(nu, x)] = _original(nu, x, ctx)
                return memo[(nu, x)]
            mp_.setattr(series, name, shared)

    _assert_caught(ctx, monkeypatch, capsys, plant, memo.clear)


def test_duality_report_takes_one_bessel_value_per_pair_and_c(ctx, monkeypatch):
    # the weight-k and the dual side of a pair share |D D'|, so they share
    # each c's Bessel value: c_max calls per pair, in either regime
    from maassjacobi import series

    calls = []
    for name in ("bessel_J", "bessel_I"):
        original = getattr(series, name)

        def counted(nu, x, ctx, _original=original, _name=name):
            calls.append(_name)
            return _original(nu, x, ctx)
        monkeypatch.setattr(series, name, counted)
    L = GramLattice([[1]])
    pairs = [((0, [1]), (-1, [0])), ((0, [1]), (-1, [1])),   # D, D' < 0: J
             ((-1, [0]), (1, [1])), ((-1, [1]), (1, [0]))]   # D < 0 < D': I
    duality_report(Fraction(5, 2), 1, L, pairs, 5, ctx)
    assert calls.count("bessel_J") == 2 * 5 and calls.count("bessel_I") == 2 * 5


def test_cancelled_symmetrized_coefficient_is_an_exact_zero(ctx):
    # poincare --k 1 --L 1 --s 5/2 --n=-1 --r=-1 at (n', r') = (-1, [1]),
    # c_max 8: two sides of about 5.9e-7 i whose difference is rounding
    # residue; the coefficient is an exact zero, and its tail ratio stays
    L = GramLattice([[1]])
    s = Fraction(5, 2)
    b1, t1 = poincare_coeff_b(1, s, 1, L, -1, [-1], -1, [1], 8, ctx)
    b2, t2 = poincare_coeff_b(1, s, 1, L, -1, [-1], -1, [-1], 8, ctx)
    with ctx.working():
        assert mp.mpf("5e-7") < abs(b1) < mp.mpf("7e-7")
        assert abs(b1 - b2) <= ctx.eps * (abs(b1) + abs(b2))
    c, tail = full_coeff_c(1, s, 1, L, -1, [-1], -1, [1], 8, ctx)
    assert c == 0 and tail == max(t1, t2)


def _skew_side(k, L, n, r, np_, rp, c_max, ctx):
    """The displayed one-sided skew coefficient b(n', r'): the prefactor
    times sum_c c^{-(N+2)/2} K_c(n, r, n', -r') J_{k-(N+2)/2}(x/c), in the
    operation order of skew_poincare_coeff, so that the match is exact."""
    from maassjacobi.precision import to_mpf
    from maassjacobi.series import _pow_ratio
    from maassjacobi.specfun import bessel_J

    N = L.N
    D, Dp = discriminant(L, n, r), discriminant(L, np_, rp)
    i_power = mp.mpc([1, 1j, -1, -1j][(1 - k) % 4])
    pref = (mp.power(2, 1 - mp.mpf(N) / 2) * mp.pi * i_power
            / mp.sqrt(to_mpf(L.det))
            * _pow_ratio(Dp, D, Fraction(k, 2) - Fraction(N + 2, 4)))
    order = Fraction(k) - Fraction(N + 2, 2)
    xbase = mp.pi * mp.sqrt(to_mpf(Dp * D)) / to_mpf(L.det)
    acc = mp.mpc(0)
    for c in range(1, c_max + 1):
        kl = kloosterman(c, L, n, r, np_, [-x for x in rp], ctx)
        acc += mp.power(c, -mp.mpf(N + 2) / 2) * kl * bessel_J(order, xbase / c, ctx)
    return pref * acc


def test_skew_poincare(ctx):
    L = GramLattice([[1]])
    with ctx.working():
        assert skew_poincare_coeff(3, L, 1, [1], 1, [0], 0, ctx) == 0
        # symmetrization sign: at k = 4 the two sides add; at odd k and
        # |L| = 1 they cancel, and what is left is returned as an exact zero
        for k in (4, 3):
            v = skew_poincare_coeff(k, L, 1, [1], 2, [1], 6, ctx)
            b1 = _skew_side(k, L, 1, [1], 2, [1], 6, ctx)
            b2 = _skew_side(k, L, 1, [1], 2, [-1], 6, ctx)
            assert abs(b1) > 0 and v == _symmetrized_oracle(b1, b2, k, ctx)
            assert (v == 0) == (k == 3)
    # the value is b(n', r') + (-1)^k b(n', -r') of the displayed sides
    for entries, k, n, r, np_, rp, c_max in [
            ([[1]], 3, 1, [1], 2, [1], 6),
            ([[2, 1], [1, 2]], 4, 1, [1, 0], 1, [0, 1], 3)]:
        L = GramLattice(entries)
        assert discriminant(L, n, r) > 0 and discriminant(L, np_, rp) > 0
        with ctx.working():
            got = _skew_side(k, L, n, r, np_, rp, c_max, ctx)
            mirror = _skew_side(k, L, n, r, np_, [-x for x in rp], c_max, ctx)
            assert skew_poincare_coeff(k, L, n, r, np_, rp, c_max, ctx) == (
                _symmetrized_oracle(got, mirror, k, ctx))
    L = GramLattice([[1]])
    with pytest.raises(DomainError):
        skew_poincare_coeff(2, L, 1, [1], 1, [0], 4, ctx)   # k < 3
    with pytest.raises(DomainError):
        skew_poincare_coeff(3, L, -1, [1], 1, [0], 4, ctx)  # D < 0


def test_duality_mechanism(ctx):
    # the b-level ratio is exactly constant at matched c_max and equals the
    # closed form i^{kd-k} Gamma(s + kd/2 - N/4)/Gamma(s + k/2 - N/4) in the
    # negative regime
    L = GramLattice([[1]])
    s = Fraction(5, 2)
    neg = [(0, [1]), (-1, [0]), (-1, [1]), (-2, [1]), (0, [3])]
    pairs = [(neg[0], neg[1]), (neg[0], neg[2]), (neg[1], neg[3]),
             (neg[2], neg[4]), (neg[3], neg[4])]
    rep = duality_report(s, 1, L, pairs, 8, ctx)
    with ctx.working():
        assert rep["b_relative_spread"] < mp.mpf("1e-30")
        expect = mp.mpc(0, 1) * mp.gamma(mp.mpf(13) / 4) / mp.gamma(mp.mpf(11) / 4)
        assert abs(rep["b_mean"] - expect) < mp.mpf("1e-30")
    # at odd N with |L| = 1 the symmetrized cA vanishes identically: its
    # ratios are rounding noise and are recorded as None, not as numbers
    assert rep["c_ratios"] == [None] * len(pairs)
    assert rep["c_mean"] is None and rep["c_relative_spread"] is None
    # the c-ratio is exactly that of the profile-stripped symmetrized
    # coefficients b(n', r') + (-1)^k b(n', -r'), each b from its own c-sum;
    # at odd N with |L| = 1 the c-table is degenerate, so this uses an
    # even-N lattice
    L2 = GramLattice([[2, 1], [1, 2]])
    (n, r), (npd, rpd) = pair = ((0, [1, 0]), (-1, [1, 1]))
    rep2 = duality_report(s, 1, L2, [pair], 3, ctx)

    def c_stripped(k, n, r, npd, rpd):
        # weight factor times (D'/D) power times each side's own c-sum
        D, Dp = discriminant(L2, n, r), discriminant(L2, npd, rpd)
        pref = (_weight_factor(s, k, L2, 1 if Dp > 0 else -1)
                * _pow_ratio(Dp, D, Fraction(k, 2) - Fraction(L2.N + 2, 4)))
        (acc1, _), _ = poincare_csum(s, L2, n, r, npd, rpd, 3, ctx,
                                     discriminants=(D, Dp))
        (acc2, _), _ = poincare_csum(s, L2, n, r, npd, [-x for x in rpd], 3, ctx,
                                     discriminants=(D, Dp))
        return pref * acc1 + (-1) ** k * (pref * acc2)

    with ctx.working():
        cA = c_stripped(1, n, r, npd, rpd)
        cB = c_stripped(3, npd, rpd, n, r)
        assert abs(cA) > 0 and rep2["c_ratios"] == [cA / cB]
