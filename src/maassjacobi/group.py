"""The centrally extended real Jacobi group: product, inverse, exponential
map, matrix embeddings, the action on H x C^N, and the scalar cocycles that
define the slash actions.

Elements carry either exact Gaussian-rational entries or mpmath numbers;
the mode is decided once, at construction, from the entry types.  Algebraic
formulas (product, inverse, embeddings, the action, the a-cocycle) stay
exact on exact input, and alpha_L of an exact a rounds each part of the
exact tr(L a) once (``precision.to_mpc``).  The exponential map and its
oracle ``expm`` sum their series on the Gaussian-integer kernel of
``fixedpoint`` and round each entry once: the exponential map as two scalar
series by Cayley-Hamilton, ``expm`` as a matrix polynomial of a degree
fixed up front, by Paterson-Stockmeyer.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from mpmath import mp

from . import fixedpoint, linalg
from .errors import DomainError, MalformedElementError, PrecisionError
from .gaussian import GaussianRational
from .jets import Jet
from .precision import MAX_TERMS, PrecisionContext, to_mpc, to_mpf

J2 = ((0, -1), (1, 0))

NUMERIC_TOL = 1e-9


def _is_exact(entries) -> bool:
    return all(
        isinstance(x, (int, Fraction, GaussianRational)) for r in entries for x in r
    )


def _sym_defect(m):
    n = len(m)
    return max(
        (abs(complex(m[i][j] - m[j][i])) for i in range(n) for j in range(i + 1, n)),
        default=0.0,
    )


def _numeric(m):
    """A matrix as mpc entries at the working precision."""
    return tuple(tuple(to_mpc(x) for x in r) for r in m)


class _Triple:
    """(M, X, kappa), the form of group and Lie algebra elements alike: exact,
    stored as GaussianRational, when every entry is int, Fraction or
    GaussianRational.  Each subclass checks its invariants in ``_validate``."""

    __slots__ = ("M", "X", "kappa", "N", "exact")

    def __init__(self, M, X, kappa, check: bool = True):
        M, X, kappa = map(linalg.mat, (M, X, kappa))
        self.exact = _is_exact(M) and _is_exact(X) and _is_exact(kappa)
        if self.exact:
            M, X, kappa = map(linalg.to_gaussian, (M, X, kappa))
        self.M, self.X, self.kappa = M, X, kappa
        self.N = len(X)
        if check:
            self._validate()

    def __repr__(self):
        return f"{type(self).__name__}(M={self.M}, X={self.X}, kappa={self.kappa})"


class GroupElement(_Triple):
    """(M, X, kappa) with det M = 1 and kappa + X J2 X^T / 2 symmetric."""

    __slots__ = ()

    def _validate(self):
        if linalg.dims(self.M) != (2, 2):
            raise MalformedElementError("M must be 2x2")
        if linalg.dims(self.X) != (self.N, 2) or linalg.dims(self.kappa) != (self.N, self.N):
            raise MalformedElementError("X must be Nx2 and kappa NxN")
        d = linalg.det(self.M)
        sym = linalg.add(self.kappa, linalg.scale(Fraction(1, 2), linalg.mul(
            linalg.mul(self.X, J2), linalg.transpose(self.X))))
        if self.exact:
            if d != GaussianRational(1):
                raise MalformedElementError(f"det(M) = {d} != 1")
            if sym != linalg.transpose(sym):
                raise MalformedElementError("kappa + X J2 X^T / 2 is not symmetric")
        else:
            if abs(complex(d) - 1) > NUMERIC_TOL:
                raise MalformedElementError(f"det(M) deviates from 1 by {abs(complex(d)-1)}")
            if _sym_defect(sym) > NUMERIC_TOL:
                raise MalformedElementError("kappa + X J2 X^T / 2 is not symmetric")

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.M == other.M and self.X == other.X and self.kappa == other.kappa
        )

    def to_numeric(self) -> "GroupElement":
        """Copy with entries converted to mpc at current working precision."""
        return GroupElement(_numeric(self.M), _numeric(self.X), _numeric(self.kappa),
                            check=False)


def jacobi_identity_element(N: int) -> GroupElement:
    return GroupElement(linalg.identity(2), linalg.zeros(N, 2), linalg.zeros(N, N))


def jacobi_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """(M, X, k)(M', X', k') = (MM', XM' + X', k + k' - X M' J2 X'^T)."""
    if g.N != h.N:
        raise MalformedElementError("rank mismatch")
    MM = linalg.mul(g.M, h.M)
    XM = linalg.mul(g.X, h.M)
    XX = linalg.add(XM, h.X)
    cross = linalg.mul(linalg.mul(XM, J2), linalg.transpose(h.X))
    kk = linalg.sub(linalg.add(g.kappa, h.kappa), cross)
    return GroupElement(MM, XX, kk, check=False)


def jacobi_inv(g: GroupElement) -> GroupElement:
    """Inverse; for M in SL2 the central part is -kappa - X J2 X^T."""
    Minv = linalg.scale(Fraction(1) / linalg.det(g.M), linalg.adjugate(g.M))
    Xinv = linalg.neg(linalg.mul(g.X, Minv))
    kinv = linalg.neg(linalg.add(
        g.kappa, linalg.mul(linalg.mul(g.X, J2), linalg.transpose(g.X))))
    return GroupElement(Minv, Xinv, kinv, check=False)


class AlgebraElement(_Triple):
    """(M, X, kappa) with tr M = 0 and kappa symmetric."""

    __slots__ = ()

    def _validate(self):
        tr = self.M[0][0] + self.M[1][1]
        if self.exact:
            if tr != GaussianRational(0):
                raise MalformedElementError("M is not traceless")
            if self.kappa != linalg.transpose(self.kappa):
                raise MalformedElementError("kappa is not symmetric")
        elif abs(complex(tr)) > NUMERIC_TOL or _sym_defect(self.kappa) > NUMERIC_TOL:
            raise MalformedElementError("algebra element invariants violated")

    def bracket(self, other: "AlgebraElement") -> "AlgebraElement":
        """([M,M'], XM' - X'M, X' J2 X^T - X J2 X'^T)."""
        Mb = linalg.sub(linalg.mul(self.M, other.M), linalg.mul(other.M, self.M))
        Xb = linalg.sub(linalg.mul(self.X, other.M), linalg.mul(other.X, self.M))
        kb = linalg.sub(
            linalg.mul(linalg.mul(other.X, J2), linalg.transpose(self.X)),
            linalg.mul(linalg.mul(self.X, J2), linalg.transpose(other.X)),
        )
        return AlgebraElement(Mb, Xb, kb, check=False)

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(
            linalg.add(self.M, other.M), linalg.add(self.X, other.X),
            linalg.add(self.kappa, other.kappa), check=False,
        )

    def basis_coefficients(self) -> dict:
        """Coordinates over {E, F, H, e_i, f_i, Z_ij} (exact elements only)."""
        if not self.exact:
            raise DomainError("basis coordinates require exact entries")
        out = {"E": self.M[0][1], "F": self.M[1][0], "H": self.M[0][0]}
        for i in range(self.N):
            out[f"e{i + 1}"] = self.X[i][1]
            out[f"f{i + 1}"] = self.X[i][0]
        for i in range(self.N):
            for j in range(i, self.N):
                c = self.kappa[i][j]
                out[f"Z{i + 1}{j + 1}"] = c if i == j else 2 * c
        return out


class Point:
    """A point (tau, z) of H x C^N, or the coordinate jets at such a point."""

    __slots__ = ("tau", "z")

    def __init__(self, tau, z=()):
        self.tau = tau
        self.z = tuple(z)
        if _imag(tau) <= 0:
            raise DomainError("Im(tau) must be positive")

    def __repr__(self):
        return f"Point({self.tau}, {self.z})"


def _imag(x):
    if isinstance(x, GaussianRational):
        return x.im
    if isinstance(x, Jet):
        x = x.value
    return mp.mpc(x).imag


def mobius(M, tau, beta):
    """M tau = (a tau + b) beta, given beta = beta(M, tau)."""
    a, b = M[0]
    return (a * tau + b) * beta


def cocycle_beta(M, tau):
    """beta(M, tau) = (c tau + d)^{-1}."""
    c, d = M[1]
    den = c * tau + d
    if isinstance(den, GaussianRational):
        return den.inverse()
    if isinstance(den, Jet):
        return den.reciprocal()
    return 1 / den


def act_coordinates(g, tau, z):
    """The coordinates (M tau, beta (z + X1 tau + X2)) of g (tau, z), and
    beta = beta(M, tau).

    Only +, * and / enter, so the map also carries coordinate jets, and for
    the real group it maps (taubar, zbar) by the same formula.  DomainError
    unless z has g's rank N.
    """
    _check_z(g, z)
    M, X = g.M, g.X
    beta = cocycle_beta(M, tau)
    znew = tuple((zj + X[j][0] * tau + X[j][1]) * beta for j, zj in enumerate(z))
    return mobius(M, tau, beta), znew, beta


def _check_z(g, z):
    if len(z) != g.N:
        raise DomainError(f"a z of {len(z)} entries for a group element of rank {g.N}")


def act(g, p: Point) -> Point:
    """Left action (M, X)(tau, z) = (M tau, beta (z + X1 tau + X2))."""
    tau, z, _ = act_coordinates(g, p.tau, p.z)
    return Point(tau, z)


def cocycle_a(g: GroupElement, p: Point):
    """The symmetric-matrix-valued cocycle underlying alpha_L; exact on exact
    input, and on a point of coordinate jets the jets of a.  DomainError
    unless p.z has g's rank N."""
    _check_z(g, p.z)
    M, X, kappa = g.M, g.X, g.kappa
    N = g.N
    c = M[1][0]
    beta = cocycle_beta(M, p.tau)
    x1 = tuple(X[j][0] for j in range(N))
    x2 = tuple(X[j][1] for j in range(N))
    w = tuple(p.z[j] + x1[j] * p.tau + x2[j] for j in range(N))
    rows = []
    for i in range(N):
        row = []
        for j in range(N):
            val = (
                kappa[i][j]
                + x2[i] * x1[j]
                + x1[i] * p.z[j] + p.z[i] * x1[j]
                + x1[i] * x1[j] * p.tau
                - c * beta * w[i] * w[j]
            )
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def cocycle_alpha(L, g: GroupElement, p: Point, ctx: PrecisionContext):
    """alpha_L = exp(2 pi i tr(L a(g, p))), evaluated numerically."""
    return _alpha_of_a(L, cocycle_a(g, p), ctx)


def _alpha_of_a(L, a, ctx: PrecisionContext):
    """exp(2 pi i tr(L a)) for an a = a(g, p) already computed, where an
    exact L and a give an exact tr(L a), rounded once; DomainError unless L
    has the size of a."""
    if len(L) != len(a):
        raise DomainError(f"an L of rank {len(L)} for a cocycle of rank {len(a)}")
    with ctx.working():
        if _is_exact(L) and _is_exact(a):
            tr = to_mpc(linalg.trace_mul(L, a))
        else:
            tr = linalg.trace_mul(_numeric(L), _numeric(a))
        return mp.exp(2j * mp.pi * tr)


def weight_gap(k, kprime) -> int:
    """k - k', which the slash action requires to be an integer."""
    gap = Fraction(k) - Fraction(kprime)
    if gap.denominator != 1:
        raise DomainError("slash action requires k - k' to be an integer")
    return int(gap)


def automorphy_factor(weights, L, g: GroupElement, p: Point,
                      ctx: PrecisionContext):
    """beta^(k-k') |beta|^(2k') alpha_L(g, p) for each (k, k') in
    ``weights``: the factors the slash action puts in front of f(g p).
    beta, |beta|^2 and alpha_L are weight-free, so each is computed once.

    ``g`` and ``p`` are numeric and the caller holds the working-precision
    block; ``ctx`` sets the precision of alpha_L.  Raises DomainError
    unless each k - k' is an integer.
    """
    beta = cocycle_beta(g.M, p.tau)
    if any(kprime for _, kprime in weights):
        modulus = (beta * mp.conj(beta)).real
    alpha = cocycle_alpha(L, g, p, ctx)
    out = []
    for k, kprime in weights:
        w = beta ** weight_gap(k, kprime)
        if kprime:
            w *= modulus ** to_mpf(Fraction(kprime))
        out.append(w * alpha)
    return out


def slash(f, k, kprime, L, g: GroupElement, ctx: PrecisionContext):
    """Right slash action on function handles.

    Returns p -> beta^(k-k') |beta|^(2k') alpha_L(g,p) f(g p).  Requires
    k - k' to be an integer; the split keeps the power single-valued for
    arbitrary rational weights.
    """
    weight_gap(k, kprime)

    def slashed(p: Point):
        with ctx.working():
            gm = g if not g.exact else g.to_numeric()
            pm = Point(to_mpc(p.tau), tuple(to_mpc(zj) for zj in p.z))
            return automorphy_factor([(k, kprime)], L, gm, pm, ctx)[0] * f(act(gm, pm))

    return slashed


# -- exponential map and embeddings -------------------------------------------


# expm refuses ||A|| >= 2^_EXPM_NORM_BITS, whose fixed-point integers would
# need more than 3 * 2^_EXPM_NORM_BITS bits above the working precision
_EXPM_NORM_BITS = 12
_J2 = fixedpoint.matrix(J2)


def _guard(norm_bits: int, s: int = 0) -> int:
    """The fixed-point scale P of an exponential series: the working bits,
    plus s bits for s squarings, bits for the number of terms (at most the
    working bits), and ``norm_bits`` for the growth the norm allows."""
    return mp.prec + s + mp.prec.bit_length() + norm_bits


def _exp_series_2x2(M, ctx: PrecisionContext):
    """exp, g, h power series on a 2x2 integer matrix, in fixed point at
    2^-P, with rigorous tail control.

    g(z) = (e^z - 1)/z and h(z) = (e^z - z - 1)/z^2.  Only h(M) = sum
    M^n/(n+2)! is summed; then g(M) = 1 + M h(M) and e^M = 1 + M g(M).
    By Cayley-Hamilton, M^2 = t M - d I with t = tr M and d = det M, so the
    term M^n/(n+2)! is p_n M + q_n I, with p_0 = 0, q_0 = 1/2 and
    p_n = (t p_{n-1} + q_{n-1})/(n+2), q_n = -d p_{n-1}/(n+2): two scalar
    series, which hold for any trace.

    With ||M|| < 2^b, each step floors p_n and q_n, less than 2 units of
    2^-P each, so less than 2^(b+1) + 2 units in p_n M + q_n I.  The
    recurrence carries that error on as the series carries a term, times
    M^j (n+2)!/(n+2+j)!, which is below e^(2^b) in norm summed over j.  So
    with n terms, h(M) is within n (2^(b+1) + 2) e^(2^b) + 3 units of its
    sum, and the two products by M scale the error by at most (1 + 2^b)^2:
    below n 2^23 units for b <= 3, where the guard adds 18 bits, and below
    n 2^(2^b log2(e) + 3b + 2) above, where it adds 3 2^b bits, as ``expm``
    does.  The series stops only after 2 ||M|| terms, so MAX_TERMS refuses
    a norm of MAX_TERMS / 2 or more.
    """
    b = fixedpoint.norm_exponent(M)
    P = _guard(18 if b <= 3 else 3 << b)
    M = fixedpoint.rescale(M, -P)
    (r00, r01), (r10, r11) = M[0]
    (i00, i01), (i10, i11) = M[1]
    # t at 2^-P and d at 2^-2P, exactly
    tr, ti = r00 + r11, i00 + i11
    dr = r00 * r11 - i00 * i11 - r01 * r10 + i01 * i10
    di = r00 * i11 + i00 * r11 - r01 * i10 - i01 * r10
    P2 = 2 * P
    pr = pi = qi = 0
    qr = 1 << (P - 1)
    hp_r = hp_i = hq_i = 0
    hq_r = qr
    norm = fixedpoint.row_norm(M)
    # norm^(n+1)/(n+1)! at 2^-P, rounded up, bounds the tails of all three
    # series after their terms in M^n
    tail = norm
    tol = 1 << (P - ctx.bits - 16)
    n = 0
    while True:
        n += 1
        if n > MAX_TERMS:
            ctx.exhausted("matrix exponential series")
        k = n + 2
        pr, pi, qr, qi = (
            (((tr * pr - ti * pi) >> P) + qr) // k,
            (((tr * pi + ti * pr) >> P) + qi) // k,
            ((di * pi - dr * pr) >> P2) // k,
            (-(dr * pi + di * pr) >> P2) // k,
        )
        hp_r += pr
        hp_i += pi
        hq_r += qr
        hq_i += qi
        tail = -((-tail * norm >> P) // (n + 1))
        # once the ratio bound norm/(n+1) < 1/2, the remaining tail is below
        # twice the next term bound
        if 2 * norm < (n + 1) << P and tail < tol:
            break
    # h(M) = (sum p_n) M + (sum q_n) I
    rows = list(zip(*M[:2]))
    h_acc = fixedpoint.add(
        ([[(hp_r * x - hp_i * y) >> P for x, y in zip(u, v)] for u, v in rows],
         [[(hp_r * y + hp_i * x) >> P for x, y in zip(u, v)] for u, v in rows], -P),
        ([[hq_r, 0], [0, hq_r]], [[hq_i, 0], [0, hq_i]], -P))
    one = fixedpoint.identity(2, -P)
    g_acc = fixedpoint.add(one, fixedpoint.matmul(M, h_acc, P))
    return fixedpoint.add(one, fixedpoint.matmul(M, g_acc, P)), g_acc, h_acc


def jacobi_exp(Y: AlgebraElement, ctx: PrecisionContext) -> GroupElement:
    """exp(M, X, kappa) = (e^M, X g(M), kappa - X h(M) J2 X^T).

    The series run in fixed point at a scale that grows with ||M||, X and
    kappa enter exactly, and each entry is rounded once.  No element is
    halved and squared: with a trace, as a numeric M may carry, exp(Y/2)
    is not in the group.  Raises DomainError on a non-finite entry.
    """
    with ctx.working():
        M, X, kappa = (fixedpoint.matrix(_numeric(m)) for m in (Y.M, Y.X, Y.kappa))
        eM, gM, hM = _exp_series_2x2(M, ctx)
        XhJ = fixedpoint.matmul(fixedpoint.matmul(X, hM), _J2)
        corr = fixedpoint.matmul(XhJ, fixedpoint.transpose(X))
        return GroupElement(fixedpoint.to_mpc(eM), fixedpoint.to_mpc(fixedpoint.matmul(X, gM)),
                            fixedpoint.to_mpc(fixedpoint.add(kappa, corr, -1)), check=False)


def expm(A, ctx: PrecisionContext):
    """Scaling-and-squaring exponential of a general square matrix, in
    fixed point at 2^-P, each entry rounded once; DomainError on a
    non-finite entry.

    A is scaled by 2^-s to ||A|| < 1/2 (max row sum, up to the rounding of
    A to 2^-P), so past the first each term bound ||A||^k/k! is below half
    the one before, and the series sum_k A^k/k! is cut after A^m, m the
    least degree whose first term left out is bounded below
    tol = 2^-(bits+16): the tail is below 2 tol.  The truncated series is
    evaluated by Paterson-Stockmeyer (Higham, Functions of Matrices, 2008,
    4.2), with about 2 sqrt(m) products in place of m: the powers
    A^0..A^q, q = floor(sqrt(m+1)), the blocks
    B_j = sum_i floor(2^P/(jq+i)!) A^i, each entry one exact integer sum
    floored once, and Horner's rule in A^q.

    Each floor costs under 1 unit of 2^-P in each real part, under 2n in
    norm for an n x n matrix, and each coefficient's floor under ||A^i||
    units.  So the powers are within 4n units of A^i, the blocks within
    16n of B_j, and since ||A^q|| < 1/2 and each partial sum is below
    e^(1/2) < 2 in norm, Horner's rule ends within 52n units of the
    truncated series.  P holds at least prec.bit_length() + 3 bits above
    the working precision prec, so that is below one of its units while
    52n < 2^(prec.bit_length() + 3): n < 40 at 128 bits.

    Kept independent of jacobi_exp on purpose: it is the oracle the
    exponential map is tested against.
    """
    with ctx.working():
        A = fixedpoint.matrix(_numeric(A))
        t = fixedpoint.norm_exponent(A)
        if t > _EXPM_NORM_BITS:
            raise PrecisionError(f"expm: a norm up to 2^{t} is beyond the fixed-point "
                                 f"range, 2^{_EXPM_NORM_BITS}")
        # ||A / 2^s|| < 2^(t - s) <= 1/2; the error of s squarings grows by
        # at most 2^s e^||A||, and |e^A| >= e^-||A||, so P adds 3 ||A|| bits
        s = max(0, t + 1)
        P = _guard(3 << max(t, 0), s)
        A = fixedpoint.rescale(fixedpoint.scaled(A, s), -P)
        norm = fixedpoint.row_norm(A)
        tol = 1 << (P - ctx.bits - 16)
        # norm^(m+1)/(m+1)! at 2^-P, rounded up
        m, tail = 0, norm
        while tail >= tol:
            m += 1
            if m > MAX_TERMS:
                ctx.exhausted("expm series")
            tail = -((-tail * norm >> P) // (m + 1))
        q = isqrt(m + 1)
        powers = [fixedpoint.identity(len(A[0]), -P), A]
        while len(powers) <= q:
            powers.append(fixedpoint.matmul(powers[-1], A, P))
        # 1/k! at 2^-P, floored
        coeffs = [(1 << P) // factorial(k) for k in range(m + 1)]
        # Horner's rule in A^q, from the last block, which may be short
        j = m - m % q
        acc = fixedpoint.lincomb(coeffs[j:], powers[:m + 1 - j], P)
        while j:
            j -= q
            acc = fixedpoint.add(fixedpoint.matmul(powers[q], acc, P),
                                 fixedpoint.lincomb(coeffs[j:j + q], powers[:q], P))
        for _ in range(s):
            acc = fixedpoint.matmul(acc, acc, P)
        return fixedpoint.to_mpc(acc)


def embed_group(g: GroupElement):
    """(2N+2)-dimensional matrix embedding of the group."""
    N = g.N
    MJX = linalg.neg(linalg.mul(linalg.mul(g.M, J2), linalg.transpose(g.X)))
    return _blocks(N, linalg.identity(N), g.X, g.kappa, g.M, MJX, linalg.identity(N))


def embed_algebra(Y: AlgebraElement):
    """(2N+2)-dimensional matrix embedding of the Lie algebra."""
    N = Y.N
    JX = linalg.neg(linalg.mul(J2, linalg.transpose(Y.X)))
    return _blocks(N, linalg.zeros(N, N), Y.X, Y.kappa, Y.M, JX, linalg.zeros(N, N))


def _blocks(N, tl, X, kappa, M, corner, br):
    rows = [tuple(tl[i]) + tuple(X[i]) + tuple(kappa[i]) for i in range(N)]
    rows += [(0,) * N + tuple(M[i]) + tuple(corner[i]) for i in range(2)]
    rows += [(0,) * (N + 2) + tuple(br[i]) for i in range(N)]
    return linalg.mat(rows)
