from fractions import Fraction

import pytest
from mpmath import mp

from maassjacobi import linalg
from maassjacobi.gaussian import GaussianRational
from maassjacobi.group import AlgebraElement, GroupElement
from maassjacobi.precision import PrecisionContext

J2 = ((0, -1), (1, 0))


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(bits=128)


def random_sl2(rng, steps=4):
    m = linalg.identity(2, GaussianRational(1), GaussianRational(0))
    for _ in range(steps):
        t = GaussianRational(rng.randint(-3, 3))
        if rng.random() < 0.5:
            e = ((GaussianRational(1), t), (GaussianRational(0), GaussianRational(1)))
        else:
            e = ((GaussianRational(1), GaussianRational(0)), (t, GaussianRational(1)))
        m = linalg.mul(m, e)
    return m


def random_group_element(N, rng):
    M = random_sl2(rng)
    X = [[GaussianRational(rng.randint(-3, 3)) for _ in range(2)] for _ in range(N)]
    S = [[GaussianRational(rng.randint(-3, 3)) for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(i):
            S[i][j] = S[j][i]
    Xm = linalg.mat(X)
    j2 = linalg.to_gaussian(J2)
    XJX = linalg.mul(linalg.mul(Xm, j2), linalg.transpose(Xm))
    kap = linalg.sub(linalg.mat(S), linalg.scale(GaussianRational(Fraction(1, 2)), XJX))
    return GroupElement(M, X, kap)


def random_algebra_element(N, rng):
    a = GaussianRational(rng.randint(-2, 2))
    M = ((a, GaussianRational(rng.randint(-2, 2))),
         (GaussianRational(rng.randint(-2, 2)), -a))
    X = [[GaussianRational(rng.randint(-2, 2)) for _ in range(2)] for _ in range(N)]
    S = [[GaussianRational(rng.randint(-2, 2)) for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(i):
            S[i][j] = S[j][i]
    return AlgebraElement(M, X, S)


def random_point(N, rng):
    tau = mp.mpc(rng.uniform(-0.8, 0.8), rng.uniform(0.6, 1.5))
    z = [mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(N)]
    return tau, z
