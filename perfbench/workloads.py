"""Seeded request generators for the four benchmark workloads.

A workload run repeats one round of CLI requests.  The round is drawn from
``random.Random`` seeded with (workload, seed), so the same seed always
gives the same requests.  Every round has the same composition: each
request kind of the workload once for every Gram matrix of the ranks it
covers, at sizes (c-range, ``cmax``, ``samples``), weights and spectral
parameters fixed per matrix.  The seed draws the indices, the number of
repeats of each ``repeat`` request, and the order.  Repeating one round
makes the rounds of a run identical work, and the fixed composition and
sizes keep different seeds close.

Drawing indices needs ``maassjacobi.lattice``, which is imported only when
a round is made, so that ``run.py`` can read ``WORKLOADS`` without the
toolkit on its path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Even positive-definite Gram matrices, as CLI literals, by rank.
GRAMS = {
    1: ["1", "2", "3"],
    2: ["2,1;1,2", "2,0;0,4", "1,1/2;1/2,1"],
    3: ["2,1,0;1,2,1;0,1,2"],
}

BITS = "128"

WORKLOADS = ("series", "operators", "exact", "repeat")

# Seconds one round takes on the machine the benchmark was written on (2-vCPU
# Xeon VM, Python 3.11, pure-Python mpmath), in a spell where it ran about a
# third slower than its fastest.  A run of S seconds makes S / ROUND_SECONDS
# timed rounds whatever the speed of the code under test.
ROUND_SECONDS = {"series": 2.0, "operators": 2.5, "exact": 4.0, "repeat": 2.0}


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what its output check needs."""

    argv: tuple
    kind: str                      # verify | kloosterman | poincare | skew-poincare
    N: int
    params: dict = field(default_factory=dict)


def parse_gram(text: str):
    return [[Fraction(x) for x in row.split(",")] for row in text.split(";")]


def _vec(v) -> str:
    # passed as --r=<vec>: argparse would read a leading '-' as an option
    return ",".join(str(x) for x in v)


def _index(rng, gram: str, N: int, want):
    """Draw (n, r) with ``want(D)`` true for the seed discriminant D."""
    from maassjacobi.lattice import GramLattice, discriminant
    L = GramLattice(parse_gram(gram))
    while True:
        n = rng.randint(-2, 2)
        r = [rng.randint(-1, 1) for _ in range(N)]
        if want(discriminant(L, n, r)):
            return n, r


def _verify(suite, gram, N, *extra):
    return Request(("verify", suite, "--L", gram, "--precision-bits", BITS) + extra,
                   "verify", N, {"suite": suite})


def _kloosterman(rng, gram, N, hi):
    lo = rng.randint(1, 3)
    n, nprime = rng.randint(-3, 3), rng.randint(-3, 3)
    r = [rng.randint(-2, 2) for _ in range(N)]
    rprime = [rng.randint(-2, 2) for _ in range(N)]
    argv = ("kloosterman", f"--c={lo}:{hi}", "--L", gram, f"--n={n}",
            f"--r={_vec(r)}", f"--nprime={nprime}", f"--rprime={_vec(rprime)}",
            "--precision-bits", BITS, "--no-cache")
    return Request(argv, "kloosterman", N,
                   {"gram": gram, "c": (lo, hi), "n": n, "r": r,
                    "nprime": nprime, "rprime": rprime})


# (poincare weight k, spectral parameter s, skew-poincare weight k) by Gram
# matrix.  Fixed, because they set the cost of a table (at N=2, k=1 with
# s=5/2 or k=2 with s=3 costs three times the other pairs); together the
# matrices cover every pair.
WEIGHTS = {
    "1": (1, "5/2", 3), "2": (2, "5/2", 4), "3": (1, "3", 3),
    "2,1;1,2": (1, "5/2", 3), "2,0;0,4": (2, "5/2", 4), "1,1/2;1/2,1": (2, "3", 3),
}


def _poincare(rng, gram, N, cmax, jobs):
    k, s, _ = WEIGHTS[gram]
    n, r = _index(rng, gram, N, lambda D: D != 0)
    argv = ("poincare", "--k", str(k), "--L", gram, "--s", s, f"--n={n}",
            f"--r={_vec(r)}", "--window", "1", "--cmax", str(cmax),
            "--precision-bits", BITS, "--jobs", str(jobs))
    if jobs == 1:
        argv += ("--no-cache",)
    return Request(argv, "poincare", N,
                   {"gram": gram, "k": k, "s": s, "n": n, "r": r, "cmax": cmax})


def _skew_poincare(rng, gram, N, cmax):
    k = WEIGHTS[gram][2]
    n, r = _index(rng, gram, N, lambda D: D > 0)
    argv = ("skew-poincare", "--k", str(k), "--L", gram, f"--n={n}",
            f"--r={_vec(r)}", "--window", "2", "--cmax", str(cmax),
            "--precision-bits", BITS, "--no-cache")
    return Request(argv, "skew-poincare", N,
                   {"gram": gram, "k": k, "n": n, "r": r, "cmax": cmax})


# Sizes of each request kind by Gram matrix, fixed so that every seed asks
# for the same amount of work: (kloosterman c_max, poincare cmax,
# skew-poincare cmax, kloosterman-symmetry samples, duality cmax).
SERIES_SIZES = {
    "1": (12, 8, 10, 15, 4), "2": (12, 8, 10, 15, 4), "3": (12, 8, 10, 15, 4),
    "2,1;1,2": (6, 3, 3, 2, 2), "2,0;0,4": (6, 3, 3, 2, 2),
    "1,1/2;1/2,1": (6, 3, 3, 2, 2),
}

# (covariance samples, cocycle samples) by Gram matrix.
OPERATOR_SIZES = {
    "1": (2, 10), "2": (2, 10), "3": (2, 10),
    "2,1;1,2": (1, 10), "2,0;0,4": (1, 10), "1,1/2;1/2,1": (1, 10),
}


def _series(rng):
    reqs = []
    for N in (1, 2):
        for gram in GRAMS[N]:
            c_hi, p_cmax, s_cmax, samples, d_cmax = SERIES_SIZES[gram]
            reqs.append(_kloosterman(rng, gram, N, c_hi))
            reqs.append(_poincare(rng, gram, N, p_cmax, jobs=1))
            reqs.append(_skew_poincare(rng, gram, N, s_cmax))
            reqs.append(_verify("kloosterman-symmetry", gram, N, "--samples", str(samples)))
            reqs.append(_verify("duality", gram, N, "--cmax", str(d_cmax)))
    return reqs


def _operators(rng):
    reqs = []
    for N in (1, 2):
        for gram in GRAMS[N]:
            samples, cocycle_samples = OPERATOR_SIZES[gram]
            reqs.append(_verify("covariance", gram, N, "--samples", str(samples)))
            reqs.append(_verify("eigen", gram, N))
            reqs.append(_verify("cocycle", gram, N, "--samples", str(cocycle_samples)))
    return reqs


def _exact(rng):
    return [_verify(suite, gram, N)
            for N in (1, 2, 3) for gram in GRAMS[N]
            for suite in ("commutators", "centrality", "casimir-equality", "bridge")]


def _repeat(rng):
    reqs = []
    copies = [2, 2, 3, 3, 4, 4]
    rng.shuffle(copies)
    copies = iter(copies)
    for N in (1, 2):
        for gram in GRAMS[N]:
            req = _poincare(rng, gram, N, 10 if N == 1 else 3, jobs=2)
            reqs.extend([req] * next(copies))
    return reqs


_GENERATORS = {"series": _series, "operators": _operators, "exact": _exact,
               "repeat": _repeat}


def make_round(workload: str, seed: int) -> list:
    """The shuffled request list that a run of ``workload`` repeats."""
    rng = random.Random(f"maassjacobi-perfbench:{workload}:{seed}")
    reqs = _GENERATORS[workload](rng)
    rng.shuffle(reqs)
    return reqs
