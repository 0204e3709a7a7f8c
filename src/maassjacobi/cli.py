"""Command-line front end: verification suites, series computation,
coefficient tables, caching, machine-readable JSON output.

Each option is declared once, as its parse function and the text of its
default (``GLOBAL_OPTIONS`` and ``COMMANDS``).  ``_resolve`` applies flags >
config file > defaults in one place, and a config value goes through the
same parse function as a flag; the config file is flat ``key = value``
text.  Identical (command, config, precision) produce byte-identical
output; every failure exits nonzero with a structured error object.

Exit codes: 0 success (and, for ``verify``, every check passed);
1 a verification check failed; 2 usage or configuration error, a malformed
value or an unknown flag included; 3 a domain/computation error surfaced
from the library.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Callable, NamedTuple

from mpmath import mp

from . import cache, linalg
from .enveloping import build_casimir, check_centrality
from .errors import MaassJacobiError, UsageError
from .fourier import (
    FourierExpansion,
    coeff_pair,
    phi_seed,
    casimir_exact_residuals,
    casimir_residual,  # unused here; the benchmark tracer patches this binding
    theta_decompose_semi,
    theta_klr,
    theta_lmu,
    specialize_torsion,
)
from .gaussian import GaussianRational
from .lattice import GramLattice, discriminant
from .opcalc import (
    DiffOp,
    OpRing,
    bridge_check,
    build_casimir_op,
    build_casimir_RL,
    build_D_minus,
    build_heat,
    build_laplace,
    build_raising_lowering,
    calL,
    covariance_residuals,
    d_minus_direct,
    random_algebra_element,
    random_group_element,
    random_point,
    semiholomorphic_casimir,
)
from .precision import PrecisionContext, mpf_str, to_fraction, to_mpc
from .series import (
    annihilation_roots,
    casimir_eigenvalue,
    duality_report,
    kloosterman,
    poincare_csum,  # unused here; the benchmark tracer patches this binding
    poincare_table,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


def parse_rational_matrix(text: str):
    """Rows separated by ';', entries by ','; entries are rationals a/b, and
    an empty one is a ValueError."""
    return [_rationals(row) for row in text.split(";")]


def parse_vector(text: str):
    return [int(x) for x in text.split(",")]


def _rationals(text: str):
    return [Fraction(x) for x in text.split(",")]


def _c_range(text: str):
    """'c', or 'lo:hi' with lo <= hi and both ends included."""
    lo, sep, hi = text.partition(":")
    cs = list(range(int(lo), int(hi) + 1)) if sep else [int(text)]
    if not cs:
        raise ValueError("the range is empty")
    return cs


def _at_least(lo: int):
    """The parse function of an integer option that must be at least lo."""
    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise ValueError(f"must be at least {lo}")
        return n
    return parse


class Option(NamedTuple):
    """The function that parses an option's text, from a flag and from a
    config file alike, and the text of its default.  Without a parse
    function it is a switch: a flag with no value and no config key."""

    parse: Callable | None = None
    default: str | None = None
    flag: str | None = None   # when it is not --<name>
    help: str | None = None


SWITCH = Option()


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path!r} is not UTF-8: {exc}") from None
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def emit(args, obj: dict) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if args is not None and args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def fail(args, exc: Exception, code: int) -> int:
    """Emit ``exc`` as the JSON error object; on stdout, exit 2, if --out fails."""
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    try:
        emit(args, obj)
    except OSError:
        emit(None, obj)
        return EXIT_USAGE
    return code


# -- verification suites: the one definition of each check and its tolerance;
# tests/test_acceptance.py runs these same functions --------------------------


def _check(name, ok, detail=None):
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if detail is not None:
        entry["detail"] = detail
    return entry


def _residual_check(name, residual, tol: str, detail=None):
    """A check that passes when ``residual`` is below ``tol``, with the
    residual as its detail unless another is given."""
    return _check(name, residual < mp.mpf(tol),
                  detail=mpf_str(residual) if detail is None else detail)


def suite_commutators(L, ctx, samples):
    N = L.N
    checks = []
    ops = build_raising_lowering(L)
    R = OpRing(N)
    k = R.ring.var("k")
    Xp, Xm, Yp, Ym = ops["X+"], ops["X-"], ops["Y+"], ops["Y-"]
    checks.append(_check("[X-,X+] = -k", Xm.commutator(Xp) == DiffOp.multiplication(R, -k)))
    cl = calL(R, L)
    ok = all(
        Ym[j].commutator(Yp[jp]) == DiffOp.multiplication(
            R, cl[j][jp].scale(GaussianRational(0, 1)))
        for j in range(N) for jp in range(N)
    )
    checks.append(_check("[Y-_j, Y+_j'] = i calL_jj'", ok))
    checks.append(_check("[X-, Y+_j] = -Y-_j",
                         all(Xm.commutator(Yp[j]) == -Ym[j] for j in range(N))))
    checks.append(_check("[Y-_j, X+] = Y+_j",
                         all(Ym[j].commutator(Xp) == Yp[j] for j in range(N))))
    same = [Xp.commutator(Yp[j]).is_zero() and Xm.commutator(Ym[j]).is_zero()
            for j in range(N)]
    # an exact commutator is antisymmetric by construction: one bracket a pair
    same += [Yp[i].commutator(Yp[j]).is_zero() and Ym[i].commutator(Ym[j]).is_zero()
             for i in range(N) for j in range(i + 1, N)]
    checks.append(_check("raising (lowering) operators commute", all(same)))
    return checks


def suite_centrality(L, ctx, samples):
    bad = check_centrality(build_casimir(L.N))
    return [_check(f"[Omega_{L.N}, g] = 0 for all generators", not bad,
                   detail=[b[0] for b in bad] or "exact")]


def suite_casimir_equality(L, ctx, samples):
    a = build_casimir_op(L)
    b = build_casimir_RL(L)
    checks = [_check("coordinate Casimir equals raising/lowering assembly", a == b)]
    checks.append(_check("semi-holomorphic restriction matches",
                         a.restrict_semiholomorphic() == semiholomorphic_casimir(L)))
    checks.append(_check("D- = X- - (i/2) L^{-1}[Y-] matches direct form",
                         build_D_minus(L) == d_minus_direct(L)))
    return checks


def suite_bridge(L, ctx, samples):
    lhs, rhs, eq, xu_free = bridge_check(L)
    return [
        _check("uea image of Omega_N equals det(calL)(k(k-N-2) - 2C)", eq),
        _check("bridge image is free of x and u", xu_free),
    ]


def suite_cocycle(L, ctx, samples):
    # imported here, so that the benchmark tracer's patches of group are seen
    from .group import (
        Point, _alpha_of_a, act, cocycle_a, embed_algebra, embed_group, expm, jacobi_exp,
        jacobi_mul,
    )

    def exact(x):
        # a point of random_point is built from floats: a dyadic rational
        return GaussianRational(to_fraction(x.real), to_fraction(x.imag))

    rng = random.Random(4242)
    worst_a = mp.mpf(0)
    worst_alpha = mp.mpf(0)
    worst_exp = mp.mpf(0)
    with ctx.working():
        for _ in range(samples):
            g = random_group_element(L.N, rng)
            h = random_group_element(L.N, rng)
            tau, z = random_point(L.N, rng)
            p = Point(exact(tau), [exact(zj) for zj in z])
            gh, hp = jacobi_mul(g, h), act(h, p)
            a_gh, a_g, a_h = cocycle_a(gh, p), cocycle_a(g, hp), cocycle_a(h, p)
            a2 = linalg.add(a_g, a_h)
            worst_a = max([worst_a] + [abs(to_mpc(x - y)) for r1, r2 in zip(a_gh, a2)
                                       for x, y in zip(r1, r2) if x != y])
            # alpha_L is the one factor of the slash action that reads L
            lhs = _alpha_of_a(L.entries, a_gh, ctx)
            rhs = _alpha_of_a(L.entries, a_g, ctx) * _alpha_of_a(L.entries, a_h, ctx)
            worst_alpha = max(worst_alpha, abs(lhs - rhs) / abs(rhs))
        for _ in range(max(samples // 5, 5)):
            Y = random_algebra_element(L.N, rng)
            g = jacobi_exp(Y, ctx)
            resid = max(
                abs(x - y)
                for r1, r2 in zip(embed_group(g), expm(embed_algebra(Y), ctx))
                for x, y in zip(r1, r2)
            )
            worst_exp = max(worst_exp, resid)
        return [
            # an exact identity; when it fails, the largest entry of
            # a(gh, p) - a(g, hp) - a(h, p) in modulus is its detail
            _check("cocycle additivity of a", not worst_a,
                   detail=mpf_str(worst_a) if worst_a else "exact"),
            _residual_check("multiplicativity of alpha_L", worst_alpha, "1e-30"),
            _residual_check("exp matches matrix exponential", worst_exp, "1e-25"),
        ]


def covariance_jobs(L):
    """The operators of ``verify covariance``: name -> (T, k, k2, kbar, kbar2)."""
    N = L.N
    ops = build_raising_lowering(L)
    k = Fraction(3)
    jobs = {
        "X+ : k -> k+2": (ops["X+"], k, k + 2, 0, 0),
        "X- : k -> k-2": (ops["X-"], k, k - 2, 0, 0),
        "Casimir invariant": (build_casimir_op(L), k, k, 0, 0),
        "Laplace invariant": (build_laplace(L, [[1 if i == j else 0 for j in range(N)]
                                                for i in range(N)]), k, k, 0, 0),
        "D- : k -> k-2": (build_D_minus(L), k, k - 2, 0, 0),
        "heat : (N/2,kb) -> (N/2+2,kb)": (build_heat(L), Fraction(N, 2), Fraction(N, 2) + 2,
                                          Fraction(N, 2) - 1, Fraction(N, 2) - 1),
    }
    for j in range(N):
        jobs[f"Y+_{j + 1} : k -> k+1"] = (ops["Y+"][j], k, k + 1, 0, 0)
        jobs[f"Y-_{j + 1} : k -> k-1"] = (ops["Y-"][j], k, k - 1, 0, 0)
    return jobs


def suite_covariance(L, ctx, samples):
    jobs = covariance_jobs(L)
    residuals = covariance_residuals(list(jobs.values()), L, samples, ctx)
    with ctx.working():
        return [_residual_check(name, r, "1e-22") for name, r in zip(jobs, residuals)]


def eigen_grid(L):
    """The cases of ``verify eigen``: [(name, (f, k, eigenvalue))], a Whittaker
    seed f on each (k, s, n, r) of the grid; at N >= 2 two more indices
    reach the Casimir terms that (1, 0) and (-1, e_1) leave unseen."""
    N = L.N
    indices = [(1, [0] * N), (-1, [1] + [0] * (N - 1))]
    if N >= 2:
        indices += [(-1, [1] * N), (-1, [1, -1] + [0] * (N - 2))]
    grid = []
    for k in [0, 2, 3]:
        for s in annihilation_roots(k, N) + [Fraction(5, 2)]:
            for (n, r) in indices:
                grid.append((f"seed eigen k={k} s={s} (n,r)=({n},{r})",
                             (phi_seed(k, L, s, n, r), k, casimir_eigenvalue(k, N, s))))
    return grid


def suite_eigen(L, ctx, samples):
    grid = eigen_grid(L)
    residuals = casimir_exact_residuals([case for _, case in grid], build_casimir_op(L))
    return [_check(name, not (a or b), detail=[str(a), str(b)] if a or b else "exact")
            for (name, _), (a, b) in zip(grid, residuals)]


def suite_duality(L, ctx, samples, s=Fraction(5, 2), c_max=50):
    neg, pos = [], []
    for n in range(-3, 4):
        for r0 in range(0, 5):
            r = [r0] + [0] * (L.N - 1)
            D = discriminant(L, n, r)
            if D < 0 and len(neg) < 6:
                neg.append((n, r))
            if D > 0 and len(pos) < 6:
                pos.append((n, r))
    k = 1
    checks = []
    for regime, pool_b in (("D,D'<0", neg), ("D<0<D'", pos)):
        pairs = [(a, b) for a in neg[:3] for b in pool_b if a != b][:5]
        rep = duality_report(s, k, L, pairs, c_max, ctx)
        with ctx.working():
            detail = {
                "b_mean_ratio": mpf_str(rep["b_mean"]),
                "b_relative_spread": mpf_str(rep["b_relative_spread"]),
                "c_mean_ratio": None if rep["c_mean"] is None else mpf_str(rep["c_mean"]),
                "c_relative_spread": None if rep["c_relative_spread"] is None
                else mpf_str(rep["c_relative_spread"]),
            }
            checks.append(_residual_check(f"duality ratio constancy ({regime})",
                                          rep["b_relative_spread"], "1e-6", detail))
    return checks


def suite_kloosterman_symmetry(L, ctx, samples):
    rng = random.Random(7)
    worst = mp.mpf(0)
    with ctx.working():
        for _ in range(samples):
            c = rng.randint(1, 24)
            n, np_ = rng.randint(-5, 5), rng.randint(-5, 5)
            r = [rng.randint(-4, 4) for _ in range(L.N)]
            rp = [rng.randint(-4, 4) for _ in range(L.N)]
            a = kloosterman(c, L, n, r, np_, rp, ctx)
            b = kloosterman(c, L, np_, rp, n, r, ctx)
            worst = max(worst, abs(a - b))
        return [_residual_check("K(n,r,n',r') = K(n',r',n,r), c <= 24", worst, "1e-30")]


SUITES = {
    "commutators": (suite_commutators, 0),
    "centrality": (suite_centrality, 0),
    "casimir-equality": (suite_casimir_equality, 0),
    "bridge": (suite_bridge, 0),
    "cocycle": (suite_cocycle, 100),
    "covariance": (suite_covariance, 100),
    "eigen": (suite_eigen, 0),
    "duality": (suite_duality, 0),
    "kloosterman-symmetry": (suite_kloosterman_symmetry, 50),
}


def cmd_verify(args) -> int:
    suite = args.suite
    L = _lattice_of_rank(args)
    ctx = args.precision_bits
    fn, default_samples = SUITES[suite]
    read = {"samples"} if default_samples else {"s", "cmax"} if suite == "duality" else set()
    # flags only: a config file may set keys that some suites do not read
    for key in ("samples", "s", "cmax"):
        if key not in read and key in args.flags:
            raise UsageError(f"verify {suite} does not read --{key}")
    kwargs = {"s": _series_s(args, L), "c_max": args.cmax} if suite == "duality" else {}
    checks = fn(L, ctx, args.samples or default_samples, **kwargs)
    ok = all(c["status"] == "pass" for c in checks)
    emit(args, {
        "suite": suite, "N": L.N, "lattice": L.to_json_obj(),
        "precision_bits": ctx.bits, "checks": checks,
        "pass": ok,
    })
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- computation subcommands -------------------------------------------------------


def _series_s(args, L: GramLattice) -> Fraction:
    """The s of a Poincare series: --s when a flag or the config gives it,
    else the default 5/2 raised to (N + 3)/2 at rank N >= 3, where the
    series needs Re(s) > 1 + N/2."""
    return args.s if "s" in args.given else max(args.s, Fraction(L.N + 3, 2))


def _lattice(args) -> GramLattice:
    if args.L is None:
        raise UsageError("--L is required")
    return GramLattice(args.L)


def _lattice_of_rank(args) -> GramLattice:
    """--L, else the identity of rank --N (default 1); a --N that is not
    the rank of --L is a usage error."""
    L = GramLattice(linalg.identity(args.N or 1) if args.L is None else args.L)
    if args.N not in (None, L.N):
        raise UsageError(f"--N {args.N} is not the rank {L.N} of --L")
    return L


def _or_zero(vector, L: GramLattice):
    """A vector option; when it is not given, the zero vector of L's rank."""
    return [0] * L.N if vector is None else vector


def _cached(args, operation: str, key_config: dict, compute) -> int:
    payload = None if args.no_cache else cache.lookup(operation, key_config)
    if payload is None:
        result = compute()
        try:
            cache.store(operation, key_config, result)
        except OSError as exc:
            # the result is computed; a cache that cannot take it loses no output
            print(f"warning: cache entry not written ({exc})", file=sys.stderr)
        payload = json.loads(result)
    # hits and misses print the same bytes: the payload of the cached string
    emit(args, payload)
    return EXIT_OK


def cmd_kloosterman(args) -> int:
    L, ctx = _lattice(args), args.precision_bits
    r, rp = _or_zero(args.r, L), _or_zero(args.rprime, L)
    key = {"L": L.to_json_obj(), "c": args.c, "n": args.n, "r": r, "nprime": args.nprime,
           "rprime": rp, "precision_bits": ctx.bits}

    def compute():
        rows = []
        with ctx.working():
            for c in args.c:
                v = kloosterman(c, L, args.n, r, args.nprime, rp, ctx)
                rows.append({"c": c, "value": [mpf_str(v.real), mpf_str(v.imag)]})
        return json.dumps({"operation": "kloosterman", "config": key, "table": rows},
                          sort_keys=True)

    return _cached(args, "kloosterman", key, compute)


def cmd_theta(args) -> int:
    L = _lattice(args)
    # theta_klr with --k, else theta_lmu; flags only, as in verify
    with_k = args.k is not None
    for key in ("mu",) if with_k else ("r", "zeta_variant"):
        if key in args.flags:
            raise UsageError(f"theta {'with' if with_k else 'without'} --k does not read "
                             f"--{key.replace('_', '-')}")
    # mu, k and r are keyed and printed as the text they were given
    key = {"L": L.to_json_obj(), "bound": str(args.bound), "mu": args.given.get("mu"),
           "k": args.given.get("k"), "r": args.given.get("r"), "variant": args.zeta_variant}

    def compute():
        if args.k is not None:
            exp = theta_klr(args.k, L, _or_zero(args.r, L), args.bound,
                            zeta_variant=args.zeta_variant)
        else:
            exp = theta_lmu(L, _or_zero(args.mu, L), args.bound)
        return json.dumps({"operation": "theta", "config": key,
                           "expansion": json.loads(exp.to_json())}, sort_keys=True)

    return _cached(args, "theta", key, compute)


# Lattice points that a table's Kloosterman sums visit (each row sums
# c = 1..cmax, each c walks (Z/c)^N once) per pool worker.  Below two
# workers' worth the table runs in-process at any --jobs: forking a pool
# (about 10 ms) and its children's cold root-of-unity caches cost more than
# the rows.  On a 2-vCPU VM, --jobs 2 broke even with --jobs 1 between about
# 4,000 and 17,000 points.
POINTS_PER_WORKER = 4096


def cmd_poincare(args, skew=False) -> int:
    L, ctx = _lattice(args), args.precision_bits
    k, c_max, n, r, window = args.k, args.cmax, args.n, _or_zero(args.r, L), args.window
    s, y = (None, None) if skew else (_series_s(args, L), args.y)
    key = {"L": L.to_json_obj(), "k": k, "cmax": c_max, "n": n, "r": r,
           "window": window, "skew": skew, "s": None if s is None else str(s),
           "y": None if y is None else str(y), "precision_bits": ctx.bits}

    def compute():
        table = (skew, y, s, k, L, n, r, c_max, ctx)
        rows = [(np_, [rp0] + [0] * (L.N - 1))
                for np_ in range(-window, window + 1) for rp0 in range(0, window + 1)]
        points = len(rows) * sum(c ** L.N for c in range(1, c_max + 1))
        workers = min(args.jobs, len(rows), points // POINTS_PER_WORKER)
        if workers > 1:
            out = _parallel_coeff(table, rows, workers)
        else:
            out = _poincare_rows(table, rows)
        return json.dumps({"operation": "skew-poincare" if skew else "poincare",
                           "config": key, "table": out}, sort_keys=True)

    return _cached(args, "skew-poincare" if skew else "poincare", key, compute)


def _poincare_rows(table, rows):
    """The printed rows of one ``poincare_table`` call: ``table`` is its
    (skew, y, s, k, L, n, r, c_max, ctx) and ``rows`` its (n', r'), and
    each row holds the coefficient at (n', r') or the library's error."""
    skew, y, s, k, L, n, r, c_max, ctx = table
    results = poincare_table(skew, y, s, k, L, n, r, rows, c_max, ctx)
    out = []
    with ctx.working():
        for (np_, rp), result in zip(rows, results):
            row = {"nprime": np_, "rprime": rp, "D'": str(discriminant(L, np_, rp))}
            if isinstance(result, MaassJacobiError):
                row["error"] = {"type": type(result).__name__, "message": str(result)}
            else:
                v, tail = result
                row["value"] = [mpf_str(v.real), mpf_str(v.imag)]
                row["tail_ratio"] = None if tail is None else mpf_str(tail)
            out.append(row)
    return out


def _parallel_coeff(table, rows, jobs):
    """``_poincare_rows`` of one table on one pool of ``jobs`` processes,
    one contiguous chunk of its rows a worker.

    ``map`` returns the chunks in input order, and a row's bytes do not
    depend on the rows it shares a table call with, so they do not depend
    on the pool size.
    """
    size = -(-len(rows) // jobs)
    chunks = [rows[i:i + size] for i in range(0, len(rows), size)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [row for part in pool.map(functools.partial(_poincare_rows, table), chunks)
                for row in part]


def _expansion(args) -> FourierExpansion:
    if args.infile is None:
        raise UsageError(f"{args.command} requires --in FILE")
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return FourierExpansion.from_json(fh.read())
    except (ValueError, LookupError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise UsageError(f"--in {args.infile}: not an expansion file: "
                         f"{type(exc).__name__}: {exc}") from None


def cmd_decompose(args) -> int:
    f = _expansion(args)
    comps = theta_decompose_semi(f, conjugate=args.skew)
    obj = {"operation": "decompose", "lattice": f.lattice.to_json_obj(),
           "components": {}}
    for mu, comp in sorted(comps.items()):
        obj["components"][",".join(map(str, mu))] = [
            {"exponent": str(expo), "coeff": coeff_pair(c)}
            for expo, (c, _) in sorted(comp.items())
        ]
    emit(args, obj)
    return EXIT_OK


def cmd_specialize(args) -> int:
    f = _expansion(args)
    lam, mu = _or_zero(args.lam, f.lattice), _or_zero(args.mu, f.lattice)
    terms = specialize_torsion(f, lam, mu)
    emit(args, {"operation": "specialize",
                "lam": [str(x) for x in lam], "mu": [str(x) for x in mu],
                "terms": [{"exponent": str(e),
                           "coeff": coeff_pair(c),
                           "phase": str(ph)} for e, c, ph in terms]})
    return EXIT_OK


def cmd_eigen(args) -> int:
    N, k, s = _lattice_of_rank(args).N, args.k, args.s
    val = casimir_eigenvalue(k, N, s)
    emit(args, {
        "operation": "eigen", "N": N, "k": str(k), "s": str(s),
        "eigenvalue": str(val),
        "annihilation_roots": [str(x) for x in annihilation_roots(k, N)],
    })
    return EXIT_OK


# -- entry point -----------------------------------------------------------------

# accepted before and after the subcommand, by every subcommand
GLOBAL_OPTIONS = {
    "precision_bits": Option(lambda text: PrecisionContext(bits=int(text)), "128"),
    "cmax": Option(int, "50", help="c-sum truncation for Poincare coefficients"),
    "bound": Option(Fraction, "2", help="q-exponent truncation for theta expansions"),
    "N": Option(_at_least(1), help="rank"),
    "L": Option(parse_rational_matrix,
                help="rational Gram matrix literal, rows ';'-separated: '2,1/2;1/2,1'"),
    "s": Option(Fraction, "5/2", help="spectral parameter"),
    "no_cache": SWITCH,
    "jobs": Option(_at_least(1), "1"),
}

_POINCARE_OPTIONS = {"k": Option(int, "3"), "n": Option(int, "1"),
                     "r": Option(parse_vector), "window": Option(_at_least(0), "2")}

# subcommand -> (its function, its help, the options it adds to the global ones)
COMMANDS = {
    "verify": (cmd_verify, "run a verification suite",
               {"samples": Option(_at_least(1))}),
    "kloosterman": (cmd_kloosterman, "Kloosterman sum table",
                    {"c": Option(_c_range, "1"), "n": Option(int, "0"),
                     "r": Option(parse_vector), "nprime": Option(int, "0"),
                     "rprime": Option(parse_vector)}),
    "theta": (cmd_theta, "theta series expansion",
              {"mu": Option(parse_vector), "k": Option(int), "r": Option(parse_vector),
               "zeta_variant": SWITCH}),
    "poincare": (functools.partial(cmd_poincare, skew=False),
                 "poincare coefficient table",
                 {**_POINCARE_OPTIONS, "y": Option(Fraction, "1")}),
    "skew-poincare": (functools.partial(cmd_poincare, skew=True),
                      "skew-poincare coefficient table", _POINCARE_OPTIONS),
    "decompose": (cmd_decompose, "theta decomposition of an expansion file",
                  {"infile": Option(str, flag="--in"), "skew": SWITCH}),
    "specialize": (cmd_specialize, "torsion-point specialization",
                   {"infile": Option(str, flag="--in"), "lam": Option(_rationals),
                    "mu": Option(_rationals)}),
    "eigen": (cmd_eigen, "Casimir eigenvalue of the Whittaker seed",
              {"k": Option(Fraction, "2")}),
}


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors as UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _flag(name: str, opt: Option) -> str:
    return opt.flag or "--" + name.replace("_", "-")


def _add_options(parser, options: dict, default) -> None:
    for name, opt in options.items():
        kind = {"help": opt.help} if opt.parse else {"action": "store_true"}
        parser.add_argument(_flag(name, opt), dest=name, default=default, **kind)


def _global_options(parser, default) -> None:
    parser.add_argument("--config", default=default, help="flat key = value config file")
    parser.add_argument("--out", default=default, help="write JSON output to this file")
    _add_options(parser, GLOBAL_OPTIONS, default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # every default is None: _resolve applies config values and defaults, so
    # no config value is ever written into these cached parsers
    p = _Parser(
        prog="maassjacobi", allow_abbrev=False,
        description="Exact and arbitrary-precision toolkit for higher rank "
                    "Jacobi forms: verification suites and arithmetic series.")
    _global_options(p, None)
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed before it
    globals_after = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    _global_options(globals_after, argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: _Parser(
                               parents=[globals_after], allow_abbrev=False, **kw))
    for name, (_, help_text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "verify":
            sp.add_argument("suite", choices=SUITES)
        _add_options(sp, options, None)
    return p


def _resolve(args, options: dict, config: dict) -> None:
    """Set each option on ``args`` to its value parsed from its flag, else
    from the config file, else from its default.  ``args.flags`` holds the
    names that flags set (``verify`` rejects a flag its suite does not read,
    not a config key); ``args.given`` the text a flag or the file gave."""
    args.flags = {name for name in options if getattr(args, name) is not None}
    args.given = {}
    for name, opt in options.items():
        text, source = getattr(args, name), _flag(name, opt)
        if opt.parse is None:
            setattr(args, name, bool(text))
            continue
        if text is None:
            text, source = config.get(name), f"config key {name!r}"
        if text is not None:
            args.given[name] = text
        else:
            text = opt.default
        try:
            setattr(args, name, None if text is None else opt.parse(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{source}: bad value {text!r}: {exc}") from None


def main(argv=None) -> int:
    args = None  # an error before the namespace exists is printed to stdout
    try:
        args = build_parser().parse_args(argv)
        run, _, options = COMMANDS[args.command]
        config = load_config_file(args.config) if args.config else {}
        _resolve(args, {**GLOBAL_OPTIONS, **options}, config)
        return run(args)
    except (UsageError, OSError) as exc:
        return fail(args, exc, EXIT_USAGE)
    except MaassJacobiError as exc:
        return fail(args, exc, EXIT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
