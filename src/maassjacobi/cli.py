"""Command-line front end: verification suites, series computation,
coefficient tables, caching, machine-readable JSON output.

Config precedence is flags > config file > defaults; the config file is
flat ``key = value`` text.  Identical (command, config, precision) produce
byte-identical output; every failure exits nonzero with a structured error
object.

Exit codes: 0 success (and, for ``verify``, every check passed);
1 a verification check failed; 2 usage or configuration error;
3 a domain/computation error surfaced from the library.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from mpmath import mp

from . import cache, linalg
from .enveloping import build_casimir, check_centrality
from .errors import MaassJacobiError, UsageError
from .fourier import (
    FourierExpansion,
    coeff_pair,
    phi_seed,
    casimir_residual,
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
    covariance_check,
    d_minus_direct,
    random_algebra_element,
    random_group_element,
    random_point,
    semiholomorphic_casimir,
)
from .precision import PrecisionContext, mpf_str
from .series import (
    annihilation_roots,
    casimir_eigenvalue,
    duality_report,
    full_coeff_c,
    kloosterman,
    poincare_csum,  # unused here; the benchmark tracer patches this binding
    skew_poincare_coeff,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


def parse_rational_matrix(text: str):
    """Rows separated by ';', entries by ','; entries are rationals a/b."""
    rows = []
    for row in text.strip().split(";"):
        rows.append([Fraction(x.strip()) for x in row.split(",") if x.strip()])
    return rows


def parse_vector(text: str):
    return [int(x.strip()) for x in text.split(",") if x.strip()]


def load_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _merge(args, config: dict, key: str, default, conv=None):
    val = getattr(args, key, None)
    if val is None:
        val = config.get(key)
        if val is not None and conv is not None:
            val = conv(val)
    if val is None:
        val = default
    return val


def emit(args, obj: dict) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return text


def fail(args, exc: Exception, code: int = EXIT_ERROR) -> int:
    emit(args, {"error": {"type": type(exc).__name__, "message": str(exc)}})
    return code


# -- verification suites: the one definition of each check and its tolerance;
# tests/test_acceptance.py runs these same functions --------------------------


def _check(name, ok, detail=None):
    entry = {"name": name, "status": "pass" if ok else "fail"}
    if detail is not None:
        entry["detail"] = detail
    return entry


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
    same += [Yp[i].commutator(Yp[j]).is_zero() and Ym[i].commutator(Ym[j]).is_zero()
             for i in range(N) for j in range(N)]
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
        Point, act, cocycle_a, cocycle_alpha, embed_algebra, embed_group, expm, jacobi_exp,
        jacobi_mul,
    )

    rng = random.Random(4242)
    worst_a = mp.mpf(0)
    worst_alpha = mp.mpf(0)
    worst_exp = mp.mpf(0)
    with ctx.working():
        for _ in range(samples):
            g = random_group_element(L.N, rng)
            h = random_group_element(L.N, rng)
            tau, z = random_point(L.N, rng)
            p = Point(mp.mpc(tau), tuple(mp.mpc(w) for w in z))
            gm, hm = g.to_numeric(), h.to_numeric()
            gh, hp = jacobi_mul(gm, hm), act(hm, p)
            a1 = cocycle_a(gh, p)
            a2 = linalg.add(cocycle_a(gm, hp), cocycle_a(hm, p))
            worst_a = max(worst_a, max(
                abs(x - y) for r1, r2 in zip(a1, a2) for x, y in zip(r1, r2)))
            # alpha_L is the one factor of the slash action that reads L
            lhs = cocycle_alpha(L.entries, gh, p, ctx)
            rhs = cocycle_alpha(L.entries, gm, hp, ctx) * cocycle_alpha(L.entries, hm, p, ctx)
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
        _check("cocycle additivity of a", worst_a < mp.mpf("1e-30"),
               detail=mpf_str(worst_a)),
        _check("multiplicativity of alpha_L", worst_alpha < mp.mpf("1e-30"),
               detail=mpf_str(worst_alpha)),
        _check("exp matches matrix exponential", worst_exp < mp.mpf("1e-25"),
               detail=mpf_str(worst_exp)),
    ]


def suite_covariance(L, ctx, samples):
    N = L.N
    ops = build_raising_lowering(L)
    k = Fraction(3)
    jobs = [
        ("X+ : k -> k+2", ops["X+"], k, k + 2, 0, 0),
        ("X- : k -> k-2", ops["X-"], k, k - 2, 0, 0),
        ("Casimir invariant", build_casimir_op(L), k, k, 0, 0),
        ("Laplace invariant", build_laplace(L, [[1 if i == j else 0 for j in range(N)]
                                                for i in range(N)]), k, k, 0, 0),
        ("D- : k -> k-2", build_D_minus(L), k, k - 2, 0, 0),
        ("heat : (N/2,kb) -> (N/2+2,kb)", build_heat(L), Fraction(N, 2),
         Fraction(N, 2) + 2, Fraction(N, 2) - 1, Fraction(N, 2) - 1),
    ]
    for j in range(N):
        jobs.append((f"Y+_{j + 1} : k -> k+1", ops["Y+"][j], k, k + 1, 0, 0))
        jobs.append((f"Y-_{j + 1} : k -> k-1", ops["Y-"][j], k, k - 1, 0, 0))
    checks = []
    for name, op, kin, kout, kbin, kbout in jobs:
        r = covariance_check(op, kin, L, kout, L, samples, ctx,
                             kbar=kbin, kbar2=kbout)
        checks.append(_check(name, r < mp.mpf("1e-22"), detail=mpf_str(r)))
    return checks


def suite_eigen(L, ctx, samples):
    N = L.N
    rng = random.Random(99)
    checks = []
    ks = [0, 2, 3]
    casimir = build_casimir_op(L)
    with ctx.working():
        pts = []
        for _ in range(3):
            tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.2))
            z = [mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
                 for _ in range(N)]
            pts.append((tau, z))
    for k in ks:
        for s in annihilation_roots(k, N) + [Fraction(5, 2)]:
            for (n, r) in [(1, [0] * N), (-1, [1] + [0] * (N - 1))]:
                if discriminant(L, n, r) == 0:
                    continue
                f = phi_seed(k, L, s, n, r)
                ev = casimir_eigenvalue(k, N, s)
                res = casimir_residual(f, casimir, k, pts, ctx, eigenvalue=ev)
                checks.append(_check(
                    f"seed eigen k={k} s={s} (n,r)=({n},{r})",
                    res < mp.mpf("1e-10"), detail=mpf_str(res)))
    return checks


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
    reports = {}
    for regime, pool_b in (("D,D'<0", neg), ("D<0<D'", pos)):
        pairs = []
        for a in neg[:3]:
            for b in pool_b:
                if a != b:
                    pairs.append((a, b))
                if len(pairs) >= 5:
                    break
            if len(pairs) >= 5:
                break
        rep = duality_report(s, k, L, pairs, c_max, ctx)
        with ctx.working():
            reports[regime] = {
                "b_mean_ratio": mpf_str(rep["b_mean"]),
                "b_relative_spread": mpf_str(rep["b_relative_spread"]),
                "c_mean_ratio": None if rep["c_mean"] is None else mpf_str(rep["c_mean"]),
                "c_relative_spread": None if rep["c_relative_spread"] is None
                else mpf_str(rep["c_relative_spread"]),
            }
            checks.append(_check(
                f"duality ratio constancy ({regime})",
                rep["b_relative_spread"] < mp.mpf("1e-6"),
                detail=reports[regime]))
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
        ok = worst < mp.mpf("1e-30")
        return [_check("K(n,r,n',r') = K(n',r',n,r), c <= 24", ok,
                       detail=mpf_str(worst))]


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


def cmd_verify(args, config) -> int:
    suite = args.suite
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    N = _merge(args, config, "N", None, int)
    L = _lattice(args, config, 1 if N is None else N)
    if N is not None and N != L.N:
        raise UsageError(f"--N {N} is not the rank {L.N} of --L")
    ctx = _ctx(args, config)
    fn, default_samples = SUITES[suite]
    read = {"samples"} if default_samples else set()
    kwargs = {}
    if suite == "duality":
        read |= {"s", "cmax"}
        kwargs["s"] = Fraction(_merge(args, config, "s", "5/2", str))
        kwargs["c_max"] = int(_merge(args, config, "cmax", 50, int))
    # flags only: a config file may set keys that some suites do not read
    for key in ("samples", "s", "cmax"):
        if key not in read and getattr(args, key, None) is not None:
            raise UsageError(f"verify {suite} does not read --{key}")
    samples = int(_merge(args, config, "samples", default_samples or 50, int))
    checks = fn(L, ctx, samples, **kwargs)
    ok = all(c["status"] == "pass" for c in checks)
    emit(args, {
        "suite": suite, "N": L.N, "lattice": L.to_json_obj(),
        "precision_bits": ctx.bits, "checks": checks,
        "pass": ok,
    })
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- computation subcommands -------------------------------------------------------


def _ctx(args, config) -> PrecisionContext:
    bits = int(_merge(args, config, "precision_bits", 128, int))
    return PrecisionContext(bits=bits)


def _lattice(args, config, N=None) -> GramLattice:
    text = _merge(args, config, "L", None, str)
    if text is None:
        if N is None:
            raise UsageError("--L is required")
        return GramLattice([[1 if i == j else 0 for j in range(N)] for i in range(N)])
    return GramLattice(parse_rational_matrix(text))


def _cached(args, config, operation: str, key_config: dict, compute) -> int:
    no_cache = bool(getattr(args, "no_cache", False))
    result = None
    if not no_cache:
        result = cache.lookup(operation, key_config)
    if result is None:
        result = compute()
        cache.store(operation, key_config, result)
    # hits and misses print the same bytes: the payload is the cached string
    emit(args, json.loads(result))
    return EXIT_OK


def cmd_kloosterman(args, config) -> int:
    L = _lattice(args, config)
    ctx = _ctx(args, config)
    c_spec = _merge(args, config, "c", "1", str)
    if ":" in c_spec:
        lo, hi = c_spec.split(":")
        crange = list(range(int(lo), int(hi) + 1))
    else:
        crange = [int(c_spec)]
    n = int(_merge(args, config, "n", 0, int))
    np_ = int(_merge(args, config, "nprime", 0, int))
    r = parse_vector(_merge(args, config, "r", ",".join(["0"] * L.N), str))
    rp = parse_vector(_merge(args, config, "rprime", ",".join(["0"] * L.N), str))
    key = {"L": L.to_json_obj(), "c": crange, "n": n, "r": r, "nprime": np_,
           "rprime": rp, "precision_bits": ctx.bits}

    def compute():
        rows = []
        with ctx.working():
            for c in crange:
                v = kloosterman(c, L, n, r, np_, rp, ctx)
                rows.append({"c": c, "value": [mpf_str(v.real), mpf_str(v.imag)]})
        return json.dumps({"operation": "kloosterman", "config": key, "table": rows},
                          sort_keys=True)

    return _cached(args, config, "kloosterman", key, compute)


def cmd_theta(args, config) -> int:
    L = _lattice(args, config)
    ctx = _ctx(args, config)
    bound = Fraction(_merge(args, config, "bound", 2, str))
    mu = _merge(args, config, "mu", None, str)
    kmode = _merge(args, config, "k", None, str)
    r = _merge(args, config, "r", None, str)
    variant = bool(getattr(args, "zeta_variant", False))
    key = {"L": L.to_json_obj(), "bound": str(bound), "mu": mu, "k": kmode,
           "r": r, "variant": variant}

    def compute():
        if kmode is not None:
            rv = parse_vector(r if r is not None else ",".join(["0"] * L.N))
            exp = theta_klr(int(kmode), L, rv, bound, zeta_variant=variant)
        else:
            muv = parse_vector(mu if mu is not None else ",".join(["0"] * L.N))
            exp = theta_lmu(L, muv, bound)
        return json.dumps({"operation": "theta", "config": key,
                           "expansion": json.loads(exp.to_json())}, sort_keys=True)

    return _cached(args, config, "theta", key, compute)


def cmd_poincare(args, config, skew=False) -> int:
    L = _lattice(args, config)
    ctx = _ctx(args, config)
    k = int(_merge(args, config, "k", 3, int))
    c_max = int(_merge(args, config, "cmax", 50, int))
    n = int(_merge(args, config, "n", 1, int))
    r = parse_vector(_merge(args, config, "r", ",".join(["0"] * L.N), str))
    window = int(_merge(args, config, "window", 2, int))
    jobs = int(_merge(args, config, "jobs", 1, int))
    s = None if skew else Fraction(_merge(args, config, "s", "5/2", str))
    y = None if skew else Fraction(_merge(args, config, "y", 1, str))
    key = {"L": L.to_json_obj(), "k": k, "cmax": c_max, "n": n, "r": r,
           "window": window, "skew": skew, "s": None if s is None else str(s),
           "y": None if y is None else str(y), "precision_bits": ctx.bits}

    def compute():
        specs = [(skew, y, s, k, L, n, r, np_, [rp0] + [0] * (L.N - 1), c_max, ctx)
                 for np_ in range(-window, window + 1)
                 for rp0 in range(0, window + 1)]
        workers = min(jobs, len(specs))
        if workers > 1:
            rows = _parallel_coeff(specs, workers)
        else:
            rows = [_poincare_row(spec) for spec in specs]
        return json.dumps({"operation": "skew-poincare" if skew else "poincare",
                           "config": key, "table": rows}, sort_keys=True)

    return _cached(args, config, "skew-poincare" if skew else "poincare", key, compute)


def _poincare_row(spec):
    """One table row: the coefficient at (n', r') or the library's error."""
    skew, y, s, k, L, n, r, np_, rp, c_max, ctx = spec
    row = {"nprime": np_, "rprime": rp, "D'": str(discriminant(L, np_, rp))}
    with ctx.working():
        try:
            if skew:
                v, tail = skew_poincare_coeff(k, L, n, r, np_, rp, c_max, ctx), None
            else:
                v, tail = full_coeff_c(y, s, k, L, n, r, np_, rp, c_max, ctx)
        except MaassJacobiError as exc:
            row["error"] = {"type": type(exc).__name__, "message": str(exc)}
            return row
        row["value"] = [mpf_str(v.real), mpf_str(v.imag)]
        row["tail_ratio"] = None if tail is None else mpf_str(tail)
    return row


def _parallel_coeff(specs, jobs):
    """``_poincare_row`` over ``specs`` on one pool of ``jobs`` processes.

    ``map`` returns the rows in input order and each row is computed by the
    sequential code, so bytes do not depend on the pool size.
    """
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_poincare_row, specs))


def cmd_decompose(args, config) -> int:
    path = _merge(args, config, "infile", None, str)
    if path is None:
        raise UsageError("decompose requires --in FILE")
    with open(path, "r", encoding="utf-8") as fh:
        f = FourierExpansion.from_json(fh.read())
    comps = theta_decompose_semi(f, conjugate=bool(getattr(args, "skew", False)))
    obj = {"operation": "decompose", "lattice": f.lattice.to_json_obj(),
           "components": {}}
    for mu, comp in sorted(comps.items()):
        obj["components"][",".join(map(str, mu))] = [
            {"exponent": str(expo), "coeff": coeff_pair(c)}
            for expo, (c, _) in sorted(comp.items())
        ]
    emit(args, obj)
    return EXIT_OK


def cmd_specialize(args, config) -> int:
    path = _merge(args, config, "infile", None, str)
    if path is None:
        raise UsageError("specialize requires --in FILE")
    with open(path, "r", encoding="utf-8") as fh:
        f = FourierExpansion.from_json(fh.read())
    lam = [Fraction(x) for x in _merge(args, config, "lam", "0", str).split(",")]
    mu = [Fraction(x) for x in _merge(args, config, "mu", "0", str).split(",")]
    terms = specialize_torsion(f, lam, mu)
    emit(args, {"operation": "specialize",
                "lam": [str(x) for x in lam], "mu": [str(x) for x in mu],
                "terms": [{"exponent": str(e),
                           "coeff": coeff_pair(c),
                           "phase": str(ph)} for e, c, ph in terms]})
    return EXIT_OK


def cmd_eigen(args, config) -> int:
    N = int(_merge(args, config, "N", 1, int))
    k = Fraction(_merge(args, config, "k", 2, str))
    s = Fraction(_merge(args, config, "s", "5/2", str))
    val = casimir_eigenvalue(k, N, s)
    emit(args, {
        "operation": "eigen", "N": N, "k": str(k), "s": str(s),
        "eigenvalue": str(val),
        "annihilation_roots": [str(x) for x in annihilation_roots(k, N)],
    })
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def _global_options(parser, suppress: bool):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", help="flat key = value config file",
                        default=default)
    parser.add_argument("--precision-bits", dest="precision_bits", type=int,
                        default=default)
    parser.add_argument("--cmax", type=int, default=default,
                        help="c-sum truncation for Poincare coefficients")
    parser.add_argument("--bound", default=default,
                        help="q-exponent truncation for theta expansions")
    parser.add_argument("--N", type=int, default=default, help="rank")
    parser.add_argument("--L", default=default,
                        help="rational Gram matrix literal, rows ';'-separated: "
                             "'2,1/2;1/2,1'")
    parser.add_argument("--s", default=default, help="spectral parameter")
    parser.add_argument("--out", default=default,
                        help="write JSON output to this file")
    parser.add_argument("--no-cache", dest="no_cache", action="store_true",
                        default=default)
    parser.add_argument("--jobs", type=int, default=default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maassjacobi", allow_abbrev=False,
        description="Exact and arbitrary-precision toolkit for higher rank "
                    "Jacobi forms: verification suites and arithmetic series.")
    _global_options(p, suppress=False)
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed before it
    globals_after = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    _global_options(globals_after, suppress=True)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[globals_after], allow_abbrev=False, **kw))

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite")
    v.add_argument("--samples", type=int)

    kl = sub.add_parser("kloosterman", help="Kloosterman sum table")
    kl.add_argument("--c")
    kl.add_argument("--n", type=int)
    kl.add_argument("--r")
    kl.add_argument("--nprime", type=int)
    kl.add_argument("--rprime")

    th = sub.add_parser("theta", help="theta series expansion")
    th.add_argument("--mu")
    th.add_argument("--k")
    th.add_argument("--r")
    th.add_argument("--zeta-variant", dest="zeta_variant", action="store_true",
                    default=None)

    for name in ("poincare", "skew-poincare"):
        po = sub.add_parser(name, help=f"{name} coefficient table")
        po.add_argument("--k", type=int)
        po.add_argument("--n", type=int)
        po.add_argument("--r")
        po.add_argument("--window", type=int)
        po.add_argument("--y")

    de = sub.add_parser("decompose", help="theta decomposition of an expansion file")
    de.add_argument("--in", dest="infile")
    de.add_argument("--skew", action="store_true", default=None)

    sp = sub.add_parser("specialize", help="torsion-point specialization")
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--lam")
    sp.add_argument("--mu")

    ei = sub.add_parser("eigen", help="Casimir eigenvalue of the Whittaker seed")
    ei.add_argument("--k")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    if args.config:
        try:
            config = load_config_file(args.config)
        except (OSError, UsageError) as exc:
            return fail(args, exc, EXIT_USAGE)
    try:
        if args.command == "verify":
            return cmd_verify(args, config)
        if args.command == "kloosterman":
            return cmd_kloosterman(args, config)
        if args.command == "theta":
            return cmd_theta(args, config)
        if args.command == "poincare":
            return cmd_poincare(args, config, skew=False)
        if args.command == "skew-poincare":
            return cmd_poincare(args, config, skew=True)
        if args.command == "decompose":
            return cmd_decompose(args, config)
        if args.command == "specialize":
            return cmd_specialize(args, config)
        if args.command == "eigen":
            return cmd_eigen(args, config)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        return fail(args, exc, EXIT_USAGE)
    except OSError as exc:
        return fail(args, exc, EXIT_USAGE)
    except MaassJacobiError as exc:
        return fail(args, exc, EXIT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
