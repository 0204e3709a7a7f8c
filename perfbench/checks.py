"""Output checks, run after the timed loop.

Every request is classified as one of

- ``ok``: exit 0 and the output passed its check;
- ``fail``: exit 2 or 3, or an exception escaped ``cli.main``;
- ``wrong``: the request completed but its output failed its check (a
  ``verify`` that exits 1 counts here too).

A failure or wrong output is *known* when it matches, exactly, one of two
defects of the toolkit; those are counted in ``fail_share`` and
``wrong_share`` like any other, but do not make the run incorrect.
Anything else makes the run incorrect.

- ``eigen-pole``: ``verify eigen`` at N=2 exits 3 with PoleError '2s = -1'.
- ``jobs-dprime0``: ``poincare --jobs 2`` reports 'bessel_I requires x > 0'
  on the D' = 0 row instead of the "D' = 0 ... unsupported" error.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from math import gcd

from mpmath import mp

from workloads import parse_gram

KLOOSTERMAN_TOL = "1e-30"
TABLE_REL_TOL = "1e-30"
ORACLE_ROWS = 2


def inverse_det(m):
    """(inverse, determinant) of a small rational matrix by Gauss-Jordan
    elimination."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    det = Fraction(1)
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        p = a[col][col]
        det *= p
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a], det


def kloosterman_oracle(gram: str, c: int, n: int, r, nprime: int, rprime, bits: int):
    """K_{c,L}(n, r, n', r') as the definitional double sum over units d mod c
    and lam in (Z/c)^N, one exponential per term with an exact rational phase.
    """
    L = parse_gram(gram)
    N = len(L)
    inv, _ = inverse_det(L)
    pre = -sum(r[i] * inv[i][j] * rprime[j] for i in range(N) for j in range(N)) / (2 * c)
    with mp.workprec(bits):
        acc = mp.mpc(0)
        for d in range(1, c + 1):
            if gcd(d, c) != 1:
                continue
            dbar = pow(d, -1, c)
            for lam in product(range(c), repeat=N):
                q = sum(lam[i] * L[i][j] * lam[j] for i in range(N) for j in range(N))
                rl = sum(a * b for a, b in zip(r, lam))
                rpl = sum(a * b for a, b in zip(rprime, lam))
                phase = Fraction(dbar * (q + rl + n) + nprime * d - rpl, c) % 1
                acc += mp.expjpi(2 * mp.mpf(phase.numerator) / phase.denominator)
        pre %= 1
        return acc * mp.expjpi(2 * mp.mpf(pre.numerator) / pre.denominator)


def _disc(gram: str, n: int, r) -> Fraction:
    """D = det(L) (4n - L^{-1}[r])."""
    inv, det = inverse_det(parse_gram(gram))
    N = len(r)
    return det * (4 * n - sum(r[i] * inv[i][j] * r[j] for i in range(N) for j in range(N)))


def _mp(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def _csum(gram, c_max, n, r, nprime, rprime, bessel, order, x_base, bits):
    """sum_{c <= c_max} c^{-(N+2)/2} K_c(n, r, n', r') bessel(order, x_base / c)."""
    N = len(r)
    return mp.fsum(mp.power(c, -mp.mpf(N + 2) / 2)
                   * kloosterman_oracle(gram, c, n, r, nprime, rprime, bits)
                   * bessel(order, x_base / c) for c in range(1, c_max + 1))


def _symmetrize(plus, minus, k: int):
    """(b(r') + (-1)^k b(-r'), the larger |b|): the entry and the scale its
    rounding error is relative to, since the two sides may cancel."""
    return plus + (-1) ** k * minus, max(abs(plus), abs(minus))


def poincare_oracle(p: dict, nprime: int, rprime, bits: int):
    """The ``poincare`` table entry b(n', r') + (-1)^k b(n', -r') at y = 1, from
    the displayed formula: Gamma ratio, (D'/D) power, the y-profile
    e^{t/2} |t|^{-kappa/2} W_{sgn(t) kappa/2, s-1/2}(|t|) with t = pi D' y / det L
    and kappa = k - N/2, and the c-sum of Kloosterman sums times J_{2s-1}
    (D D' > 0) or I_{2s-1}, using ``kloosterman_oracle`` and mpmath directly.
    Returns (entry, scale) as ``_symmetrize``."""
    k, s, n, r = p["k"], Fraction(p["s"]), p["n"], p["r"]
    N = len(r)
    _, det = inverse_det(parse_gram(p["gram"]))
    with mp.workprec(bits):
        def b(rp):
            D, Dp = _disc(p["gram"], n, r), _disc(p["gram"], nprime, rp)
            sgn = 1 if Dp > 0 else -1
            expo = Fraction(k, 2) - Fraction(N + 2, 4)
            pref = (mp.mpf(2) ** (1 - mp.mpf(N) / 2) * mp.pi * mp.j ** (-k)
                    / mp.sqrt(_mp(det)) * mp.gamma(_mp(2 * s))
                    / mp.gamma(_mp(s - sgn * (Fraction(k, 2) - Fraction(N, 4))))
                    * mp.power(mp.mpc(_mp(Dp / D)), _mp(expo)))
            t = mp.pi * _mp(Dp / det)
            kappa = Fraction(k) - Fraction(N, 2)
            profile = (mp.exp(t / 2) * abs(t) ** (-_mp(kappa) / 2)
                       * mp.whitw(sgn * _mp(kappa) / 2, _mp(s) - mp.mpf(1) / 2, abs(t)))
            bessel = mp.besselj if D * Dp > 0 else mp.besseli
            x_base = mp.pi * mp.sqrt(abs(_mp(D * Dp))) / _mp(det)
            return pref * profile * _csum(p["gram"], p["cmax"], n, r, nprime, rp,
                                          bessel, _mp(2 * s - 1), x_base, bits)
        return _symmetrize(b(rprime), b([-x for x in rprime]), k)


def skew_poincare_oracle(p: dict, nprime: int, rprime, bits: int):
    """The ``skew-poincare`` table entry b(n', r') + (-1)^k b(n', -r'), where
    b(r') = 2^{1-N/2} pi i^{1-k} det(L)^{-1/2} (D'/D)^{k/2-(N+2)/4} times the
    c-sum of K_c(n, r, n', -r') J_{k-(N+2)/2}(pi sqrt(D D') / (c det L)).
    Returns (entry, scale) as ``_symmetrize``."""
    k, n, r = p["k"], p["n"], p["r"]
    N = len(r)
    _, det = inverse_det(parse_gram(p["gram"]))
    with mp.workprec(bits):
        def b(rp):
            D, Dp = _disc(p["gram"], n, r), _disc(p["gram"], nprime, rp)
            pref = (mp.mpf(2) ** (1 - mp.mpf(N) / 2) * mp.pi * mp.j ** (1 - k)
                    / mp.sqrt(_mp(det))
                    * mp.power(_mp(Dp / D), _mp(Fraction(k, 2) - Fraction(N + 2, 4))))
            x_base = mp.pi * mp.sqrt(_mp(D * Dp)) / _mp(det)
            return pref * _csum(p["gram"], p["cmax"], n, r, nprime, [-x for x in rp],
                                mp.besselj, _mp(Fraction(k) - Fraction(N + 2, 2)),
                                x_base, bits)
        return _symmetrize(b(rprime), b([-x for x in rprime]), k)


def _load(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_verify(req, code, out):
    obj = _load(out)
    if code == 0 and obj is not None and obj.get("pass") is True:
        return "ok", None
    if (code == 3 and req.params["suite"] == "eigen" and req.N == 2 and obj
            and obj.get("error", {}).get("type") == "PoleError"
            and "2s = -1" in obj["error"].get("message", "")):
        return "fail", "eigen-pole"
    return ("fail" if code in (2, 3, "raise") else "wrong"), None


def check_kloosterman(req, code, out, rng):
    obj = _load(out)
    if code != 0 or obj is None:
        return ("fail" if code in (2, 3, "raise") else "wrong"), None
    p = req.params
    rows = obj.get("table", [])
    lo, hi = p["c"]
    if [row.get("c") for row in rows] != list(range(lo, hi + 1)):
        return "wrong", None
    bits = int(obj["config"]["precision_bits"]) + 64
    for row in rng.sample(rows, min(ORACLE_ROWS, len(rows))):
        want = kloosterman_oracle(p["gram"], row["c"], p["n"], p["r"],
                                  p["nprime"], p["rprime"], bits)
        with mp.workprec(bits):
            got = mp.mpc(mp.mpf(row["value"][0]), mp.mpf(row["value"][1]))
            if abs(got - want) >= mp.mpf(KLOOSTERMAN_TOL):
                return "wrong", None
    return "ok", None


def check_table_values(req, code, out):
    """A ``poincare`` or ``skew-poincare`` output against the formula: the
    rows are the (n', r') window, exactly the D' = 0 rows (skew: D' <= 0)
    carry an error, and every value agrees with the oracle to 1e-30
    relative to the larger of the two sides the entry sums."""
    obj = _load(out)
    if code != 0 or obj is None:
        return False
    p = req.params
    window = int(req.argv[req.argv.index("--window") + 1])
    N = len(p["r"])
    grid = [(np_, [rp0] + [0] * (N - 1))
            for np_ in range(-window, window + 1) for rp0 in range(window + 1)]
    rows = obj.get("table", [])
    if [(row.get("nprime"), row.get("rprime")) for row in rows] != grid:
        return False
    skew = req.kind == "skew-poincare"
    for row, (np_, rp) in zip(rows, grid):
        Dp = _disc(p["gram"], np_, rp)
        if row.get("D'") != str(Dp) or ("error" in row) != (Dp <= 0 if skew else Dp == 0):
            return False
    bits = int(obj["config"]["precision_bits"]) + 64
    oracle = skew_poincare_oracle if skew else poincare_oracle
    for row in (row for row in rows if "value" in row):
        want, scale = oracle(p, row["nprime"], row["rprime"], bits)
        with mp.workprec(bits):
            got = mp.mpc(mp.mpf(row["value"][0]), mp.mpf(row["value"][1]))
            if abs(got - want) > mp.mpf(TABLE_REL_TOL) * scale:
                return False
    return True


def reference_argv(argv):
    """The same request at --jobs 1 with the cache bypassed."""
    out = list(argv)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = "1"
    if "--no-cache" not in out:
        out.append("--no-cache")
    return tuple(out)


def _is_jobs_dprime0_defect(got: str, want: str) -> bool:
    """True when ``got`` differs from ``want`` only on D' = 0 rows, where the
    reference has the 'unsupported' error and ``got`` the bessel_I error."""
    g, w = _load(got), _load(want)
    if g is None or w is None or len(g.get("table", [])) != len(w.get("table", [])):
        return False
    if {k: v for k, v in g.items() if k != "table"} != {k: v for k, v in w.items() if k != "table"}:
        return False
    differs = False
    for gr, wr in zip(g["table"], w["table"]):
        if gr == wr:
            continue
        if gr.get("D'") != "0" or {k: v for k, v in gr.items() if k != "error"} != \
                {k: v for k, v in wr.items() if k != "error"}:
            return False
        if not wr.get("error", {}).get("message", "").startswith("D' = 0 coefficients are unsupported"):
            return False
        if gr.get("error") != {"type": "DomainError", "message": "bessel_I requires x > 0"}:
            return False
        differs = True
    return differs


def check_table(req, code, out, reference):
    """Byte-for-byte comparison against the --jobs 1 reference output
    (``reference`` is its code, output and whether it passed
    ``check_table_values``)."""
    ref_code, ref_out, ref_ok = reference
    if code != 0:
        return ("fail" if code in (2, 3, "raise") else "wrong"), None
    if not ref_ok:
        return "wrong", None
    if out == ref_out:
        return "ok", None
    if "--jobs" in req.argv and _is_jobs_dprime0_defect(out, ref_out):
        return "wrong", "jobs-dprime0"
    return "wrong", None


def classify(records, run_reference, seed: int):
    """Classify each (request, code, output) record.

    ``run_reference(argv)`` returns (code, output) for a reference request.
    A table request that is its own reference (``--jobs 1 --no-cache``) is
    not recomputed: its first output is the reference, and later rounds
    must repeat it byte for byte.  Every distinct reference is checked
    once against the formula.  Returns a list of (outcome,
    known_defect_or_None) in record order.
    """
    rng = random.Random(f"maassjacobi-perfbench:oracle:{seed}")
    refs = {}
    result = []
    for req, code, out in records:
        if req.kind == "verify":
            result.append(check_verify(req, code, out))
        elif req.kind == "kloosterman":
            result.append(check_kloosterman(req, code, out, rng))
        else:
            key = reference_argv(req.argv)
            if key not in refs:
                ref_code, ref_out = (code, out) if key == req.argv else run_reference(key)
                refs[key] = (ref_code, ref_out,
                             check_table_values(req, ref_code, ref_out))
            result.append(check_table(req, code, out, refs[key]))
    return result
