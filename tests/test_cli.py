import builtins
import hashlib
import json
import multiprocessing
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maassjacobi import cache, cli, errors
from maassjacobi.cli import SUITES, main, parse_rational_matrix
from maassjacobi.fourier import theta_lmu
from maassjacobi.lattice import GramLattice
from maassjacobi.precision import PrecisionContext


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv(cache.ENV_VAR, str(d))
    return d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_rational_matrix():
    from fractions import Fraction
    assert parse_rational_matrix("2,1;1,2") == [[2, 1], [1, 2]]
    assert parse_rational_matrix("1,1/2;1/2,3") == \
        [[1, Fraction(1, 2)], [Fraction(1, 2), 3]]


def test_unknown_suite_is_usage_error(cache_dir, capsys):
    code, out = run(capsys, "verify", "nonsense")
    assert code == 2
    err = json.loads(out)
    assert err["error"]["type"] == "UsageError"


# small sizes, at N = 1
SMALL_SUITE_ARGS = {"cocycle": ("--samples", "5"), "covariance": ("--samples", "2"),
                    "duality": ("--cmax", "4"), "kloosterman-symmetry": ("--samples", "5")}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_exit_codes(cache_dir, capsys, suite):
    # eigen also at N = 2, where its M seeds meet the Kummer pole
    for N in ("1", "2") if suite == "eigen" else ("1",):
        code, out = run(capsys, "verify", suite, "--N", N,
                        *SMALL_SUITE_ARGS.get(suite, ()))
        rep = json.loads(out)
        assert code == 0 and rep["pass"] and rep["suite"] == suite and rep["N"] == int(N)
        assert rep["checks"]


# sha256 of the stdout; the eigen digest since its checks are exact
# identities, whose detail is "exact", and the covariance and cocycle
# digests since their residuals print at the working precision (the cocycle
# ones again since `expm` sums its series by Paterson-Stockmeyer, and once
# more since alpha_L rounds each part of the exact tr(L a) once)
@pytest.mark.parametrize("argv, digest", [
    (("covariance", "--L", "2", "--samples", "2"),
     "3839bedc151dc77fe528bfb634ab5ad216bac53dd58db9cc8097c35305d9cc98"),
    (("covariance", "--L", "2,1;1,2", "--samples", "1"),
     "2be19c13b888a1f4463274c7f8896a852e8975718af1c8c8cf9229f88bcdd349"),
    (("eigen", "--L", "1"),
     "2324885cb5002c2e4d7fd1e20fc39bf82d181494169517e0c9bc3783ffe446ec"),
    (("cocycle", "--L", "2", "--samples", "5"),
     "cb4551cdd8c811e30bc74d5107e45eccd177700f8242ec1f6d67a865abf901a1"),
    (("cocycle", "--L", "2,1;1,2", "--samples", "5"),
     "441e78feea9d9f88deedcc3f0cb9b9be6a1a0db0c7b867027301728bacc68d88"),
    (("duality", "--L", "2", "--cmax", "4"),
     "2bd902c70e668c9b745ccf7c31f6b8213756ed05d4c6200ed5316a0f2f01d470"),
])
def test_verify_output_is_unchanged(cache_dir, capsys, argv, digest):
    code, out = run(capsys, "verify", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout, computed since each Kloosterman phase sum is exact
# and rounded once and cancelled symmetrized coefficients print 0
@pytest.mark.parametrize("argv, digest", [
    (("poincare", "--k", "1", "--L", "1", "--s", "5/2", "--n=-1", "--r=-1",
      "--window", "1", "--cmax", "8"),
     "f3ffa98e285d98a24bcd5ee757cfef5e0cc391a05a860f516ca4002085335977"),
    (("poincare", "--k", "1", "--L", "2,1;1,2", "--s", "5/2", "--n=-1", "--r=1,0",
      "--window", "1", "--cmax", "3"),
     "0533d9d593ccaf436c1cb43369e404cffe1ad18b13037f865bce03f917092ce4"),
    (("skew-poincare", "--k", "3", "--L", "1", "--n=1", "--r=1", "--window", "2",
      "--cmax", "6"),
     "f867951fb7a85d82fc7b49f9ae40c1e7505a03652262d8ac6f4d8c238df8c5d6"),
    (("skew-poincare", "--k", "3", "--L", "2,1;1,2", "--n=1", "--r=1,0",
      "--window", "1", "--cmax", "3"),
     "b7510ef7f4162114654a96e7e71484dd2420b63021532ec6a3d50b0962bdf622"),
    (("kloosterman", "--c=1:12", "--L", "1", "--n=1", "--r=1", "--nprime=0",
      "--rprime=1"),
     "51ea03b4e3a430e8421e839cec97058f605110c9ab52b480c11ae686194511f5"),
    (("kloosterman", "--c=1:6", "--L", "2,1;1,2", "--n=1", "--r=1,0", "--nprime=2",
      "--rprime=0,1"),
     "e5e4cd6aa6f7ea33b4743936aef05730993d29b30b4ce355011f3a8481f305ef"),
])
def test_series_output_is_unchanged(cache_dir, capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


# Every distinct request of the seed 1-3 rounds of the four benchmark
# workloads, with the exit code and the sha256 of the stdout that the code
# printed at commit b3ec132, except the six `verify eigen` requests, pinned
# again when that suite became exact (the three rank-2 ones then went from
# the Kummer pole's exit 3 to exit 0), and the six `verify cocycle` and six
# `verify covariance` requests, pinned again when their residuals came to print
# at the working precision; the six cocycle requests once more when `expm`
# came to sum its series by Paterson-Stockmeyer, which moved the exp residual
# each prints by about 1 ulp, and again when alpha_L came to round each part
# of the exact tr(L a) once, which moved the multiplicativity residual each
# prints.  The argv are stored, not drawn, so that a change to the
# benchmark's generators cannot move this gate.
with open(os.path.join(os.path.dirname(__file__), "benchmark_requests.json"),
          encoding="utf-8") as _fh:
    BENCHMARK_REQUESTS = json.load(_fh)


@pytest.mark.parametrize("request_", BENCHMARK_REQUESTS,
                         ids=[f"{r['workload']}-{i}" for i, r in enumerate(BENCHMARK_REQUESTS)])
def test_benchmark_requests_print_their_pinned_bytes(cache_dir, capsys, request_):
    code, out = run(capsys, *request_["argv"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        (request_["exit"], request_["sha256"])


def test_cancelled_poincare_row_prints_zero(cache_dir, capsys):
    # at odd k on |L| = 1 the two sides b(n', r'), b(n', -r') cancel; the
    # row (n', r') = (-1, [1]) printed about (-5.2e-53, -3.3e-52), its
    # rounding residue, and now prints an exact zero
    code, out = run(capsys, "poincare", "--k", "1", "--L", "1", "--s", "5/2",
                    "--n=-1", "--r=-1", "--window", "1", "--cmax", "8")
    row = next(row for row in json.loads(out)["table"]
               if row["nprime"] == -1 and row["rprime"] == [1])
    assert code == 0 and row["value"] == ["0.0", "0.0"]


@pytest.mark.parametrize("gram", ["2,1;1,2", "2,0;0,4", "1,1/2;1/2,1", "2,1,0;1,2,1;0,1,2"])
def test_eigen_is_exact_beyond_rank_1(cache_dir, capsys, gram):
    # 36 exact identities, at N = 2 the eight at the Kummer pole points
    # (k, s) = (0, -1/2) and (3, 0) included, where the M seed has no value
    code, out = run(capsys, "verify", "eigen", "--L", gram)
    rep = json.loads(out)
    assert code == 0 and rep["pass"] is True and len(rep["checks"]) == 36
    assert all(c["status"] == "pass" and c["detail"] == "exact" for c in rep["checks"])
    assert sum("k=0 s=-1/2 " in c["name"] or "k=3 s=0 " in c["name"]
               for c in rep["checks"]) == (8 if gram.count(";") == 1 else 0)


@pytest.mark.parametrize("suite, argv, flag", [
    ("centrality", ("--s", "3", "--samples", "7", "--cmax", "2"), "--samples"),
    ("eigen", ("--samples", "7"), "--samples"),
    ("duality", ("--samples", "7"), "--samples"),
    ("commutators", ("--s", "3"), "--s"),
    ("covariance", ("--cmax", "2"), "--cmax"),
    ("kloosterman-symmetry", ("--s", "3"), "--s"),
])
def test_verify_rejects_flags_its_suite_does_not_read(cache_dir, capsys, suite, argv, flag):
    code, out = run(capsys, "verify", suite, "--N", "1", *argv)
    err = json.loads(out)["error"]
    assert code == 2 and err["type"] == "UsageError" and flag in err["message"]


def _rank_2_file(term: bytes) -> bytes:
    return (b'{"lattice":[["2","1"],["1","2"]],"terms":[{"n":"1",' + term
            + b',"coeff":["1","0"]}]}')


@pytest.mark.parametrize("argv", [
    ("verify", "commutators", "--L", "abc"),
    ("kloosterman", "--L", "2", "--c", "x"),
    ("kloosterman", "--L", "2", "--r", "1,a"),
    ("poincare", "--L", "2", "--s", "abc"),
    ("eigen", "--k", "abc"),
    ("theta", "--L", "2", "--bound", "x"),
    ("kloosterman", "--L", "2", "--precision-bits", "10"),
    ("--config", "BAD_CONFIG", "poincare", "--L", "2"),
    ("eigen", "--config", "LATIN1_CONFIG"),
    ("kloosterman", "--L", "2", "--bogus", "1"),
    ("verify", "covariance", "--L", "2", "--samples", "-3"),
    ("verify", "kloosterman-symmetry", "--L", "2", "--samples", "0"),
    ("skew-poincare", "--L", "2", "--y", "7"),
    ("poincare", "--L", "2", "--jobs", "0"),
    ("poincare", "--L", "2", "--jobs=-3"),
    ("decompose", "--in", "NO_TERMS_FILE"),
    ("decompose", "--in", "NOT_JSON_FILE"),
    ("decompose", "--in", "RANK_1_R_FILE"),
    ("decompose", "--in", "RANK_1_H_FILE"),
], ids=" ".join)
def test_malformed_values_are_usage_errors(cache_dir, capsys, tmp_path, argv):
    files = {"BAD_CONFIG": b"cmax = abc\n", "LATIN1_CONFIG": b"cmax = 3\n\xff\xfe bad\n",
             "NO_TERMS_FILE": b'{"lattice": [["1"]]}', "NOT_JSON_FILE": b"not json",
             # a term whose r, or whose E profile's h, is not of the lattice's rank 2
             "RANK_1_R_FILE": _rank_2_file(b'"r":[1],"profile":"constant","params":{}'),
             "RANK_1_H_FILE": _rank_2_file(b'"r":[1,0],"profile":"E",'
                                           b'"params":{"h":["1"],"nu":"0"}')}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code = main([str(tmp_path / a) if a in files else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "UsageError"
    if argv[-1] in ("NO_TERMS_FILE", "NOT_JSON_FILE", "LATIN1_CONFIG", "RANK_1_R_FILE",
                    "RANK_1_H_FILE"):
        assert str(tmp_path / argv[-1]) in error["message"]  # it names the file


RANK_3 = "2,1,0;1,2,1;0,1,2"


@pytest.mark.parametrize("L, given, s", [
    ("2,1;1,2", (), "5/2"),
    (RANK_3, (), "3"),
    (RANK_3, ("--s", "7/2"), "7/2"),
], ids=["rank2", "rank3", "rank3-given"])
def test_poincare_default_s_converges_at_every_rank(cache_dir, capsys, L, given, s):
    # unless --s or the config gives it, s is max(5/2, (N + 3)/2) > 1 + N/2
    code, out = run(capsys, "poincare", "--L", L, "--cmax", "2", "--window", "1",
                    "--no-cache", *given)
    obj = json.loads(out)
    assert code == 0 and obj["config"]["s"] == s
    assert all("value" in row for row in obj["table"] if row["D'"] != "0")


@pytest.mark.parametrize("config", ["", "s = 5/2\n"], ids=["default", "config"])
def test_duality_at_rank_3(cache_dir, capsys, tmp_path, config):
    # the default s converges at rank 3; an s the config gives is kept
    cfg = tmp_path / "job.cfg"
    cfg.write_text(config)
    code, out = run(capsys, "--config", str(cfg), "verify", "duality", "--N", "3",
                    "--cmax", "3", "--no-cache")
    obj = json.loads(out)
    if config:
        assert code == 3 and "Re(s) > 1 + N/2" in obj["error"]["message"]
    else:
        assert code == 0 and obj["pass"]


def test_bad_lattice_in_expansion_file_is_domain_error(cache_dir, capsys, tmp_path):
    infile = tmp_path / "f.json"
    infile.write_text('{"lattice": [["1", "2"], ["0", "1"]], "terms": []}')
    code, out = run(capsys, "decompose", "--in", str(infile))
    assert code == 3 and json.loads(out)["error"]["type"] == "DomainError"


def test_verify_rejects_n_that_is_not_the_rank_of_l(cache_dir, capsys):
    code, out = run(capsys, "verify", "commutators", "--N", "2", "--L", "1")
    err = json.loads(out)["error"]
    assert code == 2 and err["type"] == "UsageError" and "--N 2" in err["message"]


def test_parser_state_does_not_leak_between_calls(cache_dir, capsys, tmp_path):
    out_file = tmp_path / "first.json"
    args = ("kloosterman", "--c", "2", "--L", "1", "--n", "1", "--r", "0",
            "--nprime", "1", "--rprime", "0")
    code, out = run(capsys, "--no-cache", *args, "--out", str(out_file))
    assert code == 0 and out == "" and json.loads(out_file.read_text())["table"]
    # swap the stored result for a marker that only a cache read can print
    [entry] = [cache_dir / f for f in os.listdir(cache_dir)]
    stored = json.loads(entry.read_text())
    entry.write_text(json.dumps(dict(stored, result='{"marker": 1}')))
    # the second call sets neither flag: it reads the cache and prints
    code, out = run(capsys, *args)
    assert code == 0 and json.loads(out) == {"marker": 1}
    assert json.loads(out_file.read_text())["table"]


def test_config_file_values_do_not_leak_between_calls(cache_dir, capsys, tmp_path):
    config = tmp_path / "job.cfg"
    config.write_text("c = 2\nn = 1\nr = 1\nrprime = 1\nprecision_bits = 64\n")
    args = ("--no-cache", "kloosterman", "--L", "1")
    code, out = run(capsys, "--config", str(config), *args)
    assert code == 0 and json.loads(out)["config"]["precision_bits"] == 64
    # the same call without the file prints every default
    code, out = run(capsys, *args)
    assert code == 0 and json.loads(out)["config"] == {
        "L": [["1"]], "c": [1], "n": 0, "r": [0], "nprime": 0, "rprime": [0],
        "precision_bits": 128}


def test_kloosterman_closed_form_and_cache(cache_dir, capsys):
    args = ("kloosterman", "--c", "1", "--L", "1", "--n", "0", "--r", "0",
            "--nprime", "0", "--rprime", "0")
    code, out1 = run(capsys, *args)
    assert code == 0
    table = json.loads(out1)["table"]
    assert table[0]["c"] == 1
    assert table[0]["value"][0].startswith("1.0000")
    # cache hit: byte identical
    code, out2 = run(capsys, *args)
    assert out2 == out1
    assert any(f.endswith(".json") for f in os.listdir(cache_dir))
    # changed c_max-like parameter is a different key
    code, out3 = run(capsys, "kloosterman", "--c", "2", "--L", "1", "--n", "0",
                     "--r", "0", "--nprime", "0", "--rprime", "0")
    assert json.loads(out3)["table"][0]["c"] == 2


def test_cache_corruption_recovers(cache_dir, capsys):
    args = ("kloosterman", "--c", "3", "--L", "1", "--n", "1", "--r", "1",
            "--nprime", "0", "--rprime", "1")
    code, out1 = run(capsys, *args)
    # corrupt every cache entry
    for name in os.listdir(cache_dir):
        with open(os.path.join(cache_dir, name), "w") as fh:
            fh.write("{ this is not json")
    code, out2 = run(capsys, *args)
    assert code == 0 and out2 == out1
    # and the entry is rewritten with valid content
    code, out3 = run(capsys, *args)
    assert out3 == out1


def _store_many(times):
    try:
        for _ in range(times):
            cache.store("race", {"x": 1}, '{"v": 1}')
    except Exception:
        os._exit(1)
    os._exit(0)


def test_concurrent_stores_of_one_key(cache_dir):
    # more writers than a small machine has cores, so that stores interleave
    procs = [multiprocessing.get_context("fork").Process(target=_store_many, args=(200,))
             for _ in range(4)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    assert not any(p.is_alive() for p in procs)
    assert [p.exitcode for p in procs] == [0] * 4
    assert cache.lookup("race", {"x": 1}) == {"v": 1}
    assert not [f for f in os.listdir(cache_dir) if f.endswith(".tmp")]


def _entry_path(operation, config):
    return os.path.join(cache.cache_dir(), cache.cache_key(operation, config) + ".json")


def test_store_of_equal_bytes_keeps_the_entry(cache_dir):
    cache.store("once", {"x": 1}, '{"v": 1}')
    path = _entry_path("once", {"x": 1})
    inode = os.stat(path).st_ino
    cache.store("once", {"x": 1}, '{"v": 1}')
    assert os.stat(path).st_ino == inode
    assert os.listdir(cache_dir) == [os.path.basename(path)]


def test_store_of_other_bytes_replaces_the_entry(cache_dir):
    cache.store("once", {"x": 1}, '{"v": 1}')
    cache.store("once", {"x": 1}, '{"v": 2}')
    assert cache.lookup("once", {"x": 1}) == {"v": 2}
    assert os.listdir(cache_dir) == [os.path.basename(_entry_path("once", {"x": 1}))]


# text that is no entry: no JSON, JSON that is no entry object, and an
# entry whose result is no JSON object's text
CORRUPT_ENTRIES = {
    "empty": "", "garbage": "{ this is not json", "list": "[]", "number": "5",
    "result-number": '{"operation": "once", "result": 7}',
    "result-not-json": '{"operation": "once", "result": "{ not json"}',
    "result-not-object": '{"operation": "once", "result": "7"}',
    "no-result": '{"operation": "once"}',
}


@pytest.mark.parametrize("bad", CORRUPT_ENTRIES.values(), ids=CORRUPT_ENTRIES.keys())
def test_corrupt_entry_is_rewritten_with_its_warning(cache_dir, capsys, bad):
    cache.store("once", {"x": 1}, '{"v": 1}')
    with open(_entry_path("once", {"x": 1}), "w") as fh:
        fh.write(bad)
    assert cache.lookup("once", {"x": 1}) is None
    assert capsys.readouterr().err.startswith("warning: corrupt cache entry")
    cache.store("once", {"x": 1}, '{"v": 1}')
    assert cache.lookup("once", {"x": 1}) == {"v": 1}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("bad", CORRUPT_ENTRIES.values(), ids=CORRUPT_ENTRIES.keys())
def test_corrupt_entry_prints_the_bytes_of_a_fresh_run(cache_dir, capsys, bad):
    args = ("kloosterman", "--c=3", "--L", "2", "--n", "1", "--nprime", "1")
    fresh = run(capsys, *args, "--no-cache")
    run(capsys, *args)
    (path,) = [cache_dir / name for name in os.listdir(cache_dir)]
    path.write_text(bad.replace('"once"', '"kloosterman"'))
    code = main(list(args))
    out, err = capsys.readouterr()
    assert (code, out) == fresh and err.startswith("warning: corrupt cache entry")
    assert run(capsys, *args) == fresh and capsys.readouterr().err == ""


def test_leftover_temp_file_does_not_touch_the_entry(cache_dir):
    # a store that crashed before its rename leaves its temp file behind
    cache.store("once", {"x": 1}, '{"v": 1}')
    path = _entry_path("once", {"x": 1})
    with open(f"{path}.{os.getpid()}.tmp", "w") as fh:
        fh.write("{ half a store")
    inode = os.stat(path).st_ino
    cache.store("once", {"x": 1}, '{"v": 1}')
    assert os.stat(path).st_ino == inode
    assert cache.lookup("once", {"x": 1}) == {"v": 1}
    cache.store("once", {"x": 1}, '{"v": 2}')
    assert cache.lookup("once", {"x": 1}) == {"v": 2}
    assert os.listdir(cache_dir) == [os.path.basename(path)]


def test_no_cache_flag(cache_dir, capsys):
    args = ("--no-cache", "kloosterman", "--c", "2", "--L", "2", "--n", "1",
            "--r", "0", "--nprime", "1", "--rprime", "0")
    code, out1 = run(capsys, *args)
    code, out2 = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("no_cache", [(), ("--no-cache",)])
def test_failed_cache_write_still_prints_the_result(cache_dir, capsys, tmp_path,
                                                    monkeypatch, no_cache):
    args = ("kloosterman", "--L", "2", "--c", "3", "--n", "1", "--nprime", "1", *no_cache)
    want = run(capsys, *args)
    # a directory under a regular file cannot be made, even by root
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv(cache.ENV_VAR, str(blocker / "cache"))
    code = main(list(args))
    out, err = capsys.readouterr()
    assert (code, out) == want
    assert err.startswith("warning: ") and err.count("\n") == 1


def test_theta_command_matches_library(cache_dir, capsys, tmp_path):
    out_file = tmp_path / "theta.json"
    code = main(["theta", "--L", "2", "--mu", "0", "--bound", "2",
                 "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    expect = json.loads(theta_lmu(GramLattice([[2]]), [0], 2).to_json())
    assert data["expansion"] == expect


@pytest.mark.parametrize("argv, message", [
    (("--k", "2", "--mu", "1"), "with --k does not read --mu"),
    (("--mu", "0", "--r", "1"), "without --k does not read --r"),
    (("--zeta-variant",), "without --k does not read --zeta-variant"),
])
def test_theta_rejects_flags_its_variant_does_not_read(cache_dir, capsys, argv, message):
    code, out = run(capsys, "theta", "--L", "2", "--bound", "2", *argv)
    err = json.loads(out)["error"]
    assert code == 2 and err["type"] == "UsageError" and message in err["message"]


@pytest.mark.parametrize("argv", [
    ("kloosterman", "--L", "1", "--c=5:3"),
    ("poincare", "--L", "1", "--window=-1", "--cmax", "1"),
    ("skew-poincare", "--L", "1", "--window=-1", "--cmax", "1"),
])
def test_empty_tables_are_usage_errors(cache_dir, capsys, argv):
    # a reversed c-range or a negative window would print an empty table
    code, out = run(capsys, *argv)
    assert code == 2 and json.loads(out)["error"]["type"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ("kloosterman", "--L", "2,1;1,2", "--r=1,,0"),
    ("kloosterman", "--L", "2,1;1,2", "--rprime=1,0,"),
    ("theta", "--L", "2", "--mu", ","),
    ("kloosterman", "--L", "2,,1;1,2"),
    ("kloosterman", "--L", "2,1,;1,2"),
    ("kloosterman", "--L", "2,1;1,2;"),
    ("kloosterman", "--L", ""),
], ids=" ".join)
def test_empty_entries_are_usage_errors(cache_dir, capsys, argv):
    # an empty entry of a vector or matrix literal is refused, not dropped:
    # --r=1,,0 is not the vector 1,0
    code, out = run(capsys, *argv)
    assert code == 2 and json.loads(out)["error"]["type"] == "UsageError"


def test_theta_cache_key_reads_r_from_config(cache_dir, capsys, tmp_path):
    # two config files that differ only in r must not share a cache entry
    outs = {}
    for r in ("1", "3"):
        cfg = tmp_path / f"r{r}.cfg"
        cfg.write_text(f"r = {r}\n")
        argv = ("--config", str(cfg), "theta", "--L", "1", "--k", "2", "--bound", "2")
        code, outs[r] = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--no-cache") == (0, outs[r])
        flag = json.loads(run(capsys, "theta", "--L", "1", "--k", "2", "--bound", "2",
                              "--r", r)[1])
        assert json.loads(outs[r])["expansion"] == flag["expansion"]
    assert outs["1"] != outs["3"]


def test_poincare_dprime_zero_is_structured_error(cache_dir, capsys):
    # the D' = 0 row carries a structured error object, the rest compute
    code, out = run(capsys, "poincare", "--k", "2", "--L", "1", "--s", "5/2",
                    "--n", "-1", "--r", "1", "--window", "1", "--cmax", "2")
    assert code == 0
    rows = json.loads(out)["table"]
    zero_rows = [r for r in rows if r["D'"] == "0"]
    assert zero_rows and all("error" in r for r in zero_rows)
    assert all(r["error"]["type"] == "DomainError" for r in zero_rows)
    good = [r for r in rows if "value" in r]
    assert good


def test_poincare_at_a_gamma_pole_prints_zero_rows(cache_dir, capsys):
    # k = 6 on a rank-2 lattice puts s = 5/2 at the holomorphic point
    # k/2 - N/4, where the D' > 0 rows divide by Gamma(0): 1/Gamma is entire,
    # so those coefficients are an exact 0, and the D' < 0 rows compute
    code, out = run(capsys, "poincare", "--k", "6", "--L", "2,1;1,2", "--s", "5/2",
                    "--n=1", "--window", "1", "--cmax", "2", "--no-cache")
    rows = json.loads(out)["table"]
    positive = [row for row in rows if Fraction(row["D'"]) > 0]
    negative = [row for row in rows if Fraction(row["D'"]) < 0]
    assert code == 0 and len(positive) == 2 and len(negative) == 3
    assert all(row["value"] == ["0.0", "0.0"] for row in positive)
    assert all(row["value"][0] != "0.0" for row in negative)


@pytest.mark.parametrize("command", ["poincare", "skew-poincare"])
def test_poincare_tables_take_an_empty_and_reject_a_negative_c_range(cache_dir, capsys,
                                                                    command):
    argv = (command, "--k", "3", "--L", "1", "--n=1", "--r=1", "--window", "1")
    code, out = run(capsys, *argv, "--cmax", "0")
    values = [row["value"] for row in json.loads(out)["table"] if "value" in row]
    assert code == 0 and values and all(v == ["0.0", "0.0"] for v in values)
    code, out = run(capsys, *argv, "--cmax", "-1")
    errors = [row["error"] for row in json.loads(out)["table"]]
    assert code == 0 and {"type": "DomainError",
                          "message": "c_max must be nonnegative"} in errors


@pytest.mark.parametrize("y", ["-1", "0"])
def test_poincare_off_the_upper_half_plane_is_each_rows_domain_error(cache_dir, capsys, y):
    # the profile is evaluated at Im tau = y, so y <= 0 is no point of H; the
    # D' = 0 row keeps its own message
    code, out = run(capsys, "poincare", "--L", "2", "--k", "2", f"--y={y}",
                    "--window", "1", "--cmax", "3")
    rows = json.loads(out)["table"]
    assert code == 0 and len(rows) == 6
    for row in rows:
        assert row["error"]["type"] == "DomainError"
        assert ("D' = 0" if row["D'"] == "0" else "y = Im tau > 0") in row["error"]["message"]


def test_verify_duality_needs_a_positive_cmax(cache_dir, capsys):
    code, out = run(capsys, "verify", "duality", "--L", "2", "--cmax", "0")
    err = json.loads(out)["error"]
    assert code == 3 and err["type"] == "DomainError" and "c_max" in err["message"]


@pytest.mark.parametrize("argv", [
    ("kloosterman", "--L", "2", "--r=1,2"),
    ("kloosterman", "--L", "2,1;1,2", "--rprime=1"),
    ("theta", "--L", "2,1;1,2", "--mu", "1"),
    ("theta", "--L", "2", "--k", "2", "--r=1,0"),
    ("poincare", "--L", "2", "--r=1,5"),
    ("skew-poincare", "--L", "2", "--k", "3", "--r=1,5"),
])
def test_vectors_of_the_wrong_rank_are_domain_errors(cache_dir, capsys, argv):
    code, out = run(capsys, *argv)
    obj = json.loads(out)
    errors = [row["error"] for row in obj["table"]] if "table" in obj else [obj["error"]]
    assert errors and all(e["type"] == "DomainError" and "rank" in e["message"]
                          for e in errors)
    assert code == (0 if "table" in obj else 3)


def test_decompose_and_specialize_commands(cache_dir, capsys, tmp_path):
    f = theta_lmu(GramLattice([[2]]), [1], 2)
    src = tmp_path / "f.json"
    src.write_text(f.to_json())
    code, out = run(capsys, "decompose", "--in", str(src))
    assert code == 0
    comp = json.loads(out)["components"]
    assert list(comp.keys()) == ["1"]
    code, out = run(capsys, "specialize", "--in", str(src), "--lam", "1/3",
                    "--mu", "1/2")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert terms and all("exponent" in t for t in terms)


def test_specialize_defaults_to_the_zero_vector_of_the_expansions_rank(cache_dir, capsys,
                                                                       tmp_path):
    src = tmp_path / "f.json"
    src.write_text(theta_lmu(GramLattice([[2, 1], [1, 2]]), [0, 0], 1).to_json())
    code, out = run(capsys, "specialize", "--in", str(src))
    obj = json.loads(out)
    assert code == 0 and obj["lam"] == obj["mu"] == ["0", "0"] and obj["terms"]
    code, out = run(capsys, "specialize", "--in", str(src), "--lam", "1")
    assert code == 3 and json.loads(out)["error"]["type"] == "DomainError"


def test_decompose_and_specialize_print_a_numeric_coefficient_alike(cache_dir, capsys,
                                                                     tmp_path):
    # a coefficient that is not rational is printed, not a traceback
    src = tmp_path / "f.json"
    src.write_text('{"lattice":[["1"]],"terms":[{"n":"1","r":[1],"profile":"constant",'
                   '"params":{},"coeff":["inf","0"]}]}')
    code, out = run(capsys, "decompose", "--in", str(src))
    assert code == 0
    assert json.loads(out)["components"]["0"][0]["coeff"] == ["+inf", "0.0"]
    code, out = run(capsys, "specialize", "--in", str(src))
    assert code == 0
    assert json.loads(out)["terms"][0]["coeff"] == ["+inf", "0.0"]


def test_eigen_command(cache_dir, capsys):
    code, out = run(capsys, "eigen", "--N", "1", "--k", "0", "--s", "2")
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalue"] == "-27/8"
    assert data["annihilation_roots"] == ["-1/4", "5/4"]


def test_eigen_takes_the_rank_of_l(cache_dir, capsys):
    code, out = run(capsys, "eigen", "--L", "2,1;1,2", "--k", "2")
    assert code == 0 and out == run(capsys, "eigen", "--N", "2", "--k", "2")[1]
    assert json.loads(out)["N"] == 2
    code, out = run(capsys, "eigen", "--L", "2,1;1,2", "--N", "1")
    err = json.loads(out)["error"]
    assert code == 2 and err["type"] == "UsageError" and "--N 1" in err["message"]


def test_config_file_precedence(cache_dir, capsys, tmp_path):
    cfg = tmp_path / "job.cfg"
    # a config key the suite does not read is no error, unlike the flag
    cfg.write_text("N = 1\nL = 2\nsamples = 7\n")
    code, out = run(capsys, "--config", str(cfg), "verify", "commutators")
    assert code == 0
    rep = json.loads(out)
    assert rep["lattice"] == [["2"]]
    # flags override the file
    code, out = run(capsys, "--config", str(cfg), "verify", "commutators",
                    "--L", "3")
    rep = json.loads(out)
    assert rep["lattice"] == [["3"]]


def test_determinism_byte_identical(cache_dir, capsys):
    args = ("verify", "commutators", "--N", "1", "--L", "1")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_parallel_jobs_match_sequential(cache_dir, capsys):
    # each table has error rows (the poincare one at D' = 0), which must be
    # the same at any --jobs, like the value rows
    for request_args in [
            ("poincare", "--k", "2", "--L", "1", "--s", "5/2", "--n", "-1",
             "--r", "1", "--window", "1", "--cmax", "6"),
            ("skew-poincare", "--k", "3", "--L", "1", "--n", "1", "--r", "1",
             "--window", "2", "--cmax", "6")]:
        code1, out1 = run(capsys, "--no-cache", *request_args)
        code2, out2 = run(capsys, "--no-cache", "--jobs", "2", *request_args)
        assert code1 == code2 == 0
        assert any("error" in row for row in json.loads(out1)["table"])
        assert out2 == out1


def _rank2_table(cmax, jobs):
    # window 1: six rows, each a c-sum over (Z/c)^2 for c = 1..cmax
    return ("--no-cache", "--jobs", str(jobs), "poincare", "--k", "1", "--L", "2,1;1,2",
            "--n=-1", "--r=1,0", "--window", "1", "--cmax", str(cmax))


def test_small_table_at_jobs_2_starts_no_pool(cache_dir, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a table below the work threshold started a pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    for request_args in [
            ("poincare", "--k", "2", "--L", "1", "--s", "5/2", "--n", "-1",
             "--r", "1", "--window", "1", "--cmax", "10"),
            ("skew-poincare", "--k", "3", "--L", "1", "--n", "1", "--r", "1",
             "--window", "2", "--cmax", "6")]:
        code1, out1 = run(capsys, "--no-cache", *request_args)
        code2, out2 = run(capsys, "--no-cache", "--jobs", "2", *request_args)
        assert code1 == code2 == 0 and out2 == out1
    code1, out1 = run(capsys, *_rank2_table(3, 1))
    code2, out2 = run(capsys, *_rank2_table(3, 2))
    assert code1 == code2 == 0 and out2 == out1


def test_table_above_the_work_threshold_takes_the_pool(cache_dir, capsys, monkeypatch):
    # the smallest cmax whose six rows visit two workers' worth of points
    cmax = next(c for c in range(1, 100)
                if 6 * sum(j * j for j in range(1, c + 1)) >= 2 * cli.POINTS_PER_WORKER)
    calls = []

    def rows_in_process(specs, jobs):
        calls.append(jobs)
        return [cli._poincare_row(spec) for spec in specs]

    monkeypatch.setattr(cli, "_parallel_coeff", rows_in_process)
    code1, out1 = run(capsys, *_rank2_table(cmax, 1))
    assert code1 == 0 and calls == []
    code2, out2 = run(capsys, *_rank2_table(cmax, 2))
    assert code2 == 0 and calls == [2] and out2 == out1
    # more jobs than the work pays for: still two workers
    code8, out8 = run(capsys, *_rank2_table(cmax, 8))
    assert code8 == 0 and calls == [2, 2] and out8 == out1
    # one cmax less is below the threshold and stays in-process
    assert run(capsys, *_rank2_table(cmax - 1, 2))[0] == 0 and calls == [2, 2]


def test_parallel_coeff_on_a_pool_matches_the_rows_in_order():
    # one row per (table, n', r'), the D' = 0 error rows among them
    ctx, L = PrecisionContext(bits=128), GramLattice([[1]])
    specs = [(False, Fraction(1), Fraction(5, 2), 2, L, -1, [1], np_, [rp], 6, ctx)
             for np_ in (-1, 0, 1) for rp in (0, 1)]
    specs += [(True, None, None, 3, L, 1, [1], np_, [rp], 6, ctx)
              for np_ in (-2, 0, 2) for rp in (0, 1, 2)]
    rows = [cli._poincare_row(spec) for spec in specs]
    assert any("error" in row for row in rows) and any("value" in row for row in rows)
    assert cli._parallel_coeff(specs, 2) == rows


def test_missing_input_file_is_structured_error(cache_dir, capsys):
    code, out = run(capsys, "specialize", "--in", "/nonexistent/f.json",
                    "--lam", "0", "--mu", "0")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("argv, error", [
    (("eigen", "--k", "abc"), "UsageError"),
    (("eigen",), "FileNotFoundError"),
], ids=["bad-value", "good-value"])
def test_unwritable_out_reports_on_stdout(cache_dir, capsys, tmp_path, argv, error):
    out_file = str(tmp_path / "missing-dir" / "x.json")
    code, out = run(capsys, *argv, "--out", out_file)
    assert code == 2 and json.loads(out)["error"]["type"] == error


# -- the CLI contract on argv drawn from the option tables ------------------------

# small well-formed values of every option, some outside the domain; cmax
# <= 3 and samples 1 keep each request to milliseconds (a verify suite takes
# at most 0.3 s at rank 3).  Half the requests also draw "x" or "1/0", which
# no option parses.
_VALUES = {
    "precision_bits": ["64", "128", "8"],
    "cmax": ["-1", "0", "1", "3"],
    "bound": ["-1", "0", "2", "5/2"],
    "N": ["0", "1", "2", "3"],
    "L": ["1", "2", "2,1;1,2", "1,1/2;1/2,1", "2,1,0;1,2,1;0,1,2", "0", "-1", "1,2;3,4"],
    "s": ["5/2", "3", "1", "0"],
    "jobs": ["-3", "0", "1", "2"],
    "samples": ["1", "0"],
    "c": ["1", "1:3", "0", "3:1"],
    "n": ["-1", "0", "1"],
    "nprime": ["-1", "0", "1"],
    "r": ["", "0", "-1", "1,0", "1,2"],
    "rprime": ["0", "1", "1,-1"],
    "mu": ["0", "1", "1,0", "1/3"],
    "k": ["-1", "2", "3", "6", "5/2"],
    "window": ["-1", "0", "1"],
    "y": ["-1", "0", "1/2", "1"],
    "lam": ["0", "1/3", "0,1"],
    "infile": ["@DIR/expansion.json", "@DIR/not.json", "@DIR/missing.json"],
}

# --config files: a good one, a line without '=', a malformed value, an
# unknown key and bytes that are not UTF-8; the directory and a missing path
# are drawn too
_CONFIG_FILES = {
    "good.cfg": b"# a comment\n\nprecision-bits = 64\n",
    "no-equals.cfg": b"cmax 3\n",
    "bad-value.cfg": b"cmax = x\n",
    "unknown-key.cfg": b"colour = blue\n",
    "latin1.cfg": b"cmax = 3\n\xff\xfe bad\n",
}
_CONFIGS = [f"@DIR/{name}" for name in _CONFIG_FILES] + ["@DIR", "@DIR/missing.cfg"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, options = cli.COMMANDS[command]
    malformed = ["x", "1/0"] if draw(st.booleans()) else []
    head, tail = [], [command]
    # the options set on every request that needs them, or where a default
    # would make it slow
    required = {"L", "cmax"} if command in ("poincare", "skew-poincare") else \
        {"L"} if command in ("kloosterman", "theta") else set()
    if command == "verify":
        suite = draw(st.sampled_from(sorted(SUITES)))
        tail.append(suite)
        required = {"samples"} if SUITES[suite][1] else {"cmax"} if suite == "duality" else set()
    for name, opt in {**cli.GLOBAL_OPTIONS, **options}.items():
        if name not in required and not draw(st.booleans()):
            continue
        flag = cli._flag(name, opt)
        arg = flag if opt.parse is None else \
            f"{flag}={draw(st.sampled_from(_VALUES[name] + malformed))}"
        (head if name in cli.GLOBAL_OPTIONS and draw(st.booleans()) else tail).append(arg)
    if draw(st.booleans()):
        head.append(f"--config={draw(st.sampled_from(_CONFIGS))}")
    return head + tail


_LIBRARY_ERRORS = {cls.__name__ for cls in vars(errors).values()
                   if isinstance(cls, type) and issubclass(cls, errors.MaassJacobiError)
                   and cls is not errors.UsageError}


def _is_os_error(name):
    cls = getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, OSError)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=["poincare", "--L", "2", "--k", "2", "--y=-1", "--window", "1", "--cmax", "3"])
@example(argv=["poincare", "--L", "2", "--jobs", "0", "--window", "1", "--cmax", "1"])
@example(argv=["eigen", "--config=@DIR/latin1.cfg"])
def test_every_request_ends_in_one_json_object_and_a_typed_exit(cache_dir, capsys, tmp_path,
                                                                 argv):
    files = {"expansion.json": theta_lmu(GramLattice([[2]]), [1], 2).to_json().encode(),
             "not.json": b"not json", **_CONFIG_FILES}
    for name, data in files.items():
        # the examples share tmp_path, and overwriting an existing file can
        # wait on the disk far longer than the request takes
        path = tmp_path / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
    code = main([a.replace("@DIR", str(tmp_path)) for a in argv])
    obj = json.loads(capsys.readouterr().out)
    assert isinstance(obj, dict) and code in (0, 1, 2, 3)
    kind = obj.get("error", {}).get("type")
    if code == 2:
        assert kind == "UsageError" or _is_os_error(kind)
    if code == 3:
        assert kind in _LIBRARY_ERRORS
