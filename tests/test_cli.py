import json
import multiprocessing
import os

import pytest

from maassjacobi import cache
from maassjacobi.cli import main, parse_rational_matrix
from maassjacobi.fourier import theta_lmu
from maassjacobi.lattice import GramLattice


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


def test_verify_exit_codes(cache_dir, capsys):
    code, out = run(capsys, "verify", "centrality", "--N", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["suite"] == "centrality"


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
    assert cache.lookup("race", {"x": 1}) == '{"v": 1}'
    assert not [f for f in os.listdir(cache_dir) if f.endswith(".tmp")]


def test_no_cache_flag(cache_dir, capsys):
    args = ("--no-cache", "kloosterman", "--c", "2", "--L", "2", "--n", "1",
            "--r", "0", "--nprime", "1", "--rprime", "0")
    code, out1 = run(capsys, *args)
    code, out2 = run(capsys, *args)
    assert out1 == out2


def test_theta_command_matches_library(cache_dir, capsys, tmp_path):
    out_file = tmp_path / "theta.json"
    code = main(["theta", "--L", "2", "--mu", "0", "--bound", "2",
                 "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    expect = json.loads(theta_lmu(GramLattice([[2]]), [0], 2).to_json())
    assert data["expansion"] == expect


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


def test_eigen_command(cache_dir, capsys):
    code, out = run(capsys, "eigen", "--N", "1", "--k", "0", "--s", "2")
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalue"] == "-27/8"
    assert data["annihilation_roots"] == ["-1/4", "5/4"]


def test_config_file_precedence(cache_dir, capsys, tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("N = 1\nL = 2\n")
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


def test_missing_input_file_is_structured_error(cache_dir, capsys):
    code, out = run(capsys, "specialize", "--in", "/nonexistent/f.json",
                    "--lam", "0", "--mu", "0")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"
