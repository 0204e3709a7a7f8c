"""Tests of the benchmark itself:  PYTHONPATH=src python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import random

import pytest
from mpmath import mp

import calibration
import checks
import run
import workloads
from tracing import PLAN, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_requests(workload):
    a = [r.argv for r in workloads.make_round(workload, 11)]
    assert a == [r.argv for r in workloads.make_round(workload, 11)]
    assert a != [r.argv for r in workloads.make_round(workload, 12)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_composition(workload):
    rounds = [workloads.make_round(workload, s) for s in range(5)]
    if workload == "repeat":  # which request gets 2, 3 or 4 copies is drawn
        assert all(len(r) == 18 and len({q.argv for q in r}) == 6 for r in rounds)
    else:
        kinds = [sorted((q.kind, q.params.get("suite", ""), q.argv[q.argv.index("--L") + 1])
                        for q in r) for r in rounds]
        assert all(k == kinds[0] for k in kinds)


def test_tracer_restores_every_original():
    from maassjacobi import cli
    sites = [(owner, attr) for _, sites, _ in PLAN.values() for owner, attr in sites]
    sites.append((cli, "ProcessPoolExecutor"))
    before = [vars(owner)[attr] for owner, attr in sites]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(sites, before))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(sites, before))


def test_traced_request_counts_the_layers():
    import worker
    from maassjacobi import cli
    tracer = Tracer()
    tracer.install()
    argv = ["kloosterman", "--c=1:3", "--L", "2", "--n=1", "--r=1", "--nprime=0",
            "--rprime=1", "--no-cache"]
    try:
        for _ in range(2):  # repeats across requests are not redundant work
            code, out = worker.call(tracer.request(cli.main), argv)
            assert code == 0 and json.loads(out)["table"]
    finally:
        tracer.uninstall()
    layers = tracer.metrics(2)
    assert layers["series.kloosterman.calls"][0] == 3
    assert layers["series.kloosterman.distinct_ratio"][0] == 1.0
    assert layers["cache.store.calls"][0] == 1 and layers["cache.lookup.calls"][0] == 0


def _fake(latencies, per_round, kernel=0.001):
    n = len(latencies)
    return {"per_round": per_round, "latencies_s": latencies,
            "cpu_s": [0.9 * x for x in latencies], "kernel_s": [kernel] * (2 * n),
            "rss_self_kb": 1024, "rss_child_kb": 0,
            "outcomes": [["ok", None]] * n, "unexpected": []}


def test_every_printed_metric_is_declared():
    fake = _fake([0.1 * (i + 1) for i in range(30)], 10)
    s = run.summarize(fake)
    assert set(run.end_to_end(s, 0.3)) == set(_declared("end_to_end"))
    fake["layers"] = Tracer().metrics(30)
    layers = run.per_layer(s, s, fake)
    declared = _declared("per_layer")
    assert set(layers) == set(declared)
    assert all(declared[name] == unit for name, (_, unit) in layers.items())
    e2e = _declared("end_to_end")
    assert all(e2e[name] == unit for name, (_, unit) in run.end_to_end(s, 0.3).items())


def test_tail_request_has_ten_timed_samples_beyond():
    assert run.tail_rank(30, 10) == 1     # the slowest request's 10 samples
    assert run.tail_rank(30, 7) == 2      # 14 samples of the two slowest
    assert run.tail_rank(30, 5) == 2
    assert run.tail_rank(6, 1) == 5       # a round too small: its fastest


def test_round_count_is_fixed_by_the_run_length():
    for workload in workloads.WORKLOADS:
        assert run.rounds_for(workload, 1) == run.WARMUP_ROUNDS + run.MIN_ROUNDS
        assert run.rounds_for(workload, 200) == run.WARMUP_ROUNDS + round(
            200 / workloads.ROUND_SECONDS[workload])


def test_figures_are_each_requests_best_over_the_timed_rounds():
    rng = random.Random(1)
    lat = [rng.random() for _ in range(6 * 6)]   # warm-up and five rounds of six
    s = run.summarize(_fake(lat, 6))
    timed = lat[6:]
    best = [min(timed[j::6]) for j in range(6)]
    got = s["measured"]
    assert (s["n"], s["timed"], s["rounds"]) == (36, 30, 5)
    assert got["latency_p50_s"] == sorted(best)[2] / 2 + sorted(best)[3] / 2
    assert got["requests_per_s"] == 6 / sum(best)
    assert got["cpu_s_per_request"] == pytest.approx(0.9 * sum(best) / 6)
    # two requests (ten samples) beyond the tail one
    assert got["latency_tail_s"] == sorted(best)[-3] and s["tail_beyond"] == 10


def test_slowdown_follows_the_median_kernel_nearby():
    ref = calibration.REFERENCE_S
    # two kernel timings before each of ten requests; the machine runs twice
    # as slow from the sixth request on, and one timing is unlucky
    kernel = [ref] * 10 + [2 * ref] * 10
    kernel[3] = 9 * ref
    assert calibration.slowdowns(kernel, 10) == [1, 1, 1, 1, 1.5, 2, 2, 2, 2, 2]


def test_times_are_divided_by_the_slowdown():
    lat = [0.1 * (i + 1) for i in range(12)]
    s = run.summarize(_fake(lat, 3, kernel=2 * calibration.REFERENCE_S))
    got, at = s["measured"], s["at_reference"]
    assert s["slowdown"] == 2
    for name in ("latency_p50_s", "latency_tail_s", "cpu_s_per_request"):
        assert at[name] == pytest.approx(got[name] / 2)
    assert at["requests_per_s"] == pytest.approx(2 * got["requests_per_s"])
    assert run.end_to_end(s, 0.3)["latency_p50_s"][0] == at["latency_p50_s"]


@pytest.mark.parametrize("gram,c,n,r,np_,rp", [
    ("2", 7, 1, [1], -2, [0]),
    ("1,1/2;1/2,1", 4, 0, [1, -1], 1, [2, 0]),
    ("2,0;0,4", 6, -1, [0, 1], 2, [1, 1]),
])
def test_kloosterman_oracle_matches_library(gram, c, n, r, np_, rp):
    from maassjacobi.lattice import GramLattice
    from maassjacobi.precision import PrecisionContext
    from maassjacobi.series import kloosterman
    ctx = PrecisionContext(bits=128)
    with ctx.working():
        lib = kloosterman(c, GramLattice(workloads.parse_gram(gram)), n, r, np_, rp, ctx)
        oracle = checks.kloosterman_oracle(gram, c, n, r, np_, rp, 192)
        assert abs(lib - oracle) < mp.mpf("1e-30")


def test_kloosterman_check_rejects_a_wrong_row():
    req = workloads._kloosterman(random.Random(3), "2", 1, 9)
    from maassjacobi import cli
    import worker
    code, out = worker.call(cli.main, req.argv)
    rng = random.Random(0)
    assert checks.check_kloosterman(req, code, out, rng) == ("ok", None)
    obj = json.loads(out)
    for row in obj["table"]:
        row["value"][0] = str(mp.mpf(row["value"][0]) + mp.mpf("1e-20"))
    assert checks.check_kloosterman(req, 0, json.dumps(obj), rng)[0] == "wrong"


@pytest.mark.parametrize("make", [
    lambda rng: workloads._poincare(rng, "2", 1, 4, jobs=1),
    lambda rng: workloads._poincare(rng, "2,1;1,2", 2, 2, jobs=1),
    lambda rng: workloads._skew_poincare(rng, "3", 1, 4),
])
def test_table_check_uses_the_formula(make):
    from maassjacobi import cli
    import worker
    req = make(random.Random(5))
    code, out = worker.call(cli.main, req.argv)
    assert checks.check_table_values(req, code, out)
    obj = json.loads(out)
    for row in obj["table"]:
        if "value" in row:
            row["value"][1] = str(mp.mpf(row["value"][1]) * (1 + mp.mpf("1e-25")) + mp.mpf("1e-25"))
    assert not checks.check_table_values(req, 0, json.dumps(obj))


def _table(error):
    return json.dumps({"config": {"k": 1}, "operation": "poincare", "table": [
        {"D'": "-4", "nprime": -1, "rprime": [0], "value": ["1.0", "0.0"]},
        {"D'": "0", "nprime": 0, "rprime": [0], "error": error},
    ]})


def test_jobs_dprime0_defect_is_matched_exactly():
    want = _table({"type": "DomainError", "message": "D' = 0 coefficients are unsupported: x"})
    got = _table({"type": "DomainError", "message": "bessel_I requires x > 0"})
    req = workloads.Request(("poincare", "--jobs", "2"), "poincare", 1)
    assert checks.check_table(req, 0, got, (0, want, True)) == ("wrong", "jobs-dprime0")
    other = got.replace('"1.0"', '"2.0"')
    assert checks.check_table(req, 0, other, (0, want, True)) == ("wrong", None)
    assert checks.check_table(req, 0, want, (0, want, True)) == ("ok", None)
    assert checks.check_table(req, 0, want, (0, want, False)) == ("wrong", None)
