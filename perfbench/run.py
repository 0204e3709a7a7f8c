"""maassjacobi benchmark: seeded, closed-loop CLI workloads with one client.

    python3 perfbench/run.py --workload series --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each run starts fresh processes
(``worker.py``) with the checkout's ``src`` on ``PYTHONPATH`` and a private
``MAASSJACOBI_CACHE_DIR`` under ``.perfbench_tmp/``, which is removed
afterwards.  Workloads, metrics and the layer predictions are described in
``perfbench/README.md`` and declared in ``BENCHMARK.json``.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced replay of the same rounds, and the tracing overhead.  Lines before
it are a readable report, including the environment.  Exit status is 0
only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calibration
from workloads import ROUND_SECONDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
WARMUP_ROUNDS = 1
MIN_ROUNDS = 5
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def rounds_for(workload: str, seconds: float) -> int:
    """The fixed number of rounds a run of ``seconds`` makes, warm-up
    included: it depends on nothing measured, so the number of samples is
    the same in every run, however fast the code under test is."""
    return WARMUP_ROUNDS + max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def tail_rank(k: int, rounds: int) -> int:
    """How many requests of a round of ``k`` are slower than the tail one:
    the fewest whose ``rounds`` samples each make at least ``TAIL_BEYOND``
    samples beyond it (all but one when the round is too small)."""
    return min(k - 1, -(-TAIL_BEYOND // rounds))


def environment() -> dict:
    import mpmath
    import mpmath.libmp
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "cpu": model}


class Runner:
    def __init__(self, args, scratch):
        self.args = args
        self.scratch = scratch
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["MAASSJACOBI_CACHE_DIR"] = os.path.join(scratch, "unused-cache")
        self._n = 0

    def _remaining(self) -> float:
        left = TIME_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def worker(self, *extra):
        """Run worker.py; returns (its set-up seconds, its result)."""
        self._n += 1
        scratch = os.path.join(self.scratch, f"w{self._n}")
        os.makedirs(scratch)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--scratch", scratch, *extra]
        # own process group, so a worker that overruns goes with its pool
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=self.env,
                                text=True, start_new_session=True)
        try:
            first = proc.stdout.readline().split()
            rest, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish in time")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0 or len(first) != 2 or first[0] != "ready":
            raise BenchError(f"worker exited with {proc.returncode}")
        setup = float(first[1])
        lines = rest.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return setup, json.loads(lines[-1])


def figures(lat, cpu, k: int, rounds: int) -> dict:
    """Rate, median, tail and CPU of ``rounds`` rounds of ``k`` requests,
    from the wall and CPU times of each sample ``lat`` and ``cpu``."""
    best = [min(lat[j::k]) for j in range(k)]
    return {
        "requests_per_s": k / sum(best),
        "latency_p50_s": statistics.median(best),
        "latency_tail_s": sorted(best, reverse=True)[tail_rank(k, rounds)],
        "cpu_s_per_request": sum(min(cpu[j::k]) for j in range(k)) / k,
    }


def summarize(res: dict) -> dict:
    """Figures of one worker run.

    Every round sends the same requests, and the first ``WARMUP_ROUNDS``
    are left out.  On a shared machine other tenants only ever add time,
    so each request is taken at its best over the timed rounds, for wall
    time and CPU time alike: the figure least disturbed by them.  The rate
    is that of a round with every request at its best time; the median and
    the tail are over the requests of a round at their best times, the
    tail counting each request once for each of its timed samples.

    ``measured`` holds these figures from the times as measured, and
    ``at_reference`` from each sample's times divided by the machine's
    slowdown around it (see ``calibration``)."""
    k = res["per_round"]
    lat, cpu = res["latencies_s"], res["cpu_s"]
    rounds = len(lat) // k - WARMUP_ROUNDS
    if rounds < 1:
        raise BenchError("no timed round")
    slow = calibration.slowdowns(res["kernel_s"], len(lat))
    timed = slice(WARMUP_ROUNDS * k, None)
    beyond = tail_rank(k, rounds) * rounds
    n = k * rounds
    outcomes = res["outcomes"]
    return {
        "n": len(outcomes),
        "timed": n,
        "rounds": rounds,
        "measured": figures(lat[timed], cpu[timed], k, rounds),
        "at_reference": figures([x / f for x, f in zip(lat, slow)][timed],
                                [x / f for x, f in zip(cpu, slow)][timed], k, rounds),
        "slowdown": statistics.median(slow[timed]),
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "peak_rss_mb": (res["rss_self_kb"] + res["rss_child_kb"]) / 1024.0,
        "rss_self_mb": res["rss_self_kb"] / 1024.0,
        "rss_child_mb": res["rss_child_kb"] / 1024.0,
        "failed": sum(o == "fail" for o, _ in outcomes),
        "wrong": sum(o == "wrong" for o, _ in outcomes),
        "known": sorted({k for o, k in outcomes if k}),
        "correct": not any(o != "ok" and k is None for o, k in outcomes),
    }


def report(args, env, s, setup=None):
    """The readable report: each time figure at the reference speed, then as
    measured."""
    at, got = s["at_reference"], s["measured"]
    print(f"# workload {args.workload} seed {args.seed}: {s['n']} requests, "
          f"{WARMUP_ROUNDS} warm-up round and {s['rounds']} timed rounds of "
          f"{s['timed'] // s['rounds']}, closed loop, 1 client")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# the machine ran a median {s['slowdown']:.4f} times slower than the "
          "reference; time figures at the reference speed, then as measured")
    print(f"requests_per_s {at['requests_per_s']:.6g} 1/s "
          f"(measured {got['requests_per_s']:.6g})")
    print(f"latency_p50_s {at['latency_p50_s']:.6g} s (measured {got['latency_p50_s']:.6g})")
    print(f"latency_tail_s {at['latency_tail_s']:.6g} s (measured "
          f"{got['latency_tail_s']:.6g}; p{s['tail_percentile']:.1f} of {s['timed']} "
          f"timed requests, {s['tail_beyond']} beyond)")
    print(f"cpu_s_per_request {at['cpu_s_per_request']:.6g} s "
          f"(measured {got['cpu_s_per_request']:.6g})")
    print(f"fail_share {s['failed'] / s['n']:.6g} ({s['failed']} of {s['n']})")
    print(f"wrong_share {s['wrong'] / s['n']:.6g} ({s['wrong']} of {s['n']})")
    if setup is not None:
        setup_s, measured = setup
        print(f"setup_s {setup_s:.6g} s (median of {len(measured)} fresh processes, "
              "each at the reference speed; measured: "
              + ", ".join(f"{x:.3f}" for x in measured) + ")")
    print(f"peak_rss_mb {s['peak_rss_mb']:.6g} MB (self {s['rss_self_mb']:.1f}, "
          f"largest child {s['rss_child_mb']:.1f})")
    for k in s["known"]:
        print(f"# known defect counted: {k}")


def end_to_end(s: dict, setup_s: float) -> dict:
    at = s["at_reference"]
    return {
        "requests_per_s": (at["requests_per_s"], "1/s"),
        "latency_p50_s": (at["latency_p50_s"], "s"),
        "latency_tail_s": (at["latency_tail_s"], "s"),
        "cpu_s_per_request": (at["cpu_s_per_request"], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (s["peak_rss_mb"], "MB"),
    }


def per_layer(plain: dict, traced: dict, traced_result: dict) -> dict:
    """Layer figures of the traced replay plus the tracing overhead;
    ``plain`` and ``traced`` are ``summarize`` outputs of the two processes."""
    metrics = {k: tuple(v) for k, v in traced_result["layers"].items()}
    rate, untraced_rate = (x["at_reference"]["requests_per_s"] for x in (traced, plain))
    metrics["trace.requests_per_s"] = (rate, "1/s")
    metrics["trace.untraced_requests_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (rate / untraced_rate, "ratio")
    metrics["fail_share"] = (traced["failed"] / traced["n"], "share")
    metrics["wrong_share"] = (traced["wrong"] / traced["n"], "share")
    return metrics


def run(args, scratch) -> dict:
    runner = Runner(args, scratch)
    env = environment()
    if not args.trace:
        probes = [runner.worker("--setup-only") for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(t / calibration.slowdown(p["kernel_s"])
                                    for t, p in probes)
        _, res = runner.worker("--rounds", str(rounds_for(args.workload, args.seconds)))
        s = summarize(res)
        report(args, env, s, (setup_s, [t for t, _ in probes]))
        metrics = end_to_end(s, setup_s)
        unexpected = res["unexpected"]
    else:
        # untraced and traced processes replay the same rounds, so the
        # ratio of their throughputs is the tracing overhead
        rounds = str(rounds_for(args.workload, args.seconds / 2))
        _, plain = runner.worker("--rounds", rounds)
        _, traced = runner.worker("--rounds", rounds, "--trace")
        sp, s = summarize(plain), summarize(traced)
        s["correct"] = s["correct"] and sp["correct"]
        report(args, env, sp)
        metrics = per_layer(sp, s, traced)
        print("# per-layer figures of the traced replay:")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{name} {value:.6g} {unit}")
        unexpected = plain["unexpected"] + traced["unexpected"]
    for item in unexpected:
        print("# UNEXPECTED " + json.dumps(item), file=sys.stderr)
    return {"correct": s["correct"], "attempted": s["n"], "failed": s["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "maassjacobi", "cli.py")):
        print(f"error: no toolkit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        result = run(args, scratch)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
