"""One benchmark process: set up, run the closed loop, check the outputs.

Started by ``run.py`` as a fresh interpreter with ``src`` on ``PYTHONPATH``
and ``MAASSJACOBI_CACHE_DIR`` inside the run's scratch directory.  It prints
``ready <seconds>`` once set-up is done, with the set-up time measured from
the start of ``main`` (importing ``maassjacobi``, building the CLI parser,
generating the requests), then one JSON line with the raw measurements
(with ``--setup-only``, only the calibration kernel's timings).

The loop sends one request at a time through ``cli.main(argv)`` with
stdout captured, and repeats the workload's round of requests exactly
``--rounds`` times.  Each request's wall time and CPU time are recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import calibration

KERNELS_PER_REQUEST = 2
KERNELS_AFTER_SETUP = 20


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--scratch", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children (the
    ``--jobs`` pool's workers are reaped when the pool shuts down)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def call(main, argv):
    """(exit code or 'raise', captured stdout) of one CLI request."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - any escape is a failed request
            code = "raise"
    return code, buf.getvalue()


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _args(argv)
    from maassjacobi import cli
    import workloads

    cli.build_parser()
    requests = workloads.make_round(args.workload, args.seed)
    run_cache = os.path.join(args.scratch, "cache")
    os.environ["MAASSJACOBI_CACHE_DIR"] = run_cache
    print(f"ready {time.perf_counter() - started!r}", flush=True)
    if args.setup_only:
        print(json.dumps({"kernel_s": calibration.timings(KERNELS_AFTER_SETUP)}))
        return 0

    tracer = None
    front = cli.main
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        front = tracer.request(cli.main)

    records, latencies, cpu, kernel = [], [], [], []
    try:
        for index in range(args.rounds):
            if args.workload == "repeat":
                # every round starts from an empty cache
                os.environ["MAASSJACOBI_CACHE_DIR"] = f"{run_cache}-{index}"
            for req in requests:
                kernel.extend(calibration.timings(KERNELS_PER_REQUEST))
                cs, ts = cpu_seconds(), time.perf_counter()
                code, out = call(front, req.argv)
                latencies.append(time.perf_counter() - ts)
                cpu.append(cpu_seconds() - cs)
                records.append((req, code, out))
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    import checks
    os.environ["MAASSJACOBI_CACHE_DIR"] = os.path.join(args.scratch, "reference")
    outcomes = checks.classify(records, lambda a: call(cli.main, a), args.seed)

    result = {
        "per_round": len(requests),
        "latencies_s": latencies,
        "cpu_s": cpu,
        "kernel_s": kernel,
        "rss_self_kb": rss_self,
        "rss_child_kb": rss_child,
        "outcomes": [[o, known] for o, known in outcomes],
        "unexpected": [
            {"argv": list(req.argv), "code": code, "outcome": o, "output": out[-400:]}
            for (req, code, out), (o, known) in zip(records, outcomes)
            if o != "ok" and known is None
        ][:5],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(len(records))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
