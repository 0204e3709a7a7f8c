"""The machine's speed, measured with a fixed pure-Python kernel.

The benchmark runs on shared virtual machines whose speed drifts by a
fifth or more within a minute, for a loop of a millisecond as much as for a
whole request.  The best time of a request over several rounds removes
much of the time other tenants add, but not that drift.  So the worker
times this kernel, about a millisecond of interpreted integer arithmetic
(the kind of work ``mpmath``'s pure-Python backend and the exact
``Fraction`` layers do), twice before each request, outside the request's
timing.  ``slowdowns`` compares the median kernel timed around each
request with ``REFERENCE_S``, and ``run.py`` reports every time figure
both as measured and with each request's times divided by the slowdown
around it.  The median follows the speed a request of many milliseconds
gets; the fastest kernel does not, because even a busy machine leaves
the odd millisecond free.

The kernel shares no code with the toolkit, so a change to the toolkit
moves the scaled figures in the same proportion as the measured ones.
"""

from __future__ import annotations

import statistics
import time

# The kernel's median time on the machine the benchmark was written on
# (2-vCPU Intel Xeon VM, Python 3.11.7) in a quiet spell.
REFERENCE_S = 0.00095
LOOP = 15000
WINDOW = 3


def kernel() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


def timings(count: int) -> list:
    """Seconds each of ``count`` runs of the kernel took."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def slowdown(kernel_s) -> float:
    """How many times slower than the reference the machine ran, judged by
    the median of the kernel timings ``kernel_s``."""
    return statistics.median(kernel_s) / REFERENCE_S


def slowdowns(kernel_s, requests: int) -> list:
    """The slowdown around each of ``requests`` requests sent in order,
    with the same number of kernel timings taken before each: judged by
    every kernel timed before a request within ``WINDOW`` of it, so that it
    follows the drift but not one unlucky timing."""
    per = len(kernel_s) // requests
    return [slowdown(kernel_s[max(0, i - WINDOW) * per:(i + WINDOW + 1) * per])
            for i in range(requests)]
