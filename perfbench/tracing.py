"""Per-layer tracing from outside the toolkit.

The tracer replaces a function or method with a wrapper at every place its
callers look it up: ``series`` and ``cli`` bind ``kloosterman``, ``e_of``,
``bessel_J`` and others by ``from``-import, so the module that defines a
function is not the only binding to patch.  ``uninstall`` puts every
original back.

A *span* wrapper records calls, total time and self time (total minus the
time of spans nested inside it); a *count* wrapper only counts calls and is
used on the hottest methods, where timing would swamp the work.  Forked
pool workers inherit the wrappers but their records are lost with the
process; ``cli.pool_wait_s`` is the parent's time blocked on the pool.
"""

from __future__ import annotations

import concurrent.futures
from collections import defaultdict
from time import perf_counter

from maassjacobi import cache, cli, enveloping, fourier, group, jets, lattice, opcalc
from maassjacobi import polys, gaussian, precision, series, specfun

# metric -> (mode, [(owner, attribute), ...], reported figures); every
# binding of one function shares its metric.
_CS = ("calls", "self_s")
PLAN = {
    "series.kloosterman": ("span", [(series, "kloosterman"), (cli, "kloosterman")], _CS),
    "lattice.quad": ("span", [(lattice.GramLattice, "quad")], _CS),
    "precision.e_of": ("count", [(series, "e_of"), (precision, "e_of")], ("calls",)),
    "series.poincare_csum": ("span", [(series, "poincare_csum"),
                                      (cli, "poincare_csum")], _CS),
    "series.poincare_coeff_b": ("count", [(series, "poincare_coeff_b")], ("calls",)),
    "specfun.bessel": ("span", [(series, "bessel_J"), (series, "bessel_I"),
                                (specfun, "bessel_J"), (specfun, "bessel_I")], _CS),
    "specfun.whittaker": ("span", [(series, "whittaker_W_renorm"),
                                   (specfun, "whittaker_W_renorm"),
                                   (specfun, "whittaker_M_renorm"),
                                   (specfun, "whittaker_M_jet"),
                                   (specfun, "whittaker_W_jet"),
                                   (fourier, "whittaker_M_jet"),
                                   (fourier, "whittaker_W_jet")], _CS),
    "jets.mul": ("span", [(jets.Jet, "__mul__"), (jets.Jet, "__rmul__")], _CS),
    "jets.compose": ("span", [(jets.Jet, "compose")], _CS),
    "opcalc.slashed_jet": ("span", [(opcalc, "slashed_jet")], _CS),
    "opcalc.apply_jet": ("span", [(opcalc.DiffOp, "apply_jet")], _CS),
    "fourier.casimir_residual": ("span", [(cli, "casimir_residual"),
                                          (fourier, "casimir_residual")], _CS),
    "opcalc.compose": ("span", [(opcalc.DiffOp, "compose")], _CS),
    "polys.mul": ("span", [(polys.Poly, "__mul__"), (polys.Poly, "__rmul__")], _CS),
    "gaussian.mul": ("count", [(gaussian.GaussianRational, "__mul__"),
                               (gaussian.GaussianRational, "__rmul__")], ("calls",)),
    "enveloping.pbw_mul": ("span", [(enveloping.PBWElement, "__mul__")], _CS),
    "enveloping.build_casimir": ("span", [(cli, "build_casimir"),
                                          (enveloping, "build_casimir")], _CS),
    "group": ("span", [(group, "cocycle_a"), (group, "act"),
                       (group, "jacobi_mul"), (group, "jacobi_exp")], ("self_s",)),
    "cache.lookup": ("span", [(cache, "lookup")], _CS),
    "cache.store": ("span", [(cache, "store")], _CS),
    "cli.parallel_coeff": ("span", [(cli, "_parallel_coeff")], ("calls",)),
}


class Tracer:
    """Spans and counters for one traced run; nothing is shared globally."""

    def __init__(self):
        # metric -> [calls, total_s, self_s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.hits = 0
        self.misses = 0
        self.kloosterman_args = set()    # argument tuples of the current request
        self.kloosterman_distinct = 0    # distinct tuples summed over requests
        self._stack = []
        self._saved = []

    def span(self, name, fn):
        stats, stack = self.stats, self._stack

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def count(self, name, fn):
        stats = self.stats

        def wrapper(*args, **kwargs):
            stats[name][0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, metric, mode, fn):
        wrapped = (self.span if mode == "span" else self.count)(metric, fn)
        if metric == "series.kloosterman":
            return self._record_kloosterman(wrapped)
        if metric == "cache.lookup":
            return self._record_lookup(wrapped)
        return wrapped

    def _record_kloosterman(self, fn):
        def wrapper(*args, **kwargs):
            c, L, n, r, nprime, rprime = args[:6]
            ctx = args[6] if len(args) > 6 else kwargs.get("ctx")
            self.kloosterman_args.add((c, L.entries, int(n), tuple(map(int, r)), int(nprime),
                      tuple(map(int, rprime)), ctx.bits if ctx else None))
            return fn(*args, **kwargs)
        return wrapper

    def _record_lookup(self, fn):
        def wrapper(operation, config):
            result = fn(operation, config)
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
            return result
        return wrapper

    def _traced_pool(self):
        span = self.span

        class TracedPool(concurrent.futures.ProcessPoolExecutor):
            """Times the parent's waits: results are drained inside ``map``."""

            def map(self, fn, *iterables, **kwargs):
                parent_map = super().map
                return span("cli.pool", lambda: list(parent_map(fn, *iterables, **kwargs)))()

            def shutdown(self, *args, **kwargs):
                return span("cli.pool", super().shutdown)(*args, **kwargs)
        return TracedPool

    def _patch(self, owner, attr, new):
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr}")
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        for metric, (mode, sites, _) in PLAN.items():
            for owner, attr in sites:
                self._patch(owner, attr, self._wrap(metric, mode, vars(owner)[attr]))
        self._patch(cli, "ProcessPoolExecutor", self._traced_pool())

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def request(self, fn):
        """Wrap one front-end call, so its own time is ``cli.request``."""
        traced = self.span("cli.request", fn)

        def wrapper(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                self.kloosterman_distinct += len(self.kloosterman_args)
                self.kloosterman_args = set()
        return wrapper

    def metrics(self, requests: int) -> dict:
        """Every per-layer figure as (value, unit), counts and times per request."""
        per = 1.0 / max(requests, 1)
        out = {}
        for metric, (_, _, reported) in PLAN.items():
            calls, _, self_s = self.stats[metric]
            if "calls" in reported:
                out[f"{metric}.calls"] = (calls * per, "calls/req")
            if "self_s" in reported:
                out[f"{metric}.self_s"] = (self_s * per, "s/req")
        calls = self.stats["series.kloosterman"][0]
        out["series.kloosterman.distinct_ratio"] = (
            self.kloosterman_distinct / calls if calls else 0.0, "ratio")
        lookups = self.hits + self.misses
        out["cache.hits"] = (self.hits * per, "count/req")
        out["cache.misses"] = (self.misses * per, "count/req")
        out["cache.hit_ratio"] = (self.hits / lookups if lookups else 0.0, "ratio")
        out["cli.pool_wait_s"] = (self.stats["cli.pool"][1] * per, "s/req")
        out["cli.request.self_s"] = (self.stats["cli.request"][2] * per, "s/req")
        return out
