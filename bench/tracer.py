"""Per-layer tracing installed from outside the program.

Wrappers replace module attributes at the names where each caller looks a
function up: a name bound by ``from .x import f`` is a separate attribute of
the importing module, so ``powersim.normal_matrix`` and
``corroute.normal_matrix`` are both wrapped while ``stochastics`` itself is
left alone. Span wrappers keep one in-memory span per call (name, start,
end, parent, request) and charge their time to the enclosing span, which
gives each layer its self time. Count wrappers on the scalar ``distmath``
functions only count calls and sum time, to keep the overhead low.

The tracer is installed only for the traced run; ``uninstall`` restores
every attribute it replaced.
"""

from __future__ import annotations

import collections
import inspect
import json

from slopesize import cli, corroute, critvals, distmath, exactnull, powersim
from slopesize.stochastics import VALIDATION_TASK_BASE
from speed import clock as _clock


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: collections.Counter = collections.Counter()
        self.request: str | None = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._patched: list[tuple] = []
        self._search_keys: set = set()

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, name: str, owners, attr: str, measure=None) -> None:
        """Wrap owner.attr for every owner with a span named name."""
        for owner in owners:
            fn = getattr(owner, attr)
            sig = inspect.signature(fn) if measure else None
            self._patch(owner, attr, self._span_wrapper(name, fn, sig, measure))

    def _span_wrapper(self, name, fn, sig, measure):
        tracer = self

        def wrapper(*args, **kwargs):
            if measure is not None:
                measure(tracer, sig.bind(*args, **kwargs).arguments)
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name and return its result."""
        stack = self._stack
        span_id = len(self.spans)
        parent = stack[-1][0] if stack else None
        self.spans.append(None)  # reserve the id so children can name it
        frame = [span_id, 0.0]
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            busy = end - start
            if stack:
                stack[-1][1] += busy
            self.spans[span_id] = (name, start, end, parent, self.request)
            t = self.totals
            t[name + ".calls"] += 1
            t[name + ".busy_s"] += busy
            t[name + ".self_s"] += busy - frame[1]

    def count(self, name: str, owners, attr: str) -> None:
        """Wrap owner.attr for every owner with a call counter and a timer."""
        totals = self.totals
        for owner in owners:
            fn = getattr(owner, attr)

            def wrapper(*args, _fn=fn, **kwargs):
                start = _clock()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    totals[name + ".busy_s"] += _clock() - start
                    totals[name + ".calls"] += 1

            self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


# -- per-call counters, read from the bound arguments ---------------------

def _normal_matrix(tr, a):
    tr.totals["stochastics.normal_matrix.rows"] += len(a["tasks"])
    tr.totals["stochastics.normal_matrix.variates"] += len(a["tasks"]) * a["n"]


def _chisq_array(tr, a):
    tr.totals["stochastics.chisq_array.variates"] += a["size"]


def _t2_null_draws(tr, a):
    tr.totals["exactnull.t2_null_draws.draws"] += a["size"]


def _mc_multi(tr, a):
    tr.totals["critvals.critical_values_mc_multi.outer_reps"] += a["plan"].reps_outer


def _slope_t_batch(tr, a):
    tr.totals["powersim.slope_t_batch.replicates"] += len(a["tasks"])


def _corr_t1_batch(tr, a):
    tr.totals["corroute.corr_t1_batch.replicates"] += len(a["tasks"])


def _find_slope(tr, a):
    tr._search_keys = set()


def _simulate_power(tr, a):
    base = a.get("task_base", 0)
    prefix = "powersim.simulate_power_slope."
    if base == 0:
        tr.totals[prefix + "probe_runs"] += 1
    elif base >= VALIDATION_TASK_BASE:
        tr.totals[prefix + "validation_runs"] += 1
    key = (a["n"], a["lam"], base)
    if key in tr._search_keys:
        tr.totals[prefix + "repeat_runs"] += 1
    tr._search_keys.add(key)
    tr.totals[prefix + "trials"] += a["reps"]


def _timed_cache_method(tracer: Tracer, attr: str):
    original = getattr(critvals.CriticalValueCache, attr)
    totals = tracer.totals

    def wrapper(self, *args, **kwargs):
        start = _clock()
        result = original(self, *args, **kwargs)
        elapsed = _clock() - start
        if attr == "lookup":
            totals["critvals.cache.lookups"] += 1
            totals["critvals.cache.lookup_s"] += elapsed
            totals["critvals.cache.hits" if result is not None else "critvals.cache.misses"] += 1
        else:
            totals["critvals.cache.stores"] += 1
            totals["critvals.cache.store_s"] += elapsed
        return result

    tracer._patch(critvals.CriticalValueCache, attr, wrapper)


def install(tr: Tracer) -> None:
    """Wrap every traced layer so that tr records it, until tr.uninstall()."""
    tr.span("stochastics.normal_matrix", [powersim, corroute], "normal_matrix", _normal_matrix)
    tr.span("stochastics.chisq_array", [exactnull], "chisq_array", _chisq_array)
    tr.span("exactnull.t2_null_draws", [critvals], "t2_null_draws", _t2_null_draws)
    tr.span("critvals.critical_values_mc_multi", [critvals], "critical_values_mc_multi", _mc_multi)
    tr.span("critvals.cached_critical_value", [powersim, critvals], "cached_critical_value")
    _timed_cache_method(tr, "lookup")
    _timed_cache_method(tr, "store")
    tr.span("powersim.slope_t_batch", [powersim], "slope_t_batch", _slope_t_batch)
    tr.span("powersim.simulate_power_slope", [powersim], "simulate_power_slope", _simulate_power)
    tr.span("powersim.find_sample_size_slope", [powersim], "find_sample_size_slope", _find_slope)
    tr.span("corroute.find_sample_size_corr", [corroute], "find_sample_size_corr")
    tr.span("corroute.corr_t1_batch", [corroute], "corr_t1_batch", _corr_t1_batch)
    tr.span("cli.main", [cli], "main")
    tr.count("corroute.corr_power_approx", [corroute], "corr_power_approx")
    tr.count("distmath.t_quantile", [corroute], "t_quantile")
    tr.count("distmath.t_cdf", [distmath], "t_cdf")
    tr.count("distmath.normal_cdf", [corroute, distmath], "normal_cdf")
