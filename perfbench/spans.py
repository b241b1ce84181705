"""Spans around the public functions of the specmarket modules.

While a :class:`Tracer` is installed, every public function bound in a
package module's namespace is replaced by a wrapper that records a span, and
every package module bound in another module's namespace (``io``'s
``stats``, ``cli``'s ``io``) is replaced by a view whose public functions are
wrapped the same way. A span is named by the lookup the caller makes:
``sweep.run`` is ``run`` as ``sweep`` finds it, ``io.stats.hill_fit_ks`` is
``stats.hill_fit_ks`` as ``io`` finds it. Metrics group spans by the function
they time, ``<module>.<function>``, whatever the caller.

Nothing inside a function body is instrumented, and the per-step functions
that ``market.run`` calls in its loop are left alone: their cost comes from
the phase sample instead (see ``probe.phase_sample``).
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from pathlib import Path

LAYERS = ("market", "stats", "io", "sweep", "analytics", "cli")

#: per-step functions of the simulation loop, timed by the phase sample instead
UNTRACED = frozenset({
    "market.step", "market.next_information", "market.form_orders",
    "market.clear_price", "market.settle",
})


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _run_counts(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    return {"steps": config.horizon, "strategy_bytes": config.n_states * config.n_agents}


def _artifact_counts(args, kwargs, result):
    return {"bytes": sum(Path(path).stat().st_size for path in result.values())}


#: work counts recorded at the boundary, keyed by ``<module>.<function>``
COUNTERS = {
    "market.run": _run_counts,
    "stats.hill_fit_ks": lambda a, k, r: {"n": len(_arg(a, k, 0, "magnitudes"))},
    "stats.autocorr_abs": lambda a, k, r: {"lags": int(_arg(a, k, 1, "max_lag"))},
    "io.read_run_csv": lambda a, k, r: {"rows": len(r["prices"])},
    "io.write_run_artifact": _artifact_counts,
    "analytics.dim_distribution": lambda a, k, r: {"updates": int(_arg(a, k, 1, "n_vectors")) ** 2},
}


class Span:
    __slots__ = ("name", "key", "parent", "start", "end", "child_s", "error", "counts")

    def __init__(self, name, key, parent):
        self.name = name
        self.key = key
        self.parent = parent
        self.child_s = 0.0
        self.error = False
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


def _layer_of(func):
    module = getattr(func, "__module__", "") or ""
    if not module.startswith("specmarket."):
        return None
    return module.rsplit(".", 1)[1]


class _ModuleView:
    """Stand-in for a package module inside another module's namespace."""

    def __init__(self, tracer, module, prefix):
        self._tracer = tracer
        self._module = module
        self._prefix = prefix
        self._wrapped = {}

    def __getattr__(self, attr):
        value = self._tracer.original(self._module, attr)
        if attr.startswith("_") or not self._tracer.traceable(value):
            return value
        if attr not in self._wrapped:
            self._wrapped[attr] = self._tracer.wrap(value, f"{self._prefix}.{attr}")
        return self._wrapped[attr]


class Tracer:
    """Records spans in memory while installed; :meth:`take` hands them over."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> module object
        self.spans = []
        self._stack = []
        self._patched = []      # (module, attr, original)
        self._originals = {}    # (id(module), attr) -> original

    # -- installation -------------------------------------------------------

    def traceable(self, value):
        layer = _layer_of(value)
        return (isinstance(value, types.FunctionType) and layer in self.modules
                and f"{layer}.{value.__name__}" not in UNTRACED)

    def original(self, module, attr):
        return self._originals.get((id(module), attr), getattr(module, attr))

    def install(self):
        packaged = {id(m) for m in self.modules.values()}
        for layer, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if self.traceable(value):
                    replacement = self.wrap(value, f"{layer}.{attr}")
                elif isinstance(value, types.ModuleType) and id(value) in packaged:
                    replacement = _ModuleView(self, value, f"{layer}.{attr}")
                else:
                    continue
                self._patched.append((module, attr, value))
                self._originals[(id(module), attr)] = value
                setattr(module, attr, replacement)

    def uninstall(self):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def wrap(self, func, name):
        key = f"{_layer_of(func)}.{func.__name__}"
        count = COUNTERS.get(key)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with _Recording(tracer, name, key) as span:
                result = func(*args, **kwargs)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def span(self, name):
        """A span around benchmark code, such as one whole operation."""
        return _Recording(self, name, name)

    def take(self):
        spans, self.spans = self.spans, []
        return spans


class _Recording:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, name, key):
        stack = tracer._stack
        self.tracer = tracer
        self.span = Span(name, key, stack[-1] if stack else None)

    def __enter__(self):
        self.tracer._stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb):
        span = self.span
        span.end = time.perf_counter()
        span.error = exc_type is not None
        self.tracer._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.tracer.spans.append(span)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of traced operations
# ---------------------------------------------------------------------------

def _cells(spans):
    """Durations of sweep cells: one ``run`` plus its ``compute_metrics``, and whether it failed."""
    cells = []
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "sweep.run":
            cells.append([span.duration, span.error])
        elif span.name == "sweep.compute_metrics" and cells:
            cells[-1][0] += span.duration
            cells[-1][1] = cells[-1][1] or span.error
    return cells


def op_metrics(spans, root):
    """Per-layer metrics of one traced operation whose outermost span is ``root``."""
    total = {}    # key -> inclusive seconds
    own = {}      # key -> self seconds
    calls = {}
    counts = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span is root:
            continue
        total[span.key] = total.get(span.key, 0.0) + span.duration
        own[span.key] = own.get(span.key, 0.0) + span.self_s
        calls[span.key] = calls.get(span.key, 0) + 1
        layer_self[span.key.split(".", 1)[0]] += span.self_s
        for name, value in (span.counts or {}).items():
            slot = f"{span.key}.{name}"
            if name == "strategy_bytes":
                counts[slot] = max(counts.get(slot, 0), value)
            else:
                counts[slot] = counts.get(slot, 0) + value
    steps = counts.get("market.run.steps", 0)
    cells = _cells(spans)
    m = {
        "market.run.calls": calls.get("market.run", 0),
        "market.run.steps": steps,
        "market.run.us_per_step": 1e6 * own.get("market.run", 0.0) / steps if steps else 0.0,
        "market.new_market.s": total.get("market.new_market", 0.0),
        "market.strategy_bytes": counts.get("market.run.strategy_bytes", 0),
        "stats.hill_fit_ks.s": total.get("stats.hill_fit_ks", 0.0),
        "stats.hill_fit_ks.n": counts.get("stats.hill_fit_ks.n", 0),
        "stats.autocorr_abs.s": total.get("stats.autocorr_abs", 0.0),
        "stats.autocorr_abs.lags": counts.get("stats.autocorr_abs.lags", 0),
        "stats.ccdf_rank_ordered.s": total.get("stats.ccdf_rank_ordered", 0.0),
        "stats.kurtosis.s": total.get("stats.kurtosis", 0.0),
        "stats.surprise_stats.s": total.get("stats.surprise_stats", 0.0),
        "stats.income_factor.s": total.get("stats.income_factor", 0.0),
        "stats.gini.s": total.get("stats.gini", 0.0),
        "io.write_run_artifact.self_s": own.get("io.write_run_artifact", 0.0),
        "io.bytes_written": counts.get("io.write_run_artifact.bytes", 0),
        "io.read_run_csv.s": total.get("io.read_run_csv", 0.0),
        "io.read_run_csv.rows": counts.get("io.read_run_csv.rows", 0),
        "io.analyze_returns.self_s": own.get("io.analyze_returns", 0.0),
        "io.parse_market_config.s": total.get("io.parse_market_config", 0.0),
        "sweep.cells": len(cells),
        "sweep.failed_cells": sum(1 for _, failed in cells if failed),
        "sweep.cell_p50_s": statistics.median(d for d, _ in cells) if cells else 0.0,
        "sweep.compute_metrics.s": total.get("sweep.compute_metrics", 0.0),
        "sweep.run_sweep.self_s": own.get("sweep.run_sweep", 0.0),
        "analytics.variance_curve.s": total.get("analytics.variance_curve", 0.0),
        "analytics.dim_distribution.s": total.get("analytics.dim_distribution", 0.0),
        "analytics.dim_distribution.calls": calls.get("analytics.dim_distribution", 0),
        "analytics.dim_distribution.updates": counts.get("analytics.dim_distribution.updates", 0),
        "cli.main.self_s": own.get("cli.main", 0.0),
        "trace.op_p50_s": root.duration,
        "trace.unattributed_s": root.self_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
