"""Grid experiments over market parameters with reproducible per-repetition seeds.

:func:`run_sweep`, :func:`alpha_scan` and the acceptance suite run their
markets through :func:`run_many`, the one thread map of work items: each
thread does one item's work at a time. Each (node, repetition) cell derives
its seed from the base seed and its grid coordinates, so a sweep is
bit-identical whatever the thread count. A node aggregates each metric by its
own rule (:func:`aggregate`); failed repetitions are recorded with their
reason and left out of the aggregate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, SampleSizeError
from .market import (
    Endogenous,
    Exogenous,
    MarketConfig,
    SimulationRecord,
    _usable_cpus,
    check_market_size,
    check_seed,
    run,
    uniform_weights,
)
from . import stats

DEFAULT_METRICS = ("variance", "kurtosis", "reduction")
#: each sweep metric's computation from a record and its post-transient returns
_METRICS = {
    "variance": lambda record, post: float(np.var(post)),
    "kurtosis": lambda record, post: stats.kurtosis(post),
    "reduction": lambda record, post: stats.reduction_ratio(record.returns),
    "income_factor": lambda record, post: stats.income_factor(record.mean_spec_capital),
    "gini": lambda record, post: stats.gini(record.final_spec_capitals),
    "tail_exponent": lambda record, post: stats.hill_fit_ks(np.abs(post)).exponent,
}
KNOWN_METRICS = tuple(_METRICS)
#: metrics that ``aggregate`` averages arithmetically; an income factor can be negative
ARITHMETIC_METRICS = ("income_factor", "gini")

AXIS_NAMES = ("alpha", "n_states", "n_speculators", "n_producers", "use_param")
INTEGER_AXES = ("n_states", "n_speculators", "n_producers")


@dataclass(frozen=True)
class SweepAxis:
    """One grid axis; an integer axis holds its values as ints and refuses fractions."""

    name: str
    values: tuple

    def __post_init__(self):
        if self.name in INTEGER_AXES:
            object.__setattr__(self, "values", tuple(_integral(self.name, v) for v in self.values))


def _integral(axis: str, value) -> int:
    if not float(value).is_integer():
        raise ConfigError(f"axis {axis}", f" takes integers, got {value}")
    return int(value)


@dataclass(frozen=True)
class SweepSpec:
    base: MarketConfig
    axes: tuple[SweepAxis, ...]
    repetitions: int = 50
    metrics: tuple[str, ...] = DEFAULT_METRICS

    def validate(self) -> None:
        check_seed(self.base.seed)
        if self.repetitions < 1:
            raise ConfigError("repetitions", f" must be >= 1, got {self.repetitions}")
        if not self.axes:
            raise ConfigError("axes", " must contain at least one axis")
        names = [axis.name for axis in self.axes]
        for axis in self.axes:
            if axis.name not in AXIS_NAMES:
                raise ConfigError("axis", f" name must be one of {AXIS_NAMES}, got {axis.name!r}")
            if names.count(axis.name) > 1:
                raise ConfigError(f"axis {axis.name}", " is named twice")
            if len(axis.values) < 1:
                raise ConfigError(f"axis {axis.name}", " has no values")
            bad = [v for v in axis.values if not math.isfinite(v)]
            if bad:
                raise ConfigError(f"axis {axis.name}", f" values must be finite, got {bad[0]}")
            repeated = [v for i, v in enumerate(axis.values) if v in axis.values[:i]]
            if repeated:
                raise ConfigError(f"axis {axis.name}", f" lists the value {repeated[0]} twice")
        _check_one_state_axis(names)
        if not self.metrics:
            raise ConfigError("metrics", " must name at least one metric")
        for m in self.metrics:
            if m not in KNOWN_METRICS:
                raise ConfigError("metric", f" must be one of {KNOWN_METRICS}, got {m!r}")
            if self.metrics.count(m) > 1:
                raise ConfigError("metric", f" {m} is named twice")


@dataclass
class RepRecord:
    seed: int
    metrics: Optional[dict] = None
    error: Optional[str] = None


@dataclass
class NodeResult:
    """One grid node: its coordinates and its repetitions, from which the rest is derived."""

    index: int
    coords: dict
    reps: list

    @property
    def n_success(self) -> int:
        return sum(rep.metrics is not None for rep in self.reps)

    @property
    def aggregates(self) -> Optional[dict]:
        ok = [rep.metrics for rep in self.reps if rep.metrics is not None]
        return aggregate(ok) if ok else None


def _check_one_state_axis(names) -> None:
    if "alpha" in names and "n_states" in names:
        raise ConfigError("axes", " alpha and n_states both set the state count; sweep one of them")


def node_config(base: MarketConfig, coords: dict) -> MarketConfig:
    """Apply axis assignments to the base config, in the same way for any axis order.

    ``alpha`` and ``n_states`` rebuild the information mode at the implied
    number of states: an endogenous mode changes its memory bits (the state
    count must be a power of two), a uniform exogenous mode is rebuilt at the
    new size. They are applied after the other axes, so ``alpha`` sets
    D = alpha * N_s at the node's own N_s. A node gives one of the two at most.
    """
    _check_one_state_axis(coords)
    cfg = base
    # False sorts first: alpha and n_states go last, the other axes keep their order
    for name, value in sorted(coords.items(), key=lambda item: item[0] in ("alpha", "n_states")):
        if name == "use_param":
            cfg = replace(cfg, use_param=float(value))
        elif name in ("n_producers", "n_speculators"):
            cfg = replace(cfg, **{name: _integral(name, value)})
        elif name in ("alpha", "n_states"):
            if name == "alpha":
                d_exact = float(value) * cfg.n_speculators
                # before round(), which raises on a product that overflowed to inf
                check_market_size(d_exact, cfg.n_agents, "alpha")
                d = round(d_exact) if d_exact >= 1 else 0  # round(-inf) raises too
                if d < 1 or abs(d - d_exact) > 1e-9:
                    raise ConfigError("alpha", f" = {value} gives a non-integer state count {d_exact} "
                                      f"at n_speculators = {cfg.n_speculators}")
            else:
                d = _integral(name, value)
                if d < 1:
                    raise ConfigError("n_states", f" must be >= 1, got {value}")
                check_market_size(d, cfg.n_agents, "n_states")
            cfg = replace(cfg, info_mode=_resize_mode(cfg.info_mode, d))
        else:
            raise ConfigError("axis", f" name must be one of {AXIS_NAMES}, got {name!r}")
    return cfg


def _resize_mode(mode, n_states: int):
    if isinstance(mode, Endogenous):
        bits = int(round(math.log2(n_states)))
        if 1 << bits != n_states:
            raise ConfigError("alpha/n_states", ": endogenous information needs a power-of-two state "
                              f"count, got {n_states}")
        return Endogenous(bits)
    if isinstance(mode, Exogenous):
        w = np.asarray(mode.weights)
        if not np.array_equal(w, uniform_weights(w.size)):
            raise ConfigError("alpha/n_states", ": only uniform exogenous weights can be resized")
        return Exogenous(uniform_weights(n_states))
    raise ConfigError("alpha/n_states", ": mixed information cannot be resized over a sweep axis")


def derive_seed(base_seed: int, node_index: int, repetition: int) -> int:
    """Collision-resistant 64-bit seed for one (node, repetition) cell."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(node_index, repetition))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def compute_metrics(record: SimulationRecord, metrics: Sequence[str]) -> dict:
    """Phase-diagram metrics of one record, each by its entry in ``_METRICS``.

    Series statistics take the final half (``stats.post_transient``);
    ``reduction`` and ``income_factor`` apply that window themselves. An
    unknown name raises :class:`ConfigError` naming it.
    """
    if record.returns.size < 4:
        raise SampleSizeError("horizon too short for sweep metrics")
    post = stats.post_transient(record.returns)
    unknown = [name for name in metrics if name not in _METRICS]
    if unknown:
        raise ConfigError("metric", f" must be one of {KNOWN_METRICS}, got {unknown[0]!r}")
    return {name: _METRICS[name](record, post) for name in metrics}


def aggregate(rep_metrics: Sequence[dict]) -> dict:
    """Mean per metric over repetition records, by the metric's rule.

    The metrics of ``ARITHMETIC_METRICS`` take the arithmetic mean, as the
    alpha-scan rows do. Every other metric takes the log-domain (geometric)
    mean, and yields NaN where a value is nonpositive or not finite. Values
    are sorted before each reduction, so the result is independent of
    completion order.
    """
    if not rep_metrics:
        raise ConfigError("", "cannot aggregate an empty node")
    out = {}
    for key in rep_metrics[0]:
        # sorted before reduction so the result is bit-identical under any
        # completion order of the repetitions
        values = np.sort(np.array([m[key] for m in rep_metrics], dtype=float))
        if key in ARITHMETIC_METRICS:
            out[key] = float(np.mean(values))
        elif np.all(values > 0) and np.all(np.isfinite(values)):
            out[key] = float(np.exp(np.mean(np.log(values))))
        else:
            out[key] = math.nan
    return out


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _grid(spec: SweepSpec) -> tuple[list[NodeResult], list]:
    """Validate ``spec`` and walk its grid: one :class:`NodeResult` per node, a
    :class:`RepRecord` per repetition, and the runnable cells as (record, config)
    pairs. A node whose coordinates give no config records its error in each
    repetition and adds no cell.
    """
    spec.validate()
    names = [axis.name for axis in spec.axes]
    nodes, cells, seeds_seen = [], [], {}
    for node_index, values in enumerate(product(*(axis.values for axis in spec.axes))):
        node = NodeResult(index=node_index, coords=dict(zip(names, values)), reps=[])
        nodes.append(node)
        try:
            cfg, node_error = node_config(spec.base, node.coords), None
        except ConfigError as exc:
            cfg, node_error = None, _error(exc)
        for rep in range(spec.repetitions):
            seed = derive_seed(spec.base.seed, node_index, rep)
            if seed in seeds_seen:
                raise ConfigError("", f"seed collision between cells {seeds_seen[seed]} and "
                                      f"{(node_index, rep)}")
            seeds_seen[seed] = (node_index, rep)
            record = RepRecord(seed=seed, error=node_error)
            node.reps.append(record)
            if cfg is not None:
                cells.append((record, replace(cfg, seed=seed)))
    return nodes, cells


def run_many(items: Sequence, work: Callable[[Any], Any], workers: Optional[int] = None) -> list:
    """``work(item)`` for each item in input order, or the ``Exception`` it raised.

    Runs on min(``workers``, usable CPUs, items) threads, the caller among
    them; ``workers`` defaults to the usable CPUs and is refused below 1. Each
    thread takes the next item under a lock, does its work itself and stores
    the outcome at the item's index, so one item's work per thread runs at a
    time and the outcomes do not depend on the thread count. Work that calls
    the C kernel, such as ``run``, releases the GIL, so the items run side by
    side; other work takes turns, with the same outcomes. A ``BaseException``
    on any thread stops every thread taking items and is re-raised here once
    all have joined.
    """
    if workers is not None and workers < 1:
        raise ConfigError("workers", f" must be >= 1, got {workers}")
    threads = min(workers or math.inf, _usable_cpus(), len(items))
    outcomes = [None] * len(items)
    lock = threading.Lock()
    taken = 0
    raised = []

    def take():
        nonlocal taken
        while True:
            with lock:
                if raised or taken == len(items):
                    return
                index, taken = taken, taken + 1
            try:
                outcomes[index] = work(items[index])
            except Exception as exc:  # the item's outcome, never aborts the map
                outcomes[index] = exc
            except BaseException as exc:  # re-raised by the calling thread after the join
                raised.append(exc)
                return

    helpers = [threading.Thread(target=take, name=f"specmarket-sweep-{i}") for i in range(1, threads)]
    for helper in helpers:
        helper.start()
    try:
        take()
    finally:
        for helper in helpers:
            helper.join()
    if raised:
        raise raised[0]
    return outcomes


def _measure(cells: list, metrics, workers: Optional[int] = None) -> None:
    """Run :func:`_grid`'s cells through :func:`run_many`; each record takes its metrics or error.
    A thread measures each market it runs, so at most one record per thread is alive. The runs
    sum the capital series only where ``income_factor``, which reads it, is a metric."""
    outcomes = run_many([config for _, config in cells], lambda config: compute_metrics(
        run(config, capital="income_factor" in metrics), metrics), workers)
    for (record, _), outcome in zip(cells, outcomes):
        failed = isinstance(outcome, Exception)
        record.metrics, record.error = (None, _error(outcome)) if failed else (outcome, None)


def run_sweep(spec: SweepSpec, workers: Optional[int] = None) -> list[NodeResult]:
    """Simulate every (node, repetition) cell; one :class:`NodeResult` per grid node.

    The cells go through :func:`run_many` on ``workers`` threads, so
    ``workers=1`` runs every cell in the caller and starts no thread. A cell
    whose config ``run`` refuses, or whose node's coordinates give no config,
    is recorded with the error.
    """
    nodes, cells = _grid(spec)
    _measure(cells, spec.metrics, workers)
    return nodes


# ---------------------------------------------------------------------------
# alpha scan (variance / kurtosis / income / gini table across model variants)
# ---------------------------------------------------------------------------

ALPHA_SCAN_VARIANTS = ("reference", "deterministic_producers", "random_producers", "endogenous")
ALPHA_SCAN_METRICS = ("variance", "kurtosis", "income_factor", "gini")


def _variant_spec(base: MarketConfig, variant: str, alphas, repetitions: int,
                  n_producers: int) -> SweepSpec:
    """The alpha sweep of one ``alpha_scan`` variant."""
    if variant not in ALPHA_SCAN_VARIANTS:
        raise ConfigError("variant", f" must be one of {ALPHA_SCAN_VARIANTS}, got {variant!r}")
    if variant == "endogenous":
        mode = Endogenous(1)
    elif variant == "reference":
        mode = Exogenous(uniform_weights(2))
    else:
        mode = base.info_mode
    cfg = replace(
        base,
        info_mode=mode,
        n_producers=0 if variant in ("reference", "endogenous") else n_producers,
        producer_kind="random" if variant == "random_producers" else "deterministic",
    )
    return SweepSpec(base=cfg, axes=(SweepAxis("alpha", tuple(alphas)),),
                     repetitions=repetitions, metrics=ALPHA_SCAN_METRICS)


def alpha_scan(
    base: MarketConfig,
    alphas: Sequence[float],
    variants: Sequence[str] = ALPHA_SCAN_VARIANTS,
    repetitions: int = 50,
    n_producers: int = 16,
) -> list[dict]:
    """Variance, kurtosis, income factor and Gini versus alpha, per model variant.

    ``reference`` is a pure-speculator market with uniform exogenous
    information and ``endogenous`` its closed-loop counterpart; the producer
    variants add ``n_producers`` of the given kind to the base config's own
    information mode. Rows carry plain across-repetition means, since the
    income factor can be negative. Each variant is the grid of one alpha
    sweep, with the cells and seeds :func:`run_sweep` gives it. Every
    variant's grid is walked and validated first, so a bad variant or config
    raises before any cell runs. Then all the variants' cells go through one
    :func:`run_many` on every usable CPU, so no thread waits at a variant's end.
    """
    grids = [(variant, *_grid(_variant_spec(base, variant, alphas, repetitions, n_producers)))
             for variant in variants]
    _measure([cell for _, _, cells in grids for cell in cells], ALPHA_SCAN_METRICS)
    rows = []
    for variant, nodes, _ in grids:
        for node in nodes:
            row = {"variant": variant, "alpha": node.coords["alpha"], "n_success": node.n_success}
            for metric in ALPHA_SCAN_METRICS:
                values = [r.metrics[metric] for r in node.reps if r.metrics is not None]
                row[metric] = float(np.mean(values)) if values else math.nan
            rows.append(row)
    return rows
