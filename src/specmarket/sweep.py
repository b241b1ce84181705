"""Grid experiments over market parameters with reproducible per-repetition seeds.

Every (node, repetition) cell derives its own seed from the base seed and its
grid coordinates, and its outcome is stored at its own index, so a sweep is
bit-identical no matter how many threads run it or in which order cells finish.
Cells run on threads of this process: the C kernel behind ``market.run``
releases the GIL, so they overlap on separate cores. A node aggregates each
metric by its own rule (see :func:`aggregate`): the income factor and the
Gini take arithmetic means, and every other metric a log-domain mean, the
convention used for the phase-diagram figures. Repetitions that fail are
recorded with their reason and excluded from the aggregate.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, SampleSizeError
from .market import (
    Endogenous,
    Exogenous,
    MarketConfig,
    SimulationRecord,
    check_market_size,
    check_seed,
    run,
    uniform_weights,
)
from . import stats

DEFAULT_METRICS = ("variance", "kurtosis", "reduction")
KNOWN_METRICS = ("variance", "kurtosis", "reduction", "income_factor", "gini", "tail_exponent")
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
        raise ConfigError(f"axis {axis} takes integers, got {value!r}")
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
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if not self.axes:
            raise ConfigError("axes must contain at least one axis")
        names = [axis.name for axis in self.axes]
        for axis in self.axes:
            if axis.name not in AXIS_NAMES:
                raise ConfigError(f"axis name must be one of {AXIS_NAMES}, got {axis.name!r}")
            if names.count(axis.name) > 1:
                raise ConfigError(f"axis {axis.name} is named twice")
            if len(axis.values) < 1:
                raise ConfigError(f"axis {axis.name} has no values")
            bad = [v for v in axis.values if not math.isfinite(v)]
            if bad:
                raise ConfigError(f"axis {axis.name} values must be finite, got {bad[0]!r}")
            repeated = [v for i, v in enumerate(axis.values) if v in axis.values[:i]]
            if repeated:
                raise ConfigError(f"axis {axis.name} lists the value {repeated[0]!r} twice")
        _check_one_state_axis(names)
        if not self.metrics:
            raise ConfigError("metrics must name at least one metric")
        for m in self.metrics:
            if m not in KNOWN_METRICS:
                raise ConfigError(f"metric must be one of {KNOWN_METRICS}, got {m!r}")
            if self.metrics.count(m) > 1:
                raise ConfigError(f"metric {m} is named twice")


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
        raise ConfigError("axes alpha and n_states both set the state count; sweep one of them")


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
                    raise ConfigError(
                        f"alpha = {value} gives a non-integer state count {d_exact} "
                        f"at n_speculators = {cfg.n_speculators}"
                    )
            else:
                d = _integral(name, value)
                if d < 1:
                    raise ConfigError(f"n_states must be >= 1, got {value}")
                check_market_size(d, cfg.n_agents, "n_states")
            cfg = replace(cfg, info_mode=_resize_mode(cfg.info_mode, d))
        else:
            raise ConfigError(f"axis name must be one of {AXIS_NAMES}, got {name!r}")
    return cfg


def _resize_mode(mode, n_states: int):
    if isinstance(mode, Endogenous):
        bits = int(round(math.log2(n_states)))
        if 1 << bits != n_states:
            raise ConfigError(
                f"alpha/n_states: endogenous information needs a power-of-two state count, got {n_states}"
            )
        return Endogenous(bits)
    if isinstance(mode, Exogenous):
        w = np.asarray(mode.weights)
        if not np.array_equal(w, uniform_weights(w.size)):
            raise ConfigError("alpha/n_states: only uniform exogenous weights can be resized")
        return Exogenous(uniform_weights(n_states))
    raise ConfigError("alpha/n_states: mixed information cannot be resized over a sweep axis")


def derive_seed(base_seed: int, node_index: int, repetition: int) -> int:
    """Collision-resistant 64-bit seed for one (node, repetition) cell."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(node_index, repetition))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def compute_metrics(record: SimulationRecord, metrics: Sequence[str]) -> dict:
    """Phase-diagram metrics of one record.

    Series statistics take the final half (``stats.post_transient``);
    ``reduction`` and ``income_factor`` apply that window themselves.
    """
    r = record.returns
    if r.size < 4:
        raise SampleSizeError("horizon too short for sweep metrics")
    post = stats.post_transient(r)
    out = {}
    for name in metrics:
        if name == "variance":
            out[name] = float(np.var(post))
        elif name == "kurtosis":
            out[name] = stats.kurtosis(post)
        elif name == "reduction":
            out[name] = stats.reduction_ratio(r)
        elif name == "income_factor":
            out[name] = stats.income_factor(record.mean_spec_capital)
        elif name == "gini":
            out[name] = stats.gini(record.final_spec_capitals)
        elif name == "tail_exponent":
            out[name] = stats.hill_fit_ks(np.abs(post)).exponent
        else:
            raise ConfigError(f"metric must be one of {KNOWN_METRICS}, got {name!r}")
    return out


def aggregate(rep_metrics: Sequence[dict]) -> dict:
    """Mean per metric over repetition records, by the metric's rule.

    The metrics of ``ARITHMETIC_METRICS`` take the arithmetic mean, as the
    alpha-scan rows do. Every other metric takes the log-domain (geometric)
    mean, and yields NaN where a value is nonpositive or not finite. Values
    are sorted before each reduction, so the result is independent of
    completion order.
    """
    if not rep_metrics:
        raise ConfigError("cannot aggregate an empty node")
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


def _run_cell(metrics, config):
    try:  # recorded per repetition, never aborts the sweep
        return compute_metrics(run(config), metrics), None
    except Exception as exc:
        return None, _error(exc)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _map_cells(metrics, configs: list, threads: int) -> list:
    """``_run_cell`` of each config, in order, on the calling thread and ``threads - 1`` more.

    Each thread takes the next index from one counter under a lock and stores
    the outcome at that index. A ``BaseException`` raised on any thread (a
    ``KeyboardInterrupt``, say) stops every thread taking cells and is
    re-raised here once all have joined.
    """
    outcomes = [None] * len(configs)
    lock = threading.Lock()
    taken = 0
    raised = []

    def work():
        nonlocal taken
        while True:
            with lock:
                if raised or taken == len(configs):
                    return
                index, taken = taken, taken + 1
            try:
                outcomes[index] = _run_cell(metrics, configs[index])
            except BaseException as exc:  # re-raised by the calling thread after the join
                with lock:
                    raised.append(exc)
                return

    helpers = [threading.Thread(target=work, name=f"specmarket-sweep-{i}") for i in range(1, threads)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if raised:
        raise raised[0]
    return outcomes


def run_sweep(spec: SweepSpec, workers: Optional[int] = None) -> list[NodeResult]:
    """Simulate every (node, repetition) cell; one :class:`NodeResult` per grid node.

    Each cell is one :func:`~specmarket.market.run`. The cells run on
    min(``workers``, usable CPUs, runnable cells) threads, the calling thread
    among them, where ``workers`` defaults to the number of CPUs the process
    may run on; ``workers=1`` runs every cell in the caller and starts no
    thread. At most that many markets are alive at once. A cell whose config
    ``run`` refuses, or whose node's coordinates give no config, is recorded
    with the error.
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
                raise ConfigError(
                    f"seed collision between cells {seeds_seen[seed]} and {(node_index, rep)}"
                )
            seeds_seen[seed] = (node_index, rep)
            record = RepRecord(seed=seed, error=node_error)
            node.reps.append(record)
            if cfg is not None:
                cells.append((record, replace(cfg, seed=seed)))

    cpus = _usable_cpus()
    threads = min(cpus if workers is None else workers, cpus, len(cells))
    outcomes = _map_cells(spec.metrics, [cfg for _, cfg in cells], threads)
    for (record, _), (metrics, error) in zip(cells, outcomes):
        record.metrics, record.error = metrics, error
    return nodes


# ---------------------------------------------------------------------------
# alpha scan (variance / kurtosis / income / gini table across model variants)
# ---------------------------------------------------------------------------

ALPHA_SCAN_VARIANTS = ("reference", "deterministic_producers", "random_producers", "endogenous")


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
    income factor can be negative. Each variant is one :func:`run_sweep` at
    its default, so its cells run on every CPU the process may use.
    """
    rows = []
    for variant in variants:
        if variant not in ALPHA_SCAN_VARIANTS:
            raise ConfigError(f"variant must be one of {ALPHA_SCAN_VARIANTS}, got {variant!r}")
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
        spec = SweepSpec(
            base=cfg,
            axes=(SweepAxis("alpha", tuple(alphas)),),
            repetitions=repetitions,
            metrics=("variance", "kurtosis", "income_factor", "gini"),
        )
        for node in run_sweep(spec):
            row = {"variant": variant, "alpha": node.coords["alpha"], "n_success": node.n_success}
            for metric in spec.metrics:
                values = [r.metrics[metric] for r in node.reps if r.metrics is not None]
                row[metric] = float(np.mean(values)) if values else math.nan
            rows.append(row)
    return rows
