"""Grid experiments over market parameters with reproducible per-repetition seeds.

Every (node, repetition) cell derives its own seed from the base seed and its
grid coordinates, so a sweep is bit-identical no matter how many workers run it
or in which order tasks finish. Node aggregates are log-domain means, the
convention used for the phase-diagram figures; repetitions that fail are
recorded with their reason and excluded from the aggregate.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
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
    run,
    uniform_weights,
    validate_config,
)
from . import stats

DEFAULT_METRICS = ("variance", "kurtosis", "reduction")
KNOWN_METRICS = ("variance", "kurtosis", "reduction", "income_factor", "gini", "tail_exponent")

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
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if not self.axes:
            raise ConfigError("axes must contain at least one axis")
        for axis in self.axes:
            if axis.name not in AXIS_NAMES:
                raise ConfigError(f"axis name must be one of {AXIS_NAMES}, got {axis.name!r}")
            if len(axis.values) < 1:
                raise ConfigError(f"axis {axis.name} has no values")
            bad = [v for v in axis.values if not math.isfinite(v)]
            if bad:
                raise ConfigError(f"axis {axis.name} values must be finite, got {bad[0]!r}")
        for m in self.metrics:
            if m not in KNOWN_METRICS:
                raise ConfigError(f"metric must be one of {KNOWN_METRICS}, got {m!r}")


@dataclass
class RepRecord:
    seed: int
    metrics: Optional[dict] = None
    error: Optional[str] = None


@dataclass
class NodeResult:
    index: int
    coords: dict
    reps: list
    aggregates: Optional[dict]
    n_success: int

    @property
    def valid(self) -> bool:
        return self.n_success > 0


@dataclass
class SweepResult:
    nodes: list


def node_config(base: MarketConfig, coords: dict) -> MarketConfig:
    """Apply axis assignments to the base config.

    ``alpha`` and ``n_states`` rebuild the information mode at the implied
    number of states: an endogenous mode changes its memory bits (the state
    count must be a power of two), a uniform exogenous mode is rebuilt at the
    new size. ``alpha`` keeps n_speculators fixed and sets D = alpha * N_s.
    """
    cfg = base
    for name, value in coords.items():
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
        if not np.allclose(w, 1.0 / w.size, rtol=0, atol=1e-15):
            raise ConfigError("alpha/n_states: only uniform exogenous weights can be resized")
        return Exogenous(uniform_weights(n_states))
    raise ConfigError("alpha/n_states: mixed information cannot be resized over a sweep axis")


def derive_seed(base_seed: int, node_index: int, repetition: int) -> int:
    """Collision-resistant 64-bit seed for one (node, repetition) cell."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(node_index, repetition))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def compute_metrics(record: SimulationRecord, metrics: Sequence[str]) -> dict:
    """Phase-diagram metric conventions: final half of the series, head of 10 steps."""
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
            out[name] = stats.reduction_ratio(np.abs(r), 10, post.size)
        elif name == "income_factor":
            out[name] = stats.income_factor(record.mean_spec_capital, len(record.mean_spec_capital) // 2)
        elif name == "gini":
            out[name] = stats.gini(record.final_spec_capitals)
        elif name == "tail_exponent":
            out[name] = stats.hill_fit_ks(np.abs(post)).exponent
        else:
            raise ConfigError(f"metric must be one of {KNOWN_METRICS}, got {name!r}")
    return out


def aggregate(rep_metrics: Sequence[dict]) -> dict:
    """Log-domain (geometric) mean per metric over repetition records.

    Commutative and associative, so the result is independent of completion
    order. Metrics with nonpositive values have no log-domain mean and yield
    NaN; the alpha-scan table uses plain means for those instead.
    """
    if not rep_metrics:
        raise ConfigError("cannot aggregate an empty node")
    out = {}
    for key in rep_metrics[0]:
        # sorted before reduction so the result is bit-identical under any
        # completion order of the repetitions
        values = np.sort(np.array([m[key] for m in rep_metrics], dtype=float))
        if np.all(values > 0) and np.all(np.isfinite(values)):
            out[key] = float(np.exp(np.mean(np.log(values))))
        else:
            out[key] = math.nan
    return out


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_cell(metrics, task):
    cell, config = task
    try:  # recorded per repetition, never aborts the sweep
        return cell, compute_metrics(run(config), metrics), None
    except Exception as exc:
        return cell, None, _error(exc)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Simulate every (node, repetition) cell and aggregate per node.

    Each cell is one :func:`~specmarket.market.run`; ``workers > 1`` maps
    the cells to processes in chunks, a few per worker. A cell whose
    config fails validation, or whose node's coordinates give no config,
    is recorded with the error and never run.
    """
    spec.validate()
    names = [axis.name for axis in spec.axes]
    grid = list(product(*(axis.values for axis in spec.axes)))

    records = {}
    valid = []
    seeds_seen = {}
    for node_index, values in enumerate(grid):
        coords = dict(zip(names, values))
        try:
            cfg, node_error = node_config(spec.base, coords), None
        except ConfigError as exc:
            cfg, node_error = None, _error(exc)
        for rep in range(spec.repetitions):
            seed = derive_seed(spec.base.seed, node_index, rep)
            if seed in seeds_seen:
                raise ConfigError(
                    f"seed collision between cells {seeds_seen[seed]} and {(node_index, rep)}"
                )
            seeds_seen[seed] = (node_index, rep)
            records[(node_index, rep)] = record = RepRecord(seed=seed, error=node_error)
            if node_error:
                continue
            cell_cfg = replace(cfg, seed=seed)
            try:
                validate_config(cell_cfg)
            except ConfigError as exc:
                record.error = _error(exc)
                continue
            valid.append(((node_index, rep), cell_cfg))

    run_cell = partial(_run_cell, spec.metrics)
    if workers > 1 and len(valid) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_cell, valid, chunksize=max(1, len(valid) // (4 * workers))))
    else:
        outcomes = map(run_cell, valid)
    for cell, metrics, error in outcomes:
        records[cell].metrics, records[cell].error = metrics, error

    nodes = []
    for node_index, values in enumerate(grid):
        coords = dict(zip(names, values))
        reps = [records[(node_index, rep)] for rep in range(spec.repetitions)]
        ok = [r.metrics for r in reps if r.metrics is not None]
        nodes.append(NodeResult(
            index=node_index,
            coords=coords,
            reps=reps,
            aggregates=aggregate(ok) if ok else None,
            n_success=len(ok),
        ))
    return SweepResult(nodes=nodes)


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
    income factor can be negative.
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
        result = run_sweep(spec)
        for node in result.nodes:
            row = {"variant": variant, "alpha": node.coords["alpha"], "n_success": node.n_success}
            for metric in spec.metrics:
                values = [r.metrics[metric] for r in node.reps if r.metrics is not None]
                row[metric] = float(np.mean(values)) if values else math.nan
            rows.append(row)
    return rows
