"""Core market dynamics: information states, order formation, clearing, settlement.

The market is a deterministic sequential state machine. Every step, each agent
commits a fraction ``use_param`` of one asset according to its fixed strategy
bit for the current information state, the price clears as total demand over
total supply, and speculator holdings are settled at that single price.
Producers trade but their holdings are restored, so they act as a predictable
source of liquidity.

Log returns are base 10 throughout (most libraries default to natural log, so
this is worth repeating: every return in this package is ``log10 p' - log10 p``).

Randomness comes from one Philox counter-based generator per market, fully
determined by the config seed, so equal configs replay bit-identically.

``step`` and its four phases are the step-by-step reference. There is one
engine, ``run``: it steps a market's whole horizon in one call of the C kernel
with the bits of ``step``, or loops over ``step`` where the kernel cannot be
built. How the kernel keeps those bits is said in the comments of
``_kernel.c``, and how it is built in the docstring of ``specmarket._kernel``.
``run_many`` is the package's one thread map, whose caller does item 0: ``run``
hands it the stepping first and a follower second, and the sweeps their markets.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import _kernel
from .errors import ConfigError

#: refill size of the buffered exogenous-draw queue
_EXO_CHUNK = 4096

#: markets whose strategy table and per-state arrays exceed this size (bytes)
#: are rejected at config time
_MAX_MARKET_BYTES = 1 << 32

#: runs whose record (see :func:`record_bytes`) exceeds this size are rejected
#: at config time
_MAX_RECORD_BYTES = 1 << 30

#: most bits of an information state, an int64 index; checked before ``1 << bits``
_MAX_STATE_BITS = 62

#: 8-byte arrays a market holds per information state: exogenous weights,
#: their cumulative sums and ``last_seen``
_PER_STATE_ARRAYS = 3


# ---------------------------------------------------------------------------
# information modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Endogenous:
    """Information built from the signs of the last ``memory_bits`` log returns."""

    memory_bits: int

    @property
    def n_states(self) -> int:
        return 1 << self.memory_bits

    def validate(self) -> None:
        if not isinstance(self.memory_bits, int) or not 1 <= self.memory_bits <= _MAX_STATE_BITS:
            raise ConfigError("info_mode.memory_bits",
                              f" must be in [1, {_MAX_STATE_BITS}], got {self.memory_bits!r}")


@dataclass(frozen=True, eq=False)
class Exogenous:
    """Information drawn i.i.d. from a fixed distribution over states."""

    weights: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        _check_weights(self.weights, "info_mode.weights")

    def __eq__(self, other):
        return isinstance(other, Exogenous) and np.array_equal(other.weights, self.weights)

    def __hash__(self):
        return hash((Exogenous, _weights_key(self.weights)))


@dataclass(frozen=True, eq=False)
class Mixed:
    """Index composed of an exogenous part (high bits) and an endogenous part (low bits)."""

    endo_bits: int
    exo_bits: int
    exo_weights: np.ndarray

    @property
    def n_states(self) -> int:
        return 1 << (self.endo_bits + self.exo_bits)

    def validate(self) -> None:
        if not isinstance(self.endo_bits, int) or not 1 <= self.endo_bits < _MAX_STATE_BITS:
            raise ConfigError("info_mode.endo_bits", f" must be in [1, {_MAX_STATE_BITS - 1}], "
                              f"got {self.endo_bits!r}")
        exo_max = _MAX_STATE_BITS - self.endo_bits
        if not isinstance(self.exo_bits, int) or not 1 <= self.exo_bits <= exo_max:
            raise ConfigError("info_mode.exo_bits", f" must be in [1, {exo_max}], got {self.exo_bits!r}")
        w = np.asarray(self.exo_weights, dtype=float)
        if w.shape != (1 << self.exo_bits,):
            raise ConfigError("info_mode.exo_weights", " must have length 2**", "exo_bits",
                              f" = {1 << self.exo_bits}, got {w.shape}")
        _check_weights(w, "info_mode.exo_weights")

    def __eq__(self, other):
        return (
            isinstance(other, Mixed)
            and other.endo_bits == self.endo_bits
            and other.exo_bits == self.exo_bits
            and np.array_equal(other.exo_weights, self.exo_weights)
        )

    def __hash__(self):
        return hash((Mixed, self.endo_bits, self.exo_bits, _weights_key(self.exo_weights)))


InformationMode = Union[Endogenous, Exogenous, Mixed]


def _check_weights(weights, name: str) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``weights`` is a non-empty 1-d vector,
    finite, nonnegative and summing to 1 within 1e-12."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ConfigError(name, " must be a non-empty 1-d vector")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ConfigError(name, " must be finite and nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ConfigError(name, f" must sum to 1 within 1e-12, got sum {float(w.sum())}")


def _weights_key(weights) -> bytes:
    # equal under np.array_equal => equal bytes: one dtype, and -0.0 folded into 0.0
    return (np.asarray(weights, dtype=float) + 0.0).tobytes()


def uniform_weights(n_states: int) -> np.ndarray:
    """Uniform exogenous distribution over ``n_states`` states."""
    if n_states < 1:
        raise ConfigError("n_states", f" must be >= 1, got {n_states}")
    return np.full(n_states, 1.0 / n_states)


def exponential_weights(rate: float, n_states: int, field: str = "rate") -> np.ndarray:
    """Exogenous distribution with weights proportional to exp(-rate * mu).

    A non-finite ``rate``, or a negative one whose weights or weight sum
    overflow float64, raises :class:`ConfigError` naming ``field``.
    """
    if n_states < 1:
        raise ConfigError("n_states", f" must be >= 1, got {n_states}")
    if not math.isfinite(rate):
        raise ConfigError(field, f" must be finite, got {rate}")
    with np.errstate(over="ignore"):
        w = np.exp(-rate * np.arange(n_states, dtype=float))
        total = w.sum()
    if not math.isfinite(total):
        raise ConfigError(field, f" = {rate}: the weights exp(-rate * mu) over {n_states} states "
                          "overflow float64")
    return w / total


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

PRODUCER_KINDS = ("deterministic", "random")


@dataclass(frozen=True)
class MarketConfig:
    """All parameters of one simulation.

    Producers occupy agent indices ``0 .. n_producers-1``; speculators follow.
    """

    n_speculators: int
    use_param: float
    info_mode: InformationMode
    horizon: int
    seed: int
    n_producers: int = 0
    producer_kind: str = "deterministic"
    epsilon: float = 1e-10

    @property
    def n_agents(self) -> int:
        return self.n_producers + self.n_speculators

    @property
    def n_states(self) -> int:
        return self.info_mode.n_states


def validate_config(config: MarketConfig) -> None:
    """Raise :class:`ConfigError` naming the offending field on any violation."""
    if not isinstance(config.n_speculators, int) or config.n_speculators < 1:
        raise ConfigError("n_speculators", f" must be a positive integer, got {config.n_speculators!r}")
    if not isinstance(config.n_producers, int) or config.n_producers < 0:
        raise ConfigError("n_producers", f" must be a nonnegative integer, got {config.n_producers!r}")
    if config.producer_kind not in PRODUCER_KINDS:
        raise ConfigError("producer_kind",
                          f" must be one of {PRODUCER_KINDS}, got {config.producer_kind!r}")
    if not (0.0 < config.use_param <= 1.0):
        raise ConfigError("use_param", f" must be in (0, 1], got {config.use_param}")
    # epsilon only guards against empty order-book sides; anything near 1e-3
    # would start to distort prices.
    if not (0.0 < config.epsilon < 1e-3):
        raise ConfigError("epsilon", f" must satisfy 0 < epsilon << 1e-3, got {config.epsilon}")
    if not isinstance(config.horizon, int) or config.horizon < 1:
        raise ConfigError("horizon", f" must be a positive integer, got {config.horizon!r}")
    check_seed(config.seed)
    if not isinstance(config.info_mode, (Endogenous, Exogenous, Mixed)):
        raise ConfigError("info_mode", f" must be Endogenous, Exogenous or Mixed, got {config.info_mode!r}")
    config.info_mode.validate()
    check_market_size(config.n_states, config.n_agents, "info_mode/n_speculators")
    size = record_bytes(config)
    if size > _MAX_RECORD_BYTES:
        raise ConfigError("horizon", f": {config.horizon} steps need {size} bytes of record, "
                          f"above the supported {_MAX_RECORD_BYTES}")


def check_seed(seed) -> None:
    """Raise :class:`ConfigError` unless ``seed`` is an integer in [0, 2**64)."""
    if not isinstance(seed, int) or seed < 0 or seed >= 1 << 64:
        raise ConfigError("seed", f" must be an integer in [0, 2**64), got {seed!r}")


def check_market_size(n_states: int, n_agents: int, *field: str) -> None:
    """Raise :class:`ConfigError` led by ``field`` if a market's per-state storage exceeds the cap.

    Counts the (D, N) bool strategy table and the float64/int64 arrays of length D.
    """
    size = n_states * (max(n_agents, 1) + 8 * _PER_STATE_ARRAYS)
    if size > _MAX_MARKET_BYTES:
        raise ConfigError(*field, f": {n_states} states x {n_agents} agents need {size} bytes of "
                          f"strategies and per-state arrays, above the supported {_MAX_MARKET_BYTES}")


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

@dataclass
class MarketState:
    """Mutable state of one market; owned by a single thread."""

    config: MarketConfig
    t: int
    money: np.ndarray       # (N,) holdings, producers first
    stocks: np.ndarray      # (N,)
    strategies: np.ndarray  # (D, N) bool, row per information state
    mu: int
    last_price: float
    last_return: float
    last_seen: np.ndarray   # (D,) int64, -1 = never seen
    rng: np.random.Generator
    # buffered inverse-CDF sampling for exogenous draws (part of the state so
    # that replay is independent of how the caller interleaves operations)
    _exo_cum: Optional[np.ndarray] = field(default=None, repr=False)
    _exo_queue: Optional[np.ndarray] = field(default=None, repr=False)
    _exo_pos: int = field(default=0, repr=False)


class Orders(NamedTuple):
    """One step's order book: totals include the epsilon regularizer."""

    demand: float
    supply: float
    money_orders: np.ndarray  # m_i, zero for sellers
    stock_orders: np.ndarray  # s_i, zero for buyers


class StepOutput(NamedTuple):
    price: float
    log_return: float
    mu: int
    tau: int


@dataclass
class SimulationRecord:
    """Per-step time series of one run, and the speculators' final capitals."""

    prices: np.ndarray             # (T,)
    returns: np.ndarray            # (T-1,), returns[i] = log10 prices[i+1] - log10 prices[i]
    mus: np.ndarray                # (T,) int
    taus: np.ndarray               # (T,) int64, 0 where the state had not occurred before
    mean_spec_capital: np.ndarray  # (T,)
    final_spec_capitals: np.ndarray  # (N_s,)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def new_market(config: MarketConfig) -> MarketState:
    """Initialize a market: unit holdings, random fixed strategies, random mu(0)."""
    validate_config(config)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    n = config.n_agents
    d = config.n_states
    strategies = _strategy_table(rng, d, n)
    mu0 = int(rng.integers(d))
    state = MarketState(
        config=config,
        t=0,
        money=np.ones(n),
        stocks=np.ones(n),
        strategies=strategies,
        mu=mu0,
        last_price=1.0,  # nominal price of the symmetric initial allocation
        last_return=0.0,
        last_seen=np.full(d, -1, dtype=np.int64),
        rng=rng,
    )
    if isinstance(config.info_mode, Exogenous):
        state._exo_cum = _cumulative(config.info_mode.weights)
    elif isinstance(config.info_mode, Mixed):
        state._exo_cum = _cumulative(config.info_mode.exo_weights)
    return state


def _strategy_table(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """``rng.integers(0, 2, size=(d, n), dtype=uint8)`` as bools, drawn from raw bits.

    ``integers`` takes each cell from the next byte of a buffered uint32
    stream (Lemire's method without rejection keeps the byte's top bit), and
    the uint32s are the low and high halves of the raw 64-bit words, so the
    cells are the words' little-endian bytes on any host. An odd
    uint32 count leaves the last word's high half buffered for the next draw,
    which is set on the generator by hand so the stream continues as after
    ``integers``.
    """
    cells = d * n
    words = -(-cells // 4)
    bit_generator = rng.bit_generator
    raw = bit_generator.random_raw(-(-words // 2))
    table = raw.astype("<u8", copy=False).view(np.uint8)[:cells] >> 7
    if words % 2:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, int(raw[-1] >> np.uint64(32))
        bit_generator.state = state
    return table.reshape(d, n).view(np.bool_)


def _cumulative(weights: np.ndarray) -> np.ndarray:
    cum = np.cumsum(np.asarray(weights, dtype=float))
    cum[-1] = 1.0  # close the last bin against u ~ U[0,1) rounding
    return cum


def _draw_exogenous(state: MarketState) -> int:
    if state._exo_queue is None or state._exo_pos >= len(state._exo_queue):
        state._exo_queue = np.searchsorted(state._exo_cum, state.rng.random(_EXO_CHUNK), side="right")
        state._exo_pos = 0
    value = int(state._exo_queue[state._exo_pos])
    state._exo_pos += 1
    return value


def _return_bit(state: MarketState) -> int:
    # Heaviside of the last return; exact ties broken by a fair coin, which
    # realizes the vanishing symmetric tie-break noise.
    r = state.last_return
    if r > 0.0:
        return 1
    if r < 0.0:
        return 0
    return int(state.rng.random() < 0.5)


def next_information(state: MarketState) -> int:
    """Next information index, by the kernel's rule: with E = ``_endo_states``, the return
    sign shifts in as ``endo = ((mu % E) << 1 | bit) % E``, and where ``_exo_cum`` is set
    an exogenous draw, made after any tie's coin, goes above it as ``draw * max(E, 1) + endo``."""
    e = _endo_states(state.config.info_mode)
    endo = ((state.mu % e) << 1 | _return_bit(state)) % e if e else 0
    if state._exo_cum is None:
        return endo
    return _draw_exogenous(state) * (e or 1) + endo


def form_orders(state: MarketState) -> Orders:
    """Orders for the current information state.

    A set strategy bit commits ``use_param`` of the agent's money to buying,
    an unset bit commits the same fraction of its stocks to selling. Random
    producers redraw their decision bit fairly every step instead of reading
    the strategy matrix.
    """
    config = state.config
    buy = state.strategies[state.mu]
    if config.n_producers and config.producer_kind == "random":
        buy = buy.copy()
        buy[: config.n_producers] = state.rng.random(config.n_producers) < 0.5
    gamma = config.use_param
    money_orders = gamma * state.money * buy
    stock_orders = gamma * state.stocks * ~buy
    demand = float(money_orders.sum()) + config.epsilon
    supply = float(stock_orders.sum()) + config.epsilon
    return Orders(demand, supply, money_orders, stock_orders)


def clear_price(demand: float, supply: float) -> float:
    """Market-clearing price: demand over supply (both strictly positive)."""
    return demand / supply


def check_clearing(config: MarketConfig, t: int, price: float, before: float) -> None:
    """Raise :class:`ConfigError` naming ``epsilon`` unless step ``t``'s price is finite
    and positive and its log return ``log10(price / before)`` is finite.

    Only a tiny ``epsilon`` gets there: it bounds how far one side of the
    order book can outweigh the other.
    """
    ratio = price / before
    if not (0.0 < price < math.inf and 0.0 < ratio < math.inf):
        raise ConfigError(
            "epsilon", f" = {config.epsilon} is too small for this market: step {t} clears at "
            f"price {price!r} after {before!r}; a price must be finite and positive and its "
            "log return finite"
        )


def settle(state: MarketState, orders: Orders, price: float) -> MarketState:
    """Settle all orders at ``price``; producers are restored, time advances.

    Raises ``check_clearing``'s :class:`ConfigError`, before settling, on a
    price that is not finite and positive or a return that is not finite.
    """
    check_clearing(state.config, state.t, price, state.last_price)
    k = state.config.n_producers
    m = orders.money_orders
    s = orders.stock_orders
    state.money[k:] += s[k:] * price - m[k:]
    state.stocks[k:] += m[k:] / price - s[k:]
    state.last_seen[state.mu] = state.t
    state.last_return = math.log10(price / state.last_price)
    state.last_price = price
    state.t += 1
    return state


def step(state: MarketState) -> StepOutput:
    """Advance one step: update information, form orders, clear, settle.

    The initial step uses the mu(0) drawn at construction; afterwards the
    information rule of the configured mode applies. ``tau`` is the number of
    steps since the step's information state occurred last, 0 on its first
    occurrence.
    """
    if state.t > 0:
        state.mu = next_information(state)
    mu = state.mu
    seen = int(state.last_seen[mu])
    tau = state.t - seen if seen >= 0 else 0
    orders = form_orders(state)
    price = clear_price(orders.demand, orders.supply)
    settle(state, orders, price)
    return StepOutput(price, state.last_return, mu, tau)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

def record_bytes(config: MarketConfig) -> int:
    """Bytes of the per-step arrays of one run's record."""
    return 8 * 5 * config.horizon


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_many(items: Sequence, work: Callable[[Any], Any], workers: Optional[int] = None) -> list:
    """``work(item)`` for each item in input order, or the ``Exception`` it raised.

    Runs on min(``workers``, usable CPUs, items) threads, the caller among
    them; ``workers`` defaults to the usable CPUs and is refused below 1. The
    caller claims item 0 before any helper starts, so item 0 always runs on
    the calling thread. From then on each thread takes the next item under a
    lock, does its work itself and stores the outcome at the item's index, so
    one item's work per thread runs at a time and the outcomes do not depend
    on the thread count. Work that calls the C kernel, such as ``run``,
    releases the GIL, so the items run side by side; other work takes turns,
    with the same outcomes. A ``BaseException`` on any thread stops every
    thread taking items and is re-raised here once all have joined.
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
            if index == 0:  # the caller's claim: the helpers start only now
                for helper in helpers:
                    helper.start()
            try:
                outcomes[index] = work(items[index])
            except Exception as exc:  # the item's outcome, never aborts the map
                outcomes[index] = exc
            except BaseException as exc:  # re-raised by the calling thread after the join
                raised.append(exc)
                return

    helpers = [threading.Thread(target=take, name=f"specmarket-worker-{i}") for i in range(1, threads)]
    try:
        take()
    finally:
        for helper in helpers:
            helper.join()
    if raised:
        raise raised[0]
    return outcomes


#: seconds the follower's counts wait between looks at the kernel's progress
_FOLLOW_POLL_S = 2e-4


def run(config: MarketConfig, follow: Optional[Callable] = None, *,
        capital: bool = True) -> SimulationRecord:
    """Execute ``config.horizon`` steps and return the full record.

    The record is bit-identical to stepping the market with :func:`step`, so
    equal configs replay bit-identically. A step whose price is not finite and
    positive, or whose return is not finite, raises the :class:`ConfigError`
    of :func:`check_clearing`, as :func:`step` does.

    ``mean_spec_capital`` holds the speculators' mean capital after each step,
    which only the income factor reads. With ``capital=False`` the run skips
    that per-step sum and the field is an empty float64 array; every other
    field keeps its bits, ``final_spec_capitals`` included.

    ``follow(record, counts)``, if given, reads the record while it is written:
    ``counts`` is an iterable of rising counts of complete rows that ends when
    the run ends; after a count c, rows ``0 .. c - 1`` of the prices, mus and
    taus, and the returns before them, hold their final bits. Where the C
    kernel is loaded, the stepping and ``follow`` are items 0 and 1 of one
    :func:`run_many`, so the kernel always steps on the thread that called
    ``run``. With two usable CPUs ``follow`` runs beside it on
    ``specmarket-worker-1``; with one, by ``run_many``'s cap of its threads at
    the usable CPUs, it runs on the caller after the stepping. ``counts``
    yields what the kernel publishes. Without the kernel, ``follow`` runs on the
    caller once the record is whole, and ``counts`` is ``(horizon,)``. A
    follower may return before the run ends. ``run`` returns or raises once
    both are done; the stepping's exception is raised before the follower's.
    Without a follower, the kernel steps on the caller and no thread starts.
    """
    state = new_market(config)
    horizon, k, n_spec = config.horizon, config.n_producers, config.n_speculators
    record = SimulationRecord(
        prices=np.empty(horizon), returns=np.empty(horizon - 1),
        mus=np.empty(horizon, dtype=np.int64), taus=np.empty(horizon, dtype=np.int64),
        mean_spec_capital=np.empty(horizon if capital else 0), final_spec_capitals=np.empty(0))
    lib = _kernel.library()
    if lib and follow is not None:
        progress, ended = np.zeros(1, dtype=np.int64), threading.Event()

        def stepping():
            try:
                _step_kernel(lib, state, record, progress)
            finally:
                ended.set()

        # the stepping is item 0, which run_many's caller does itself: on one CPU the follower
        # runs after it on the caller, and its counts end only once the stepping has set ``ended``
        jobs = [stepping, lambda: follow(record, _counts(lib, progress, ended))]
        for outcome in run_many(jobs, lambda job: job()):
            if isinstance(outcome, Exception):
                raise outcome
    elif lib:
        _step_kernel(lib, state, record, None)
    else:
        for t in range(horizon):
            out = step(state)
            record.prices[t], record.mus[t], record.taus[t] = out.price, out.mu, out.tau
            if t:
                record.returns[t - 1] = out.log_return
            if capital:
                record.mean_spec_capital[t] = (np.add.reduce(state.money[k:])
                                               + np.add.reduce(state.stocks[k:]))
    record.mean_spec_capital /= 2.0 * n_spec
    record.final_spec_capitals = (state.money[k:] + state.stocks[k:]) / 2.0
    if follow is not None and not lib:
        follow(record, (horizon,))
    return record


def _counts(lib, progress, ended):
    """The rising counts of complete rows that the kernel stores into ``progress``,
    until ``ended`` is set and the last count is taken."""
    seen, finished = 0, False
    while not finished:
        finished = ended.is_set()  # before the count, so a finished run's count is final
        count = lib.specmarket_progress(progress.ctypes.data)
        if count > seen:
            seen = count
            yield count
        elif not finished:
            ended.wait(_FOLLOW_POLL_S)


def _address(array) -> Optional[int]:
    """The data pointer of ``array``; None, which ctypes passes as NULL, for None or no values."""
    return None if array is None or not array.size else array.ctypes.data


def _endo_states(mode: InformationMode) -> int:
    """States of the mode's endogenous part; 0 for exogenous information."""
    if isinstance(mode, Endogenous):
        return mode.n_states
    return 1 << mode.endo_bits if isinstance(mode, Mixed) else 0


def _step_kernel(lib, state, record, progress) -> None:
    """The whole horizon in one call of the C kernel, which sums the capital into
    ``record.mean_spec_capital`` where that array is not empty and stores its complete
    rows into ``progress`` where it is not None; the state ends as ``step`` leaves it."""
    cfg = state.config
    n, k, horizon = cfg.n_agents, cfg.n_producers, cfg.horizon
    prices, returns, mus = record.prices, record.returns, record.mus
    cum = state._exo_cum
    queue = None if cum is None else np.empty(_EXO_CHUNK, dtype=np.int64)
    m, s = np.empty(n), np.empty(n)
    bit_generator = state.rng.bit_generator
    with bit_generator.lock:
        done = lib.specmarket_run(
            bit_generator.ctypes.bit_generator, horizon, n, k,
            k if cfg.producer_kind == "random" else 0, cfg.use_param, cfg.epsilon,
            _endo_states(cfg.info_mode), _address(cum), 0 if cum is None else cum.size,
            _address(queue), 0 if queue is None else queue.size,
            state.strategies.ctypes.data, state.mu, state.last_seen.ctypes.data,
            state.money.ctypes.data, state.stocks.ctypes.data, m.ctypes.data, s.ctypes.data,
            prices.ctypes.data, returns.ctypes.data, mus.ctypes.data, record.taus.ctypes.data,
            _address(record.mean_spec_capital), _address(progress),
        )
    if done < horizon:
        check_clearing(cfg, done, float(prices[done]), float(prices[done - 1]) if done else 1.0)
    state.t, state.mu = horizon, int(mus[-1])
    state.last_price = float(prices[-1])
    state.last_return = float(returns[-1]) if horizon > 1 else math.log10(state.last_price)
    if queue is not None and horizon > 1:
        state._exo_queue = queue
        state._exo_pos = (horizon - 2) % _EXO_CHUNK + 1  # draws made: horizon - 1
