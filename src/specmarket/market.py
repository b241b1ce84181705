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
engine, ``run``: it steps a market's whole horizon in one call of a C kernel
(``_kernel.c``) with the same bits as ``step``. The kernel writes the whole
record (prices, returns, states, taus and capitals) and leaves the state's
holdings and ``last_seen`` as ``step`` does. It sums two arrays per pass of
one pairwise tree, copied from numpy's, and takes each return from the C
library's ``log10``, which ``math.log10`` calls. The kernel is compiled on
first use and cached in the package's ``__pycache__/`` under a hash of its
source, its flags and the host CPU (see ``specmarket._kernel``). Where it
cannot be built, ``run`` warns once and loops over ``step`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

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
            raise ConfigError(
                f"info_mode.memory_bits must be in [1, {_MAX_STATE_BITS}], got {self.memory_bits!r}"
            )


@dataclass(frozen=True, eq=False)
class Exogenous:
    """Information drawn i.i.d. from a fixed distribution over states."""

    weights: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ConfigError("info_mode.weights must be a non-empty 1-d vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ConfigError("info_mode.weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ConfigError(
                f"info_mode.weights must sum to 1 within 1e-12, got sum {w.sum()!r}"
            )

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
            raise ConfigError(f"info_mode.endo_bits must be in [1, {_MAX_STATE_BITS - 1}], "
                              f"got {self.endo_bits!r}")
        exo_max = _MAX_STATE_BITS - self.endo_bits
        if not isinstance(self.exo_bits, int) or not 1 <= self.exo_bits <= exo_max:
            raise ConfigError(f"info_mode.exo_bits must be in [1, {exo_max}], got {self.exo_bits!r}")
        w = np.asarray(self.exo_weights, dtype=float)
        if w.shape != (1 << self.exo_bits,):
            raise ConfigError(
                f"info_mode.exo_weights must have length 2**exo_bits = {1 << self.exo_bits}, got {w.shape}"
            )
        Exogenous(w).validate()

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


def _weights_key(weights) -> bytes:
    # equal under np.array_equal => equal bytes: one dtype, and -0.0 folded into 0.0
    return (np.asarray(weights, dtype=float) + 0.0).tobytes()


def uniform_weights(n_states: int) -> np.ndarray:
    """Uniform exogenous distribution over ``n_states`` states."""
    if n_states < 1:
        raise ConfigError(f"n_states must be >= 1, got {n_states}")
    return np.full(n_states, 1.0 / n_states)


def exponential_weights(rate: float, n_states: int, field: str = "rate") -> np.ndarray:
    """Exogenous distribution with weights proportional to exp(-rate * mu).

    A non-finite ``rate``, or a negative one whose weights or weight sum
    overflow float64, raises :class:`ConfigError` naming ``field``.
    """
    if n_states < 1:
        raise ConfigError(f"n_states must be >= 1, got {n_states}")
    if not math.isfinite(rate):
        raise ConfigError(f"{field} must be finite, got {rate!r}")
    with np.errstate(over="ignore"):
        w = np.exp(-rate * np.arange(n_states, dtype=float))
        total = w.sum()
    if not math.isfinite(total):
        raise ConfigError(f"{field} = {rate!r}: the weights exp(-rate * mu) over {n_states} states "
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
        raise ConfigError(f"n_speculators must be a positive integer, got {config.n_speculators!r}")
    if not isinstance(config.n_producers, int) or config.n_producers < 0:
        raise ConfigError(f"n_producers must be a nonnegative integer, got {config.n_producers!r}")
    if config.producer_kind not in PRODUCER_KINDS:
        raise ConfigError(
            f"producer_kind must be one of {PRODUCER_KINDS}, got {config.producer_kind!r}"
        )
    if not (0.0 < config.use_param <= 1.0):
        raise ConfigError(f"use_param must be in (0, 1], got {config.use_param!r}")
    # epsilon only guards against empty order-book sides; anything near 1e-3
    # would start to distort prices.
    if not (0.0 < config.epsilon < 1e-3):
        raise ConfigError(f"epsilon must satisfy 0 < epsilon << 1e-3, got {config.epsilon!r}")
    if not isinstance(config.horizon, int) or config.horizon < 1:
        raise ConfigError(f"horizon must be a positive integer, got {config.horizon!r}")
    check_seed(config.seed)
    if not isinstance(config.info_mode, (Endogenous, Exogenous, Mixed)):
        raise ConfigError(f"info_mode must be Endogenous, Exogenous or Mixed, got {config.info_mode!r}")
    config.info_mode.validate()
    check_market_size(config.n_states, config.n_agents, "info_mode/n_speculators")
    size = record_bytes(config)
    if size > _MAX_RECORD_BYTES:
        raise ConfigError(
            f"horizon: {config.horizon} steps need {size} bytes of record, "
            f"above the supported {_MAX_RECORD_BYTES}"
        )


def check_seed(seed) -> None:
    """Raise :class:`ConfigError` unless ``seed`` is an integer in [0, 2**64)."""
    if not isinstance(seed, int) or seed < 0 or seed >= 1 << 64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def check_market_size(n_states: int, n_agents: int, field: str) -> None:
    """Raise :class:`ConfigError` naming ``field`` if a market's per-state storage exceeds the cap.

    Counts the (D, N) bool strategy table and the float64/int64 arrays of length D.
    """
    size = n_states * (max(n_agents, 1) + 8 * _PER_STATE_ARRAYS)
    if size > _MAX_MARKET_BYTES:
        raise ConfigError(
            f"{field}: {n_states} states x {n_agents} agents need {size} bytes of strategies "
            f"and per-state arrays, above the supported {_MAX_MARKET_BYTES}"
        )


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
    taus: np.ndarray               # (T,) int, 0 where the state had not occurred before
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
    """Next information index; shifts in the return sign (endogenous) or samples (exogenous)."""
    mode = state.config.info_mode
    if isinstance(mode, Endogenous):
        return ((state.mu << 1) | _return_bit(state)) % mode.n_states
    if isinstance(mode, Exogenous):
        return _draw_exogenous(state)
    endo_states = 1 << mode.endo_bits
    endo = ((state.mu % endo_states) << 1 | _return_bit(state)) % endo_states
    exo = _draw_exogenous(state)
    return exo * endo_states + endo


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
            f"epsilon = {config.epsilon!r} is too small for this market: step {t} clears at "
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


def run(config: MarketConfig) -> SimulationRecord:
    """Execute ``config.horizon`` steps and return the full record.

    The record is bit-identical to stepping the market with :func:`step`, so
    equal configs replay bit-identically. A step whose price is not finite and
    positive, or whose return is not finite, raises the :class:`ConfigError`
    of :func:`check_clearing`, as :func:`step` does.
    """
    state = new_market(config)
    horizon, k, n_spec = config.horizon, config.n_producers, config.n_speculators
    prices, returns = np.empty(horizon), np.empty(horizon - 1)
    mus, taus = np.empty(horizon, dtype=np.int64), np.empty(horizon, dtype=np.int64)
    capital = np.empty(horizon)
    lib = _kernel.library()
    if lib:
        _step_kernel(lib, state, prices, returns, mus, taus, capital)
    else:
        for t in range(horizon):
            out = step(state)
            prices[t], mus[t], taus[t] = out.price, out.mu, out.tau
            if t:
                returns[t - 1] = out.log_return
            capital[t] = np.add.reduce(state.money[k:]) + np.add.reduce(state.stocks[k:])
    capital /= 2.0 * n_spec
    return SimulationRecord(
        prices=prices,
        returns=returns,
        mus=mus,
        taus=taus,
        mean_spec_capital=capital,
        final_spec_capitals=(state.money[k:] + state.stocks[k:]) / 2.0,
    )


def _address(array) -> Optional[int]:
    return None if array is None else array.ctypes.data


def _endo_states(mode: InformationMode) -> int:
    """States of the mode's endogenous part; 0 for exogenous information."""
    if isinstance(mode, Endogenous):
        return mode.n_states
    return 1 << mode.endo_bits if isinstance(mode, Mixed) else 0


def _step_kernel(lib, state, prices, returns, mus, taus, capital) -> None:
    """The whole horizon in one call of the C kernel; the state ends as ``step`` leaves it."""
    cfg = state.config
    n, k, horizon = cfg.n_agents, cfg.n_producers, cfg.horizon
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
            prices.ctypes.data, returns.ctypes.data, mus.ctypes.data, taus.ctypes.data,
            capital.ctypes.data,
        )
    if done < horizon:
        check_clearing(cfg, done, float(prices[done]), float(prices[done - 1]) if done else 1.0)
    state.t, state.mu = horizon, int(mus[-1])
    state.last_price = float(prices[-1])
    state.last_return = float(returns[-1]) if horizon > 1 else math.log10(state.last_price)
    if queue is not None and horizon > 1:
        state._exo_queue = queue
        state._exo_pos = (horizon - 2) % _EXO_CHUNK + 1  # draws made: horizon - 1
