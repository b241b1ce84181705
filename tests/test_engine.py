"""The C kernel behind ``run`` against the step-by-step reference and ``run``'s loop over it."""

import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specmarket import (
    Endogenous,
    Exogenous,
    MarketConfig,
    Mixed,
    exponential_weights,
    new_market,
    run,
    step,
    uniform_weights,
)
from specmarket import _kernel, market
from specmarket.analytics import variance_curve
from specmarket.cli import main
from specmarket.errors import ConfigError
from specmarket.io import write_run_artifact
from specmarket.market import record_bytes, validate_config
from test_analytics import README_ALPHAS
from test_golden import ARTIFACT_CASES, CASES, GOLDEN_ARTIFACTS, file_digests

FIELDS = ("prices", "returns", "mus", "taus", "mean_spec_capital", "final_spec_capitals")


def assert_same_bytes(a, b):
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


def reference_run(config):
    """``run`` spelled out through ``step``, with each speculator's capital after every step."""
    state = new_market(config)
    k = config.n_producers
    outputs, capital, agents = [], [], []
    for _ in range(config.horizon):
        outputs.append(step(state))
        capital.append((state.money[k:].sum() + state.stocks[k:].sum()) / (2.0 * config.n_speculators))
        agents.append((state.money[k:] + state.stocks[k:]) / 2.0)
    return outputs, np.array(capital), np.array(agents)


def assert_matches_step(record, config):
    outputs, capital, agents = reference_run(config)
    assert record.prices.tobytes() == np.array([o.price for o in outputs]).tobytes()
    assert record.returns.tobytes() == np.array([o.log_return for o in outputs[1:]]).tobytes()
    assert record.mus.tolist() == [o.mu for o in outputs]
    assert record.taus.tolist() == [o.tau for o in outputs]
    assert record.mean_spec_capital.tobytes() == capital.tobytes()
    assert record.final_spec_capitals.tobytes() == agents[-1].tobytes()


def fallback_run(config):
    """``run`` looping over ``step``, as on a host where the kernel cannot be built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_LIBRARY", False)
        return run(config)


@pytest.mark.parametrize("config", [
    MarketConfig(n_speculators=24, use_param=0.6, info_mode=Endogenous(3), horizon=400, seed=1),
    MarketConfig(n_speculators=2, use_param=1.0, info_mode=Endogenous(2), horizon=400, seed=3),
    MarketConfig(n_speculators=16, use_param=0.4, info_mode=Mixed(1, 2, exponential_weights(0.3, 4)),
                 horizon=4200, seed=2, n_producers=3, producer_kind="random"),
], ids=["endogenous", "ties", "mixed_random_producers"])
def test_run_matches_step_reference(config):
    assert_matches_step(run(config), config)


def _mode(kind, size):
    if kind == "endogenous":
        return Endogenous(size)
    if kind == "uniform":
        return Exogenous(uniform_weights(size))
    if kind == "exp":
        return Exogenous(exponential_weights(0.4, size))
    return Mixed(1 + size % 2, 1 + size // 3, uniform_weights(1 << (1 + size // 3)))


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(("endogenous", "uniform", "exp", "mixed")))
    ties = draw(st.booleans())  # N_s = 2 at full use: exact price repeats are common
    return MarketConfig(
        n_speculators=2 if ties else draw(st.integers(1, 40)),
        use_param=1.0 if ties else draw(st.sampled_from((0.1, 0.5, 0.9))),
        info_mode=_mode(kind, draw(st.integers(1, 5))),
        horizon=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2**64 - 1)),
        n_producers=0 if ties else draw(st.integers(0, 3)),
        producer_kind=draw(st.sampled_from(("deterministic", "random"))),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_run_equals_step_and_fallback(config):
    assert _kernel.library()
    record = run(config)
    assert_matches_step(record, config)
    assert_same_bytes(record, fallback_run(config))


def test_exogenous_queue_crosses_chunks():
    """9000 steps cross two refills of the 4096-draw exogenous queue."""
    base = MarketConfig(n_speculators=8, use_param=0.5, info_mode=Exogenous(uniform_weights(4)),
                        horizon=9000, seed=5, n_producers=2, producer_kind="random")
    for config in (base, replace(base, seed=6, info_mode=Exogenous(exponential_weights(0.4, 7)))):
        record = run(config)
        assert_matches_step(record, config)
        assert_same_bytes(record, fallback_run(config))


def test_record_cap_is_a_config_rule():
    """40 bytes a step at any N_s: 26,843,545 steps are accepted, one more is refused by name."""
    config = MarketConfig(n_speculators=3, use_param=0.5, info_mode=Endogenous(2),
                          horizon=26_843_545, seed=1)
    assert record_bytes(config) == record_bytes(replace(config, n_speculators=4096)) <= 1 << 30
    validate_config(config)
    with pytest.raises(ConfigError, match="horizon"):
        validate_config(replace(config, horizon=config.horizon + 1))


#: the fields of a ``MarketState`` that ``run`` leaves and ``step`` would
STATE_FIELDS = ("t", "mu", "last_price", "last_return", "last_seen", "money", "stocks",
                "_exo_queue", "_exo_pos")


def assert_same_state(ours, theirs):
    for name in STATE_FIELDS:
        x, y = getattr(ours, name), getattr(theirs, name)
        if x is None or y is None:
            assert x is None and y is None, name
            continue
        x, y = np.asarray(x), np.asarray(y)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    # the generator's state holds small arrays (counter, key, buffer), printed whole
    assert repr(ours.rng.bit_generator.state) == repr(theirs.rng.bit_generator.state)


def test_states_end_as_step_leaves_them(monkeypatch):
    """The engine's market states equal stepped ones, field by field, and can be stepped on."""
    created = []
    original = market.new_market

    def capture(config):
        created.append(original(config))
        return created[-1]

    monkeypatch.setattr(market, "new_market", capture)
    base = MarketConfig(n_speculators=6, use_param=0.5, info_mode=Mixed(1, 1, uniform_weights(2)),
                        horizon=50, seed=1)
    # horizon 4097 ends on the last draw of the first refill
    for config in (base, replace(base, seed=2), replace(base, horizon=5000),
                   replace(base, horizon=1), replace(base, horizon=2),
                   replace(base, info_mode=Endogenous(3), n_producers=2, producer_kind="random"),
                   replace(base, info_mode=Exogenous(exponential_weights(0.4, 7)), horizon=4097)):
        run(config)
    monkeypatch.undo()
    for state in created:
        horizon = state.config.horizon
        stepped = new_market(state.config)
        for _ in range(horizon):
            step(stepped)
        assert_same_state(state, stepped)
        longer = run(replace(state.config, horizon=horizon + 10))
        tail = [step(state) for _ in range(10)]
        assert [o.price for o in tail] == longer.prices[horizon:].tolist()
        assert [o.mu for o in tail] == longer.mus[horizon:].tolist()


def assert_counterparty_side(before, after, expected, terms):
    """``sum(after) - sum(before)`` equals ``expected`` to a few ulps per agent of the
    magnitudes involved: both sums and the positive ``terms`` of the trade."""
    scale = before.sum() + after.sum() + sum(terms)
    tolerance = 4 * (before.size + 2) * np.finfo(float).eps * scale
    assert abs((after.sum() - before.sum()) - expected) <= tolerance


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_invariants_over_generated_configs(config):
    """Stepped through the public phase functions, every holding stays nonnegative and the
    producers keep theirs; a pure-speculator market's money and stock totals change by
    exactly the epsilon counterparty's side of each trade, p S - M and M / p - S. ``run``
    replays byte for byte and ends with the stepped holdings."""
    created = []
    original = market.new_market
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(market, "new_market", lambda c: created.append(original(c)) or created[-1])
        first, second = run(config), run(config)
    assert len(created) == 2
    assert_same_bytes(first, second)

    state = new_market(config)
    k = config.n_producers
    for t in range(config.horizon):
        if t > 0:
            state.mu = market.next_information(state)
        orders = market.form_orders(state)
        price = market.clear_price(orders.demand, orders.supply)
        money, stocks = state.money.copy(), state.stocks.copy()
        market.settle(state, orders, price)
        assert state.money.min() >= 0.0 and state.stocks.min() >= 0.0
        assert state.money[:k].tobytes() == money[:k].tobytes()
        assert state.stocks[:k].tobytes() == stocks[:k].tobytes()
        if k == 0:
            m, s = float(orders.money_orders.sum()), float(orders.stock_orders.sum())
            assert_counterparty_side(money, state.money, price * s - m, (price * s, m))
            assert_counterparty_side(stocks, state.stocks, m / price - s, (m / price, s))
    for ended in created:
        assert ended.money.tobytes() == state.money.tobytes()
        assert ended.stocks.tobytes() == state.stocks.tobytes()


@pytest.mark.parametrize("config", [
    MarketConfig(n_speculators=5, use_param=0.5, info_mode=Endogenous(2), horizon=1, seed=7),
    MarketConfig(n_speculators=5, use_param=0.5, info_mode=Mixed(1, 1, uniform_weights(2)),
                 horizon=1, seed=7),
    MarketConfig(n_speculators=5, use_param=0.5, info_mode=Endogenous(2), horizon=2, seed=8),
    MarketConfig(n_speculators=5, use_param=0.5, info_mode=Exogenous(uniform_weights(3)),
                 horizon=2, seed=8),
    MarketConfig(n_speculators=9, use_param=0.7, info_mode=Mixed(2, 1, uniform_weights(2)),
                 horizon=300, seed=9, n_producers=4, producer_kind="random"),
    MarketConfig(n_speculators=7, use_param=0.5, info_mode=Exogenous(uniform_weights(64)),
                 horizon=4400, seed=10),
], ids=["horizon1_endogenous", "horizon1_mixed", "horizon2_endogenous", "horizon2_exogenous",
        "mixed_random_producers", "taus_across_refill"])
def test_kernel_record_edges(config):
    """The returns and taus the kernel writes, at the edges of their lengths and of a refill."""
    record = run(config)
    assert record.returns.shape == (config.horizon - 1,)
    assert record.taus.shape == (config.horizon,)
    assert record.taus.dtype == np.int64 and record.taus[0] == 0
    assert_matches_step(record, config)
    assert_same_bytes(record, fallback_run(config))
    if config.horizon > market._EXO_CHUNK + 1:
        # steps after the first refill whose state last occurred before it
        t = np.arange(config.horizon)
        across = ((t > market._EXO_CHUNK + 1) & (record.taus > 0)
                  & (t - record.taus <= market._EXO_CHUNK))
        assert across.sum() >= 20


def price_outside_guard(record, config):
    """A step clears outside [2^-60, 2^60], so it divides."""
    return bool(np.any((record.prices < 2.0**-60) | (record.prices > 2.0**60)))


def tiny_buyer(record, config):
    """A speculator whose capital is in (2^-1000, 2^-902) buys at the next step.

    Its money is below 2^-901, and above zero since a use below 1 never
    spends all of it, so its order is a nonzero normal below 2^-900.
    """
    assert config.use_param < 1.0
    caps = reference_run(config)[2][:-1]
    buys = new_market(config).strategies[record.mus[1:], config.n_producers:]
    return bool(np.any((caps > 2.0**-1000) & (caps < 2.0**-902) & buys))


@pytest.mark.parametrize("config, tripped", [
    (MarketConfig(n_speculators=1, use_param=1.0, info_mode=Endogenous(1), epsilon=1e-30,
                  horizon=400, seed=3), price_outside_guard),
    (MarketConfig(n_speculators=4, use_param=0.9, info_mode=Endogenous(2), horizon=800, seed=12),
     tiny_buyer),
], ids=["price_above_2^60", "holdings_below_2^-900"])
def test_steps_outside_the_fma_guard_match_step(config, tripped):
    """Steps outside the FMA quotient's guard divide, with the bits of ``step``."""
    record = run(config)
    assert tripped(record, config)
    assert_matches_step(record, config)
    assert_same_bytes(record, fallback_run(config))


@pytest.mark.parametrize("n_speculators, use_param, epsilon, seed, at", [
    (2, 0.5, 1e-300, 4, "step 2 clears at price 9.999999999999999e+299 after 2e-300"),
    (2, 0.5, 5e-324, 4, "step 2 clears at price inf after 1e-323"),
    (2, 1.0, 5e-324, 4, "step 0 clears at price 0.0 after 1.0"),
    (3, 0.5, 5e-324, 12, "step 2 clears at price 5e-324 after 2.0"),
], ids=["return_inf", "price_inf", "price_zero", "return_zero"])
def test_tiny_epsilon_is_refused_by_name_on_both_engines(n_speculators, use_param, epsilon, seed,
                                                         at):
    """A price that is not finite and positive, or a return that is not finite, raises one
    ``ConfigError`` naming epsilon from the kernel, ``run``'s loop and ``step``."""
    config = MarketConfig(n_speculators=n_speculators, use_param=use_param,
                          info_mode=Endogenous(1), epsilon=epsilon, horizon=200, seed=seed)
    messages = []
    for engine in (run, fallback_run, reference_run):
        with pytest.raises(ConfigError, match=f"^epsilon = {epsilon!r} is too small") as raised:
            engine(config)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == messages[2]
    assert at in messages[0]


# ---------------------------------------------------------------------------
# kernel pieces
# ---------------------------------------------------------------------------

def kernel_total(lib, values):
    values = np.ascontiguousarray(values, dtype=float)
    return np.float64(lib.specmarket_total(values.ctypes.data, values.size))


def test_kernel_total_equals_add_reduce():
    lib = _kernel.library()
    assert lib
    rng = np.random.default_rng(11)
    lengths = list(range(301)) + rng.integers(0, 20_001, size=3000).tolist()
    for n in lengths:
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)
        assert kernel_total(lib, values).tobytes() == np.add.reduce(values).tobytes(), n


#: whether the kernel was built with FMA (``__FMA__``): -march=native on an x86 CPU with FMA
FMA_BUILD = platform.machine() == "x86_64" and bool(
    re.search(r"^flags\s*:.*\bfma\b", _kernel.cpu_identity(), re.MULTILINE))


def kernel_divide(lib, m, price):
    """``specmarket_divide``: the settle quotients m / price, and whether they took the FMA path."""
    m = np.ascontiguousarray(m, dtype=float)
    q = np.empty_like(m)
    fast = lib.specmarket_divide(m.ctypes.data, m.size, price, q.ctypes.data)
    return q, bool(fast)


def assert_divides(lib, m, price, fast):
    q, took = kernel_divide(lib, m, price)
    assert took == (fast and FMA_BUILD), (m, price)
    with np.errstate(over="ignore", under="ignore"):  # beyond the guard, quotients may
        expected = np.asarray(m, dtype=float) / np.float64(price)  # overflow or underflow
    assert q.tobytes() == expected.tobytes(), (m, price)


def test_fma_quotient_equals_division_inside_the_guard():
    """1.2e7 random orders and prices inside the guard, and a block of quotients at the
    top of their binade, where q0 = m * (1 / price) is farthest from m / price."""
    lib = _kernel.library()
    assert lib
    rng = np.random.default_rng(12)
    for _ in range(1200):
        price = float(np.ldexp(rng.uniform(1.0, 2.0), rng.integers(-60, 60)))
        m = np.ldexp(rng.uniform(1.0, 2.0, 10_000), rng.integers(-900, 901, 10_000))
        m[rng.random(m.size) < 0.1] = 0.0
        assert_divides(lib, m, price, fast=True)
    top = rng.uniform(2.0 - 2.0**-20, 2.0, 100_000)
    for price in (1.0 + 2.0**-52, 1.0 + 2.0**-30, 1.5, np.nextafter(2.0, 0.0) / 2**40):
        assert_divides(lib, top, float(price), fast=True)
        assert_divides(lib, top * price, float(price), fast=True)


def test_fma_quotient_edges_equal_division():
    """The guard's bounds and their neighbours, zero, subnormal and negative orders, powers of
    two, and prices just outside [2^-60, 2^60]: each equals the division, on its path."""
    lib = _kernel.library()
    assert lib
    lowest, highest = 2.0**-900, np.nextafter(2.0**901, 0.0)  # biased exponents 123 and 1923
    inside = [0.0, lowest, np.nextafter(lowest, 1.0), highest, np.nextafter(highest, 0.0), 1.0,
              *(2.0**e for e in range(-900, 901, 7))]
    outside = [np.nextafter(lowest, 0.0), 2.0**901, 2.0**-1000, 2.0**-1022, 5e-324,
               np.nextafter(2.0**-1022, 0.0), -0.0, -1.0, np.inf, 2.0**1023]
    low_price, high_price = 2.0**-60, 2.0**60
    prices = [low_price, np.nextafter(low_price, 1.0), high_price, np.nextafter(high_price, 0.0),
              1.0, 3.0, *(2.0**e for e in range(-60, 61, 3))]
    beyond = [np.nextafter(low_price, 0.0), np.nextafter(high_price, np.inf), 2.0**-61, 2.0**61,
              1e-30, 1e30]
    for price in prices:
        price = float(price)
        assert_divides(lib, inside, price, fast=True)
        for m in inside:
            assert_divides(lib, [m], price, fast=True)
        for m in outside:
            assert_divides(lib, [m], price, fast=False)
            assert_divides(lib, [1.0, m, 2.0], price, fast=False)
    for price in beyond:
        for m in inside + outside:
            assert_divides(lib, [m], float(price), fast=False)
    assert_divides(lib, [], 1.0, fast=True)
    # where the FMA quotient would differ: a remainder that underflows, a quotient that
    # overflows, or one that is subnormal
    rng = np.random.default_rng(13)
    small = np.ldexp(rng.uniform(1.0, 2.0, 100_000), rng.integers(-1074, -900, 100_000))
    large = np.ldexp(rng.uniform(1.0, 2.0, 100_000), rng.integers(901, 1024, 100_000))
    for price in (0.7, 3.0, 1e-10, 1e10, low_price, high_price):
        assert_divides(lib, small, price, fast=False)
        assert_divides(lib, large, price, fast=False)
    m = np.ldexp(rng.uniform(1.0, 2.0, 10_000), rng.integers(-900, 901, 10_000))
    for price in np.ldexp(rng.uniform(1.0, 2.0, 100), rng.integers(-1022, -60, 100)):
        assert_divides(lib, m, float(price), fast=False)


def test_bound_signatures_match_the_c_definitions():
    """Each entry point's ``argtypes`` has one type per parameter of its C definition, so a
    parameter dropped on one side fails here instead of passing stray pointers."""
    source = _kernel.SOURCE.read_text()
    lib = _kernel.library()
    assert lib
    for name, argtypes in (("specmarket_run", _kernel.RUN_ARGTYPES),
                           ("specmarket_write_rows", _kernel.WRITE_ARGTYPES),
                           ("specmarket_divide", _kernel.DIVIDE_ARGTYPES),
                           ("specmarket_total", None)):
        definition = re.search(rf"^\w+ {name}\(([^)]*)\)\n{{", source, re.MULTILINE)
        assert definition, name
        n_params = len(definition.group(1).split(","))
        assert len(getattr(lib, name).argtypes) == n_params, name
        assert argtypes is None or len(argtypes) == n_params, name


@pytest.mark.parametrize("d, n", [(1, 1), (1, 3), (2, 2), (3, 5), (7, 9), (8, 8), (5, 13), (16, 33),
                                  (512, 1025), (513, 1025), (64, 1024)])
def test_strategy_table_equals_integers(d, n):
    """Odd and even uint32 counts leave the generator as ``integers`` does."""
    for seed in range(3):
        ours = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        theirs = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        table = market._strategy_table(ours, d, n)
        expected = theirs.integers(0, 2, size=(d, n), dtype=np.uint8).view(np.bool_)
        assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
        assert table.tobytes() == expected.tobytes()
        assert ours.integers(d) == theirs.integers(d)
        assert ours.integers(3 * d + 1) == theirs.integers(3 * d + 1)
        assert ours.random() == theirs.random()


def test_failed_kernel_warns_by_name_and_falls_back(monkeypatch, tmp_path):
    config = MarketConfig(n_speculators=12, use_param=0.5, info_mode=Mixed(1, 1, uniform_weights(2)),
                          horizon=300, seed=4, n_producers=2, producer_kind="random")
    expected = run(config)
    bounds_argv = ["bounds", "--states", "512", "--alphas", ",".join(map(str, README_ALPHAS))]
    assert main([*bounds_argv, "--out", str(tmp_path / "native")]) == 0

    def fail():
        raise OSError("cc: not found")

    monkeypatch.setattr(_kernel, "_LIBRARY", None)
    monkeypatch.setattr(_kernel, "load", fail)
    with pytest.warns(RuntimeWarning, match=r"_kernel\.c.*cc: not found"):
        record = run(config)
    assert_same_bytes(record, expected)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one warning per process, for run, the chain and write_columns
        assert_same_bytes(run(config), expected)
        assert main([*bounds_argv, "--out", str(tmp_path / "numpy")]) == 0
        assert ((tmp_path / "numpy" / "bounds.csv").read_bytes()
                == (tmp_path / "native" / "bounds.csv").read_bytes())
        for case in ARTIFACT_CASES:  # the Python cell path writes the pinned bytes
            files = write_run_artifact(tmp_path / case, CASES[case], run(CASES[case]))
            assert file_digests(files.values()) == GOLDEN_ARTIFACTS[case]


# ---------------------------------------------------------------------------
# kernel cache
# ---------------------------------------------------------------------------

def test_cold_build_then_warm_load_starts_no_process(monkeypatch, tmp_path):
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
    lib = _kernel.load()
    built = list(tmp_path.iterdir())
    name = _kernel.library_name(_kernel.SOURCE.read_bytes(), _kernel.FLAGS, _kernel.cpu_identity())
    assert [p.name for p in built] == [name]
    assert lib.specmarket_total(np.ones(3).ctypes.data, 3) == 3.0

    def no_process(*args, **kwargs):
        raise AssertionError("a warm load started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    assert _kernel.load().specmarket_total(np.ones(5).ctypes.data, 5) == 5.0
    assert list(tmp_path.iterdir()) == built


def test_unwritable_cache_builds_for_the_process(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_kernel, "CACHE_DIR", blocker / "cache")
    monkeypatch.setattr(_kernel.tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert _kernel.load().specmarket_total(np.ones(2).ctypes.data, 2) == 2.0
    assert list((tmp_path / "tmp").iterdir()) == []


#: ``_kernel.FLAGS`` for the x86-64 baseline: no instruction beyond SSE2
PORTABLE_FLAGS = tuple("-march=x86-64" if f == "-march=native" else f for f in _kernel.FLAGS)
X86_64 = platform.machine() == "x86_64"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("fails", [False, True], ids=["loads", "fails"])
def test_library_loads_once_across_threads(monkeypatch, fails):
    """Four threads that call ``library()`` first share one load and get its result;
    a failed load warns once."""
    loaded, calls = object(), []

    def slow_load():
        calls.append(threading.get_ident())
        time.sleep(0.05)
        if fails:
            raise OSError("cc: not found")
        return loaded

    monkeypatch.setattr(_kernel, "_LIBRARY", None)
    monkeypatch.setattr(_kernel, "load", slow_load)
    got = [None] * 4

    def call(i):
        got[i] = _kernel.library()

    threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    assert got == ([False] * 4 if fails else [loaded] * 4)
    assert [str(w.message).count("cc: not found") for w in caught] == ([1] if fails else [])


def test_kernel_source_compiles_without_warnings():
    for flags in (_kernel.FLAGS, PORTABLE_FLAGS) if X86_64 else (_kernel.FLAGS,):
        done = subprocess.run(["cc", *flags, "-Wall", "-Wextra", "-Werror",
                               "-fsyntax-only", str(_kernel.SOURCE)], capture_output=True, text=True)
        assert done.returncode == 0, (flags, done.stderr)


@pytest.mark.skipif(not X86_64, reason="the portable target is x86-64")
def test_portable_build_gives_the_same_records(monkeypatch, tmp_path):
    """The vector lanes of the pairwise tree add as scalars on any x86-64, not only this CPU,
    and the span-counting chain gives the same bounds."""
    native = {case: run(config) for case, config in CASES.items()}
    native_bounds = variance_curve(512, README_ALPHAS)
    monkeypatch.setattr(_kernel, "FLAGS", PORTABLE_FLAGS)
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(_kernel, "_LIBRARY", _kernel.load())
    assert [p.name for p in tmp_path.glob("*.so")] == [
        _kernel.library_name(_kernel.SOURCE.read_bytes(), PORTABLE_FLAGS, _kernel.cpu_identity())]
    for case, config in CASES.items():
        assert_same_bytes(run(config), native[case])
    assert variance_curve(512, README_ALPHAS) == native_bounds


def test_cache_name_keys_source_flags_and_cpu():
    source, flags, cpu = _kernel.SOURCE.read_bytes(), _kernel.FLAGS, _kernel.cpu_identity()
    name = _kernel.library_name(source, flags, cpu)
    assert name == _kernel.library_name(source, flags, cpu)
    assert name != _kernel.library_name(source + b"\n", flags, cpu)
    assert name != _kernel.library_name(source, flags[:-1], cpu)
    assert name != _kernel.library_name(source, tuple(f.replace("O3", "O2") for f in flags), cpu)
    assert name != _kernel.library_name(source, flags, cpu + " avx512f")


X86_CPUINFO = """processor\t: 0
vendor_id\t: GenuineIntel
model name\t: Intel(R) Xeon(R) Platinum 8375C CPU @ 2.90GHz
flags\t\t: fpu vme sse2 avx2 avx512f
processor\t: 1
model name\t: Intel(R) Xeon(R) Platinum 8375C CPU @ 2.90GHz
flags\t\t: fpu vme sse2 avx2 avx512f
"""

AARCH64_CPUINFO = """processor\t: 0
BogoMIPS\t: 2100.00
Features\t: fp asimd evtstrm aes pmull sha1 sha2 crc32 atomics sve
CPU implementer\t: 0x41
CPU architecture: 8
CPU variant\t: 0x1
CPU part\t: 0xd40
CPU revision\t: 1
"""


def test_cpu_identity_keys_x86_and_aarch64_cpus(monkeypatch, tmp_path):
    cpuinfo = tmp_path / "cpuinfo"
    monkeypatch.setattr(_kernel, "CPUINFO", cpuinfo)

    def identity(text):
        cpuinfo.write_text(text)
        return _kernel.cpu_identity()

    assert identity(X86_CPUINFO).splitlines() == X86_CPUINFO.splitlines()[2:4]
    assert identity(X86_CPUINFO) != identity(X86_CPUINFO.replace(" avx512f", ""))
    arm = identity(AARCH64_CPUINFO)
    assert [line.split(":")[0].strip() for line in arm.splitlines()] == \
        ["Features", "CPU implementer", "CPU part", "CPU variant"]
    assert arm != identity(AARCH64_CPUINFO.replace("0xd40", "0xd0c"))
    assert arm != identity(AARCH64_CPUINFO.replace(" sve", ""))
    assert identity("processor\t: 0\ncpu\t\t: POWER9\n") == ""
    cpuinfo.unlink()
    assert _kernel.cpu_identity() == ""


def test_unidentified_cpu_builds_for_the_process(monkeypatch, tmp_path):
    monkeypatch.setattr(_kernel, "CPUINFO", tmp_path / "absent")
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_kernel.tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert _kernel.load().specmarket_total(np.ones(2).ctypes.data, 2) == 2.0
    assert list((tmp_path / "tmp").iterdir()) == []
    assert not any((tmp_path / "cache").glob("*.so"))


CONCURRENT_BUILD = """
import sys
from pathlib import Path
from specmarket import _kernel, market
_kernel.CACHE_DIR = Path(sys.argv[1])
assert _kernel.library()
config = market.MarketConfig(n_speculators=40, use_param=0.5, info_mode=market.Endogenous(4),
                             horizon=2000, seed=9)
sys.stdout.write(market.run(config).prices.tobytes().hex())
"""


def test_concurrent_cold_builds_both_load(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(_kernel.SOURCE.parent.parent)}
    procs = [subprocess.Popen([sys.executable, "-c", CONCURRENT_BUILD, str(tmp_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
             for _ in range(2)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert "RuntimeWarning" not in err
    config = MarketConfig(n_speculators=40, use_param=0.5, info_mode=Endogenous(4),
                          horizon=2000, seed=9)
    expected = run(config).prices.tobytes().hex()
    assert [out for out, _ in outputs] == [expected, expected]
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
