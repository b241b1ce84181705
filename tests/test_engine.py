"""The lockstep engine against the step-by-step reference and against itself."""

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
from specmarket.errors import ConfigError, MemoryBudgetError
from specmarket.market import batch_key, record_bytes, run_batch

FIELDS = ("prices", "returns", "mus", "taus", "mean_spec_capital", "final_spec_capitals",
          "agent_capitals")


def assert_same_bytes(a, b):
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
            continue
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


def reference_run(config):
    """``run`` spelled out through ``step``."""
    state = new_market(config)
    k = config.n_producers
    outputs, capital = [], []
    for _ in range(config.horizon):
        outputs.append(step(state))
        capital.append((state.money[k:].sum() + state.stocks[k:].sum()) / (2.0 * config.n_speculators))
    return outputs, np.array(capital), (state.money[k:] + state.stocks[k:]) / 2.0


@pytest.mark.parametrize("config", [
    MarketConfig(n_speculators=24, use_param=0.6, info_mode=Endogenous(3), horizon=400, seed=1),
    MarketConfig(n_speculators=2, use_param=1.0, info_mode=Endogenous(2), horizon=400, seed=3),
    MarketConfig(n_speculators=16, use_param=0.4, info_mode=Mixed(1, 2, exponential_weights(0.3, 4)),
                 horizon=4200, seed=2, n_producers=3, producer_kind="random"),
], ids=["endogenous", "ties", "mixed_random_producers"])
def test_run_matches_step_reference(config):
    record = run(config)
    outputs, capital, final = reference_run(config)
    assert record.prices.tobytes() == np.array([o.price for o in outputs]).tobytes()
    assert record.returns.tobytes() == np.array([o.log_return for o in outputs[1:]]).tobytes()
    assert record.mus.tolist() == [o.mu for o in outputs]
    taus = np.array([np.nan if o.tau is None else o.tau for o in outputs])
    assert record.taus.tobytes() == taus.tobytes()
    assert record.mean_spec_capital.tobytes() == capital.tobytes()
    assert record.final_spec_capitals.tobytes() == final.tobytes()


def _mode(kind, size):
    if kind == "endogenous":
        return Endogenous(size)
    if kind == "uniform":
        return Exogenous(uniform_weights(size))
    if kind == "exp":
        return Exogenous(exponential_weights(0.4, size))
    return Mixed(1 + size % 2, 1 + size // 3, uniform_weights(1 << (1 + size // 3)))


@st.composite
def batches(draw):
    kind = draw(st.sampled_from(("endogenous", "uniform", "exp", "mixed")))
    ties = draw(st.booleans())  # N_s = 2 at full use: exact price repeats are common
    n_producers = 0 if ties else draw(st.integers(0, 3))
    base = MarketConfig(
        n_speculators=2 if ties else draw(st.integers(1, 40)),
        use_param=1.0 if ties else draw(st.sampled_from((0.1, 0.5, 0.9))),
        info_mode=_mode(kind, 1),
        horizon=draw(st.integers(1, 300)),
        seed=0,
        n_producers=n_producers,
        producer_kind=draw(st.sampled_from(("deterministic", "random"))),
        record_agents=draw(st.booleans()),
    )
    reps = draw(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 5)),
                         min_size=2, max_size=4))
    return [replace(base, seed=seed, info_mode=_mode(kind, size)) for seed, size in reps]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches())
def test_every_replica_equals_its_own_run(configs):
    for config, record in zip(configs, run_batch(configs)):
        assert_same_bytes(record, run(config))


def test_exogenous_queue_crosses_chunks_in_lockstep():
    base = MarketConfig(n_speculators=8, use_param=0.5, info_mode=Exogenous(uniform_weights(4)),
                        horizon=9000, seed=0, n_producers=2, producer_kind="random")
    configs = [replace(base, seed=5), replace(base, seed=6, info_mode=Exogenous(uniform_weights(7)))]
    for config, record in zip(configs, run_batch(configs)):
        assert_same_bytes(record, run(config))


def test_batch_key_allows_seed_and_mode_parameters_only():
    base = MarketConfig(n_speculators=8, use_param=0.5, info_mode=Endogenous(2), horizon=10, seed=1)
    assert batch_key(base) == batch_key(replace(base, seed=2, info_mode=Endogenous(4)))
    assert batch_key(base) != batch_key(replace(base, info_mode=Exogenous(uniform_weights(4))))
    assert batch_key(base) != batch_key(replace(base, use_param=0.6))
    with pytest.raises(ConfigError, match="run_batch"):
        run_batch([base, replace(base, horizon=11)])


def test_batch_memory_budget_covers_every_record():
    config = MarketConfig(n_speculators=8, use_param=0.5, info_mode=Endogenous(2), horizon=100, seed=1)
    assert record_bytes(config) == 8 * 100 * 5
    assert len(run_batch([config] * 2, memory_budget=2 * record_bytes(config))) == 2
    with pytest.raises(MemoryBudgetError):
        run_batch([config] * 3, memory_budget=2 * record_bytes(config))


def test_states_end_as_step_leaves_them(monkeypatch):
    """The engine's market states can be stepped on, as if run step by step."""
    from specmarket import market

    created = []
    original = market.new_market

    def capture(config):
        created.append(original(config))
        return created[-1]

    monkeypatch.setattr(market, "new_market", capture)
    base = MarketConfig(n_speculators=6, use_param=0.5, info_mode=Mixed(1, 1, uniform_weights(2)),
                        horizon=50, seed=1)
    run_batch([base, replace(base, seed=2)])
    monkeypatch.undo()
    for state in created:
        longer = run(replace(state.config, horizon=60))
        tail = [step(state) for _ in range(10)]
        assert [o.price for o in tail] == longer.prices[50:].tolist()
        assert [o.mu for o in tail] == longer.mus[50:].tolist()
