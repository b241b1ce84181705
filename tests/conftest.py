import os
import threading

import pytest

from specmarket import Endogenous, Exogenous, MarketConfig, uniform_weights


@pytest.fixture(autouse=True)
def no_helper_thread_outlives_the_test():
    """Fail a test after which a ``specmarket-*`` thread, a ``run_many`` worker, is still
    alive: each must be joined before the ``run_many`` that started it returns."""
    yield
    alive = [thread.name for thread in threading.enumerate()
             if thread.name.startswith("specmarket-")]
    assert not alive, f"threads still alive after the test: {alive}"


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the process see ``n`` usable CPUs for the rest of the test."""
    def see(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return see


@pytest.fixture
def make_config():
    def _make(**kwargs):
        defaults = dict(
            n_speculators=64,
            use_param=0.5,
            info_mode=Exogenous(uniform_weights(16)),
            horizon=100,
            seed=7,
        )
        defaults.update(kwargs)
        return MarketConfig(**defaults)

    return _make


@pytest.fixture(scope="session")
def heavy_tail_benchmark_returns():
    """Endogenous benchmark run in the heavy-tail regime, shared by several tests."""
    from specmarket import run

    config = MarketConfig(
        n_speculators=1024, use_param=0.8, info_mode=Endogenous(9),
        horizon=60001, seed=2024,
    )
    return run(config).returns
