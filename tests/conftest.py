import pytest

from specmarket import Endogenous, Exogenous, MarketConfig, uniform_weights


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
