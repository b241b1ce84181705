import math
import warnings

import numpy as np
import pytest

from specmarket import (
    Endogenous,
    Exogenous,
    Mixed,
    MarketConfig,
    clear_price,
    exponential_weights,
    form_orders,
    new_market,
    next_information,
    run,
    settle,
    step,
    uniform_weights,
)
from specmarket.errors import ConfigError, MemoryBudgetError


class TestExponentialWeights:
    # rate * 1023 = 709.7: every weight is finite, their sum overflows
    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan, -1e3, -1e308, -709.7 / 1023])
    def test_bad_rate_refused_by_name_without_warning(self, rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^info\.exo_rate"):
                exponential_weights(rate, 1024, "info.exo_rate")

    @pytest.mark.parametrize("rate", [0.02, 0.0, -0.0, 1e300, 5e-324, -0.5, -709.0 / 1023])
    def test_accepted_rates_keep_their_weights(self, rate):
        w = np.exp(-rate * np.arange(1024, dtype=float))
        assert exponential_weights(rate, 1024).tobytes() == (w / w.sum()).tobytes()


class TestConfigValidation:
    def test_use_param_out_of_range(self, make_config):
        with pytest.raises(ConfigError, match="use_param"):
            new_market(make_config(use_param=1.5))
        with pytest.raises(ConfigError, match="use_param"):
            new_market(make_config(use_param=0.0))

    def test_epsilon_bounds(self, make_config):
        with pytest.raises(ConfigError, match="epsilon"):
            new_market(make_config(epsilon=0.0))
        with pytest.raises(ConfigError, match="epsilon"):
            new_market(make_config(epsilon=0.01))

    def test_counts(self, make_config):
        with pytest.raises(ConfigError, match="n_speculators"):
            new_market(make_config(n_speculators=0))
        with pytest.raises(ConfigError, match="n_producers"):
            new_market(make_config(n_producers=-1))
        with pytest.raises(ConfigError, match="horizon"):
            new_market(make_config(horizon=0))
        with pytest.raises(ConfigError, match="producer_kind"):
            new_market(make_config(producer_kind="sometimes"))

    def test_weights_must_normalize(self):
        with pytest.raises(ConfigError, match="weights"):
            Exogenous(np.array([0.5, 0.6])).validate()
        with pytest.raises(ConfigError, match="weights"):
            Exogenous(np.array([1.5, -0.5])).validate()

    def test_configs_hash_consistently_with_equality(self, make_config):
        modes = [
            (Endogenous(3), Endogenous(3)),
            (Exogenous(np.array([0.25, 0.75])), Exogenous([0.25, 0.75])),
            (Mixed(1, 1, np.array([0.5, 0.5])), Mixed(1, 1, [0.5, 0.5])),
        ]
        for a, b in modes:
            assert a == b and hash(a) == hash(b)
            assert hash(make_config(info_mode=a)) == hash(make_config(info_mode=b))
        assert len({make_config(info_mode=a) for a, _ in modes}) == 3
        assert Exogenous([0.5, 0.5]) != Exogenous([0.25, 0.75])

    @pytest.mark.parametrize("mode, field", [
        (Endogenous(63), "memory_bits"),
        (Endogenous(10**20), "memory_bits"),
        (Mixed(62, 1, [1.0]), "endo_bits"),
        (Mixed(40, 23, [1.0]), "exo_bits"),
        (Mixed(1, 10**20, [1.0]), "exo_bits"),
    ])
    def test_state_bits_capped_before_the_state_count(self, make_config, mode, field):
        """Above 62 bits a state is no int64 index, and ``1 << bits`` could not be computed."""
        with pytest.raises(ConfigError, match=field):
            new_market(make_config(info_mode=mode))

    def test_mixed_weight_length(self):
        with pytest.raises(ConfigError, match="exo_weights"):
            Mixed(endo_bits=2, exo_bits=2, exo_weights=np.array([0.5, 0.5])).validate()


class TestNewMarket:
    def test_unit_endowments(self, make_config):
        state = new_market(make_config(n_speculators=2, info_mode=Exogenous(uniform_weights(1))))
        assert state.money.tolist() == [1.0, 1.0]
        assert state.stocks.tolist() == [1.0, 1.0]
        assert state.strategies.shape == (1, 2)
        assert state.strategies.dtype == np.bool_

    def test_same_seed_bit_identical(self, make_config):
        a, b = new_market(make_config()), new_market(make_config())
        assert np.array_equal(a.strategies, b.strategies)
        assert a.mu == b.mu

    def test_strategy_bits_fair(self, make_config):
        config = make_config(n_speculators=1024, info_mode=Endogenous(9))
        state = new_market(config)
        assert state.strategies.shape == (512, 1024)
        # binomial bound on 2**19 fair bits
        assert abs(state.strategies.mean() - 0.5) < 0.05

    def test_initial_bookkeeping(self, make_config):
        state = new_market(make_config())
        assert state.t == 0
        assert np.all(state.last_seen == -1)
        assert 0 <= state.mu < 16


class TestNextInformation:
    def test_endogenous_shift_up(self, make_config):
        state = new_market(make_config(info_mode=Endogenous(3)))
        state.mu, state.last_return = 3, 0.01
        assert next_information(state) == 7

    def test_endogenous_shift_down(self, make_config):
        state = new_market(make_config(info_mode=Endogenous(3)))
        state.mu, state.last_return = 7, -0.01
        assert next_information(state) == 6

    def test_endogenous_tie_breaks_randomly(self, make_config):
        state = new_market(make_config(info_mode=Endogenous(1)))
        state.last_return = 0.0
        bits = {next_information(state) for _ in range(64)}
        assert bits == {0, 1}

    def test_exogenous_frequencies(self, make_config):
        weights = exponential_weights(0.02, 1024)
        state = new_market(make_config(info_mode=Exogenous(weights)))
        draws = np.array([next_information(state) for _ in range(1_000_000)])
        freq = np.bincount(draws, minlength=1024) / draws.size
        assert np.abs(freq - weights).max() < 0.01

    def test_mixed_composition(self, make_config):
        # exogenous part pinned to 1 by a degenerate weight vector
        mode = Mixed(endo_bits=2, exo_bits=1, exo_weights=np.array([0.0, 1.0]))
        state = new_market(make_config(info_mode=mode))
        state.mu, state.last_return = 0, 0.01
        mu = next_information(state)
        assert mu == 1 * 4 + 1
        state.mu, state.last_return = mu, -0.01
        assert next_information(state) == 1 * 4 + 2  # endo part (2*1+0) mod 4


class TestOrdersAndClearing:
    def test_two_agent_book(self, make_config):
        config = make_config(n_speculators=2, use_param=0.5, epsilon=1e-10,
                             info_mode=Exogenous(uniform_weights(4)))
        state = new_market(config)
        state.strategies[state.mu] = [True, False]
        orders = form_orders(state)
        assert orders.demand == 0.5 + 1e-10
        assert orders.supply == 0.5 + 1e-10
        assert orders.money_orders.tolist() == [0.5, 0.0]
        assert orders.stock_orders.tolist() == [0.0, 0.5]

    def test_all_buyers_leaves_epsilon_supply(self, make_config):
        config = make_config(n_speculators=3)
        state = new_market(config)
        state.strategies[state.mu] = True
        orders = form_orders(state)
        assert orders.supply == config.epsilon

    def test_full_use_commits_everything(self, make_config):
        state = new_market(make_config(n_speculators=1, use_param=1.0))
        state.money[0] = 2.0
        state.strategies[state.mu] = [True]
        assert form_orders(state).money_orders[0] == 2.0

    def test_clear_price(self):
        assert clear_price(1.25, 1.25) == 1.0
        assert clear_price(2.0, 1.0) == 2.0
        assert clear_price(0.5 + 1e-10, 0.5 + 1e-10) == 1.0


class TestSettle:
    def test_buyer_update(self, make_config):
        state = new_market(make_config(n_speculators=2, use_param=0.5))
        state.strategies[state.mu] = [True, False]
        orders = form_orders(state)
        settle(state, orders, 1.0)
        assert state.money[0] == 0.5 and state.stocks[0] == 1.5
        assert state.money[1] == 1.5 and state.stocks[1] == 0.5

    def test_producers_unchanged(self, make_config):
        config = make_config(n_speculators=4, n_producers=2, use_param=0.9)
        state = new_market(config)
        for _ in range(50):
            step(state)
        assert state.money[:2].tolist() == [1.0, 1.0]
        assert state.stocks[:2].tolist() == [1.0, 1.0]

    def test_random_producers_constant_resources(self, make_config):
        config = make_config(n_speculators=8, n_producers=4, producer_kind="random")
        state = new_market(config)
        seen_buy = set()
        for _ in range(50):
            orders = form_orders(state)
            seen_buy.add(tuple(orders.money_orders[:4] > 0))
            settle(state, orders, clear_price(orders.demand, orders.supply))
        assert state.money[:4].tolist() == [1.0] * 4
        assert len(seen_buy) > 1  # the decision bits are actually redrawn

    def test_complementary_pair_pins_price(self, make_config):
        config = make_config(n_speculators=2, use_param=0.7,
                             info_mode=Exogenous(uniform_weights(8)), horizon=300)
        state = new_market(config)
        state.strategies[:, 1] = ~state.strategies[:, 0]
        outputs = [step(state) for _ in range(300)]
        assert all(o.price == 1.0 for o in outputs)
        assert all(o.log_return == 0.0 for o in outputs)


class TestStep:
    def test_replay_identical(self, make_config):
        config = make_config(horizon=200)
        s1, s2 = new_market(config), new_market(config)
        out1 = [step(s1) for _ in range(200)]
        out2 = [step(s2) for _ in range(200)]
        assert out1 == out2

    def test_first_occurrence_has_no_tau(self, make_config):
        state = new_market(make_config())
        assert step(state).tau == 0

    def test_tau_counts_steps_since_last_visit(self, make_config):
        state = new_market(make_config(info_mode=Exogenous(uniform_weights(1))))
        step(state)
        assert step(state).tau == 1
        assert step(state).tau == 1


class TestRun:
    def test_record_lengths(self, make_config):
        record = run(make_config(horizon=50))
        assert len(record.prices) == 50
        assert len(record.returns) == 49
        assert len(record.mus) == 50
        assert len(record.taus) == 50
        assert len(record.mean_spec_capital) == 50

    def test_determinism(self, make_config):
        config = make_config(horizon=400, info_mode=Endogenous(4))
        a, b = run(config), run(config)
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.returns, b.returns)
        assert np.array_equal(a.mus, b.mus)
        assert np.array_equal(a.taus, b.taus)
        assert np.array_equal(a.final_spec_capitals, b.final_spec_capitals)

    def test_asset_conservation_pure_speculators(self, make_config):
        config = make_config(n_speculators=128, use_param=0.9,
                             info_mode=Endogenous(5), horizon=1)
        state = new_market(config)
        for _ in range(1500):
            money_before, stocks_before = state.money.sum(), state.stocks.sum()
            step(state)
            assert abs(state.money.sum() - money_before) <= 1e-9 * money_before
            assert abs(state.stocks.sum() - stocks_before) <= 1e-9 * stocks_before

    def test_nonnegative_at_full_use(self, make_config):
        config = make_config(n_speculators=32, use_param=1.0,
                             info_mode=Endogenous(3), horizon=2000)
        state = new_market(config)
        for _ in range(2000):
            step(state)
            assert state.money.min() >= 0.0
            assert state.stocks.min() >= 0.0

    def test_memory_budget(self, make_config):
        config = make_config(horizon=10_000, record_agents=True)
        with pytest.raises(MemoryBudgetError):
            run(config, memory_budget=1000)

    def test_agent_capitals_recorded(self, make_config):
        config = make_config(n_speculators=8, n_producers=2, horizon=20, record_agents=True)
        record = run(config)
        assert record.agent_capitals.shape == (20, 8)
        np.testing.assert_allclose(record.agent_capitals.mean(axis=1),
                                   record.mean_spec_capital, rtol=1e-12)

    def test_mixed_information_runs(self, make_config):
        mode = Mixed(endo_bits=3, exo_bits=2, exo_weights=np.full(4, 0.25))
        record = run(make_config(info_mode=mode, horizon=600))
        assert record.mus.max() < 32 and record.mus.min() >= 0
        # both halves of the index move
        assert len(set(record.mus % 8)) > 1
        assert len(set(record.mus // 8)) > 1

    def test_returns_match_prices(self, make_config):
        record = run(make_config(horizon=100))
        np.testing.assert_allclose(record.returns,
                                   np.diff(np.log10(record.prices)), atol=1e-12)

    def test_slow_use_has_quiescent_shrinking_intervals(self):
        config = MarketConfig(n_speculators=1008, n_producers=16, use_param=0.01,
                              info_mode=Endogenous(9), horizon=40000, seed=0)
        r = run(config).returns
        window = 500
        n_win = r.size // window
        win_var = np.array([r[i * window:(i + 1) * window].var() for i in range(n_win)])
        # episodes where oscillation amplitude keeps shrinking
        longest = current = 0
        for i in range(1, n_win):
            current = current + 1 if win_var[i] < win_var[i - 1] else 0
            longest = max(longest, current)
        assert longest >= 8
        # within the longest below-median stretch the variance trends down
        quiet = win_var < np.median(win_var)
        best_len = best_start = cur_len = cur_start = 0
        for i, q in enumerate(quiet):
            cur_len, cur_start = (cur_len + 1, cur_start) if q else (0, i + 1)
            if cur_len > best_len:
                best_len, best_start = cur_len, cur_start
        assert best_len >= 5
        segment = win_var[best_start:best_start + best_len]
        slope = np.polyfit(np.arange(best_len), np.log(segment), 1)[0]
        assert slope < 0


class TestInvariantManifold:
    def test_relaxed_state_price_is_stable(self):
        config = MarketConfig(n_speculators=32, use_param=1e-3,
                              info_mode=Exogenous(uniform_weights(2)), horizon=1, seed=5)
        state = new_market(config)
        for _ in range(20000):
            step(state)
        residual, p_bar = _manifold_residual(state)
        assert residual < 1e-9
        deviations = [abs(step(state).price - p_bar) for _ in range(1000)]
        assert max(deviations) < 1e-6


def _manifold_residual(state):
    """Max over states of |demand - p_bar * supply| at the current holdings."""
    gamma, eps = state.config.use_param, state.config.epsilon
    n_states = state.config.n_states
    demand = np.empty(n_states)
    supply = np.empty(n_states)
    for mu in range(n_states):
        buy = state.strategies[mu]
        demand[mu] = gamma * (state.money * buy).sum() + eps
        supply[mu] = gamma * (state.stocks * ~buy).sum() + eps
    p_bar = float((demand / supply).mean())
    return float(np.abs(demand - p_bar * supply).max()), p_bar
