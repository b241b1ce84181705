import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from specmarket import Endogenous, Exogenous, MarketConfig, run, uniform_weights
from specmarket.errors import ConfigError
from specmarket.sweep import (
    SweepAxis,
    SweepSpec,
    aggregate,
    alpha_scan,
    compute_metrics,
    derive_seed,
    node_config,
    run_sweep,
)


def base_config(**kwargs):
    defaults = dict(
        n_speculators=64, use_param=0.5,
        info_mode=Exogenous(uniform_weights(32)),
        horizon=3000, seed=99,
    )
    defaults.update(kwargs)
    return MarketConfig(**defaults)


class TestNodeConfig:
    def test_alpha_resizes_uniform_exogenous(self):
        cfg = node_config(base_config(), {"alpha": 0.25})
        assert cfg.info_mode.n_states == 16

    def test_alpha_resizes_endogenous(self):
        cfg = node_config(base_config(info_mode=Endogenous(5)), {"alpha": 2.0})
        assert cfg.info_mode.memory_bits == 7

    def test_alpha_requires_power_of_two_for_endogenous(self):
        with pytest.raises(ConfigError, match="power-of-two"):
            node_config(base_config(info_mode=Endogenous(5)), {"alpha": 0.75})

    def test_alpha_requires_integer_states(self):
        with pytest.raises(ConfigError, match="alpha"):
            node_config(base_config(n_speculators=10), {"alpha": 0.15})

    def test_non_uniform_weights_cannot_be_resized(self):
        weights = np.array([0.5, 0.25, 0.125, 0.125])
        with pytest.raises(ConfigError, match="uniform"):
            node_config(base_config(info_mode=Exogenous(weights)), {"alpha": 1.0})

    def test_scalar_axes(self):
        cfg = node_config(base_config(), {"use_param": 0.25, "n_producers": 4})
        assert cfg.use_param == 0.25 and cfg.n_producers == 4

    @pytest.mark.parametrize("axis", ["n_states", "n_speculators", "n_producers"])
    def test_integer_axes_refuse_fractions(self, axis):
        with pytest.raises(ConfigError, match=axis):
            SweepAxis(axis, (32.7, 64))
        with pytest.raises(ConfigError, match=axis):
            node_config(base_config(), {axis: 32.7})
        assert SweepAxis(axis, (32.0, 64)).values == (32, 64)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("axis", ["alpha", "use_param"])
    def test_non_finite_axis_values_refused_by_name(self, axis, value):
        spec = SweepSpec(base=base_config(), axes=(SweepAxis(axis, (0.5, value)),), repetitions=1)
        with pytest.raises(ConfigError, match=rf"axis {axis} values must be finite"):
            run_sweep(spec)


class TestAggregate:
    def test_geometric_mean(self):
        assert aggregate([{"v": 10.0}, {"v": 1000.0}])["v"] == pytest.approx(100.0)

    def test_single_record_is_itself(self):
        assert aggregate([{"v": 7.0}])["v"] == pytest.approx(7.0)

    def test_permutation_invariant(self):
        records = [{"v": float(x)} for x in (3, 9, 27, 81)]
        assert aggregate(records) == aggregate(records[::-1])

    def test_nonpositive_yields_nan(self):
        assert math.isnan(aggregate([{"v": -1.0}, {"v": 2.0}])["v"])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate([])


class TestRunSweep:
    def test_single_node_equals_direct_runs(self):
        spec = SweepSpec(base=base_config(), axes=(SweepAxis("use_param", (0.5,)),),
                        repetitions=3, metrics=("variance", "kurtosis"))
        result = run_sweep(spec)
        node = result.nodes[0]
        for rep_index, rep in enumerate(node.reps):
            seed = derive_seed(spec.base.seed, 0, rep_index)
            assert rep.seed == seed
            record = run(replace(spec.base, seed=seed))
            assert rep.metrics == compute_metrics(record, spec.metrics)

    def test_each_seed_derived_once(self, monkeypatch):
        from specmarket import sweep

        derived = []

        def counting(*args):
            derived.append(args)
            return derive_seed(*args)

        monkeypatch.setattr(sweep, "derive_seed", counting)
        spec = SweepSpec(base=base_config(horizon=200), axes=(SweepAxis("use_param", (0.5, 1.5)),),
                         repetitions=3, metrics=("variance",))
        result = run_sweep(spec)
        assert sorted(derived) == [(99, node, rep) for node in range(2) for rep in range(3)]
        assert [[rep.seed for rep in node.reps] for node in result.nodes] == \
            [[derive_seed(99, node, rep) for rep in range(3)] for node in range(2)]

    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(3, n, r) for n in range(40) for r in range(50)}
        assert len(seeds) == 2000

    def test_failures_recorded_not_fatal(self):
        spec = SweepSpec(base=base_config(horizon=3),
                         axes=(SweepAxis("use_param", (0.5,)),),
                         repetitions=2, metrics=("kurtosis",))
        result = run_sweep(spec)
        node = result.nodes[0]
        assert not node.valid
        assert node.aggregates is None
        assert all("Error" in rep.error for rep in node.reps)

    def test_invalid_cells_recorded_and_left_out_of_batches(self, monkeypatch):
        from specmarket import sweep

        ran = []
        original = sweep.run

        def counting(config):
            ran.append(config.use_param)
            return original(config)

        monkeypatch.setattr(sweep, "run", counting)
        spec = SweepSpec(base=base_config(horizon=200), axes=(SweepAxis("use_param", (0.5, 1.5)),),
                         repetitions=2, metrics=("variance",))
        result = run_sweep(spec)
        assert ran == [0.5, 0.5]
        assert result.nodes[0].n_success == 2
        assert all(rep.error.startswith("ConfigError: use_param") for rep in result.nodes[1].reps)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunked_parallel_results_equal_serial(self, workers):
        """Cells mapped to processes, invalid cells among them, give the serial results."""
        spec = SweepSpec(base=base_config(horizon=300),
                         axes=(SweepAxis("alpha", (0.25, 0.5)), SweepAxis("use_param", (0.5, 1.5))),
                         repetitions=3, metrics=("variance", "gini"))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=workers)
        assert [n.n_success for n in serial.nodes] == [3, 0, 3, 0]
        for a, b in zip(serial.nodes, parallel.nodes):
            assert a.coords == b.coords
            assert [(r.seed, r.metrics, r.error) for r in a.reps] == \
                [(r.seed, r.metrics, r.error) for r in b.reps]
        for node in serial.nodes[::2]:
            cfg = node_config(spec.base, node.coords)
            for rep in node.reps:
                assert rep.metrics == compute_metrics(run(replace(cfg, seed=rep.seed)), spec.metrics)

    def test_parallel_matches_serial(self):
        spec = SweepSpec(base=base_config(horizon=2000),
                         axes=(SweepAxis("alpha", (0.25, 0.5)),),
                         repetitions=2, metrics=("variance", "reduction"))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        for a, b in zip(serial.nodes, parallel.nodes):
            assert a.coords == b.coords
            assert [r.metrics for r in a.reps] == [r.metrics for r in b.reps]
            assert a.aggregates == b.aggregates

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
    def test_parallel_scaling_sanity(self):
        cfg = base_config(n_speculators=1024, info_mode=Endogenous(8), horizon=100_000)
        spec = SweepSpec(base=cfg, axes=(SweepAxis("use_param", (0.5,)),),
                         repetitions=4, metrics=("variance",))
        # interleaved best of 3, so that load from other processes hits both sides
        single = elapsed = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            run(cfg)
            single = min(single, time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_sweep(spec, workers=2)
            elapsed = min(elapsed, time.perf_counter() - t0)
        assert elapsed <= (4 / 2 + 1) * single * 1.3


class TestAlphaScan:
    def test_row_structure(self):
        rows = alpha_scan(base_config(horizon=2000), alphas=(0.5, 1.0),
                          variants=("reference", "deterministic_producers"),
                          repetitions=2, n_producers=4)
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"variant", "alpha", "n_success",
                                "variance", "kurtosis", "income_factor", "gini"}
            assert row["n_success"] == 2

    def test_reference_variant_has_no_producers_and_conserves_capital(self):
        rows = alpha_scan(base_config(horizon=2000), alphas=(0.5,),
                          variants=("reference",), repetitions=2)
        assert rows[0]["income_factor"] == pytest.approx(0.0, abs=1e-12)

    def test_reference_variance_collapses_below_critical_alpha(self):
        cfg = base_config(n_speculators=256, horizon=40_000)
        rows = alpha_scan(cfg, alphas=(0.25, 2.0), variants=("reference",), repetitions=2)
        variance = {row["alpha"]: row["variance"] for row in rows}
        assert variance[2.0] / variance[0.25] >= 100.0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            alpha_scan(base_config(), alphas=(1.0,), variants=("hybrid",))
