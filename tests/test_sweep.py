import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specmarket import Endogenous, Exogenous, MarketConfig, run, sweep, uniform_weights
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

    def test_alpha_overflowing_to_minus_inf_refused_by_name(self):
        with pytest.raises(ConfigError, match="^alpha = .* state count -inf"):
            node_config(base_config(), {"alpha": -2.8088955232223686e+306})

    @pytest.mark.parametrize("axis, value", [
        ("alpha", 2.8088955232223686e+306),  # times 64 speculators: inf
        ("alpha", 1e12),
        ("n_states", 10**15),
    ])
    def test_state_counts_beyond_the_cap_refused_before_allocation(self, axis, value):
        with pytest.raises(ConfigError, match=f"^{axis}: .* states x 64 agents"):
            node_config(base_config(), {axis: value})

    def test_non_uniform_weights_cannot_be_resized(self):
        weights = np.array([0.5, 0.25, 0.125, 0.125])
        with pytest.raises(ConfigError, match="uniform"):
            node_config(base_config(info_mode=Exogenous(weights)), {"alpha": 1.0})

    def test_weights_near_uniform_cannot_be_resized(self):
        """Weights a rounding away from 1/D are not the uniform market, even at the base's own D."""
        near = Exogenous(np.full(7, 0.142857142857143))
        with pytest.raises(ConfigError, match="^alpha/n_states: only uniform exogenous weights"):
            node_config(base_config(n_speculators=14, info_mode=near), {"alpha": 0.5})
        cfg = node_config(base_config(n_speculators=14, info_mode=Exogenous(uniform_weights(7))),
                          {"alpha": 0.5})
        assert cfg.info_mode.weights.tobytes() == uniform_weights(7).tobytes()

    def test_any_axis_order_gives_the_same_market(self):
        """alpha sets D = alpha * N_s at the node's own N_s, wherever n_speculators stands."""
        base = base_config(n_speculators=32)
        forward = node_config(base, {"n_speculators": 64, "alpha": 1.0})
        backward = node_config(base, {"alpha": 1.0, "n_speculators": 64})
        assert forward == backward
        assert backward.n_speculators == 64 and backward.n_states == 64

    def test_alpha_with_n_states_refused_by_name(self):
        with pytest.raises(ConfigError, match="^axes alpha and n_states both set the state count"):
            node_config(base_config(), {"n_states": 16, "alpha": 0.25})

    @pytest.mark.parametrize("axes, message", [
        (("use_param", "use_param"), "^axis use_param is named twice$"),
        (("n_states", "alpha"), "^axes alpha and n_states both set the state count"),
    ], ids=["twice", "alpha_with_n_states"])
    def test_colliding_axes_refused_by_name(self, axes, message):
        values = {"use_param": (0.2, 0.8), "n_states": (16,), "alpha": (0.25,)}
        spec = SweepSpec(base=base_config(), repetitions=1,
                         axes=tuple(SweepAxis(name, values[name]) for name in axes))
        with pytest.raises(ConfigError, match=message):
            run_sweep(spec)

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

    def test_income_factor_and_gini_take_arithmetic_means(self):
        """A negative income factor has an arithmetic mean; variance keeps the log-domain one."""
        records = [{"income_factor": -2.0, "gini": 0.1, "variance": 10.0},
                   {"income_factor": 4.0, "gini": 0.4, "variance": 1000.0},
                   {"income_factor": 1.0, "gini": 0.7, "variance": 100.0}]
        out = aggregate(records)
        assert out == {"income_factor": 1.0, "gini": pytest.approx(0.4),
                       "variance": pytest.approx(100.0)}
        assert aggregate(records[::-1]) == out

    def test_nonpositive_yields_nan(self):
        assert math.isnan(aggregate([{"v": -1.0}, {"v": 2.0}])["v"])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate([])


class TestRunSweep:
    def test_single_node_equals_direct_runs(self):
        spec = SweepSpec(base=base_config(), axes=(SweepAxis("use_param", (0.5,)),),
                        repetitions=3, metrics=("variance", "kurtosis"))
        node, = run_sweep(spec)
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
        nodes = run_sweep(spec)
        assert sorted(derived) == [(99, node, rep) for node in range(2) for rep in range(3)]
        assert [[rep.seed for rep in node.reps] for node in nodes] == \
            [[derive_seed(99, node, rep) for rep in range(3)] for node in range(2)]

    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(3, n, r) for n in range(40) for r in range(50)}
        assert len(seeds) == 2000

    def test_failures_recorded_not_fatal(self):
        spec = SweepSpec(base=base_config(horizon=3),
                         axes=(SweepAxis("use_param", (0.5,)),),
                         repetitions=2, metrics=("kurtosis",))
        node, = run_sweep(spec)
        assert node.n_success == 0
        assert node.aggregates is None
        assert all("Error" in rep.error for rep in node.reps)

    def test_cells_run_refuses_recorded_with_its_error(self):
        """A node whose config ``run`` refuses records that ConfigError on each repetition."""
        spec = SweepSpec(base=base_config(horizon=200), axes=(SweepAxis("use_param", (0.5, 1.5)),),
                         repetitions=2, metrics=("variance",))
        good, bad = run_sweep(spec)
        assert good.n_success == 2 and all(rep.error is None for rep in good.reps)
        assert bad.n_success == 0 and bad.aggregates is None
        assert [rep.error for rep in bad.reps] == \
            ["ConfigError: use_param must be in (0, 1], got 1.5"] * 2

    def test_node_without_a_config_recorded_and_others_run(self):
        """A node whose alpha gives a non-integer state count fails alone, on each of its cells."""
        spec = SweepSpec(base=base_config(horizon=200), axes=(SweepAxis("alpha", (0.25, 0.3)),),
                         repetitions=2, metrics=("variance",))
        good, bad = run_sweep(spec)
        assert good.n_success == 2 and good.aggregates is not None
        assert bad.n_success == 0 and bad.aggregates is None
        assert [rep.seed for rep in bad.reps] == [derive_seed(99, 1, rep) for rep in range(2)]
        assert all(rep.error == "ConfigError: alpha = 0.3 gives a non-integer state count 19.2 "
                   "at n_speculators = 64" for rep in bad.reps)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunked_parallel_results_equal_serial(self, workers):
        """Cells mapped to threads, invalid cells among them, give the serial results."""
        spec = SweepSpec(base=base_config(horizon=300),
                         axes=(SweepAxis("alpha", (0.25, 0.5)), SweepAxis("use_param", (0.5, 1.5))),
                         repetitions=3, metrics=("variance", "gini"))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=workers)
        assert [n.n_success for n in serial] == [3, 0, 3, 0]
        for a, b in zip(serial, parallel):
            assert a.coords == b.coords
            assert [(r.seed, r.metrics, r.error) for r in a.reps] == \
                [(r.seed, r.metrics, r.error) for r in b.reps]
        for node in serial[::2]:
            cfg = node_config(spec.base, node.coords)
            for rep in node.reps:
                assert rep.metrics == compute_metrics(run(replace(cfg, seed=rep.seed)), spec.metrics)

    def test_parallel_matches_serial(self):
        spec = SweepSpec(base=base_config(horizon=2000),
                         axes=(SweepAxis("alpha", (0.25, 0.5)),),
                         repetitions=2, metrics=("variance", "reduction"))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        for a, b in zip(serial, parallel):
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


def _cpus(monkeypatch, n):
    """Make the process see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _outcomes(nodes):
    return [(n.coords, [(r.seed, r.metrics, r.error) for r in n.reps]) for n in nodes]


class TestThreadMap:
    SPEC = SweepSpec(base=base_config(horizon=200), axes=(SweepAxis("use_param", (0.3, 0.5, 1.5)),),
                     repetitions=2, metrics=("variance",))

    def test_cells_overlap_on_two_threads(self, monkeypatch):
        """Each thread's first cell waits for the other's, so this passes only if two run at once."""
        serial = run_sweep(self.SPEC, workers=1)
        _cpus(monkeypatch, 2)
        barrier, started, lock = threading.Barrier(2, timeout=30), set(), threading.Lock()

        def meeting(config):
            with lock:
                first = threading.get_ident() not in started
                started.add(threading.get_ident())
            if first:
                barrier.wait()
            return run(config)

        monkeypatch.setattr(sweep, "run", meeting)
        assert _outcomes(run_sweep(self.SPEC, workers=2)) == _outcomes(serial)
        assert len(started) == 2 and not barrier.broken

    @pytest.mark.parametrize("cpus, workers, axis, helpers", [
        (2, 10**6, ("use_param", (0.3, 0.5, 0.7)), 1),  # capped by the CPUs
        (8, None, ("use_param", (0.5,)), 1),            # capped by the 2 runnable cells
        (8, None, ("use_param", (0.3, 0.5, 0.7)), 5),   # the default: every usable CPU
        (8, 1, ("use_param", (0.3, 0.5, 0.7)), 0),      # serial in the caller
        (8, None, ("use_param", (1.5,)), 1),            # cells that run refuses are runnable
        (8, None, ("alpha", (0.3,)), 0),                # a node without a config has none
    ])
    def test_thread_count_is_capped(self, monkeypatch, cpus, workers, axis, helpers):
        """min(workers, usable CPUs, runnable cells) threads, the caller among them."""
        built = []

        class InlineThread:
            def __init__(self, target, name=None):
                built.append(name)
                self.target = target

            def start(self):
                self.target()

            def join(self, timeout=None):
                pass

        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(threading, "Thread", InlineThread)
        nodes = run_sweep(replace(self.SPEC, axes=(SweepAxis(*axis),)), workers=workers)
        assert len(built) == helpers
        assert all(rep.error is not None or rep.metrics is not None
                   for node in nodes for rep in node.reps)

    def test_base_exception_on_a_worker_is_reraised(self, monkeypatch):
        _cpus(monkeypatch, 2)
        before = threading.active_count()
        calls, lock = [], threading.Lock()

        def interrupted(config):
            with lock:
                calls.append(config.seed)
                third = len(calls) == 3
            if third:
                raise KeyboardInterrupt
            return run(config)

        monkeypatch.setattr(sweep, "run", interrupted)
        spec = replace(self.SPEC, repetitions=10)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=2)
        assert threading.active_count() == before
        assert len(calls) <= 4  # the other thread finished its cell and took no more

    def test_every_cell_runs_once_under_contention(self, monkeypatch):
        """Eight threads, a short switch interval: no cell is lost or taken twice."""
        _cpus(monkeypatch, 8)
        calls = []

        def counting(config):
            calls.append(config.seed)
            time.sleep(0)
            return run(config)

        monkeypatch.setattr(sweep, "run", counting)
        spec = replace(self.SPEC, base=replace(self.SPEC.base, horizon=50), repetitions=40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            nodes = run_sweep(spec, workers=8)
        finally:
            sys.setswitchinterval(interval)
        seeds = [rep.seed for node in nodes for rep in node.reps]
        assert sorted(calls) == sorted(seeds)
        assert all(rep.metrics is not None for node in nodes[:2] for rep in node.reps)

    def test_threaded_sweep_loads_no_process_pool(self):
        """A two-thread sweep in a fresh interpreter imports neither concurrent.futures
        nor multiprocessing."""
        script = (
            "import sys\n"
            "from specmarket import Exogenous, MarketConfig, uniform_weights\n"
            "from specmarket.sweep import SweepAxis, SweepSpec, run_sweep\n"
            "base = MarketConfig(n_speculators=64, use_param=0.5, horizon=300, seed=1,\n"
            "                    info_mode=Exogenous(uniform_weights(32)))\n"
            "spec = SweepSpec(base=base, axes=(SweepAxis('alpha', (0.25, 0.5)),), repetitions=2)\n"
            "assert all(node.n_success == 2 for node in run_sweep(spec, workers=2))\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sweep.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


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

    def test_never_aggregates(self, monkeypatch):
        """Rows carry plain means, so no log-domain aggregate is computed for them."""
        from specmarket import sweep

        def refuse(rep_metrics):
            raise AssertionError("alpha_scan computed a log-domain aggregate")

        monkeypatch.setattr(sweep, "aggregate", refuse)
        rows = alpha_scan(base_config(horizon=200), alphas=(0.5, 1.0), variants=("reference",),
                          repetitions=2)
        assert [row["n_success"] for row in rows] == [2, 2]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            alpha_scan(base_config(), alphas=(1.0,), variants=("hybrid",))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_base_seed_outside_uint64_refused_by_name(self, seed):
        with pytest.raises(ConfigError, match=rf"seed must be an integer in \[0, 2\*\*64\), got {seed}"):
            alpha_scan(base_config(seed=seed), alphas=(1.0,), variants=("reference",), repetitions=1)
