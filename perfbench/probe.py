"""Measurements the traced run makes outside the workload's operations.

``phase_sample`` steps one market through the four public phase functions
and times each; it counts only if it reproduces ``market.run`` bit for bit.
``layer_probe`` times single public functions at fixed sizes, the cases of
the ROADMAP's layer table.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from specmarket import io, market, stats
from specmarket.market import Endogenous

from spans import Tracer

PHASE_STEPS = 20_000

#: (N_s, D, steps) of the engine cases; the middle one also supplies the
#: 200k-step record for the surprise and run.csv cases
ENGINE_CASES = ((256, 128, 20_000), (1024, 512, 200_000), (16384, 4096, 1_000))
RECORD_CASE = (1024, 512)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def phase_sample(config, steps=PHASE_STEPS):
    """Mean µs per call of each phase over ``steps`` steps, or None if the guard fails.

    The loop is ``market.step`` spelled out through the public phase
    functions; its ``mus`` and ``returns`` must equal those of ``market.run``
    on the same config bit for bit, or its numbers do not describe ``run``.
    """
    cfg = replace(config, horizon=steps)
    state = market.new_market(cfg)
    mus = np.empty(steps, dtype=np.int64)
    returns = np.empty(steps - 1)
    info_s = orders_s = clear_s = settle_s = 0.0
    clock = time.perf_counter
    next_information, form_orders = market.next_information, market.form_orders
    clear_price, settle = market.clear_price, market.settle
    for t in range(steps):
        if t > 0:
            a = clock()
            state.mu = next_information(state)
            info_s += clock() - a
        mus[t] = state.mu
        a = clock()
        orders = form_orders(state)
        b = clock()
        price = clear_price(orders.demand, orders.supply)
        c = clock()
        settle(state, orders, price)
        d = clock()
        orders_s += b - a
        clear_s += c - b
        settle_s += d - c
        if t > 0:
            returns[t - 1] = state.last_return
    reference = market.run(cfg)
    if not (_same_bits(mus, reference.mus) and _same_bits(returns, reference.returns)):
        return None
    return {
        "market.next_information.us": 1e6 * info_s / (steps - 1),
        "market.form_orders.us": 1e6 * orders_s / steps,
        "market.clear_price.us": 1e6 * clear_s / steps,
        "market.settle.us": 1e6 * settle_s / steps,
    }


def _timed(func, *args):
    start = time.perf_counter()
    result = func(*args)
    return time.perf_counter() - start, result


def layer_probe(modules, seed, workdir):
    """Per-function timings at the fixed sizes of the layer table."""
    out = {}
    record = None
    for n_spec, n_states, steps in ENGINE_CASES:
        cfg = market.MarketConfig(n_speculators=n_spec, use_param=0.8,
                                  info_mode=Endogenous(n_states.bit_length() - 1),
                                  horizon=steps, seed=seed)
        with Tracer(modules) as tracer:
            result = market.run(cfg)
        run_span = next(s for s in tracer.take() if s.key == "market.run")
        out[f"probe.market.run.us_per_step.n{n_spec}_d{n_states}"] = 1e6 * run_span.self_s / steps
        if (n_spec, n_states) == RECORD_CASE:
            record, record_cfg = result, cfg
        del result

    rng = np.random.default_rng(seed)
    for n, label in ((100_000, "1e5"), (1_000_000, "1e6")):
        sample = rng.pareto(2.5, size=n) + 1.0
        out[f"probe.stats.hill_fit_ks.s.{label}"], _ = _timed(stats.hill_fit_ks, sample)
    del sample

    out["probe.stats.autocorr_abs.s.1e5_lag1000"], _ = _timed(
        stats.autocorr_abs, record.returns[-100_000:], 1000)
    out["probe.stats.surprise_stats.s.200k"], _ = _timed(stats.surprise_stats, record)
    out["probe.io.write_run_artifact.s.200k"], files = _timed(
        io.write_run_artifact, workdir, record_cfg, record)
    out["probe.io.read_run_csv.s.200k"], _ = _timed(io.read_run_csv, files["run"])
    return out
