"""Host speed, sampled while the operations run.

On a shared host the speed of one core changes with what other tenants run:
a fixed loop takes 1x to about 2x its unloaded time, in phases from a
fraction of a second to tens of seconds long, and the CPU time grows with the
wall time. An operation's wall time carries these phases, and a run's median
carries the phases that happened to fall in it.

``SpeedSampler`` interrupts the operation every ``INTERVAL_S`` of wall time
(SIGALRM) and times a small fixed kernel in the handler. The kernel uses none
of specmarket's code, so a change to the program does not change its time.
The mean of ``NOMINAL_S / duration`` over the samples taken during an
operation is the host's speed over that operation, relative to a host on which
the kernel takes ``NOMINAL_S``. The operation's wall time, less the time spent
in the handler, times that speed is its time on such a host.

The kernel does, in small, what a market step does: a few numpy calls on
arrays of 1024 agents, with the per-call overhead that dominates
``market.run``. Its data are touched before the timed part, so what the
operation left in the caches does not change the sample.

The correction is exact only for an operation that slows as the kernel does.
Per-call overhead on small arrays, which the kernel and ``alpha_scan`` share,
slows about in proportion; arithmetic on long arrays slows less, so an
operation made of it (``bounds``) keeps part of the host's phases.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: wall time between two samples
INTERVAL_S = 0.1
#: the kernel's time on an unloaded core of the machine the README's figures
#: come from (Intel Xeon, Sapphire Rapids, KVM guest)
NOMINAL_S = 0.0026

_STEPS = 200
_AGENTS = 1024
_STATES = 64


class SpeedSampler:
    """Samples the host's speed while its ``with`` block runs."""

    def __init__(self):
        rng = np.random.default_rng(20121129)
        self._strategies = rng.random((_STATES, _AGENTS)) < 0.5
        self._money = np.ones(_AGENTS)
        self._stocks = np.ones(_AGENTS)
        self._busy = False
        self._previous = None
        #: kernel durations of the current block
        self.samples = []
        #: wall time the current block spent in the handler
        self.spent_s = 0.0

    def kernel_s(self):
        """Wall time of one run of the kernel; its data are warmed first."""
        strategies, money, stocks = self._strategies, self._money, self._stocks
        money.fill(1.0)
        stocks.fill(1.0)
        int(strategies.sum())
        start = time.perf_counter()
        price, mu = 1.0, 0
        for _ in range(_STEPS):
            buy = strategies[mu]
            money_orders = 0.5 * money * buy
            stock_orders = 0.5 * stocks * ~buy
            new_price = (float(money_orders.sum()) + 1e-9) / (float(stock_orders.sum()) + 1e-9)
            money += stock_orders * new_price - money_orders
            stocks += money_orders / new_price - stock_orders
            mu = (2 * mu + (new_price > price)) % _STATES
            price = new_price
        elapsed = time.perf_counter() - start
        if not math.isfinite(price):
            raise RuntimeError("speed kernel produced a non-finite price")
        return elapsed

    def _tick(self, signum, frame):
        if self._busy:  # a signal that arrives inside the handler is dropped
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(self.kernel_s())
        finally:
            self.spent_s += time.perf_counter() - start
            self._busy = False

    def __enter__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than INTERVAL_S is sampled once, at its end
            self._tick(None, None)

    def speed(self):
        """Mean relative speed over the block's samples."""
        return statistics.fmean(NOMINAL_S / d for d in self.samples)
