"""Speculative-market simulator with information absorption dynamics."""

from .market import (
    Endogenous,
    Exogenous,
    Mixed,
    MarketConfig,
    MarketState,
    SimulationRecord,
    exponential_weights,
    new_market,
    next_information,
    form_orders,
    clear_price,
    settle,
    step,
    run,
    uniform_weights,
)

__version__ = "0.1.0"
