"""Pinned trajectories: equal configs give the same bits across versions.

Each case hashes the six per-step outputs of ``run`` (dtype, shape and raw
bytes, in a fixed order). A refactor of the engine must leave every digest
unchanged; a change that alters trajectories on purpose re-pins them and says
so.
"""

import hashlib

import pytest

from specmarket import (
    Endogenous,
    Exogenous,
    MarketConfig,
    Mixed,
    exponential_weights,
    run,
    uniform_weights,
)

FIELDS = ("prices", "returns", "mus", "taus", "mean_spec_capital", "final_spec_capitals")

CASES = {
    "endogenous": MarketConfig(n_speculators=64, use_param=0.5, info_mode=Endogenous(4),
                               horizon=3000, seed=1),
    "exogenous_uniform": MarketConfig(n_speculators=64, use_param=0.5,
                                      info_mode=Exogenous(uniform_weights(16)),
                                      horizon=5000, seed=2),
    "exogenous_exp": MarketConfig(n_speculators=48, use_param=0.3,
                                  info_mode=Exogenous(exponential_weights(0.1, 32)),
                                  horizon=5000, seed=3),
    "mixed": MarketConfig(n_speculators=40, use_param=0.6,
                          info_mode=Mixed(2, 2, exponential_weights(0.5, 4)),
                          horizon=5000, seed=4, n_producers=4),
    "random_producers": MarketConfig(n_speculators=48, use_param=0.5, info_mode=Endogenous(5),
                                     horizon=3000, seed=5, n_producers=8,
                                     producer_kind="random"),
    "ties_n2_gamma1": MarketConfig(n_speculators=2, use_param=1.0, info_mode=Endogenous(2),
                                   horizon=2000, seed=3),
}

GOLDEN = {
    "endogenous": "5e094ed5dc5dad603b73323b6d4d9465603cd773d654418af6cfc53319f882ef",
    "exogenous_exp": "dd33e78f6e1b594b95c90a88724cdc403c893845e34b4fc84f2b137b71eecf6f",
    "exogenous_uniform": "b74826497b589a2e99142d3efa2f1f07a957c7b773c5a11d42754c94d9dd768b",
    "mixed": "40078b6cc197f6e3a0eb805050d79ad4588560961bb249f46c79854b21f23869",
    "random_producers": "281a9a05e2e65a0a0fc9cd0bc4319241e332666e7c720629bd21890c19ef3b8d",
    "ties_n2_gamma1": "22f0fc38a3aaf76573f804f0f052716bba18f70d4d11a25aa9bbef1fff8a4f7d",
}


def record_digest(record) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        array = getattr(record, name)
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert record_digest(run(CASES[case])) == GOLDEN[case]
