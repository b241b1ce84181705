"""The C kernel behind ``run`` against the step-by-step reference and ``run``'s loop over it."""

import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
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
from specmarket import _kernel, market
from specmarket.errors import MemoryBudgetError
from specmarket.io import write_run_artifact
from specmarket.market import record_bytes
from test_golden import ARTIFACT_CASES, CASES, GOLDEN_ARTIFACTS, file_digests

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
    outputs, capital, agents = [], [], []
    for _ in range(config.horizon):
        outputs.append(step(state))
        capital.append((state.money[k:].sum() + state.stocks[k:].sum()) / (2.0 * config.n_speculators))
        agents.append((state.money[k:] + state.stocks[k:]) / 2.0)
    return outputs, np.array(capital), np.array(agents)


def assert_matches_step(record, config):
    outputs, capital, agents = reference_run(config)
    assert record.prices.tobytes() == np.array([o.price for o in outputs]).tobytes()
    assert record.returns.tobytes() == np.array([o.log_return for o in outputs[1:]]).tobytes()
    assert record.mus.tolist() == [o.mu for o in outputs]
    taus = np.array([np.nan if o.tau is None else o.tau for o in outputs])
    assert record.taus.tobytes() == taus.tobytes()
    assert record.mean_spec_capital.tobytes() == capital.tobytes()
    assert record.final_spec_capitals.tobytes() == agents[-1].tobytes()
    if config.record_agents:
        assert record.agent_capitals.tobytes() == agents.tobytes()


def fallback_run(config):
    """``run`` looping over ``step``, as on a host where the kernel cannot be built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_LIBRARY", False)
        return run(config)


@pytest.mark.parametrize("config", [
    MarketConfig(n_speculators=24, use_param=0.6, info_mode=Endogenous(3), horizon=400, seed=1),
    MarketConfig(n_speculators=2, use_param=1.0, info_mode=Endogenous(2), horizon=400, seed=3),
    MarketConfig(n_speculators=16, use_param=0.4, info_mode=Mixed(1, 2, exponential_weights(0.3, 4)),
                 horizon=4200, seed=2, n_producers=3, producer_kind="random"),
], ids=["endogenous", "ties", "mixed_random_producers"])
def test_run_matches_step_reference(config):
    assert_matches_step(run(config), config)


def _mode(kind, size):
    if kind == "endogenous":
        return Endogenous(size)
    if kind == "uniform":
        return Exogenous(uniform_weights(size))
    if kind == "exp":
        return Exogenous(exponential_weights(0.4, size))
    return Mixed(1 + size % 2, 1 + size // 3, uniform_weights(1 << (1 + size // 3)))


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(("endogenous", "uniform", "exp", "mixed")))
    ties = draw(st.booleans())  # N_s = 2 at full use: exact price repeats are common
    return MarketConfig(
        n_speculators=2 if ties else draw(st.integers(1, 40)),
        use_param=1.0 if ties else draw(st.sampled_from((0.1, 0.5, 0.9))),
        info_mode=_mode(kind, draw(st.integers(1, 5))),
        horizon=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2**64 - 1)),
        n_producers=0 if ties else draw(st.integers(0, 3)),
        producer_kind=draw(st.sampled_from(("deterministic", "random"))),
        record_agents=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_run_equals_step_and_fallback(config):
    assert _kernel.library()
    record = run(config)
    assert_matches_step(record, config)
    assert_same_bytes(record, fallback_run(config))


def test_exogenous_queue_crosses_chunks():
    """9000 steps cross two refills of the 4096-draw exogenous queue."""
    base = MarketConfig(n_speculators=8, use_param=0.5, info_mode=Exogenous(uniform_weights(4)),
                        horizon=9000, seed=5, n_producers=2, producer_kind="random")
    for config in (base, replace(base, seed=6, info_mode=Exogenous(exponential_weights(0.4, 7)))):
        record = run(config)
        assert_matches_step(record, config)
        assert_same_bytes(record, fallback_run(config))


def test_memory_budget_covers_the_record():
    config = MarketConfig(n_speculators=8, use_param=0.5, info_mode=Endogenous(2), horizon=100,
                          seed=1, record_agents=True)
    assert record_bytes(config) == 8 * 100 * (5 + 8)
    assert run(config, memory_budget=record_bytes(config)).agent_capitals.shape == (100, 8)
    with pytest.raises(MemoryBudgetError):
        run(config, memory_budget=record_bytes(config) - 1)


#: the fields of a ``MarketState`` that ``run`` leaves and ``step`` would
STATE_FIELDS = ("t", "mu", "last_price", "last_return", "last_seen", "money", "stocks",
                "_exo_queue", "_exo_pos")


def assert_same_state(ours, theirs):
    for name in STATE_FIELDS:
        x, y = getattr(ours, name), getattr(theirs, name)
        if x is None or y is None:
            assert x is None and y is None, name
            continue
        x, y = np.asarray(x), np.asarray(y)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    # the generator's state holds small arrays (counter, key, buffer), printed whole
    assert repr(ours.rng.bit_generator.state) == repr(theirs.rng.bit_generator.state)


def test_states_end_as_step_leaves_them(monkeypatch):
    """The engine's market states equal stepped ones, field by field, and can be stepped on."""
    created = []
    original = market.new_market

    def capture(config):
        created.append(original(config))
        return created[-1]

    monkeypatch.setattr(market, "new_market", capture)
    base = MarketConfig(n_speculators=6, use_param=0.5, info_mode=Mixed(1, 1, uniform_weights(2)),
                        horizon=50, seed=1)
    # horizon 4097 ends on the last draw of the first refill
    for config in (base, replace(base, seed=2), replace(base, horizon=5000),
                   replace(base, horizon=1), replace(base, horizon=2),
                   replace(base, info_mode=Endogenous(3), n_producers=2, producer_kind="random"),
                   replace(base, info_mode=Exogenous(exponential_weights(0.4, 7)), horizon=4097)):
        run(config)
    monkeypatch.undo()
    for state in created:
        horizon = state.config.horizon
        stepped = new_market(state.config)
        for _ in range(horizon):
            step(stepped)
        assert_same_state(state, stepped)
        longer = run(replace(state.config, horizon=horizon + 10))
        tail = [step(state) for _ in range(10)]
        assert [o.price for o in tail] == longer.prices[horizon:].tolist()
        assert [o.mu for o in tail] == longer.mus[horizon:].tolist()


@pytest.mark.parametrize("config", [
    MarketConfig(n_speculators=5, use_param=0.5, info_mode=Endogenous(2), horizon=1, seed=7),
    MarketConfig(n_speculators=5, use_param=0.5, info_mode=Mixed(1, 1, uniform_weights(2)),
                 horizon=1, seed=7),
    MarketConfig(n_speculators=5, use_param=0.5, info_mode=Endogenous(2), horizon=2, seed=8),
    MarketConfig(n_speculators=5, use_param=0.5, info_mode=Exogenous(uniform_weights(3)),
                 horizon=2, seed=8),
    MarketConfig(n_speculators=9, use_param=0.7, info_mode=Mixed(2, 1, uniform_weights(2)),
                 horizon=300, seed=9, n_producers=4, producer_kind="random", record_agents=True),
    MarketConfig(n_speculators=7, use_param=0.5, info_mode=Exogenous(uniform_weights(64)),
                 horizon=4400, seed=10),
], ids=["horizon1_endogenous", "horizon1_mixed", "horizon2_endogenous", "horizon2_exogenous",
        "record_agents_random_producers", "taus_across_refill"])
def test_kernel_record_edges(config):
    """The returns and taus the kernel writes, at the edges of their lengths and of a refill."""
    record = run(config)
    assert record.returns.shape == (config.horizon - 1,)
    assert record.taus.shape == (config.horizon,) and np.isnan(record.taus[0])
    assert_matches_step(record, config)
    assert_same_bytes(record, fallback_run(config))
    if config.horizon > market._EXO_CHUNK + 1:
        # steps after the first refill whose state last occurred before it
        t = np.arange(config.horizon)
        across = (t > market._EXO_CHUNK + 1) & (t - record.taus <= market._EXO_CHUNK)
        assert across.sum() >= 20


# ---------------------------------------------------------------------------
# kernel pieces
# ---------------------------------------------------------------------------

def kernel_total(lib, values):
    values = np.ascontiguousarray(values, dtype=float)
    return np.float64(lib.specmarket_total(values.ctypes.data, values.size))


def test_kernel_total_equals_add_reduce():
    lib = _kernel.library()
    assert lib
    rng = np.random.default_rng(11)
    lengths = list(range(301)) + rng.integers(0, 20_001, size=3000).tolist()
    for n in lengths:
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)
        assert kernel_total(lib, values).tobytes() == np.add.reduce(values).tobytes(), n


def test_bound_signatures_match_the_c_definitions():
    """Each entry point's ``argtypes`` has one type per parameter of its C definition, so a
    parameter dropped on one side fails here instead of passing stray pointers."""
    source = _kernel.SOURCE.read_text()
    lib = _kernel.library()
    assert lib
    for name, argtypes in (("specmarket_run", _kernel.RUN_ARGTYPES),
                           ("specmarket_write_rows", _kernel.WRITE_ARGTYPES),
                           ("specmarket_total", None)):
        definition = re.search(rf"^\w+ {name}\(([^)]*)\)\n{{", source, re.MULTILINE)
        assert definition, name
        n_params = len(definition.group(1).split(","))
        assert len(getattr(lib, name).argtypes) == n_params, name
        assert argtypes is None or len(argtypes) == n_params, name


@pytest.mark.parametrize("d, n", [(1, 1), (1, 3), (2, 2), (3, 5), (7, 9), (8, 8), (5, 13), (16, 33),
                                  (512, 1025), (513, 1025), (64, 1024)])
def test_strategy_table_equals_integers(d, n):
    """Odd and even uint32 counts leave the generator as ``integers`` does."""
    for seed in range(3):
        ours = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        theirs = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        table = market._strategy_table(ours, d, n)
        expected = theirs.integers(0, 2, size=(d, n), dtype=np.uint8).view(np.bool_)
        assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
        assert table.tobytes() == expected.tobytes()
        assert ours.integers(d) == theirs.integers(d)
        assert ours.integers(3 * d + 1) == theirs.integers(3 * d + 1)
        assert ours.random() == theirs.random()


def test_failed_kernel_warns_by_name_and_falls_back(monkeypatch, tmp_path):
    config = MarketConfig(n_speculators=12, use_param=0.5, info_mode=Mixed(1, 1, uniform_weights(2)),
                          horizon=300, seed=4, n_producers=2, producer_kind="random",
                          record_agents=True)
    expected = run(config)

    def fail():
        raise OSError("cc: not found")

    monkeypatch.setattr(_kernel, "_LIBRARY", None)
    monkeypatch.setattr(_kernel, "load", fail)
    with pytest.warns(RuntimeWarning, match=r"_kernel\.c.*cc: not found"):
        record = run(config)
    assert_same_bytes(record, expected)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one warning per process, for run and write_columns
        assert_same_bytes(run(config), expected)
        for case in ARTIFACT_CASES:  # the Python cell path writes the pinned bytes
            files = write_run_artifact(tmp_path / case, CASES[case], run(CASES[case]))
            assert file_digests(files.values()) == GOLDEN_ARTIFACTS[case]


# ---------------------------------------------------------------------------
# kernel cache
# ---------------------------------------------------------------------------

def test_cold_build_then_warm_load_starts_no_process(monkeypatch, tmp_path):
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
    lib = _kernel.load()
    built = list(tmp_path.iterdir())
    name = _kernel.library_name(_kernel.SOURCE.read_bytes(), _kernel.FLAGS, _kernel.cpu_identity())
    assert [p.name for p in built] == [name]
    assert lib.specmarket_total(np.ones(3).ctypes.data, 3) == 3.0

    def no_process(*args, **kwargs):
        raise AssertionError("a warm load started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    assert _kernel.load().specmarket_total(np.ones(5).ctypes.data, 5) == 5.0
    assert list(tmp_path.iterdir()) == built


def test_unwritable_cache_builds_for_the_process(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_kernel, "CACHE_DIR", blocker / "cache")
    monkeypatch.setattr(_kernel.tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert _kernel.load().specmarket_total(np.ones(2).ctypes.data, 2) == 2.0
    assert list((tmp_path / "tmp").iterdir()) == []


#: ``_kernel.FLAGS`` for the x86-64 baseline: no instruction beyond SSE2
PORTABLE_FLAGS = tuple("-march=x86-64" if f == "-march=native" else f for f in _kernel.FLAGS)
X86_64 = platform.machine() == "x86_64"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_source_compiles_without_warnings():
    for flags in (_kernel.FLAGS, PORTABLE_FLAGS) if X86_64 else (_kernel.FLAGS,):
        done = subprocess.run(["cc", *flags, "-Wall", "-Wextra", "-Werror",
                               "-fsyntax-only", str(_kernel.SOURCE)], capture_output=True, text=True)
        assert done.returncode == 0, (flags, done.stderr)


@pytest.mark.skipif(not X86_64, reason="the portable target is x86-64")
def test_portable_build_gives_the_same_records(monkeypatch, tmp_path):
    """The vector lanes of the pairwise tree add as scalars on any x86-64, not only this CPU."""
    native = {case: run(config) for case, config in CASES.items()}
    monkeypatch.setattr(_kernel, "FLAGS", PORTABLE_FLAGS)
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(_kernel, "_LIBRARY", _kernel.load())
    assert [p.name for p in tmp_path.glob("*.so")] == [
        _kernel.library_name(_kernel.SOURCE.read_bytes(), PORTABLE_FLAGS, _kernel.cpu_identity())]
    for case, config in CASES.items():
        assert_same_bytes(run(config), native[case])


def test_cache_name_keys_source_flags_and_cpu():
    source, flags, cpu = _kernel.SOURCE.read_bytes(), _kernel.FLAGS, _kernel.cpu_identity()
    name = _kernel.library_name(source, flags, cpu)
    assert name == _kernel.library_name(source, flags, cpu)
    assert name != _kernel.library_name(source + b"\n", flags, cpu)
    assert name != _kernel.library_name(source, flags[:-1], cpu)
    assert name != _kernel.library_name(source, tuple(f.replace("O3", "O2") for f in flags), cpu)
    assert name != _kernel.library_name(source, flags, cpu + " avx512f")


X86_CPUINFO = """processor\t: 0
vendor_id\t: GenuineIntel
model name\t: Intel(R) Xeon(R) Platinum 8375C CPU @ 2.90GHz
flags\t\t: fpu vme sse2 avx2 avx512f
processor\t: 1
model name\t: Intel(R) Xeon(R) Platinum 8375C CPU @ 2.90GHz
flags\t\t: fpu vme sse2 avx2 avx512f
"""

AARCH64_CPUINFO = """processor\t: 0
BogoMIPS\t: 2100.00
Features\t: fp asimd evtstrm aes pmull sha1 sha2 crc32 atomics sve
CPU implementer\t: 0x41
CPU architecture: 8
CPU variant\t: 0x1
CPU part\t: 0xd40
CPU revision\t: 1
"""


def test_cpu_identity_keys_x86_and_aarch64_cpus(monkeypatch, tmp_path):
    cpuinfo = tmp_path / "cpuinfo"
    monkeypatch.setattr(_kernel, "CPUINFO", cpuinfo)

    def identity(text):
        cpuinfo.write_text(text)
        return _kernel.cpu_identity()

    assert identity(X86_CPUINFO).splitlines() == X86_CPUINFO.splitlines()[2:4]
    assert identity(X86_CPUINFO) != identity(X86_CPUINFO.replace(" avx512f", ""))
    arm = identity(AARCH64_CPUINFO)
    assert [line.split(":")[0].strip() for line in arm.splitlines()] == \
        ["Features", "CPU implementer", "CPU part", "CPU variant"]
    assert arm != identity(AARCH64_CPUINFO.replace("0xd40", "0xd0c"))
    assert arm != identity(AARCH64_CPUINFO.replace(" sve", ""))
    assert identity("processor\t: 0\ncpu\t\t: POWER9\n") == ""
    cpuinfo.unlink()
    assert _kernel.cpu_identity() == ""


def test_unidentified_cpu_builds_for_the_process(monkeypatch, tmp_path):
    monkeypatch.setattr(_kernel, "CPUINFO", tmp_path / "absent")
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_kernel.tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert _kernel.load().specmarket_total(np.ones(2).ctypes.data, 2) == 2.0
    assert list((tmp_path / "tmp").iterdir()) == []
    assert not any((tmp_path / "cache").glob("*.so"))


CONCURRENT_BUILD = """
import sys
from pathlib import Path
from specmarket import _kernel, market
_kernel.CACHE_DIR = Path(sys.argv[1])
assert _kernel.library()
config = market.MarketConfig(n_speculators=40, use_param=0.5, info_mode=market.Endogenous(4),
                             horizon=2000, seed=9)
sys.stdout.write(market.run(config).prices.tobytes().hex())
"""


def test_concurrent_cold_builds_both_load(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(_kernel.SOURCE.parent.parent)}
    procs = [subprocess.Popen([sys.executable, "-c", CONCURRENT_BUILD, str(tmp_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
             for _ in range(2)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert "RuntimeWarning" not in err
    config = MarketConfig(n_speculators=40, use_param=0.5, info_mode=Endogenous(4),
                          horizon=2000, seed=9)
    expected = run(config).prices.tobytes().hex()
    assert [out for out, _ in outputs] == [expected, expected]
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
