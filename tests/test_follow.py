"""run.csv written while the market steps: ``market.run``'s follower and ``cli simulate``.

``run(config, follow)`` runs ``follow(record, counts)`` on a helper thread while the C
kernel steps, and the kernel publishes its complete rows every 1024 steps. The
streamed run.csv, and the whole artifact of ``cli simulate``, must hold the bytes
that ``write_run_artifact(run(config))`` writes, and a refused run must change
nothing on disk.
"""

import itertools
import os
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specmarket import (Endogenous, Exogenous, MarketConfig, Mixed, _kernel, exponential_weights,
                        io, run, uniform_weights)
from specmarket.cli import main
from specmarket.errors import ConfigError, SpecmarketError
from specmarket.io import emit_config, write_run_artifact, write_run_csv
from specmarket.market import new_market, step

CHASH = "0123456789abcdef"
HORIZONS = (1, 2, 1023, 1024, 1025, 9000)

CONFIGS = {
    "endogenous": MarketConfig(n_speculators=64, use_param=0.5, info_mode=Endogenous(4),
                               horizon=1, seed=1),
    # 9000 steps draw 8999 states: refills at draws 0, 4096 and 8192
    "exogenous": MarketConfig(n_speculators=48, use_param=0.3,
                              info_mode=Exogenous(exponential_weights(0.1, 32)), horizon=1, seed=3),
    "mixed_random_producers": MarketConfig(n_speculators=40, use_param=0.6,
                                           info_mode=Mixed(2, 2, exponential_weights(0.5, 4)),
                                           horizon=1, seed=4, n_producers=4, producer_kind="random"),
    "deterministic_producers": MarketConfig(n_speculators=48, use_param=0.5,
                                            info_mode=Exogenous(uniform_weights(16)), horizon=1,
                                            seed=5, n_producers=8),
}

#: a market whose price leaves the doubles at step 7, inside the kernel's first block
TINY_EPSILON = MarketConfig(n_speculators=2, use_param=0.5, info_mode=Endogenous(2), horizon=5000,
                            seed=4, epsilon=1e-300)


def _cpus(monkeypatch, n):
    """Make the process see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class Follower:
    """A ``follow`` that streams run.csv to ``path`` and notes the thread it ran on."""

    def __init__(self, path):
        self.path = path
        self.threads = []
        self.record = None

    def __call__(self, record, counts):
        self.threads.append(threading.current_thread())
        self.record = record
        write_run_csv(self.path, CHASH, record, counts)


def no_threads(monkeypatch):
    """Refuse to start any thread."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def write_ini(tmp_path, config, name="market.ini"):
    path = tmp_path / name
    path.write_text(emit_config(config))
    return path


def file_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("case", CONFIGS)
def test_streamed_run_csv_equals_the_written_one(tmp_path, monkeypatch, case, horizon):
    """The follower, on a helper thread, writes the bytes ``write_run_csv`` writes from the
    finished record, and ``run`` returns the same record."""
    _cpus(monkeypatch, 2)
    config = replace(CONFIGS[case], horizon=horizon)
    follower = Follower(tmp_path / "streamed.csv")
    record = run(config, follower)
    assert follower.threads and follower.threads[0] is not threading.main_thread()
    assert follower.record is record
    expected = run(config)
    for name in ("prices", "returns", "mus", "taus", "mean_spec_capital", "final_spec_capitals"):
        assert getattr(record, name).tobytes() == getattr(expected, name).tobytes(), name
    written = write_run_csv(tmp_path / "written.csv", CHASH, expected)
    assert follower.path.read_bytes() == written.read_bytes()


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("case", CONFIGS)
def test_simulate_writes_the_artifact_of_the_record(tmp_path, monkeypatch, capsys, case,
                                                     horizon):
    """``cli simulate`` writes what ``write_run_artifact(run(config))`` writes, or, where the
    analysis refuses the run, exits 1 with its message and leaves no ``--out``."""
    _cpus(monkeypatch, 2)
    config = replace(CONFIGS[case], horizon=horizon)
    try:
        write_run_artifact(tmp_path / "expected", config, run(config))
        refusal = None
    except SpecmarketError as exc:
        refusal = f"error: {exc}\n"
    code = main(["simulate", "--config", str(write_ini(tmp_path, config)),
                 "--out", str(tmp_path / "out")])
    if refusal is None:
        assert code == 0
        assert file_bytes(tmp_path / "out") == file_bytes(tmp_path / "expected")
    else:
        assert code == 1
        assert capsys.readouterr().err == refusal
        assert not (tmp_path / "out").exists()
    assert (refusal is None) == (horizon >= 1023)


def test_simulate_without_the_library_writes_the_same_bytes(tmp_path, monkeypatch):
    """Where the kernel is not loaded, ``run`` steps in Python, the follower runs after it on
    the caller, and the artifact keeps its bytes."""
    config = replace(CONFIGS["mixed_random_producers"], horizon=1500)
    argv = ["simulate", "--config", str(write_ini(tmp_path, config))]
    assert main(argv + ["--out", str(tmp_path / "native")]) == 0
    monkeypatch.setattr(_kernel, "_LIBRARY", False)
    no_threads(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "python")]) == 0
    assert file_bytes(tmp_path / "python") == file_bytes(tmp_path / "native")


@pytest.mark.parametrize("library", [True, False], ids=["one_cpu", "no_library"])
def test_follow_runs_on_the_caller_after_the_stepping(tmp_path, monkeypatch, library):
    """With one usable CPU, or without the kernel, no thread is started: ``follow`` runs on
    the caller once the record is whole, and its counts are ``(horizon,)``."""
    _cpus(monkeypatch, 1)
    if not library:
        monkeypatch.setattr(_kernel, "_LIBRARY", False)
    no_threads(monkeypatch)
    config = replace(CONFIGS["endogenous"], horizon=3000)
    seen = []

    def follow(record, counts):
        seen.append((threading.current_thread(), counts, record.final_spec_capitals.size))

    run(config, follow)
    assert seen == [(threading.main_thread(), (3000,), 64)]


def test_early_stop_publishes_its_partial_block(tmp_path, monkeypatch):
    """A tiny epsilon stops the kernel at step 7, inside its first block: the follower gets
    rows 0 .. 6, whose returns are log10 of their ratios as ``step`` takes them, and ``run``
    raises the refusal of ``check_clearing``."""
    _cpus(monkeypatch, 2)
    state, steps = new_market(TINY_EPSILON), []
    with pytest.raises(ConfigError, match="^epsilon = 1e-300 is too small .* step 7 "):
        while True:
            steps.append(step(state))
    follower = Follower(tmp_path / "partial.csv")
    with pytest.raises(ConfigError, match="^epsilon = 1e-300 is too small .* step 7 "):
        run(TINY_EPSILON, follower)
    returns = [out.log_return for out in steps[1:]]
    assert follower.record.returns[:6].tolist() == returns
    lines = follower.path.read_text().splitlines()
    assert len(lines) == 3 + 7
    assert [line.split(",")[4] for line in lines[4:]] == list(map(repr, returns))
    assert [float(line.split(",")[3]) for line in lines[3:]] == [out.price for out in steps]


def test_simulate_refusal_over_an_existing_out_changes_nothing(tmp_path, monkeypatch):
    """A run refused by the analysis, or by its epsilon, leaves the earlier run's files
    as they were and no temporary file; into a new nested ``--out``, it leaves no directory
    and no temporary file in the nearest existing ancestor."""
    _cpus(monkeypatch, 2)
    out = tmp_path / "out"
    good = replace(CONFIGS["endogenous"], horizon=4000)
    assert main(["simulate", "--config", str(write_ini(tmp_path, good)), "--out", str(out)]) == 0
    before = file_bytes(out)
    for name, config in (("short", replace(good, horizon=20)), ("epsilon", TINY_EPSILON)):
        ini = write_ini(tmp_path, config, f"{name}.ini")
        assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 1
        assert file_bytes(out) == before
        assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "new" / "out")]) == 1
        assert not (tmp_path / "new").exists() and not list(tmp_path.glob(".run-*"))


@pytest.mark.parametrize("horizon", [4000, 20], ids=["written", "refused"])
def test_simulate_into_a_new_nested_out_streams_into_the_nearest_ancestor(tmp_path, monkeypatch,
                                                                          horizon):
    """Into a new nested ``--out``, given relative to the working directory, run.csv streams
    into the nearest existing ancestor while no directory of ``--out`` exists yet. A written
    run renames it into ``--out``; a refused one leaves no ``.run-*.tmp`` file in any ancestor
    and no directory."""
    _cpus(monkeypatch, 2)
    monkeypatch.chdir(tmp_path)
    config = replace(CONFIGS["endogenous"], horizon=horizon)
    ini = write_ini(tmp_path, config)
    partials = []

    def spy(path, chash, record, counts=None):
        partials.append((Path(path).resolve().parent, Path("a").exists()))
        return write_run_csv(path, chash, record, counts)

    monkeypatch.setattr(io, "write_run_csv", spy)
    code = main(["simulate", "--config", ini.name, "--out", "a/b/c"])
    assert partials == [(tmp_path.resolve(), False)]
    assert not [path for path in tmp_path.rglob("*") if path.name.startswith(".run-")]
    if horizon == 20:
        assert code == 1 and sorted(tmp_path.iterdir()) == [ini]
    else:
        assert code == 0
        write_run_artifact(tmp_path / "expected", config, run(config))
        assert file_bytes("a/b/c") == file_bytes(tmp_path / "expected")


def test_a_raising_follow_is_reraised_after_the_join(monkeypatch):
    """The follower's exception reaches the caller, and its thread has ended by then."""
    _cpus(monkeypatch, 2)
    threads = threading.active_count()
    helpers = []

    def follow(record, counts):
        helpers.append(threading.current_thread())
        next(iter(counts))
        raise KeyError("follower")

    with pytest.raises(KeyError, match="follower"):
        run(replace(CONFIGS["endogenous"], horizon=5000), follow)
    assert helpers[0] is not threading.main_thread() and not helpers[0].is_alive()
    assert threading.active_count() == threads


@pytest.mark.parametrize("taken", [0, 1])
def test_a_follower_may_return_before_the_run_ends(monkeypatch, taken):
    """A follower that returns after ``taken`` counts, while the kernel still steps, neither
    holds ``run`` up nor leaves its thread alive, and the record is whole."""
    _cpus(monkeypatch, 2)
    config = replace(CONFIGS["endogenous"], n_speculators=512, horizon=200_000)  # about 0.1 s
    seen, result = [], []

    def follow(record, counts):
        seen.extend(itertools.islice(counts, taken))

    caller = threading.Thread(target=lambda: result.append(run(config, follow)))
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and len(result) == 1
    assert len(seen) == taken and all(0 < count < config.horizon for count in seen)
    assert not [thread for thread in threading.enumerate() if thread.name == "specmarket-follow"]
    assert result[0].prices.tobytes() == run(config).prices.tobytes()


def test_progress_counts_the_published_rows(monkeypatch):
    """The counts are those the kernel published, every 1024 steps and at the end: the
    horizon, or the step at which it stopped; ``specmarket_progress`` reads the counter."""
    _cpus(monkeypatch, 2)
    counts = {}
    for name, config in (("whole", replace(CONFIGS["endogenous"], horizon=2500)),
                         ("stopped", TINY_EPSILON)):
        def follow(record, published, seen=counts.setdefault(name, [])):
            seen.extend(published)

        try:
            run(config, follow)
        except ConfigError:
            assert name == "stopped"
    assert counts["whole"][-1] == 2500 and set(counts["whole"]) <= {1024, 2048, 2500}
    assert counts["whole"] == sorted(set(counts["whole"]))
    assert counts["stopped"] == [7]
    progress = np.array([12345], dtype=np.int64)
    assert _kernel.library().specmarket_progress(progress.ctypes.data) == 12345
