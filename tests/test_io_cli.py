import argparse
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import specmarket.cli
import specmarket.io
from specmarket import Endogenous, Exogenous, MarketConfig, Mixed, run, uniform_weights
from specmarket import analytics, sweep
from specmarket.cli import main
from specmarket.errors import ConfigError, DataFormatError
from specmarket.market import check_seed
from specmarket.io import (
    FORMAT_VERSION,
    analyze_returns,
    config_hash,
    emit_config,
    load_empirical,
    parse_market_config,
    parse_sweep_spec,
    read_run_csv,
    write_run_artifact,
    write_run_csv,
)
from test_engine import configs
from test_golden import GOLDEN_CLI, file_digests
from test_stats import _record_from

MINIMAL = """\
[market]
n_speculators = 64
use_param = 0.5
horizon = 500
seed = 3

[info]
mode = endogenous
memory_bits = 4
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        config = parse_market_config(write(tmp_path, MINIMAL))
        assert config.n_producers == 0
        assert config.producer_kind == "deterministic"
        assert config.epsilon == 1e-10
        assert config.info_mode == Endogenous(4)

    @pytest.mark.parametrize("value", ["true", "yes", "1"])
    def test_record_agents_true_refused_by_name(self, tmp_path, value):
        text = MINIMAL.replace("seed = 3", f"seed = 3\nrecord_agents = {value}")
        with pytest.raises(ConfigError, match=r"^market\.record_agents must be false: per-agent "
                                              r"capitals are not recorded$"):
            parse_market_config(write(tmp_path, text))

    @pytest.mark.parametrize("line", ["record_agents = false\n", "record_agents = no\n", ""],
                             ids=["false", "no", "absent"])
    def test_record_agents_false_or_absent_parses(self, tmp_path, line):
        """Format 1 keeps the key with the single value false, and echoes it last in [market]."""
        text = MINIMAL.replace("seed = 3\n", "seed = 3\n" + line)
        config = parse_market_config(write(tmp_path, text))
        assert config == parse_market_config(write(tmp_path, MINIMAL, "minimal.ini"))
        assert not hasattr(config, "record_agents")
        assert emit_config(config).split("\n\n")[0].endswith("\nseed = 3\nrecord_agents = false")

    def test_out_of_range_names_field(self, tmp_path):
        bad = MINIMAL.replace("use_param = 0.5", "use_param = 1.5")
        with pytest.raises(ConfigError, match="use_param"):
            parse_market_config(write(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = MINIMAL + "leverage = 10\n"
        with pytest.raises(ConfigError, match="leverage"):
            parse_market_config(write(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = MINIMAL + "\n[plotting]\ncolor = red\n"
        with pytest.raises(ConfigError, match="plotting"):
            parse_market_config(write(tmp_path, bad))

    def test_exogenous_grammar(self, tmp_path):
        text = MINIMAL.replace("mode = endogenous\nmemory_bits = 4",
                               "mode = exogenous\ndistribution = exp\nstates = 8\nrate = 0.02")
        config = parse_market_config(write(tmp_path, text))
        assert isinstance(config.info_mode, Exogenous)
        assert config.info_mode.n_states == 8

    @pytest.mark.parametrize("value", ["inf", "nan", "-1e3"])
    @pytest.mark.parametrize("info, key", [
        ("mode = exogenous\ndistribution = exp\nstates = 1024\nrate = {}", "info.rate"),
        ("mode = mixed\nendo_bits = 1\nexo_bits = 10\nexo_distribution = exp\n"
         "exo_states = 1024\nexo_rate = {}", "info.exo_rate"),
    ], ids=["rate", "exo_rate"])
    def test_bad_rate_names_key_without_warning(self, tmp_path, info, key, value):
        text = MINIMAL.replace("mode = endogenous\nmemory_bits = 4", info.format(value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}"):
                parse_market_config(write(tmp_path, text))

    def test_explicit_weights(self, tmp_path):
        text = MINIMAL.replace("mode = endogenous\nmemory_bits = 4",
                               "mode = exogenous\nweights = 0.5, 0.25, 0.25")
        config = parse_market_config(write(tmp_path, text))
        assert config.info_mode.weights.tolist() == [0.5, 0.25, 0.25]

    def test_mixed_grammar(self, tmp_path):
        text = MINIMAL.replace(
            "mode = endogenous\nmemory_bits = 4",
            "mode = mixed\nendo_bits = 3\nexo_bits = 2\nexo_distribution = uniform\nexo_states = 4",
        )
        config = parse_market_config(write(tmp_path, text))
        assert config.info_mode == Mixed(3, 2, np.full(4, 0.25))

    def test_round_trip(self, tmp_path):
        for body in (
            MINIMAL,
            MINIMAL.replace("mode = endogenous\nmemory_bits = 4",
                            "mode = exogenous\ndistribution = exp\nstates = 16\nrate = 0.1"),
        ):
            config = parse_market_config(write(tmp_path, body))
            echoed = write(tmp_path, emit_config(config), "echo.ini")
            assert parse_market_config(echoed) == config

    @pytest.mark.parametrize("mode, uniform", [
        (Exogenous(np.full(7, 0.142857142857143)), Exogenous(uniform_weights(7))),
        (Mixed(2, 2, np.full(4, 0.25000000000000006)), Mixed(2, 2, uniform_weights(4))),
    ], ids=["exogenous", "mixed"])
    def test_round_trip_of_equal_weights_other_than_uniform(self, tmp_path, mode, uniform):
        """Equal weights other than ``uniform_weights(n)`` are echoed as a list, not as uniform."""
        config = MarketConfig(n_speculators=8, use_param=0.5, info_mode=mode, horizon=100, seed=1)
        assert parse_market_config(write(tmp_path, emit_config(config))) == config
        assert config_hash(config) != config_hash(replace(config, info_mode=uniform))

    def test_sweep_spec(self, tmp_path):
        text = MINIMAL + (
            "\n[sweep]\naxes = alpha, use_param\nalpha = 0.5, 1\n"
            "use_param = 0.1, 0.3\nrepetitions = 2\nmetrics = variance, kurtosis\n"
        )
        spec = parse_sweep_spec(write(tmp_path, text))
        assert [a.name for a in spec.axes] == ["alpha", "use_param"]
        assert spec.axes[0].values == (0.5, 1.0)
        assert spec.repetitions == 2
        assert spec.metrics == ("variance", "kurtosis")

    @pytest.mark.parametrize("sweep, message", [
        ("axes = use_param, use_param\nuse_param = 0.2, 0.8\n",
         "^sweep.use_param: axis use_param is named twice$"),
        ("axes = alpha, n_states\nalpha = 0.5\nn_states = 8\n",
         "^sweep.axes alpha and n_states both set the state count"),
    ], ids=["twice", "alpha_with_n_states"])
    def test_sweep_refuses_colliding_axes_by_name(self, tmp_path, sweep, message):
        with pytest.raises(ConfigError, match=message):
            parse_sweep_spec(write(tmp_path, MINIMAL + "\n[sweep]\n" + sweep))

    def test_sweep_integer_axis_refuses_fractions(self, tmp_path):
        text = MINIMAL + "\n[sweep]\naxes = n_speculators\nn_speculators = {}\n"
        with pytest.raises(ConfigError, match="n_speculators"):
            parse_sweep_spec(write(tmp_path, text.format("32.7, 64")))
        values = parse_sweep_spec(write(tmp_path, text.format("32, 64.0"))).axes[0].values
        assert values == (32, 64) and all(type(v) is int for v in values)

    @pytest.mark.parametrize("sweep, message", [
        ("axes = alpha\nalpha = 0.25\nrepetitions = 0\n", "sweep.repetitions must be >= 1, got 0"),
        ("axes = alpha\nalpha = 0.25\nmetrics = bogus\n",
         "sweep.metrics: metric must be one of ('variance', 'kurtosis', 'reduction', "
         "'income_factor', 'gini', 'tail_exponent'), got 'bogus'"),
        ("axes = alpha\nalpha = 0.25\nmetrics =\n", "sweep.metrics must name at least one metric"),
        ("axes =\n", "sweep.axes must contain at least one axis"),
        ("axes = foo\nfoo = 1\n", "sweep.axes: axis name must be one of ('alpha', 'n_states', "
                                  "'n_speculators', 'n_producers', 'use_param'), got 'foo'"),
        ("axes = alpha\nalpha = 0.5, 0.5\n", "sweep.alpha: axis alpha lists the value 0.5 twice"),
        ("axes = alpha\nalpha = nan\n", "sweep.alpha: axis alpha values must be finite, got nan"),
        ("axes = alpha\nalpha =\n", "sweep.alpha: axis alpha has no values"),
        ("axes = n_speculators\nn_speculators = 32.7\n",
         "sweep.n_speculators: axis n_speculators takes integers, got 32.7"),
        ("axes = alpha, n_speculators, use_param, n_producers\nalpha = 0.5\nn_speculators = 64\n"
         "use_param = 0.1\n",
         "sweep.n_producers is required at sweep.axes = alpha, n_speculators, use_param, n_producers"),
    ], ids=["repetitions", "unknown_metric", "no_metric", "no_axis", "unknown_axis", "repeated_value",
            "nan", "no_value", "fraction", "listed_axis_left_out"])
    def test_sweep_refusal_names_the_keys_of_the_file(self, tmp_path, sweep, message):
        """A refusal of the [sweep] section is led by the key of the file that set it; an axis
        that ``axes`` lists and the file leaves out, by ``sweep.axes`` as well."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_sweep_spec(write(tmp_path, MINIMAL + "\n[sweep]\n" + sweep))

    @pytest.mark.parametrize("agents, info, field", [
        (64, "mode = exogenous\ndistribution = uniform\nstates = 100000000000", "info.states"),
        (64, "mode = mixed\nendo_bits = 1\nexo_bits = 2\nexo_distribution = exp\n"
             "exo_rate = 0.1\nexo_states = 100000000000", "info.exo_states"),
        # one agent keeps the strategy table at 4 GiB, within the cap; the
        # float64 weights alone would take 32 GiB
        (1, "mode = exogenous\ndistribution = uniform\nstates = 4294967296", "info.states"),
        (1, "mode = mixed\nendo_bits = 1\nexo_bits = 32\nexo_distribution = exp\n"
            "exo_rate = 0.1\nexo_states = 4294967296", "info.exo_states"),
        # a state count below 1 is refused by its key, as a huge one is
        (64, "mode = exogenous\ndistribution = uniform\nstates = 0", "^info.states must be >= 1"),
        (64, "mode = exogenous\ndistribution = uniform\nstates = -3", "^info.states must be >= 1"),
        (64, "mode = mixed\nendo_bits = 1\nexo_bits = 2\nexo_distribution = uniform\n"
             "exo_states = 0", "^info.exo_states must be >= 1"),
    ], ids=["exogenous", "mixed", "exogenous_weights", "mixed_weights", "zero", "negative",
            "mixed_zero"])
    def test_huge_state_count_refused_before_allocation(self, tmp_path, monkeypatch,
                                                        agents, info, field):
        def refuse(*args):
            raise AssertionError("weight vector allocated before the size check")

        monkeypatch.setattr(specmarket.io, "uniform_weights", refuse)
        monkeypatch.setattr(specmarket.io, "exponential_weights", refuse)
        text = MINIMAL.replace("n_speculators = 64", f"n_speculators = {agents}")
        text = text.replace("mode = endogenous\nmemory_bits = 4", info)
        with pytest.raises(ConfigError, match=field):
            parse_market_config(write(tmp_path, text))


    @pytest.mark.parametrize("agents, info, message", [
        (64, "mode = mixed\nendo_bits = 2\nexo_bits = 2\nexo_distribution = uniform\nexo_states = 8",
         r"^info\.exo_states must have length 2\*\*info\.exo_bits = 4, got \(8,\)$"),
        (64, "mode = endogenous\nmemory_bits = 0", r"^info\.memory_bits must be in \[1, 62\], got 0$"),
        (10**11, "mode = endogenous\nmemory_bits = 20",
         r"^info\.memory_bits at market\.n_speculators \+ market\.n_producers: "
         r"1048576 states x 100000000000 agents need"),
    ], ids=["exo_states_against_exo_bits", "memory_bits", "agents_against_memory_bits"])
    def test_info_refusal_names_the_keys_of_the_file(self, tmp_path, agents, info, message):
        """A mode the dataclass refuses is named by the [info] and [market] keys that set it."""
        text = MINIMAL.replace("n_speculators = 64", f"n_speculators = {agents}")
        text = text.replace("mode = endogenous\nmemory_bits = 4", info)
        with pytest.raises(ConfigError, match=message):
            parse_market_config(write(tmp_path, text))

    def test_dataclass_refusals_still_name_their_fields(self):
        with pytest.raises(ConfigError, match=r"^info_mode\.memory_bits must be in"):
            Endogenous(0).validate()
        with pytest.raises(ConfigError, match=r"^info_mode\.exo_weights must have length 2\*\*exo_bits"):
            Mixed(2, 2, uniform_weights(8)).validate()

    @pytest.mark.parametrize("refuse, fields", [
        (lambda: Endogenous(0).validate(), ("info_mode.memory_bits",)),
        (lambda: Mixed(2, 2, uniform_weights(8)).validate(), ("info_mode.exo_weights", "exo_bits")),
        (lambda: check_seed(-1), ("seed",)),
        (lambda: sweep.run_many([], len, 0), ("workers",)),
        (lambda: analytics.variance_curve(0, [1]), ("dimension",)),
    ], ids=["memory_bits", "exo_weights", "seed", "workers", "dimension"])
    def test_dataclass_refusals_carry_their_fields(self, refuse, fields):
        with pytest.raises(ConfigError) as refusal:
            refuse()
        assert refusal.value.fields == fields

    @pytest.mark.parametrize("changes, fields", [
        ({"memory_bits = 4": "memory_bits = 0"}, ("info.memory_bits",)),
        ({"memory_bits = 4": "memory_bits = 20", "n_speculators = 64": f"n_speculators = {10**11}"},
         ("info.memory_bits", "market.n_speculators", "market.n_producers")),
        ({"endogenous\nmemory_bits = 4": "mixed\nendo_bits = 2\nexo_bits = 2\n"
                                         "exo_distribution = uniform\nexo_states = 8"},
         ("info.exo_states", "info.exo_bits")),
        ({"endogenous\nmemory_bits = 4": "mixed\nendo_bits = 2"}, ("info.exo_bits", "info.mode")),
        ({"seed = 3": "seed = -1"}, ("market.seed",)),
    ], ids=["memory_bits", "size_cap", "exo_weights", "required_by_mode", "seed"])
    def test_file_refusals_carry_the_keys_of_the_file(self, tmp_path, changes, fields):
        text = MINIMAL
        for old, new in changes.items():
            text = text.replace(old, new)
        with pytest.raises(ConfigError) as refusal:
            parse_market_config(write(tmp_path, text))
        assert refusal.value.fields == fields

    @pytest.mark.parametrize("mode, message", [
        (Exogenous(np.array([0.3, 0.3])), "info_mode.weights must sum to 1 within 1e-12, got sum 0.6"),
        (Mixed(2, 1, np.array([0.3, 0.3])),
         "info_mode.exo_weights must sum to 1 within 1e-12, got sum 0.6"),
    ], ids=["exogenous", "mixed"])
    def test_weight_sum_refused_as_a_number_not_a_numpy_repr(self, mode, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            mode.validate()

    @pytest.mark.parametrize("changes, message", [
        ({"seed = 3": "seed = 3\nn_producers = -1"},
         "market.n_producers must be a nonnegative integer, got -1"),
        ({"seed = 3": "seed = 3\nproducer_kind = sometimes"},
         "market.producer_kind must be one of ('deterministic', 'random'), got 'sometimes'"),
        ({"seed = 3": "seed = 3\nepsilon = 0.01"},
         "market.epsilon must satisfy 0 < epsilon << 1e-3, got 0.01"),
        ({"horizon = 500": "horizon = 0"}, "market.horizon must be a positive integer, got 0"),
        ({"horizon = 500": "horizon = 26843546"},
         "market.horizon: 26843546 steps need 1073741840 bytes of record, above the supported "
         "1073741824"),
        ({"seed = 3": f"seed = {2**64}"},
         f"market.seed must be an integer in [0, 2**64), got {2**64}"),
        ({"memory_bits = 4": "memory_bits = 63"}, "info.memory_bits must be in [1, 62], got 63"),
        ({"mode = endogenous\nmemory_bits = 4": "mode = mixed\nendo_bits = 61\nexo_bits = 2\n"
                                                "exo_weights = 0.5, 0.5"},
         "info.exo_bits must be in [1, 1], got 2"),
        ({"mode = endogenous\nmemory_bits = 4": "mode = exogenous\nweights = 0.5, -0.5, 1.0"},
         "info.weights must be finite and nonnegative"),
        ({"n_speculators = 64": "n_speculators = 100000000000",
          "mode = endogenous\nmemory_bits = 4": "mode = mixed\nendo_bits = 19\nexo_bits = 1\n"
                                                "exo_weights = 0.5, 0.5"},
         "info.endo_bits, info.exo_bits, info.exo_weights at market.n_speculators + "
         "market.n_producers: 1048576 states x 100000000000 agents need"),
        ({"endogenous\nmemory_bits = 4": "mixed\nendo_bits = 2"}, "info.exo_bits is required at info.mode = mixed"),
    ], ids=["n_producers", "producer_kind", "epsilon", "horizon", "record_cap", "seed",
            "memory_bits", "exo_bits", "weights", "mixed_size_cap", "required_by_mode"])
    def test_market_refusal_names_the_keys_of_the_file(self, tmp_path, changes, message):
        """A refusal is named by the [market] or [info] key that set it; a missing key that the
        mode calls for, by the mode as well."""
        text = MINIMAL
        for old, new in changes.items():
            assert old in text
            text = text.replace(old, new)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_market_config(write(tmp_path, text))

    @pytest.mark.parametrize("mode, info", [
        (Endogenous, "mode = endogenous\nmemory_bits = 4"),
        (Exogenous, "mode = exogenous\ndistribution = exp\nstates = 8\nrate = 0.02"),
        (Mixed, "mode = mixed\nendo_bits = 3\nexo_bits = 2\nexo_distribution = uniform\n"
                "exo_states = 4"),
    ], ids=["endogenous", "exogenous", "mixed"])
    def test_mode_validated_once_per_file(self, tmp_path, monkeypatch, mode, info):
        calls = []
        validate = mode.validate
        monkeypatch.setattr(mode, "validate", lambda self: calls.append(validate(self)))
        text = MINIMAL.replace("mode = endogenous\nmemory_bits = 4", info)
        assert isinstance(parse_market_config(write(tmp_path, text)).info_mode, mode)
        assert len(calls) == 1


class TestArtifacts:
    def test_run_csv_round_trip(self, tmp_path, make_config):
        config = make_config(horizon=300)
        record = run(config)
        files = write_run_artifact(tmp_path / "out", config, record)
        data = read_run_csv(files["run"])
        np.testing.assert_array_equal(data["prices"], record.prices)
        np.testing.assert_array_equal(data["returns"], record.returns)
        np.testing.assert_array_equal(data["mus"], record.mus)
        np.testing.assert_array_equal(data["taus"], record.taus)
        assert data["config_hash"] == config_hash(config)

    def test_undefined_correlation_written_as_null(self, tmp_path, make_config):
        """All recurring taus equal 2: no warning, summary.json is strict JSON, no tau tail fit."""
        record = _record_from(np.arange(400) % 2, np.random.default_rng(3).normal(scale=1e-3, size=399))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            files = write_run_artifact(tmp_path / "out", make_config(horizon=399), record)

        def refuse(token):
            raise ValueError(f"summary.json holds the non-JSON token {token}")

        summary = json.loads(files["summary"].read_text(), parse_constant=refuse)
        assert summary["surprise"] == {"log_correlation": None}

    def test_run_without_surprise_leaves_no_stale_surprise_csv(self, tmp_path):
        """A run in which no state recurs has no surprise statistics: written over a run that
        had them, it removes that run's surprise.csv, so --out holds exactly its own files."""
        first = parse_market_config(write(tmp_path, MINIMAL))
        files = write_run_artifact(tmp_path / "o", first, run(first))
        assert "surprise" in files
        text = MINIMAL.replace("horizon = 500", "horizon = 400").replace(
            "mode = endogenous\nmemory_bits = 4",
            "mode = exogenous\ndistribution = uniform\nstates = 1048576")
        second = parse_market_config(write(tmp_path, text, "second.ini"))
        files = write_run_artifact(tmp_path / "o", second, run(second))
        assert "surprise" not in files
        assert "surprise" not in json.loads(files["summary"].read_text())
        assert sorted(os.listdir(tmp_path / "o")) == sorted(path.name for path in files.values())

    def test_unknown_version_refused(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("# specmarket-format: 99\n# config-hash: x\nt,mu,tau,price,log_return\n")
        with pytest.raises(DataFormatError, match="version"):
            read_run_csv(path)

    def test_missing_header_refused(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("t,mu,tau,price,log_return\n0,1,,1.0,\n")
        with pytest.raises(DataFormatError, match="header"):
            read_run_csv(path)

    def test_truncated_row_names_file_and_row(self, tmp_path, make_config):
        config = make_config(horizon=300)
        files = write_run_artifact(tmp_path / "out", config, run(config))
        lines = files["run"].read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if ln.startswith("t,")) + 1
        # cut the file after the exponent mark of the last return written in e-notation
        cut = max(i for i in range(first + 1, len(lines)) if "e" in lines[i].rsplit(",", 1)[1])
        files["run"].write_text("\n".join(lines[:cut] + [lines[cut][:lines[cut].rindex("e") + 1]]))
        with pytest.raises(DataFormatError, match=rf"run\.csv: row {cut - first + 1}: could not convert"):
            read_run_csv(files["run"])

    @pytest.mark.parametrize("text", [
        "# specmarket-format: {v}\n",
        "# specmarket-format: {v}\n# config-hash: x\nt,mu,tau,price,log_return\n",
    ], ids=["format_line_only", "column_header_only"])
    def test_header_only_refused(self, tmp_path, text):
        path = tmp_path / "run.csv"
        path.write_text(text.format(v=FORMAT_VERSION))
        with pytest.raises(DataFormatError, match="run.csv"):
            read_run_csv(path)

    def test_tau_reads_back_exactly(self, tmp_path):
        """A tau above 2**53 reads back as the int64 written, not rounded through float64.

        No file short enough to write holds such a tau validly, so the tau
        that disagrees with its mu column is quoted exactly in the refusal.
        """
        path = tmp_path / "run.csv"
        path.write_text(f"# specmarket-format: {FORMAT_VERSION}\n# config-hash: x\n"
                        f"t,mu,tau,price,log_return\n0,1,,1.0,\n1,1,{2**53 + 1},1.0,0.0\n")
        rule = f"row 2: tau must be 1, the steps since mu 1 last occurred, got {2**53 + 1}"
        with pytest.raises(DataFormatError, match=rf"run\.csv: {re.escape(rule)}$"):
            read_run_csv(path)

    def test_large_tau_cell_parses_as_exact_int64(self, tmp_path, monkeypatch):
        """The cell parse alone, with the check against the mu column switched off."""
        monkeypatch.setattr(specmarket.io, "_check_taus", lambda *args: None)
        path = tmp_path / "run.csv"
        path.write_text(f"# specmarket-format: {FORMAT_VERSION}\n# config-hash: x\n"
                        f"t,mu,tau,price,log_return\n0,1,,1.0,\n1,1,{2**53 + 1},1.0,0.0\n")
        taus = read_run_csv(path)["taus"]
        assert taus.dtype == np.int64 and taus.tolist() == [0, 2**53 + 1]

    # (1 << 40) + 2 agrees with mu 2 in its low 16 bits, so the wide mus must sort as int64
    @pytest.mark.parametrize("mu", [1, (1 << 40) + 2], ids=["16_bit_mus", "wide_mus"])
    @pytest.mark.parametrize("taus, rule", [
        (",,", "row 3: tau must be 2, the steps since mu {mu} last occurred, got an empty tau"),
        (",,3", "row 3: tau must be 2, the steps since mu {mu} last occurred, got 3"),
        ("1,,2", "row 1: tau must be empty at the first occurrence of mu {mu}, got 1"),
    ], ids=["empty", "raised", "first_occurrence"])
    def test_tau_disagreeing_with_mus_refused(self, tmp_path, mu, taus, rule):
        """mus mu, 2, mu: the taus must read empty, empty, 2."""
        t0, t1, t2 = taus.split(",")
        path = tmp_path / "run.csv"
        path.write_text(f"# specmarket-format: {FORMAT_VERSION}\n# config-hash: x\n"
                        f"t,mu,tau,price,log_return\n0,{mu},{t0},1.0,\n1,2,{t1},1.0,0.0\n"
                        f"2,{mu},{t2},1.0,0.0\n")
        with pytest.raises(DataFormatError, match=rf"run\.csv: {re.escape(rule.format(mu=mu))}$"):
            read_run_csv(path)

    @pytest.mark.parametrize("rows, rule", [
        ("7,1,,1.0,\n1,1,1,1.0,0.0\n", "row 1: t must be the row's index 0, got '7'"),
        ("0,1,,1.0,abc\n1,1,1,1.0,0.0\n", "row 1: log_return must be empty at t = 0, got 'abc'"),
        ("0,1,,1.0,0.0\n1,1,1,1.0,0.0\n", "row 1: log_return must be empty at t = 0, got '0.0'"),
    ], ids=["t_row1", "first_return_text", "first_return_number"])
    def test_t_and_first_return_refused_by_row(self, tmp_path, rows, rule):
        path = tmp_path / "run.csv"
        path.write_text(f"# specmarket-format: {FORMAT_VERSION}\n# config-hash: x\n"
                        f"t,mu,tau,price,log_return\n{rows}")
        with pytest.raises(DataFormatError, match=rf"run\.csv: {re.escape(rule)}$"):
            read_run_csv(path)

    def test_non_numeric_field_names_row(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(f"# specmarket-format: {FORMAT_VERSION}\n# config-hash: x\n"
                        "t,mu,tau,price,log_return\n0,1,,1.0,\n1,0,,high,0.1\n")
        with pytest.raises(DataFormatError, match="row 2"):
            read_run_csv(path)


    @pytest.mark.parametrize("column, value, rule", [
        ("price", "nan", "price must be finite and positive, got nan"),
        ("price", "inf", "price must be finite and positive, got inf"),
        ("price", "0.0", "price must be finite and positive, got 0.0"),
        ("price", "-1.5", "price must be finite and positive, got -1.5"),
        ("log_return", "nan", "log_return must be finite, got nan"),
        ("log_return", "-inf", "log_return must be finite, got -inf"),
        ("tau", "1.5", "tau must be a positive integer, got '1.5'"),
        ("tau", "0", "tau must be a positive integer, got '0'"),
        ("tau", "-3", "tau must be a positive integer, got '-3'"),
        ("tau", "9" * 30, f"tau must be below 2**63, got '{'9' * 30}'"),
        ("mu", "-3", "mu must be an integer in [0, 2**63), got '-3'"),
        ("mu", "9" * 20, f"mu must be an integer in [0, 2**63), got '{'9' * 20}'"),
        ("mu", str(2**63), f"mu must be an integer in [0, 2**63), got '{2**63}'"),
        ("t", "150", "t must be the row's index 149, got '150'"),
        ("t", " 149", "t must be the row's index 149, got ' 149'"),
    ])
    def test_bad_value_refused_by_row(self, tmp_path, make_config, column, value, rule):
        files = write_run_artifact(tmp_path / "out", make_config(horizon=300), run(make_config(horizon=300)))
        lines = files["run"].read_text().splitlines()
        first = lines.index("t,mu,tau,price,log_return") + 1
        row = 150
        cells = lines[first + row - 1].split(",")
        cells["t,mu,tau,price,log_return".split(",").index(column)] = value
        lines[first + row - 1] = ",".join(cells)
        files["run"].write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=rf"run\.csv: row {row}: {re.escape(rule)}$"):
            read_run_csv(files["run"])


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(configs())
    def test_run_csv_reads_back_the_record_bits(self, config):
        record = run(config)
        with tempfile.TemporaryDirectory() as out:
            data = read_run_csv(write_run_csv(Path(out) / "run.csv", config_hash(config), record))
        for name in ("prices", "mus", "taus", "returns"):
            ours, theirs = data[name], getattr(record, name)
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), name
            assert ours.tobytes() == theirs.tobytes(), name
        assert data["config_hash"] == config_hash(config)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.booleans(), st.integers(1, 4))
    def test_emitted_weight_lists_parse_back(self, data, mixed, exo_bits):
        size = 1 << exo_bits if mixed else data.draw(st.integers(2, 16))
        weights = np.array(data.draw(st.lists(st.floats(1e-300, 1e300), min_size=size,
                                              max_size=size)))
        weights /= weights.sum()
        assume(abs(weights.sum() - 1.0) <= 1e-12
               and not np.array_equal(weights, uniform_weights(size)))
        mode = Mixed(2, exo_bits, weights) if mixed else Exogenous(weights)
        config = MarketConfig(n_speculators=8, use_param=0.5, info_mode=mode, horizon=100,
                              seed=data.draw(st.integers(0, 2**64 - 1)))
        text = emit_config(config)
        assert "weights = " in text  # not folded into a named distribution
        with tempfile.TemporaryDirectory() as out:
            parsed = parse_market_config(write(Path(out), text))
        assert parsed == config
        parsed_weights = parsed.info_mode.exo_weights if mixed else parsed.info_mode.weights
        assert parsed_weights.tobytes() == weights.tobytes()


class TestEmpirical:
    def test_loads_with_header_tolerance(self, tmp_path):
        path = write(tmp_path, "Date Close\n2020-01-01 10.0\n2020-01-02 11.0\n2020-01-03 9.5\n", "px.txt")
        series = load_empirical(path)
        assert len(series.closes) == 3
        returns = series.log_returns()
        assert returns[0] == pytest.approx(np.log10(1.1))

    @pytest.mark.parametrize("text, row", [
        # an OHLC file once loaded its Open column as the closes
        ("Date,Open,High,Low,Close\n2020-01-01,100,105,99,104\n2020-01-02,104,106,101,102\n"
         "2020-01-03,102,103,98,99\n", "2020-01-01,100,105,99,104"),
        # and this close once loaded as 1.0
        ("2020-01-01,10.5\n2020-01-02,1 000.5\n", "2020-01-02,1 000.5"),
        # and a first date with no close was skipped as a header
        ("Date,Close\n2020-01-01\n2020-01-02,10\n2020-01-03,11\n", "2020-01-01"),
    ], ids=["ohlc", "spaced_close", "lone_date"])
    def test_refuses_a_row_with_more_than_a_date_and_a_close(self, tmp_path, text, row):
        with pytest.raises(DataFormatError, match=re.escape(f"row 2: expected date and close, "
                                                            f"got {row!r}")):
            load_empirical(write(tmp_path, text, "px.csv"))

    def test_date_formats(self, tmp_path):
        path = write(tmp_path, "19000102 68.13\n19000103 68.5\n", "px.txt")
        assert len(load_empirical(path).closes) == 2

    def test_non_monotone_dates_with_row(self, tmp_path):
        path = write(tmp_path, "2020-01-02 10\n2020-01-01 11\n", "px.txt")
        with pytest.raises(DataFormatError, match="row 2"):
            load_empirical(path)

    def test_nonpositive_price_with_row(self, tmp_path):
        path = write(tmp_path, "2020-01-01 10\n2020-01-02 0\n", "px.txt")
        with pytest.raises(DataFormatError, match="row 2"):
            load_empirical(path)

    @pytest.mark.parametrize("close", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_close_with_row(self, tmp_path, close):
        path = write(tmp_path, f"2020-01-01 10\n2020-01-02 11\n2020-01-03 {close}\n", "px.txt")
        with pytest.raises(DataFormatError, match="row 3: close must be finite and positive"):
            load_empirical(path)

    def test_constant_prices_degenerate_downstream(self, tmp_path):
        from specmarket.errors import DegenerateInputError

        path = write(tmp_path, "2020-01-01 10\n2020-01-02 10\n2020-01-03 10\n", "px.txt")
        series = load_empirical(path)
        with pytest.raises(DegenerateInputError):
            analyze_returns(series.log_returns())

    def test_geometric_random_walk_is_gaussian(self, tmp_path):
        rng = np.random.default_rng(5)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=30_000)))
        import datetime

        day = datetime.date(2000, 1, 1)
        lines = []
        for close in closes:
            lines.append(f"{day.isoformat()} {float(close)!r}")
            day += datetime.timedelta(days=1)
        path = write(tmp_path, "\n".join(lines) + "\n", "walk.txt")
        analysis = analyze_returns(load_empirical(path).log_returns())
        assert analysis.kurtosis == pytest.approx(3.0, abs=0.2)
        # no power-law tail accepted: poor KS fit on a thin tail
        assert analysis.tail.ks_distance > 0.01
        assert analysis.tail.n_tail < 0.05 * analysis.n


class TestCli:
    def write_config(self, tmp_path, horizon=4000):
        return write(tmp_path, MINIMAL.replace("memory_bits = 4", "memory_bits = 6")
                     .replace("n_speculators = 64", "n_speculators = 256")
                     .replace("horizon = 500", f"horizon = {horizon}"))

    def test_simulate_deterministic_bytes(self, tmp_path):
        config = self.write_config(tmp_path)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        for name in ("run.csv", "summary.json", "ccdf.csv", "autocorr.csv", "config.ini"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_simulate_from_echoed_config_reproduces(self, tmp_path):
        config = self.write_config(tmp_path)
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")])
        echoed = tmp_path / "a" / "config.ini"
        assert main(["simulate", "--config", str(echoed), "--out", str(tmp_path / "re")]) == 0
        for name in ("run.csv", "summary.json"):
            assert (tmp_path / "re" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = self.write_config(tmp_path)
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(config), "--seed", "1234", "--out", str(tmp_path / "c")])
        assert (tmp_path / "a" / "run.csv").read_bytes() != (tmp_path / "c" / "run.csv").read_bytes()

    def test_stats_matches_simulate(self, tmp_path):
        config = self.write_config(tmp_path)
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "a")])
        assert main(["stats", "--input", str(tmp_path / "a" / "run.csv"),
                     "--out", str(tmp_path / "s")]) == 0
        simulated = json.loads((tmp_path / "a" / "summary.json").read_text())
        recomputed = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert recomputed["analysis"] == simulated["analysis"]
        assert recomputed["variance"] == simulated["variance"]
        assert recomputed["reduction"] == simulated["reduction"]
        # run.csv carries neither the seed nor the surprise analysis; every other key is shared
        del simulated["seed"], simulated["surprise"]
        assert recomputed == simulated
        for name in ("ccdf.csv", "autocorr.csv"):
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    def test_sweep_csv(self, tmp_path):
        config_text = MINIMAL + "\n[sweep]\naxes = alpha\nalpha = 0.25, 0.5\nrepetitions = 2\n"
        config = write(tmp_path, config_text, "sweep.ini")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "g")]) == 0
        lines = (tmp_path / "g" / "grid.csv").read_text().splitlines()
        assert lines[2] == "alpha,metric,value,n_runs"
        assert len(lines) == 3 + 2 * 3  # two nodes x three default metrics

    def test_sweep_csv_writes_integer_axes_as_integers(self, tmp_path):
        config_text = MINIMAL + ("\n[sweep]\naxes = n_states, n_producers\nn_states = 8, 16.0\n"
                                 "n_producers = 0, 4\nrepetitions = 1\nmetrics = variance\n")
        config = write(tmp_path, config_text, "sweep.ini")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "g")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "g" / "grid.csv").read_text().splitlines()[2:]]
        assert [row[:2] for row in rows] == [["n_states", "n_producers"], ["8", "0"], ["8", "4"],
                                            ["16", "0"], ["16", "4"]]
        assert [row[4] for row in rows[1:]] == ["1"] * 4

    def test_sweep_csv_empty_cells(self, tmp_path):
        """A node with no valid repetition writes an empty value."""
        config_text = MINIMAL + ("\n[sweep]\naxes = use_param\nuse_param = 0.5, 1.5\n"
                                 "repetitions = 3\nmetrics = variance, income_factor\n")
        config = write(tmp_path, config_text, "sweep.ini")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "g")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "g" / "grid.csv").read_text().splitlines()[3:]]
        variance, income = float(rows[0][2]), float(rows[1][2])
        # every repetition's income factor is negative here, and their arithmetic mean is written
        assert rows == [["0.5", "variance", repr(variance), "3"],
                        ["0.5", "income_factor", repr(income), "3"],
                        ["1.5", "variance", "", "0"], ["1.5", "income_factor", "", "0"]]
        assert variance > 0 > income

    def test_sweep_json_writes_null_for_a_nan_aggregate(self, tmp_path):
        """The config of ``test_sweep_csv_empty_cells`` as JSON: strict, with null where csv is empty."""
        config_text = MINIMAL + ("\n[sweep]\naxes = use_param\nuse_param = 0.5, 1.5\n"
                                 "repetitions = 3\nmetrics = variance, income_factor\n")
        config = write(tmp_path, config_text, "sweep.ini")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "g"),
                     "--format", "json"]) == 0

        def refuse(constant):
            raise ValueError(f"grid.json holds {constant}")

        payload = json.loads((tmp_path / "g" / "grid.json").read_text(), parse_constant=refuse)
        values = [(row["use_param"], row["metric"], row["value"]) for row in payload["grid"]]
        assert values[0][2] > 0 > values[1][2]
        assert values == [(0.5, "variance", values[0][2]), (0.5, "income_factor", values[1][2]),
                          (1.5, "variance", None), (1.5, "income_factor", None)]
        reason = "ConfigError: use_param must be in (0, 1], got 1.5"
        assert payload["failures"] == [{"node": 1, "repetition": i, "reason": reason}
                                       for i in range(3)]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_sweep_refuses_threads_below_one_by_name(self, tmp_path, capsys, threads):
        config_text = MINIMAL + "\n[sweep]\naxes = alpha\nalpha = 0.25\nrepetitions = 1\n"
        config = write(tmp_path, config_text, "sweep.ini")
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "g"),
                     "--threads", threads])
        assert code == 1
        assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("argv, fields", [
        (["simulate", "--seed", "-1"], ("--seed",)),
        (["sweep", "--threads", "0"], ("--threads",)),
        (["bounds", "--states", "0", "--alphas", "1"], ("--states",)),
        (["bounds", "--states", "16", "--alphas", "0"], ("--alphas",)),
    ], ids=["seed", "threads", "states", "alphas"])
    def test_flag_refusals_carry_the_flag(self, tmp_path, argv, fields):
        """A field the model refuses as the command handed it over is mapped to its flag."""
        config = write(tmp_path, MINIMAL + "\n[sweep]\naxes = alpha\nalpha = 0.25\nrepetitions = 1\n")
        common = [] if argv[0] == "bounds" else ["--config", str(config)]
        args = specmarket.cli.build_parser().parse_args([*argv, *common, "--out", str(tmp_path / "o")])
        with pytest.raises(ConfigError) as refusal:
            specmarket.cli._COMMANDS[args.command](args)
        assert refusal.value.renamed(specmarket.cli._FLAGS).fields == fields
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
    def test_seed_outside_uint64_refused_by_the_flag(self, tmp_path, capsys, command, seed):
        """The refusal names ``--seed``, comes before the market runs and makes no ``--out``."""
        sweep_keys = "\n[sweep]\naxes = alpha\nalpha = 0.25\nrepetitions = 1\n"
        config = write(tmp_path, MINIMAL + (sweep_keys if command == "sweep" else ""))
        empirical = write(tmp_path, "2020-01-01,10\n2020-01-02,11\n2020-01-03,10.5\n", "px.csv")
        extra = ["--empirical", str(empirical)] if command == "compare" else []
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                     "--seed", seed, *extra])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: --seed must be an integer in [0, 2**64), got {seed}\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_json_format(self, tmp_path):
        config_text = MINIMAL + "\n[sweep]\naxes = alpha\nalpha = 0.25\nrepetitions = 2\n"
        config = write(tmp_path, config_text, "sweep.ini")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "g"),
                     "--format", "json"]) == 0
        payload = json.loads((tmp_path / "g" / "grid.json").read_text())
        assert payload["format"] == 1
        assert len(payload["grid"]) == 3
        assert payload["failures"] == []

    def test_bounds_json_format(self, tmp_path):
        assert main(["bounds", "--states", "64", "--alphas", "0.5,2", "--out",
                     str(tmp_path / "b"), "--format", "json"]) == 0
        payload = json.loads((tmp_path / "b" / "bounds.json").read_text())
        assert [b["alpha"] for b in payload["bounds"]] == [0.5, 2.0]

    def test_bounds_ordering(self, tmp_path):
        assert main(["bounds", "--states", "512",
                     "--alphas", "0.03125,0.0625,0.125,0.25,0.5,1,2,4,8",
                     "--out", str(tmp_path / "bounds")]) == 0
        rows = (tmp_path / "bounds" / "bounds.csv").read_text().splitlines()[3:]
        for row in rows:
            _, _, lower, heuristic, upper = row.split(",")
            assert float(lower) <= float(heuristic) + 1e-18 <= float(upper) + 2e-18

    def test_compare(self, tmp_path):
        rng = np.random.default_rng(6)
        closes = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=400)))
        import datetime

        day = datetime.date(1990, 1, 1)
        rows = []
        for close in closes:
            rows.append(f"{day.isoformat()},{float(close)!r}")
            day += datetime.timedelta(days=1)
        empirical = write(tmp_path, "\n".join(rows) + "\n", "emp.csv")
        config = self.write_config(tmp_path)
        assert main(["compare", "--config", str(config), "--empirical", str(empirical),
                     "--out", str(tmp_path / "cmp")]) == 0
        lines = (tmp_path / "cmp" / "compare_ccdf.csv").read_text().splitlines()
        assert lines[2] == "ccdf,model_x,empirical_x"
        assert len(lines) == 3 + 399  # one aligned row per compared return
        summary = json.loads((tmp_path / "cmp" / "compare_summary.json").read_text())
        assert summary["n_compared"] == 399

    def test_compare_model_too_short(self, tmp_path, capsys):
        import datetime

        day = datetime.date(1990, 1, 1)
        rows = []
        for i in range(3000):
            rows.append(f"{day.isoformat()},{100 + (i % 7)}")
            day += datetime.timedelta(days=1)
        empirical = write(tmp_path, "\n".join(rows) + "\n", "emp.csv")
        config = self.write_config(tmp_path, horizon=500)
        code = main(["compare", "--config", str(config), "--empirical", str(empirical),
                     "--out", str(tmp_path / "cmp")])
        assert code == 1
        assert "horizon" in capsys.readouterr().err

    def test_simulate_refuses_a_tiny_epsilon_by_name(self, tmp_path, capsys):
        """Non-finite returns end in an error naming epsilon, and no run.csv is written."""
        config = write(tmp_path, MINIMAL.replace("n_speculators = 64", "n_speculators = 2")
                       .replace("memory_bits = 4", "memory_bits = 1")
                       .replace("seed = 3", "seed = 4\nepsilon = 1e-300"))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: epsilon = 1e-300 is too small")
        assert not (tmp_path / "o" / "run.csv").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("mode = endogenous\nmemory_bits = 4", "mode = mixed\nendo_bits = 2\nexo_bits = 1\n"
                                               "exo_weights = 0.3, 0.3",
         "info.exo_weights must sum to 1 within 1e-12, got sum 0.6"),
        ("mode = endogenous\nmemory_bits = 4", "mode = exogenous\nweights = 0.3, 0.3",
         "info.weights must sum to 1 within 1e-12, got sum 0.6"),
        ("n_speculators = 64", "n_speculators = 0",
         "market.n_speculators must be a positive integer, got 0"),
        ("use_param = 0.5", "use_param = 1.5", "market.use_param must be in (0, 1], got 1.5"),
    ], ids=["mixed_weights", "exogenous_weights", "n_speculators", "use_param"])
    def test_simulate_refuses_a_config_by_its_key(self, tmp_path, capsys, old, new, message):
        config = write(tmp_path, MINIMAL.replace(old, new))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_simulate_refuses_record_agents_by_name(self, tmp_path, capsys):
        config = write(tmp_path, MINIMAL.replace("seed = 3", "seed = 3\nrecord_agents = true"))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == ("error: market.record_agents must be false: "
                                           "per-agent capitals are not recorded\n")
        assert not (tmp_path / "o").exists()

    def test_sweep_writes_a_mean_of_negative_income_factors(self, tmp_path):
        """configs/sweep.ini over alpha at horizon 4000: repetitions with a negative income
        factor at alpha = 1 and 2 still give a value, their arithmetic mean, in every cell."""
        text = (Path(__file__).parents[1] / "configs" / "sweep.ini").read_text()
        for old, new in (("horizon = 50000", "horizon = 4000"),
                         ("axes = alpha, use_param", "axes = alpha"),
                         ("use_param = 0.1, 0.3, 0.8\n", ""),
                         ("variance, kurtosis, reduction", "income_factor, gini, variance")):
            assert old in text
            text = text.replace(old, new)
        config = write(tmp_path, text, "sweep.ini")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "g")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "g" / "grid.csv").read_text().splitlines()[3:]]
        nodes = sweep.run_sweep(parse_sweep_spec(config))
        incomes = [[rep.metrics["income_factor"] for rep in node.reps] for node in nodes]
        assert [min(values) < 0 for values in incomes] == [False, False, True, True]
        assert [row[:2] + row[3:] for row in rows] == [
            [alpha, metric, "5"] for alpha in ("0.25", "0.5", "1.0", "2.0")
            for metric in ("income_factor", "gini", "variance")]
        assert [float(row[2]) for row in rows[::3]] == [float(np.mean(np.sort(values)))
                                                        for values in incomes]

    def test_simulate_refused_by_the_analysis_writes_no_file(self, tmp_path, capsys):
        """A horizon of 2 leaves one return, too few to analyze: exit 1 and an empty --out."""
        config = self.write_config(tmp_path, horizon=2)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "need at least 2 values" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def market_ini(self, tmp_path, **changes):
        """configs/market.ini with each ``key = value`` line of ``changes`` replaced."""
        text = (Path(__file__).parents[1] / "configs" / "market.ini").read_text()
        for key, (old, new) in changes.items():
            assert f"{key} = {old}\n" in text
            text = text.replace(f"{key} = {old}\n", f"{key} = {new}\n")
        return write(tmp_path, text)

    def test_simulate_too_short_names_the_horizon(self, tmp_path, capsys):
        """configs/market.ini at horizon 20 leaves 10 returns in the window, too few for the
        Hill fit: exit 1, an error naming the horizon and the estimator, and no --out."""
        config = self.market_ini(tmp_path, horizon=(60000, 20))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot analyze the 19 returns at horizon = 20: " in err
        assert "hill_fit_ks needs >= 100 positive values" in err
        assert not (tmp_path / "o").exists()

    def test_simulate_constant_returns_are_not_blamed_on_the_horizon(self, tmp_path, capsys):
        """At use_param = 1e-300 no order moves the price, so every return is 0: the refusal
        names the returns and the horizon without calling the horizon too short."""
        config = self.market_ini(tmp_path, horizon=(60000, 400), use_param=(0.8, 1e-300))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == ("error: cannot analyze the 399 returns at horizon = 400: "
                                           "cannot normalize a zero-variance sequence\n")
        assert not (tmp_path / "o").exists()

    def test_stats_too_short_names_the_input(self, tmp_path, capsys):
        """A run.csv of 3 rows holds 2 returns, whose window of 1 is too short to normalize."""
        run_csv = write(tmp_path, "# specmarket-format: 1\n# config-hash: 0123456789abcdef\n"
                                  "t,mu,tau,price,log_return\n0,0,,1.0,\n1,1,,1.25,0.1\n"
                                  "2,0,2,1.0,-0.1\n", "run.csv")
        code = main(["stats", "--input", str(run_csv), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: cannot analyze the 2 returns of --input "
                                           f"{run_csv}: need at least 2 values to normalize, "
                                           f"got 1\n")
        assert not (tmp_path / "o").exists()

    def write_empirical(self, tmp_path, closes):
        import datetime

        days = (datetime.date(1990, 1, 1) + datetime.timedelta(days=i) for i in range(len(closes)))
        return write(tmp_path, "".join(f"{day.isoformat()},{float(close)!r}\n"
                                       for day, close in zip(days, closes)), "emp.csv")

    def test_compare_too_short_names_the_empirical_file(self, tmp_path, capsys, monkeypatch):
        """A 3-row empirical file holds 2 returns, too few for the kurtosis; it is refused
        before the model runs."""
        empirical = self.write_empirical(tmp_path, [50.0, 51.0, 50.5])
        config = self.write_config(tmp_path)
        runs = []
        monkeypatch.setattr(specmarket.cli, "run", runs.append)
        code = main(["compare", "--config", str(config), "--empirical", str(empirical),
                     "--out", str(tmp_path / "cmp")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: cannot analyze the 2 returns of --empirical "
                                           f"{empirical}: kurtosis needs at least 4 values, "
                                           f"got 2\n")
        assert runs == []
        assert not (tmp_path / "cmp").exists()

    def test_compare_refused_model_window_names_the_horizon(self, tmp_path, capsys):
        """One endogenous speculator with one memory bit never moves the price: the model
        window has zero variance, and the error names the horizon."""
        rng = np.random.default_rng(6)
        empirical = self.write_empirical(
            tmp_path, 50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=400))))
        config = write(tmp_path, MINIMAL.replace("n_speculators = 64", "n_speculators = 1")
                       .replace("memory_bits = 4", "memory_bits = 1")
                       .replace("horizon = 500", "horizon = 4000"))
        code = main(["compare", "--config", str(config), "--empirical", str(empirical),
                     "--out", str(tmp_path / "cmp")])
        assert code == 1
        assert capsys.readouterr().err == ("error: cannot analyze the model's 399 returns at "
                                           "horizon = 4000: cannot normalize a zero-variance "
                                           "sequence\n")
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("horizon", [797, 798])
    def test_compare_needs_a_horizon_of_twice_the_empirical_returns(self, tmp_path, capsys,
                                                                    monkeypatch, horizon):
        """A horizon T keeps T // 2 post-transient returns, so 2n is the shortest that
        compares n = 399 empirical returns; 2n - 1 is refused, naming 2n, before the model runs."""
        rng = np.random.default_rng(6)
        empirical = self.write_empirical(
            tmp_path, 50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=400))))
        runs = []
        monkeypatch.setattr(specmarket.cli, "run",
                            lambda config, **options: runs.append(config) or run(config, **options))
        code = main(["compare", "--config", str(self.write_config(tmp_path, horizon=horizon)),
                     "--empirical", str(empirical), "--out", str(tmp_path / "cmp")])
        if horizon == 797:
            assert code == 1 and runs == []
            assert capsys.readouterr().err == (
                "error: model has 398 post-transient returns but the empirical series has 399; "
                "increase market.horizon to at least 798\n")
            assert not (tmp_path / "cmp").exists()
        else:
            assert code == 0 and len(runs) == 1
            summary = json.loads((tmp_path / "cmp" / "compare_summary.json").read_text())
            assert summary["n_compared"] == 399

    @pytest.mark.parametrize("states, alphas", [("20000", "1e-18"), ("0", "1"),
                                                ("99999999999999999999", "1")])
    def test_bounds_checks_the_states_first(self, tmp_path, capsys, states, alphas):
        """A dimension out of range is named by its flag, not as an alpha whose N_s overflows."""
        code = main(["bounds", "--states", states, "--alphas", alphas,
                     "--out", str(tmp_path / "b")])
        assert code == 1
        assert capsys.readouterr().err == f"error: --states must be in [1, 16384], got {states}\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("sweep_keys, message", [
        ("axes = alpha\nalpha = 0.25\nmetrics =\n", "metrics must name at least one metric"),
        ("axes = alpha\nalpha = 0.25\nmetrics = variance variance\n", "metric variance is named twice"),
        ("axes = use_param\nuse_param = 0.5, 0.5\n", "axis use_param lists the value 0.5 twice"),
        ("axes = n_states\nn_states = 8, 8.0\n", "axis n_states lists the value 8 twice"),
    ])
    def test_sweep_refuses_rows_no_reader_can_tell_apart(self, tmp_path, capsys, sweep_keys, message):
        config = write(tmp_path, MINIMAL + "\n[sweep]\nrepetitions = 1\n" + sweep_keys, "sweep.ini")
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "g")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_missing_input_is_error_exit(self, tmp_path, capsys):
        code = main(["stats", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "c.ini", "--out", "o", "--format", "json"],
        ["stats", "--input", "run.csv", "--out", "o", "--format", "json"],
        ["stats", "--input", "run.csv", "--out", "o", "--seed", "3"],
        ["bounds", "--states", "4", "--alphas", "1", "--out", "o", "--seed", "3"],
        ["compare", "--config", "c.ini", "--empirical", "e.csv", "--out", "o", "--format", "csv"],
    ], ids=["simulate_format", "stats_format", "stats_seed", "bounds_seed", "compare_format"])
    def test_removed_flags_are_usage_errors(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_readme_flag_table_matches_the_parser(self):
        """Each row of the README's ``| Command | Flags |`` table lists the ``--`` flags that
        ``build_parser`` declares for its command, a flag with choices as ``--flag {a,b}``."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("| Command | Flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for row in table.splitlines():
            command, flags = re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups()
            documented[command] = sorted(re.findall(r"`(--[\w-]+(?: \{[^}]*\})?)`", flags))
        commands = next(action.choices for action in specmarket.cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        declared = {
            name: sorted(f"{option} {{{','.join(action.choices)}}}" if action.choices else option
                         for action in sub._actions for option in action.option_strings
                         if option.startswith("--") and option != "--help")
            for name, sub in commands.items()
        }
        assert documented == declared

    @pytest.mark.parametrize("alphas, line", [
        ("1,nan", "--alphas: alpha must be positive and finite, got nan"),
        ("1,inf", "--alphas: alpha must be positive and finite, got inf"),
        ("", "--alphas must list at least one value"),
        (" , ", "--alphas must list at least one value"),
        ("1,1e-200", "--alphas: alpha = 1e-200 gives N_s = D / alpha = 1.6e+201 at D = 16, which does "
                     "not fit a 64-bit integer; alpha must exceed D / 2**63"),
        ("1e-320", "--alphas: alpha = 1e-320 gives N_s = D / alpha = inf at D = 16, which does not "
                   "fit a 64-bit integer; alpha must exceed D / 2**63"),
        ("0", "--alphas: alpha must be positive and finite, got 0.0"),
        ("nan", "--alphas: alpha must be positive and finite, got nan"),
    ], ids=["1,nan-alpha", "1,inf-alpha", "---alphas", " , ---alphas", "1,1e-200-alpha",
            "1e-320-alpha", "0-alpha", "nan-alpha"])
    def test_bounds_bad_alphas_fail_by_name(self, tmp_path, capsys, alphas, line):
        code = main(["bounds", "--states", "16", "--alphas", alphas, "--out", str(tmp_path / "b")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "b").exists()


README = Path(__file__).parents[1] / "README.md"
CONFIGS = Path(__file__).parents[1] / "configs"


def test_readme_config_examples_parse_as_the_shipped_configs(tmp_path):
    """The README's ``[market]``/``[info]`` example is ``configs/market.ini``'s config, and its
    ``[sweep]`` example, after that market example, has ``configs/sweep.ini``'s axes,
    repetitions and metrics."""
    market, grid = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert parse_market_config(write(tmp_path, market)) == parse_market_config(CONFIGS / "market.ini")
    spec = parse_sweep_spec(write(tmp_path, market + "\n" + grid))
    shipped = parse_sweep_spec(CONFIGS / "sweep.ini")
    assert (spec.axes, spec.repetitions, spec.metrics) == (shipped.axes, shipped.repetitions,
                                                           shipped.metrics)


def test_readme_pointers_resolve():
    """Every backticked ``specmarket.<module>[.<name>]`` of the README, a trailing ``()``
    stripped, is a module of the package and, with a name, an attribute of it."""
    pointers = re.findall(r"`(specmarket(?:\.\w+)+)(?:\(\))?`", README.read_text())
    assert pointers
    for pointer in pointers:
        _, module, *names = pointer.split(".")
        target = importlib.import_module(f"specmarket.{module}")
        for name in names:
            assert hasattr(target, name), f"README points at {pointer}, which does not exist"
            target = getattr(target, name)


#: the README table, pinned as ``GOLDEN_CLI["bounds_d512"]``
BOUNDS_D512 = ["bounds", "--states", "512", "--alphas", "0.03125,0.0625,0.125,0.25,0.5,1,2,4,8"]


class TestRepeatedMain:
    """Calls of ``main`` in one process are independent: no call leaves an option for the next."""

    def test_format_does_not_carry_over(self, tmp_path):
        assert main(BOUNDS_D512 + ["--format", "json", "--out", str(tmp_path / "j")]) == 0
        assert main(BOUNDS_D512 + ["--out", str(tmp_path / "c")]) == 0
        assert file_digests((tmp_path / "j").iterdir()) == GOLDEN_CLI["bounds_d512_json"]
        assert file_digests((tmp_path / "c").iterdir()) == GOLDEN_CLI["bounds_d512"]

    def test_seed_does_not_carry_over(self, tmp_path):
        config = write(tmp_path, MINIMAL)
        assert main(["simulate", "--config", str(config), "--seed", "1234",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        assert parse_market_config(tmp_path / "a" / "config.ini").seed == 1234
        assert parse_market_config(tmp_path / "b" / "config.ini").seed == 3

    def test_usage_error_leaves_nothing_behind(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--alphas", "1", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert "--states" in capsys.readouterr().err
        assert main(BOUNDS_D512 + ["--out", str(tmp_path / "c")]) == 0
        assert file_digests((tmp_path / "c").iterdir()) == GOLDEN_CLI["bounds_d512"]
        assert not (tmp_path / "bad").exists()


def test_import_loads_no_process_pool_or_subprocess():
    """Nothing imports a process pool, and only a cold kernel build imports
    subprocess, so importing the CLI in a fresh process loads neither."""
    env = {**os.environ, "PYTHONPATH": str(Path(specmarket.io.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", "import sys, specmarket.cli; "
                           "print(sorted({'concurrent.futures', 'subprocess'} & set(sys.modules)))"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


COMMANDS_WITHOUT_MASKED_ARRAYS = """
import sys
from specmarket.cli import main
out, market, sweep, empirical = sys.argv[1:]
for argv in (["simulate", "--config", market, "--out", out + "/sim"],
             ["stats", "--input", out + "/sim/run.csv", "--out", out + "/stats"],
             ["compare", "--config", market, "--empirical", empirical, "--out", out + "/cmp"],
             ["bounds", "--states", "64", "--alphas", "0.5,2", "--out", out + "/b"],
             ["sweep", "--config", sweep, "--out", out + "/g"]):
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_no_command_loads_numpy_ma(tmp_path):
    """Every command in one fresh process leaves ``numpy.ma`` unimported. ``simulate`` on
    ``configs/market.ini`` fits a window of more returns than the default cutoff grid."""
    market_ini = Path(__file__).parents[1] / "configs" / "market.ini"
    returns = parse_market_config(market_ini).horizon - 1
    assert returns - returns // 2 > specmarket.stats.DEFAULT_MAX_CUTOFFS + 10
    sweep = write(tmp_path, MINIMAL + "\n[sweep]\naxes = alpha\nalpha = 0.25\nrepetitions = 1\n",
                  "sweep.ini")
    closes = 50.0 * np.exp(np.cumsum(np.random.default_rng(6).normal(0, 0.01, size=400)))
    empirical = write(tmp_path, "".join(f"{np.datetime64('1990-01-01') + i},{float(c)!r}\n"
                                        for i, c in enumerate(closes)), "emp.csv")
    env = {**os.environ, "PYTHONPATH": str(Path(specmarket.io.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", COMMANDS_WITHOUT_MASKED_ARRAYS, str(tmp_path),
                           str(market_ini), str(sweep), str(empirical)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
