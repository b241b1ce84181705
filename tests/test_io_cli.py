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

import specmarket.io
from specmarket import Endogenous, Exogenous, MarketConfig, Mixed, run, uniform_weights
from specmarket import sweep
from specmarket.cli import main
from specmarket.errors import ConfigError, DataFormatError
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
        ("axes = use_param, use_param\nuse_param = 0.2, 0.8\n", "^axis use_param is named twice$"),
        ("axes = alpha, n_states\nalpha = 0.5\nn_states = 8\n",
         "^axes alpha and n_states both set the state count"),
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

    @pytest.mark.parametrize("agents, info, field", [
        (64, "mode = exogenous\ndistribution = uniform\nstates = 100000000000", "info.states"),
        (64, "mode = mixed\nendo_bits = 1\nexo_bits = 2\nexo_distribution = exp\n"
             "exo_rate = 0.1\nexo_states = 100000000000", "info.exo_states"),
        # one agent keeps the strategy table at 4 GiB, within the cap; the
        # float64 weights alone would take 32 GiB
        (1, "mode = exogenous\ndistribution = uniform\nstates = 4294967296", "info.states"),
        (1, "mode = mixed\nendo_bits = 1\nexo_bits = 32\nexo_distribution = exp\n"
            "exo_rate = 0.1\nexo_states = 4294967296", "info.exo_states"),
    ], ids=["exogenous", "mixed", "exogenous_weights", "mixed_weights"])
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
        """A tau above 2**53 reads back as the int64 written, not rounded through float64."""
        path = tmp_path / "run.csv"
        path.write_text(f"# specmarket-format: {FORMAT_VERSION}\n# config-hash: x\n"
                        f"t,mu,tau,price,log_return\n0,1,,1.0,\n1,1,{2**53 + 1},1.0,0.0\n")
        taus = read_run_csv(path)["taus"]
        assert taus.dtype == np.int64 and taus.tolist() == [0, 2**53 + 1]

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
        assert (tmp_path / "s" / "ccdf.csv").read_bytes() == (tmp_path / "a" / "ccdf.csv").read_bytes()

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

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_sweep_refuses_threads_below_one_by_name(self, tmp_path, capsys, threads):
        config_text = MINIMAL + "\n[sweep]\naxes = alpha\nalpha = 0.25\nrepetitions = 1\n"
        config = write(tmp_path, config_text, "sweep.ini")
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "g"),
                     "--threads", threads])
        assert code == 1
        assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_sweep_refuses_seed_outside_uint64_by_name(self, tmp_path, capsys, seed):
        config_text = MINIMAL + "\n[sweep]\naxes = alpha\nalpha = 0.25\nrepetitions = 1\n"
        config = write(tmp_path, config_text, "sweep.ini")
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "g"), "--seed", seed])
        assert code == 1
        assert f"seed must be an integer in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

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

    def test_simulate_too_short_names_the_horizon(self, tmp_path, capsys):
        """configs/market.ini at horizon 20 leaves 10 returns in the window, too few for the
        Hill fit: exit 1, an error naming the horizon and the estimator, and no --out."""
        market_ini = Path(__file__).parents[1] / "configs" / "market.ini"
        text = market_ini.read_text()
        assert "horizon = 60000\n" in text
        config = write(tmp_path, text.replace("horizon = 60000\n", "horizon = 20\n"))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "horizon = 20 is too short to analyze" in err
        assert "hill_fit_ks needs >= 100 positive values" in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("alphas, named", [
        ("1,nan", "alpha"), ("1,inf", "alpha"), ("", "--alphas"), (" , ", "--alphas"),
        ("1,1e-200", "alpha"), ("1e-320", "alpha"),
    ])
    def test_bounds_bad_alphas_fail_by_name(self, tmp_path, capsys, alphas, named):
        code = main(["bounds", "--states", "16", "--alphas", alphas, "--out", str(tmp_path / "b")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


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
