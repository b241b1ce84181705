"""Fuzzed input files: the file readers raise only ``DataFormatError`` naming the file,
the market INI parser only ``SpecmarketError``, and what they accept is valid.

Each reader gets arbitrary bytes and one-field mutations of a valid file: one
comma-separated cell of ``run.csv``, one cell of an empirical date/close file,
one value of a market INI or one value of a sweep INI's ``[sweep]`` section is
replaced by a hostile token, arbitrary text, a number or arbitrary bytes.
"""

import re
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specmarket.errors import ConfigError, DataFormatError, SpecmarketError
from specmarket.io import (FORMAT_VERSION, load_empirical, parse_market_config, parse_sweep_spec,
                           read_run_csv)
from specmarket.market import validate_config
from specmarket.sweep import INTEGER_AXES, node_config

RUN_CSV = f"""\
# specmarket-format: {FORMAT_VERSION}
# config-hash: 0123456789abcdef
t,mu,tau,price,log_return
0,3,,1.25,
1,1,,0.8,-0.19382002601611284
2,3,2,1.1,0.13830269816628146
3,1,2,0.95,-0.06367165686080942
"""

EMPIRICAL = """\
Date,Close
2020-01-02,3257.85
2020-01-03,3234.85
2020-01-06,3246.28
2020-01-07,3237.18
"""

MARKET_INIS = {
    "endogenous": "mode = endogenous\nmemory_bits = 4\n",
    "exogenous": "mode = exogenous\ndistribution = exp\nstates = 16\nrate = 0.2\n",
    "weights": "mode = exogenous\nweights = 0.1, 0.2, 0.3, 0.4\n",
    "mixed": "mode = mixed\nendo_bits = 1\nexo_bits = 2\nexo_distribution = uniform\nexo_states = 4\n",
}
MARKET = """\
[market]
n_speculators = 64
n_producers = 4
producer_kind = random
use_param = 0.5
epsilon = 1e-10
horizon = 500
seed = 3
record_agents = false

[info]
"""
SWEEP = MARKET + MARKET_INIS["endogenous"] + """
[sweep]
axes = alpha, n_speculators, use_param
alpha = 0.25, 0.5
n_speculators = 32, 64
use_param = 0.1, 0.8
repetitions = 2
metrics = variance, tail_exponent
"""

#: values that sit on an edge of some field's grammar or range
TOKENS = ("", " ", "-3", "0", "-0", "1", "1.5", "+7", " 7 ", "1_000", "0x10", "1e3",
          "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "5e-324",
          str(2**63 - 1), str(2**63), str(-2**63 - 1), "99999999999999999999",
          "9" * 5000, "²", "١٢", "true", "uniform", "exp", "mixed", "endogenous",
          "\x00", ",", "=", "#", "[market]", "[info]", "2020-01-02", "2019-12-31")

#: a cell or value: a token, arbitrary text, a number or arbitrary bytes. Integers
#: stay small enough that a mutated state count allocates a few MB at most.
VALUES = st.one_of(
    st.sampled_from(TOKENS).map(str.encode),
    st.text(max_size=12).map(str.encode),
    st.integers(-2**20, 2**20).map(lambda i: str(i).encode()),
    st.floats().map(lambda x: repr(x).encode()),
    st.binary(min_size=1, max_size=4),
)


def csv_cells(text: str) -> list:
    """(line, cell) of every comma-separated cell of ``text``."""
    lines = text.splitlines()
    return [(i, j) for i, line in enumerate(lines) for j in range(len(line.split(",")))]


def mutate_cell(text: str, cell: tuple, value: bytes) -> bytes:
    lines = [line.encode().split(b",") for line in text.splitlines()]
    i, j = cell
    lines[i][j] = value
    return b"\n".join(b",".join(cells) for cells in lines) + b"\n"


def ini_values(text: str) -> list:
    return [i for i, line in enumerate(text.splitlines()) if " = " in line]


def mutate_value(text: str, index: int, value: bytes) -> bytes:
    lines = [line.encode() for line in text.splitlines()]
    lines[index] = lines[index].split(b" = ")[0] + b" = " + value
    return b"\n".join(lines) + b"\n"


def run_csv_loaded(data):
    taus = data["taus"][~np.isnan(data["taus"])]
    assert np.all(data["mus"] >= 0)
    assert np.all(taus >= 1) and np.all(taus == np.floor(taus))
    assert np.all(np.isfinite(data["prices"]) & (data["prices"] > 0))
    assert np.all(np.isfinite(data["returns"]))


def empirical_loaded(series):
    assert np.all(np.isfinite(series.closes) & (series.closes > 0))
    assert all(a < b for a, b in zip(series.dates, series.dates[1:]))


def sweep_loaded(spec):
    """A valid spec: every node config is built, or refused with a ``ConfigError``."""
    spec.validate()
    validate_config(spec.base)
    names = [axis.name for axis in spec.axes]
    assert all(type(v) is int for axis in spec.axes if axis.name in INTEGER_AXES for v in axis.values)
    for values in product(*(axis.values for axis in spec.axes)):
        try:
            node_config(spec.base, dict(zip(names, values)))
        except ConfigError:
            pass


#: each reader, the errors it may raise, and a check of what it returns
READERS = {
    "run_csv": (read_run_csv, DataFormatError, run_csv_loaded),
    "empirical": (load_empirical, DataFormatError, empirical_loaded),
    "market_ini": (parse_market_config, SpecmarketError, validate_config),
    "sweep_ini": (parse_sweep_spec, SpecmarketError, sweep_loaded),
}


def assert_loaded_or_refused(reader, path):
    """``path`` is read into a valid value, or refused with an allowed error.

    A ``DataFormatError`` names ``path``.
    """
    read, allowed, check = READERS[reader]
    try:
        loaded = read(path)
    except allowed as exc:
        if isinstance(exc, DataFormatError):
            assert str(path) in str(exc)
    else:
        check(loaded)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def test_valid_inputs_load(input_file):
    """The files the mutations start from are accepted as they are."""
    input_file.write_text(RUN_CSV)
    assert read_run_csv(input_file)["mus"].tolist() == [3, 1, 3, 1]
    input_file.write_text(EMPIRICAL)
    assert load_empirical(input_file).closes.size == 4
    for info in MARKET_INIS.values():
        input_file.write_text(MARKET + info)
        assert parse_market_config(input_file).n_agents == 68
    input_file.write_text(SWEEP)
    assert [axis.name for axis in parse_sweep_spec(input_file).axes] == ["alpha", "n_speculators",
                                                                         "use_param"]


@pytest.mark.parametrize("reader", READERS)
def test_non_utf8_refused_by_file(input_file, reader):
    input_file.write_bytes(b"\xff\xfe" + MARKET.encode())
    with pytest.raises(DataFormatError, match=rf"{re.escape(str(input_file))}.*UTF-8"):
        READERS[reader][0](input_file)


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.binary(max_size=200))
def test_arbitrary_bytes(input_file, reader, data):
    input_file.write_bytes(data)
    assert_loaded_or_refused(reader, input_file)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cell=st.sampled_from(csv_cells(RUN_CSV)), value=VALUES)
def test_run_csv_cell_mutations(input_file, cell, value):
    input_file.write_bytes(mutate_cell(RUN_CSV, cell, value))
    assert_loaded_or_refused("run_csv", input_file)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cell=st.sampled_from(csv_cells(EMPIRICAL)), value=VALUES)
def test_empirical_cell_mutations(input_file, cell, value):
    input_file.write_bytes(mutate_cell(EMPIRICAL, cell, value))
    assert_loaded_or_refused("empirical", input_file)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), info=st.sampled_from(sorted(MARKET_INIS)), value=VALUES)
def test_market_ini_value_mutations(input_file, data, info, value):
    text = MARKET + MARKET_INIS[info]
    index = data.draw(st.sampled_from(ini_values(text)))
    input_file.write_bytes(mutate_value(text, index, value))
    assert_loaded_or_refused("market_ini", input_file)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(index=st.sampled_from([i for i in ini_values(SWEEP) if i > SWEEP.splitlines().index("[sweep]")]),
       value=VALUES)
def test_sweep_ini_value_mutations(input_file, index, value):
    input_file.write_bytes(mutate_value(SWEEP, index, value))
    assert_loaded_or_refused("sweep_ini", input_file)
