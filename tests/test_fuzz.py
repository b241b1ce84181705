"""Fuzzed input files: the file readers raise only ``DataFormatError`` naming the file,
the market INI parser only ``SpecmarketError``, and what they accept is valid.

Each reader gets arbitrary bytes and one-field mutations of a valid file: one
comma-separated cell of ``run.csv``, one cell of an empirical date/close file,
one value of a market INI or one value of a sweep INI's ``[sweep]`` section is
replaced by a hostile token, arbitrary text, a number or arbitrary bytes. A
``ConfigError`` from a mutated market or sweep INI carries a ``section.key`` of the
file, or the ``[section]`` header of a section it holds, among its fields. A refusal of a
missing key may carry instead a key that a section the file holds requires: a mutation
such as ``4\n[sweep]`` moves the keys after it into another section. A simulated
``run.csv`` with one tau changed is refused by that row's number.
"""

import configparser
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from specmarket import Endogenous, MarketConfig, run
from specmarket.errors import ConfigError, DataFormatError, SpecmarketError
from specmarket.io import (_REQUIRED_MARKET_KEYS, FORMAT_VERSION, _to_word, _to_words,
                           load_empirical, parse_market_config, parse_sweep_spec, read_run_csv,
                           write_run_csv)
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


def taus_from_mus(mus) -> list:
    """Each row's steps since its mu last occurred, 0 at a first occurrence."""
    last, taus = {}, []
    for t, mu in enumerate(mus.tolist()):
        taus.append(t - last[mu] if mu in last else 0)
        last[mu] = t
    return taus


def run_csv_loaded(data):
    assert data["mus"].dtype == data["taus"].dtype == np.int64
    assert np.all(data["mus"] >= 0) and np.all(data["taus"] >= 0)
    assert data["taus"].tolist() == taus_from_mus(data["mus"])
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
    """``path`` is read into a valid value, or refused with an allowed error, which is returned.

    A ``DataFormatError`` names ``path``.
    """
    read, allowed, check = READERS[reader]
    try:
        loaded = read(path)
    except allowed as exc:
        if isinstance(exc, DataFormatError):
            assert str(path) in str(exc)
        return exc
    check(loaded)
    return None


#: the [info] keys that each mode calls for
INFO_MODE_KEYS = {
    "endogenous": ("memory_bits",),
    "exogenous": ("distribution", "states", "rate"),
    "mixed": ("endo_bits", "exo_bits", "exo_distribution", "exo_states", "exo_rate"),
}


def required_keys(parser) -> dict:
    """The keys each section of ``parser`` requires: the fields of ``MarketConfig`` without a
    default, [info]'s ``mode`` and the keys of that mode, and [sweep]'s ``axes`` and each axis
    it lists."""
    mode = _to_word(parser["info"].get("mode", "")) if "info" in parser else ""
    axes = _to_words(parser["sweep"].get("axes", "")) if "sweep" in parser else ()
    return {"market": _REQUIRED_MARKET_KEYS, "info": ("mode", *INFO_MODE_KEYS.get(mode, ())),
            "sweep": ("axes", *axes)}


def ini_names(path) -> set:
    """Every ``section.key`` of the INI file at ``path``, every ``[section]`` header, and the
    ``section.key`` of each key that one of its sections requires."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(path.read_text(encoding="utf-8"))
    required = required_keys(parser)
    return {name for section in parser.sections()
            for name in (f"[{section}]", *(f"{section}.{key}" for key in
                                           (*parser[section], *required.get(section, ()))))}


def assert_ini_named(reader, path):
    """The INI at ``path`` is loaded or refused as ``assert_loaded_or_refused`` allows
    ``reader``, and one of the fields a ``ConfigError`` carries is one of its ``ini_names``."""
    refusal = assert_loaded_or_refused(reader, path)
    if isinstance(refusal, ConfigError):
        names = ini_names(path)
        assert names.intersection(refusal.fields), f"{refusal} carries {refusal.fields}, none of {names}"


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


#: the cells of ``RUN_CSV`` that hold the only content valid there: each row's t
#: and the empty log return of row 1 (t = 0)
FIXED_CELLS = [(3 + row, 0) for row in range(4)] + [(3, 4)]


def in_cell(value: bytes) -> bool:
    """``value`` stays one cell of its line and does not make the line a comment."""
    text = value.decode(errors="replace")
    return "," not in text and len(f"x{text}x".splitlines()) == 1 and not text.startswith("#")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cell=st.sampled_from(FIXED_CELLS), value=VALUES.filter(in_cell))
def test_run_csv_fixed_cell_mutations_refused(input_file, cell, value):
    line, column = cell
    assume(value != RUN_CSV.splitlines()[line].split(",")[column].encode())
    input_file.write_bytes(mutate_cell(RUN_CSV, cell, value))
    with pytest.raises(DataFormatError, match=re.escape(str(input_file))):
        read_run_csv(input_file)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cell=st.sampled_from(csv_cells(EMPIRICAL)), value=VALUES)
def test_empirical_cell_mutations(input_file, cell, value):
    input_file.write_bytes(mutate_cell(EMPIRICAL, cell, value))
    assert_loaded_or_refused("empirical", input_file)


#: each (info, line) of the market INIs that holds a value
MARKET_VALUES = [(info, i) for info in sorted(MARKET_INIS)
                 for i in ini_values(MARKET + MARKET_INIS[info])]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(line=st.sampled_from(MARKET_VALUES), value=VALUES)
@example(line=("endogenous", 2), value=b"4\n[sweep]")  # n_producers: the later keys move to [sweep]
def test_market_ini_value_mutations(input_file, line, value):
    info, index = line
    input_file.write_bytes(mutate_value(MARKET + MARKET_INIS[info], index, value))
    assert_ini_named("market_ini", input_file)


@pytest.mark.parametrize("info", sorted(MARKET_INIS))
def test_market_ini_token_mutations_named(input_file, info):
    """Each value of the market INI set to each of ``TOKENS`` in turn."""
    text = MARKET + MARKET_INIS[info]
    for index, token in product(ini_values(text), TOKENS):
        input_file.write_bytes(mutate_value(text, index, token.encode()))
        assert_ini_named("market_ini", input_file)


#: the lines of ``SWEEP`` that hold a value of its [sweep] section
SWEEP_VALUES = [i for i in ini_values(SWEEP) if i > SWEEP.splitlines().index("[sweep]")]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(index=st.sampled_from(SWEEP_VALUES), value=VALUES)
@example(index=SWEEP_VALUES[0], value=b"alpha, n_speculators, use_param, n_producers")  # no values
def test_sweep_ini_value_mutations(input_file, index, value):
    input_file.write_bytes(mutate_value(SWEEP, index, value))
    assert_ini_named("sweep_ini", input_file)


@pytest.mark.parametrize("extra", ["", "n_states = 8, 16\n"], ids=["sweep", "with_n_states"])
def test_sweep_ini_token_mutations_named(input_file, extra):
    """Each [sweep] value set to each of ``TOKENS``, and to the value of another of its keys,
    in turn; ``with_n_states`` also holds the key of an axis that ``axes`` may come to list."""
    text = SWEEP + extra
    others = [line.split(" = ")[1] for line in SWEEP.splitlines()[SWEEP_VALUES[0]:]]
    for index, token in product(SWEEP_VALUES, (*TOKENS, *others, "alpha, alpha", "n_states")):
        input_file.write_bytes(mutate_value(text, index, token.encode()))
        assert_ini_named("sweep_ini", input_file)


@pytest.fixture(scope="module")
def simulated_run_csv(tmp_path_factory):
    """The lines of a simulated run.csv: 200 rows, states that recur at many distances."""
    config = MarketConfig(n_speculators=16, use_param=0.5, info_mode=Endogenous(3), horizon=200,
                          seed=4)
    path = write_run_csv(tmp_path_factory.mktemp("run") / "run.csv", "0123456789abcdef", run(config))
    return path.read_text().splitlines()


def with_tau(lines: list, row: int, tau: str) -> str:
    """``lines`` with the tau cell of data row ``row`` (t = row - 1) set to ``tau``."""
    lines = list(lines)
    cells = lines[2 + row].split(",")
    assert cells[0] == str(row - 1)
    cells[2] = tau
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_simulated_run_csv_loads(input_file, simulated_run_csv):
    input_file.write_text("\n".join(simulated_run_csv) + "\n")
    data = read_run_csv(input_file)
    assert data["mus"].size == 200 and np.count_nonzero(data["taus"]) > 150
    run_csv_loaded(data)


def test_tau_raised_by_one_refused_by_row(input_file, simulated_run_csv):
    tau = simulated_run_csv[2 + 51].split(",")[2]
    input_file.write_text(with_tau(simulated_run_csv, 51, str(int(tau or 0) + 1)))
    with pytest.raises(DataFormatError, match=rf"{re.escape(str(input_file))}: row 51: tau must be"):
        read_run_csv(input_file)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(row=st.integers(1, 200), tau=st.one_of(st.just(""), st.integers(1, 400).map(str)))
def test_any_changed_tau_refused_by_row(input_file, simulated_run_csv, row, tau):
    assume(tau != simulated_run_csv[2 + row].split(",")[2])
    input_file.write_text(with_tau(simulated_run_csv, row, tau))
    got = tau or "an empty tau"
    with pytest.raises(DataFormatError,
                       match=rf"{re.escape(str(input_file))}: row {row}: tau .*, got {got}$"):
        read_run_csv(input_file)
