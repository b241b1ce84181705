"""Config files, run artifacts, and empirical price-series ingestion.

Configs are flat INI files with one section per concern, so diffs stay
reviewable. Every emitted artifact carries a format version and the hash of
the resolved config; re-running from the echoed config reproduces the files
byte for byte. Model output and empirical data go through the same estimator
pipeline so their statistics are directly comparable.
"""

from __future__ import annotations

import configparser
import ctypes
import datetime
import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import _kernel
from .errors import ConfigError, DataFormatError, DegenerateInputError, SampleSizeError
from .market import (
    Endogenous,
    Exogenous,
    MarketConfig,
    Mixed,
    SimulationRecord,
    check_market_size,
    exponential_weights,
    uniform_weights,
    validate_config,
)
from .sweep import SweepAxis, SweepSpec
from . import stats
from .stats import post_transient

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _read_text(path) -> str:
    """The UTF-8 text of ``path``; ``DataFormatError`` naming it where it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(_read_text(path), source=str(path))
    except configparser.Error as exc:
        raise DataFormatError(f"config parse error in {path}: {exc}") from exc
    return parser


def _get(section, key, convert, where):
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"{where}.{key} is required")
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc


def _to_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}")


def _to_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}")


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _to_word(raw: str) -> str:
    return raw.strip().lower()


def _to_words(raw: str) -> tuple:
    """Items of a list separated by commas and/or whitespace."""
    return tuple(p for chunk in raw.split(",") for p in chunk.split())


def _to_floats(raw: str) -> np.ndarray:
    return np.array([_to_float(p) for p in _to_words(raw)])


_MARKET_KEYS = {
    "n_speculators": _to_int, "n_producers": _to_int, "producer_kind": _to_word,
    "use_param": _to_float, "epsilon": _to_float, "horizon": _to_int, "seed": _to_int,
}
_REQUIRED_MARKET_KEYS = {f.name for f in fields(MarketConfig) if f.default is MISSING}
_INFO_KEYS = {
    "mode", "memory_bits", "distribution", "states", "rate", "weights",
    "endo_bits", "exo_bits", "exo_distribution", "exo_states", "exo_rate", "exo_weights",
}
_SWEEP_KEYS = {"repetitions": _to_int, "metrics": _to_words}


def _reject_unknown(parser, section, known):
    if section not in parser:
        return
    unknown = set(parser[section]).difference(known)
    if unknown:
        raise ConfigError(f"unknown key {section}.{sorted(unknown)[0]}")


def _parse_weights(section, prefix, n_agents):
    """Common weight-vector grammar: explicit list or a named distribution."""
    w_key = f"{prefix}weights"
    d_key = f"{prefix}distribution"
    if section.get(w_key) is not None:
        if section.get(d_key) is not None:
            raise ConfigError(f"info.{w_key} and info.{d_key} are mutually exclusive")
        return _get(section, w_key, _to_floats, "info")
    dist = _get(section, d_key, _to_word, "info")
    states = _get(section, f"{prefix}states", _to_int, "info")
    check_market_size(states, n_agents, f"info.{prefix}states")
    if dist == "uniform":
        return uniform_weights(states)
    if dist == "exp":
        rate = _get(section, f"{prefix}rate", _to_float, "info")
        return exponential_weights(rate, states, f"info.{prefix}rate")
    raise ConfigError(f"info.{d_key} must be 'uniform' or 'exp', got {dist!r}")


def parse_info_mode(parser: configparser.ConfigParser, n_agents: int):
    """The [info] section's information mode, for a market of ``n_agents`` agents."""
    if "info" not in parser:
        raise ConfigError("info section is required")
    section = parser["info"]
    _reject_unknown(parser, "info", _INFO_KEYS)
    mode = _get(section, "mode", _to_word, "info")
    if mode == "endogenous":
        return Endogenous(_get(section, "memory_bits", _to_int, "info"))
    if mode == "exogenous":
        return Exogenous(_parse_weights(section, "", n_agents))
    if mode == "mixed":
        return Mixed(
            endo_bits=_get(section, "endo_bits", _to_int, "info"),
            exo_bits=_get(section, "exo_bits", _to_int, "info"),
            exo_weights=_parse_weights(section, "exo_", n_agents),
        )
    raise ConfigError(f"info.mode must be endogenous, exogenous or mixed, got {mode!r}")


def parse_market_config(path) -> MarketConfig:
    """Parse a market config file; unknown keys are rejected.

    Keys left out of [market] take the defaults of :class:`MarketConfig`.
    """
    return _parse_market(_read_ini(path))


def _parse_market(parser: configparser.ConfigParser) -> MarketConfig:
    if "market" not in parser:
        raise ConfigError("market section is required")
    for name in parser.sections():
        if name not in ("market", "info", "sweep"):
            raise ConfigError(f"unknown section [{name}]")
    _reject_unknown(parser, "market", {*_MARKET_KEYS, "record_agents"})
    section = parser["market"]
    if "record_agents" in section and _get(section, "record_agents", _to_bool, "market"):
        raise ConfigError("market.record_agents must be false: per-agent capitals are not recorded")
    config = MarketConfig(info_mode=None, **{
        key: _get(section, key, convert, "market")
        for key, convert in _MARKET_KEYS.items()
        if key in section or key in _REQUIRED_MARKET_KEYS
    })
    # the agent count, defaults applied, bounds the state count before any weights are built
    config = replace(config, info_mode=parse_info_mode(parser, config.n_agents))
    validate_config(config)
    return config


def parse_sweep_spec(path) -> SweepSpec:
    """Parse a sweep config: the market sections plus a [sweep] section.

    Keys left out of [sweep] take the defaults of :class:`SweepSpec`.
    """
    parser = _read_ini(path)
    base = _parse_market(parser)
    if "sweep" not in parser:
        raise ConfigError("sweep section is required")
    section = parser["sweep"]
    axis_names = _get(section, "axes", _to_words, "sweep")
    _reject_unknown(parser, "sweep", {"axes", *_SWEEP_KEYS, *axis_names})
    axes = tuple(SweepAxis(name, tuple(_get(section, name, _to_floats, "sweep").tolist()))
                 for name in axis_names)
    spec = SweepSpec(base=base, axes=axes, **{
        key: _get(section, key, convert, "sweep")
        for key, convert in _SWEEP_KEYS.items() if key in section
    })
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# config emission
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    return repr(float(x))


#: the text of a [market] value, by the converter of ``_MARKET_KEYS`` that reads it back
_FORMATS = {_to_int: str, _to_float: _format_float, _to_word: str}


def emit_config(config: MarketConfig) -> str:
    """Resolved config as INI text; parsing it back reproduces the config."""
    lines = ["[market]"]
    lines += [f"{key} = {_FORMATS[convert](getattr(config, key))}"
              for key, convert in _MARKET_KEYS.items()]
    # format 1 echoes this key, so every config hash keeps its bytes; the line goes when the
    # benchmark's pinned digests move
    lines += ["record_agents = false", "", "[info]"]
    mode = config.info_mode
    if isinstance(mode, Endogenous):
        lines += ["mode = endogenous", f"memory_bits = {mode.memory_bits}"]
    elif isinstance(mode, Exogenous):
        lines.append("mode = exogenous")
        lines += _emit_weights(mode.weights, "")
    else:
        lines += ["mode = mixed", f"endo_bits = {mode.endo_bits}", f"exo_bits = {mode.exo_bits}"]
        lines += _emit_weights(mode.exo_weights, "exo_")
    return "\n".join(lines) + "\n"


def _emit_weights(weights: np.ndarray, prefix: str) -> list:
    w = np.asarray(weights)
    if np.array_equal(w, uniform_weights(w.size)):  # what "uniform" parses back to
        return [f"{prefix}distribution = uniform", f"{prefix}states = {w.size}"]
    return [f"{prefix}weights = " + ", ".join(_format_float(v) for v in w)]


def config_hash(config: MarketConfig) -> str:
    return hashlib.sha256(emit_config(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# analysis pipeline shared by model runs and empirical series
# ---------------------------------------------------------------------------

@dataclass
class ReturnsAnalysis:
    """Estimator bundle over one window of returns, std-normalized."""

    n: int
    kurtosis: float
    tail: stats.TailFit
    ccdf: stats.CcdfCurve
    autocorr: np.ndarray

    def summary(self) -> dict:
        return {"n": self.n, "kurtosis": self.kurtosis, "tail": asdict(self.tail)}


def analyze_returns(returns: np.ndarray) -> ReturnsAnalysis:
    """The single estimator path: normalize, rank-order, Hill fit, autocorrelate (to lag 1000)."""
    normalized = stats.normalize_by_std(returns)
    magnitudes = np.abs(normalized)
    max_lag = min(1000, normalized.size - 2)
    return ReturnsAnalysis(
        n=int(normalized.size),
        kurtosis=stats.kurtosis(normalized),
        tail=stats.hill_fit_ks(magnitudes),
        ccdf=stats.ccdf_rank_ordered(magnitudes),
        autocorr=stats.autocorr_abs(normalized, max_lag),
    )


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

#: rows formatted per write in ``write_columns``; it caps the bytes held at once
_CHUNK_ROWS = 1 << 13

#: cell kinds of the C row writer, and the longest cell of each: repr of a
#: float64 ("-2.2250738585072014e-308") and str of an int64
_FLOAT, _INT = 0, 1
_WIDTH = {_FLOAT: 24, _INT: 20}


def _header(key: str, value) -> str:
    return f"# specmarket-format: {FORMAT_VERSION}\n# {key}: {value}\n"


def _cells(column, empty=None) -> list:
    """Cell strings of one column: repr for floats, str for anything else, "" where ``empty``."""
    data = np.asarray(column)
    text = list(map(repr if data.dtype.kind == "f" else str, data.tolist()))
    if empty is not None:
        for i in np.flatnonzero(empty):
            text[i] = ""
    return text


def _writer_columns(columns) -> Optional[list]:
    """``(kind, values)`` of each column for the C row writer; None if one does not fit it.

    Floats of up to 64 bits become float64 and integers that fit become int64,
    whose cells the writer formats as ``_cells`` would.
    """
    prepared = []
    for column in columns:
        data = np.asarray(column)
        if data.dtype.kind == "f" and data.dtype.itemsize <= 8:
            prepared.append((_FLOAT, np.ascontiguousarray(data, dtype=np.float64)))
        elif data.dtype.kind in "iu" and np.can_cast(data.dtype, np.int64):
            prepared.append((_INT, np.ascontiguousarray(data, dtype=np.int64)))
        else:
            return None
    return prepared


def _write_rows(lib, fh, prepared, empty, n_rows: int) -> None:
    """Write the rows of ``_writer_columns`` output, with ``empty`` as in ``write_columns``
    but contiguous, to binary ``fh``: one C writer call per chunk."""
    n_cols = len(prepared)
    kinds = (ctypes.c_int64 * n_cols)(*(kind for kind, _ in prepared))
    pointers = ctypes.c_void_p * n_cols
    buffer = np.empty(min(n_rows, _CHUNK_ROWS) * (n_cols + sum(_WIDTH[kind] for kind in kinds)),
                      dtype=np.uint8)
    for start in range(0, n_rows, _CHUNK_ROWS):
        values = pointers(*(data.ctypes.data + data.itemsize * start for _, data in prepared))
        masks = pointers(*(None if mask is None else mask.ctypes.data + start for mask in empty))
        written = lib.specmarket_write_rows(min(_CHUNK_ROWS, n_rows - start), n_cols, kinds,
                                            values, masks, buffer.ctypes.data)
        fh.write(buffer[:written])


def write_columns(path, tag: tuple, names, columns, empty=None) -> Path:
    """Write a specmarket CSV: format header, ``# key: value`` tag line, column names, rows.

    ``tag`` is ``("config-hash", hash)`` for the outputs of a config and
    ``("states", D)`` for the analytic bounds. ``columns`` are equal-length
    arrays or sequences; ``empty``, if given, holds a bool mask of that length,
    or None, per column. Cells are ``repr`` of floats, ``str`` of anything else
    and empty where their mask is set. The C row writer of ``_kernel.c``
    writes a table of float and integer columns in chunks of ``_CHUNK_ROWS``
    rows; ``_cells`` formats any other table, and every table where that
    library cannot be loaded.
    """
    empty = [None if mask is None else np.ascontiguousarray(mask, dtype=bool)
             for mask in ([None] * len(columns) if empty is None else empty)]
    lengths = [len(x) for x in (*columns, *empty) if x is not None]
    if len(empty) != len(columns):
        raise ValueError(f"{len(empty)} masks for {len(columns)} columns")
    if len(set(lengths)) > 1:
        raise ValueError(f"columns and masks of unequal lengths {lengths}")
    n_rows = lengths[0]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lib = _kernel.library()
    prepared = _writer_columns(columns) if lib else None
    with open(path, "wb") as fh:
        fh.write((_header(*tag) + ",".join(names) + "\n").encode())
        if prepared:
            _write_rows(lib, fh, prepared, empty, n_rows)
        else:
            for start in range(0, n_rows, _CHUNK_ROWS):
                chunk = slice(start, start + _CHUNK_ROWS)
                cells = [_cells(column[chunk], None if mask is None else mask[chunk])
                         for column, mask in zip(columns, empty)]
                fh.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode())
    return path


def write_json(path, payload: dict) -> Path:
    """Write ``payload`` and the format version as sorted, indented JSON with a trailing newline.

    The JSON is strict: a NaN or infinite value raises ``ValueError``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"format": FORMAT_VERSION, **payload}, sort_keys=True, indent=2,
                               allow_nan=False) + "\n")
    return path


def write_analysis(outdir, chash: str, returns: np.ndarray) -> dict:
    """Analyze the post-transient window of ``returns``; write ccdf.csv, autocorr.csv, summary.json.

    The reduction ratio compares the first 10 return magnitudes against the
    window. Returns the written paths keyed ``ccdf``, ``autocorr`` and ``summary``.
    """
    return _write_analysis(outdir, *_analyze(chash, returns, {}))


def _analyze(chash: str, returns: np.ndarray, extra: dict) -> tuple:
    """The analysis of ``write_analysis`` and its summary payload, computed before any file is written."""
    window = post_transient(returns)
    analysis = analyze_returns(window)
    summary = {
        "config_hash": chash,
        "variance": float(np.var(window)),
        "reduction": stats.reduction_ratio(returns),
        "analysis": analysis.summary(),
        **extra,
    }
    return analysis, summary


def _write_analysis(outdir, analysis: ReturnsAnalysis, summary: dict) -> dict:
    outdir = Path(outdir)
    tag = ("config-hash", summary["config_hash"])
    return {
        "ccdf": write_columns(outdir / "ccdf.csv", tag, ("x", "ccdf"),
                              (analysis.ccdf.values, analysis.ccdf.probabilities)),
        "autocorr": write_columns(outdir / "autocorr.csv", tag, ("lag", "autocorr"),
                                  (np.arange(analysis.autocorr.size), analysis.autocorr)),
        "summary": write_json(outdir / "summary.json", summary),
    }


def write_run_csv(path, chash: str, record: SimulationRecord) -> Path:
    """Write a record's run.csv, the file ``read_run_csv`` reads back.

    Rows are t, mu, tau, price and log return; tau is empty where the state had
    not occurred before, and the log return is empty at t = 0.
    """
    t = np.arange(len(record.prices))
    return write_columns(
        path, ("config-hash", chash), ("t", "mu", "tau", "price", "log_return"),
        (t, record.mus, record.taus, record.prices, np.concatenate(([0.0], record.returns))),
        empty=(None, None, record.taus == 0, None, t == 0))


def write_run_artifact(outdir, config: MarketConfig, record: SimulationRecord) -> dict:
    """Write run.csv, ccdf.csv, autocorr.csv, surprise.csv, summary.json, config.ini.

    For a horizon of T steps, the return statistics are computed on the
    post-transient window, as in ``write_analysis``: returns (T - 1) // 2 onward.
    The surprise statistics use steps T // 2 onward, whose recurrences pair with
    returns T // 2 onward, so for an even T the return window holds one more return.
    Every statistic is computed before the first file is written, so a run the
    analysis refuses leaves no file; the error, of the analysis's class, names
    the horizon.
    """
    chash = config_hash(config)
    extra = {"seed": config.seed}
    half = len(record.prices) // 2
    tail_rec = SimulationRecord(
        prices=record.prices[half:], returns=record.returns[half:],
        mus=record.mus[half:], taus=record.taus[half:],
        mean_spec_capital=record.mean_spec_capital[half:],
        final_spec_capitals=record.final_spec_capitals,
    )
    try:
        surprise = stats.surprise_stats(tail_rec)
    except (SampleSizeError, DegenerateInputError):  # e.g. no state recurs in the window
        surprise = None
    if surprise is not None:
        corr = surprise.log_correlation
        extra["surprise"] = {"log_correlation": corr if math.isfinite(corr) else None}
        if surprise.tau_tail is not None:
            extra["surprise"].update({
                "tau_ccdf_exponent": surprise.tau_tail.exponent,
                "tau_density_exponent": surprise.tau_tail.exponent + 1.0,
                "tau_ks_distance": surprise.tau_tail.ks_distance,
                "tau_n_tail": surprise.tau_tail.n_tail,
            })
    try:
        analysis, summary = _analyze(chash, record.returns, extra)
    except (SampleSizeError, DegenerateInputError) as exc:
        raise type(exc)(f"horizon = {config.horizon} is too short to analyze: {exc}") from exc

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = ("config-hash", chash)
    files = {"config": outdir / "config.ini"}
    files["config"].write_text(_header(*tag) + emit_config(config))
    files["run"] = write_run_csv(outdir / "run.csv", chash, record)
    if surprise is not None:
        files["surprise"] = write_columns(
            outdir / "surprise.csv", tag, ("tau_bin", "mean_abs_return", "count"),
            (surprise.bin_centers, surprise.bin_means, surprise.bin_counts))
    files.update(_write_analysis(outdir, analysis, summary))
    return files


def _reject_rows(path, values: np.ndarray, valid: np.ndarray, first_row: int, rule: str) -> None:
    """Raise ``DataFormatError`` naming the first row whose value breaks ``rule``.

    ``values[i]`` is read from data row ``first_row + i``.
    """
    bad = np.flatnonzero(~valid)
    if bad.size:
        i = int(bad[0])
        raise DataFormatError(f"{path}: row {i + first_row}: {rule}, got {float(values[i])!r}")


def read_run_csv(path) -> dict:
    """Read back a run.csv; refuses files with an unknown format version.

    A row whose t is not its index, whose mu is not an integer in [0, 2**63),
    whose tau is not empty or a positive integer below 2**63, whose price is
    not finite and positive, or whose log return is not finite (empty at
    t = 0) is refused by its number. An empty tau, a state's first
    occurrence, reads as 0.
    """
    lines = _read_text(path).splitlines()
    if not lines or not lines[0].startswith("# specmarket-format:"):
        raise DataFormatError(f"{path}: missing format header; not a specmarket file?")
    version = lines[0].split(":", 1)[1].strip()
    if version != str(FORMAT_VERSION):
        raise DataFormatError(f"{path}: unknown format version {version!r}")
    has_hash = len(lines) > 1 and lines[1].startswith("# config-hash:")
    chash = lines[1].split(":", 1)[1].strip() if has_hash else ""
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = body[0].split(",") if body else []
    if header != ["t", "mu", "tau", "price", "log_return"]:
        raise DataFormatError(f"{path}: unexpected columns {header}")
    n = len(body) - 1
    if n < 1:
        raise DataFormatError(f"{path}: no data rows after the column header")
    prices = np.empty(n)
    mus = np.empty(n, dtype=np.int64)
    taus = np.zeros(n, dtype=np.int64)
    returns = np.empty(n - 1)
    for i, line in enumerate(body[1:]):
        parts = line.split(",")
        if len(parts) != 5:
            raise DataFormatError(f"{path}: row {i + 1}: expected 5 fields, got {len(parts)}")
        try:
            if parts[0] != str(i):
                raise ValueError(f"t must be the row's index {i}, got {parts[0]!r}")
            mu = int(parts[1])
            if not 0 <= mu < 1 << 63:
                raise ValueError(f"mu must be an integer in [0, 2**63), got {parts[1]!r}")
            mus[i] = mu
            if parts[2]:
                tau = int(parts[2]) if parts[2].isdigit() else 0
                if tau <= 0:
                    raise ValueError(f"tau must be a positive integer, got {parts[2]!r}")
                if tau >= 1 << 63:
                    raise ValueError(f"tau must be below 2**63, got {parts[2]!r}")
                taus[i] = tau
            prices[i] = float(parts[3])
            if i > 0:
                returns[i - 1] = float(parts[4])
            elif parts[4]:
                raise ValueError(f"log_return must be empty at t = 0, got {parts[4]!r}")
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {i + 1}: {exc}") from exc
    _reject_rows(path, prices, np.isfinite(prices) & (prices > 0), 1,
                 "price must be finite and positive")
    _reject_rows(path, returns, np.isfinite(returns), 2, "log_return must be finite")
    return {"config_hash": chash, "prices": prices, "mus": mus, "taus": taus, "returns": returns}


# ---------------------------------------------------------------------------
# empirical series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalSeries:
    dates: tuple
    closes: np.ndarray

    def log_returns(self) -> np.ndarray:
        return np.diff(np.log10(self.closes))


_DATE_FORMATS = ("%Y-%m-%d", "%Y%m%d", "%Y.%m.%d", "%Y/%m/%d", "%m/%d/%Y")


def _parse_date(token: str) -> Optional[datetime.date]:
    for fmt in _DATE_FORMATS:
        try:
            return datetime.datetime.strptime(token, fmt).date()
        except ValueError:
            continue
    return None


def load_empirical(path) -> EmpiricalSeries:
    """Load a two-column (date, close) text file; header lines are tolerated.

    Dates must be strictly increasing and closes finite and positive;
    violations are reported with their row number.
    """
    text = _read_text(path)
    dates, closes = [], []
    started = False
    for row, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p for chunk in line.split(",") for p in chunk.split()]
        if len(parts) < 2:
            if started:
                raise DataFormatError(f"{path}: row {row}: expected date and close, got {line!r}")
            continue
        date = _parse_date(parts[0])
        if date is None:
            if started:
                raise DataFormatError(f"{path}: row {row}: unparseable date {parts[0]!r}")
            continue  # header tolerance: skip leading non-data lines
        started = True
        try:
            close = float(parts[1])
        except ValueError:
            raise DataFormatError(f"{path}: row {row}: unparseable close {parts[1]!r}") from None
        if not (math.isfinite(close) and close > 0):
            raise DataFormatError(f"{path}: row {row}: close must be finite and positive, "
                                  f"got {close}")
        if dates and date <= dates[-1]:
            raise DataFormatError(f"{path}: row {row}: dates must be strictly increasing")
        dates.append(date)
        closes.append(close)
    if len(closes) < 2:
        raise DataFormatError(f"{path}: fewer than 2 data rows")
    return EmpiricalSeries(dates=tuple(dates), closes=np.array(closes))
