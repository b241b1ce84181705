"""The benchmark workloads.

Each workload makes its inputs from the workload seed in ``store_input``
and ``prepare``, runs one operation through an entry point a user calls in ``op``, and in ``check``
returns a sha256 digest of the operation's output together with a list of
violated model invariants. The runner compares digests with the run's first
operation (replay) and, at ``DEFAULT_SEED``, with the digests pinned in
``digests.json``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io as _stdio
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

from specmarket import cli, io, market, sweep
from specmarket.market import Endogenous, MarketConfig

#: the seed whose outputs are pinned; it is also the seed of configs/market.ini
DEFAULT_SEED = 5

BOUNDS_ALPHAS = "0.03125,0.0625,0.125,0.25,0.5,1,2,4,8"
SCAN_ALPHAS = (0.25, 0.5, 1.0, 2.0)
SCAN_REPETITIONS = 2
REANALYZE_HORIZON = 200_000

#: |sum(money) - N_s| and |sum(stocks) - N_s| allowed per speculator; the
#: epsilon regularizer moves the totals by about 1e-10 per step
CONSERVATION_TOL = 1e-6


class CliError(RuntimeError):
    pass


def run_cli(argv):
    """``specmarket <argv>`` in this process; raises when it exits nonzero."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise CliError(f"specmarket {argv[0]} exited {status}: {err.getvalue().strip()}")


def digest_files(directory):
    """sha256 over the names and contents of every file in ``directory``."""
    h = hashlib.sha256()
    files = sorted(p for p in Path(directory).iterdir() if p.is_file())
    if not files:
        raise CliError(f"no output files in {directory}")
    for path in files:
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def csv_rows(path):
    """Data rows of a specmarket CSV: comment lines and the column header dropped."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _finite_positive(x):
    return math.isfinite(x) and x > 0.0


class MarketCapture:
    """Keeps every market state ``market.run`` creates, to check invariants after the op.

    It wraps ``market.new_market`` for the whole run, traced or not, so both
    modes pay the same single extra call per market.
    """

    def __init__(self):
        self.states = []
        self._original = None

    def __enter__(self):
        original = self._original = market.new_market
        states = self.states

        @functools.wraps(original)
        def new_market(config):
            state = original(config)
            states.append(state)
            return state

        market.new_market = new_market
        return self

    def __exit__(self, *exc):
        market.new_market = self._original

    def problems(self):
        """Invariants of every captured market that has finished its run."""
        out = []
        for state in self.states:
            cfg = state.config
            where = f"market seed={cfg.seed} N_s={cfg.n_speculators} D={cfg.n_states}"
            if not _finite_positive(state.last_price):
                out.append(f"{where}: price {state.last_price!r} is not finite and positive")
            spec_money = state.money[cfg.n_producers:]
            spec_stocks = state.stocks[cfg.n_producers:]
            if not (all(map(math.isfinite, (spec_money.min(), spec_stocks.min())))
                    and spec_money.min() >= 0.0 and spec_stocks.min() >= 0.0):
                out.append(f"{where}: negative or non-finite holdings")
            if cfg.n_producers == 0:
                tol = CONSERVATION_TOL * cfg.n_speculators
                for name, total in (("money", spec_money.sum()), ("stocks", spec_stocks.sum())):
                    if not abs(total - cfg.n_speculators) <= tol:
                        out.append(f"{where}: total {name} {total!r} != {cfg.n_speculators}")
        self.states.clear()
        return out


class Workload:
    name = ""

    def __init__(self, root, workdir, seed):
        self.root = Path(root)
        self.work = Path(workdir)
        self.seed = seed
        self.out = self.work / "out"

    def store_input(self):
        """Write the input files the operation reads; once per run, part of set-up."""

    def prepare(self):
        """Parse the config and build the operation's arguments; part of set-up."""

    def op(self):
        raise NotImplementedError

    def check(self):
        """(digest, problems) of the last operation's output."""
        raise NotImplementedError

    def clear_output(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def phase_config(self) -> MarketConfig:
        """The market the phase sample steps through."""
        return self.market_ini()

    def market_ini(self) -> MarketConfig:
        return replace(io.parse_market_config(self.root / "configs" / "market.ini"), seed=self.seed)


def _run_csv_problems(path):
    problems = []
    for i, row in enumerate(csv_rows(path)):
        price = float(row[3])
        if not _finite_positive(price):
            problems.append(f"{path.name} row {i}: price {price!r} is not finite and positive")
            break
    return problems


class Simulate(Workload):
    name = "simulate"

    def prepare(self):
        self.argv = ["simulate", "--config", str(self.root / "configs" / "market.ini"),
                     "--seed", str(self.seed), "--out", str(self.out)]

    def op(self):
        run_cli(self.argv)

    def check(self):
        return digest_files(self.out), _run_csv_problems(self.out / "run.csv")


class AlphaScan(Workload):
    name = "alpha_scan"

    def prepare(self):
        self.base = MarketConfig(n_speculators=256, use_param=0.5, info_mode=Endogenous(5),
                                 horizon=2000, seed=self.seed)

    def clear_output(self):
        self.rows = None

    def op(self):
        self.rows = sweep.alpha_scan(self.base, SCAN_ALPHAS, repetitions=SCAN_REPETITIONS)

    def check(self):
        problems = []
        for row in self.rows:
            if row["n_success"] != SCAN_REPETITIONS:
                problems.append(f"{row['variant']} alpha={row['alpha']}: "
                                f"{SCAN_REPETITIONS - row['n_success']} failed cells")
            values = [row[k] for k in ("variance", "kurtosis", "income_factor", "gini")]
            if not all(map(math.isfinite, values)):
                problems.append(f"{row['variant']} alpha={row['alpha']}: non-finite metric")
        payload = json.dumps(self.rows, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest(), problems

    def phase_config(self):
        producers = replace(self.base, n_producers=16, producer_kind="random")
        return sweep.node_config(producers, {"alpha": 1.0})


class Reanalyze(Workload):
    name = "reanalyze"

    def store_input(self):
        config = replace(self.market_ini(), horizon=REANALYZE_HORIZON)
        files = io.write_run_artifact(self.work / "input", config, market.run(config))
        self.input = files["run"]
        self.input_problems = _run_csv_problems(self.input)

    def prepare(self):
        self.argv = ["stats", "--input", str(self.input), "--out", str(self.out)]

    def op(self):
        run_cli(self.argv)

    def check(self):
        problems = list(self.input_problems)
        summary = json.loads((self.out / "summary.json").read_text())
        if not _finite_positive(summary["variance"]):
            problems.append(f"summary variance {summary['variance']!r} is not finite and positive")
        autocorr = csv_rows(self.out / "autocorr.csv")
        if float(autocorr[0][1]) != 1.0:
            problems.append("autocorr.csv does not start at 1")
        return digest_files(self.out), problems


class Bounds(Workload):
    name = "bounds"

    def prepare(self):
        self.argv = ["bounds", "--states", "512", "--alphas", BOUNDS_ALPHAS, "--out", str(self.out)]

    def op(self):
        run_cli(self.argv)

    def check(self):
        problems = []
        for row in csv_rows(self.out / "bounds.csv"):
            lower, heuristic, upper = map(float, row[2:5])
            if not (math.isfinite(upper) and 0.0 <= lower <= heuristic <= upper):
                problems.append(f"alpha={row[0]}: bounds {lower!r}, {heuristic!r}, {upper!r} out of order")
        return digest_files(self.out), problems


WORKLOADS = {w.name: w for w in (Simulate, AlphaScan, Reanalyze, Bounds)}
