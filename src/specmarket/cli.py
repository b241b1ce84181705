"""Command-line workflows: simulate, sweep, stats, bounds, compare."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytics, io, sweep
from .errors import ConfigError, SpecmarketError, analyzing
from .market import check_seed, run


def _add_common(parser):
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmarket",
        description="Speculative-market simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one market and write its artifact files")
    _add_common(p)

    p = sub.add_parser("sweep", help="run a parameter grid and write node aggregates")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="grid.csv or grid.json")
    p.add_argument("--threads", type=int, default=None,
                   help="threads that run the cells, capped at the usable CPUs "
                        "(default: the CPUs this process may run on)")

    p = sub.add_parser("stats", help="re-analyze a stored run.csv")
    p.add_argument("--input", required=True, help="run.csv produced by simulate")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("bounds", help="emit the analytic variance-bound table")
    p.add_argument("--states", type=int, required=True, help="strategy-space dimension D")
    p.add_argument("--alphas", required=True,
                   help="comma-separated alpha = D/N_s values, e.g. 0.03125,0.0625,...,8")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="bounds.csv or bounds.json")

    p = sub.add_parser("compare", help="overlay a model run with an empirical daily series")
    _add_common(p)
    p.add_argument("--empirical", required=True, help="two-column date/close text file")
    return parser


def _seeded(config, args):
    """``config`` with the seed of ``--seed``, where one is given; a seed outside [0, 2**64) is
    refused before anything runs."""
    if args.seed is None:
        return config
    check_seed(args.seed)
    return replace(config, seed=args.seed)


def cmd_simulate(args) -> int:
    """Run the market and write its artifact to ``--out``.

    A ``run`` follower writes run.csv while the market steps, under a temporary
    name in ``--out`` or, before that exists, its nearest existing ancestor, on
    whose filesystem any directory made under it lies; ``write_run_artifact``
    renames the file into place. A refused run or analysis removes it.
    """
    config = _seeded(io.parse_market_config(args.config), args)
    outdir = Path(args.out)
    home = next(path for path in (outdir, *outdir.parents) if path.is_dir())
    partial = home / f".run-{os.urandom(8).hex()}.csv.tmp"
    chash = io.config_hash(config)
    try:
        record = run(config, lambda record, counts: io.write_run_csv(partial, chash, record, counts),
                     capital=False)
        files = io.write_run_artifact(outdir, config, record, run_csv=partial)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    print(f"wrote {len(files)} files to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    spec = io.parse_sweep_spec(args.config)
    spec = replace(spec, base=_seeded(spec.base, args))
    nodes = sweep.run_sweep(spec, workers=args.threads)  # refuses --threads before any cell runs
    outdir = Path(args.out)
    chash = io.config_hash(spec.base)

    names = (*(axis.name for axis in spec.axes), "metric", "value", "n_runs")
    rows = []  # one per node and metric; NaN where the node failed
    for node in nodes:
        aggregates = node.aggregates
        rows += [(*node.coords.values(), metric,
                  math.nan if aggregates is None else aggregates[metric], node.n_success)
                 for metric in spec.metrics]
    if args.format == "json":
        payload = {
            "config_hash": chash, "base_seed": spec.base.seed, "repetitions": spec.repetitions,
            "grid": [dict(zip(names, row), value=row[-2] if math.isfinite(row[-2]) else None)
                     for row in rows],
            "failures": [
                {"node": node.index, "repetition": i, "reason": rep.error}
                for node in nodes for i, rep in enumerate(node.reps) if rep.error
            ],
        }
        io.write_json(outdir / "grid.json", payload)
    else:
        columns = list(zip(*rows))
        empty = [None] * (len(names) - 2) + [~np.isfinite(columns[-2]), None]
        io.write_columns(outdir / "grid.csv", ("config-hash", chash), names, columns, empty)
    n_failed = sum(1 for node in nodes for rep in node.reps if rep.error)
    print(f"sweep: {len(nodes)} nodes x {spec.repetitions} repetitions, {n_failed} failed")
    return 0


def cmd_stats(args) -> int:
    data = io.read_run_csv(args.input)
    with analyzing(f"the {data['returns'].size} returns of --input {args.input}"):
        io.write_analysis(args.out, data["config_hash"], data["returns"])
    print(f"stats: analyzed {io.post_transient(data['returns']).size} post-transient returns "
          f"from {args.input}")
    return 0


def cmd_bounds(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError:
        raise SpecmarketError(f"--alphas must be comma-separated numbers, got {args.alphas!r}")
    if not alphas:
        raise SpecmarketError("--alphas must list at least one value")
    curve = analytics.variance_curve(args.states, alphas)  # refuses --states before --alphas
    outdir = Path(args.out)
    if args.format == "json":
        io.write_json(outdir / "bounds.json",
                      {"states": args.states, "bounds": [vars(b) for b in curve]})
    else:
        rows = [(b.alpha, analytics.speculators_at(args.states, b.alpha), b.lower, b.heuristic,
                 b.upper) for b in curve]
        io.write_columns(outdir / "bounds.csv", ("states", args.states),
                         ("alpha", "n_speculators", "lower", "heuristic", "upper"), list(zip(*rows)))
    print(f"bounds: {len(curve)} alpha values at D = {args.states}")
    return 0


def cmd_compare(args) -> int:
    config = _seeded(io.parse_market_config(args.config), args)
    emp_returns = io.load_empirical(args.empirical).log_returns()
    with analyzing(f"the {emp_returns.size} returns of --empirical {args.empirical}"):
        emp = io.analyze_returns(emp_returns)
    model_size = config.horizon // 2  # post_transient's share of the horizon's T - 1 returns
    if model_size < emp_returns.size:
        raise SpecmarketError(
            f"model has {model_size} post-transient returns but the empirical series has "
            f"{emp_returns.size}; increase market.horizon to at least {2 * emp_returns.size}"
        )

    # the same length as the empirical series, for a fair comparison
    window = io.post_transient(run(config, capital=False).returns)[: emp_returns.size]
    with analyzing(f"the model's {window.size} returns at horizon = {config.horizon}"):
        model = io.analyze_returns(window)
    outdir = Path(args.out)
    chash = io.config_hash(config)
    tag = ("config-hash", chash)
    io.write_columns(outdir / "compare_ccdf.csv", tag,
                     ("ccdf", "model_x", "empirical_x"),
                     (model.ccdf.probabilities, model.ccdf.values, emp.ccdf.values))
    max_lag = min(model.autocorr.size, emp.autocorr.size) - 1
    io.write_columns(outdir / "compare_autocorr.csv", tag,
                     ("lag", "model_autocorr", "empirical_autocorr"),
                     (np.arange(max_lag + 1), model.autocorr[: max_lag + 1], emp.autocorr[: max_lag + 1]))
    summary = {
        "config_hash": chash,
        "n_compared": int(emp_returns.size),
        "model": model.summary(),
        "empirical": emp.summary(),
    }
    io.write_json(outdir / "compare_summary.json", summary)
    print(f"compare: {emp_returns.size} returns per curve")
    return 0


#: the flag for each field a command hands to the model as given; the model states each range once
_FLAGS = {"seed": "--seed", "workers": "--threads", "dimension": "--states",
          "alpha": ("--alphas", ": alpha")}

_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "stats": cmd_stats,
    "bounds": cmd_bounds,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpecmarketError, OSError) as exc:
        print(f"error: {exc.renamed(_FLAGS) if isinstance(exc, ConfigError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
