"""specmarket benchmark: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload simulate --seed 5 --seconds 10 --trace 0

Run it from the root of a specmarket checkout; the program is imported from
``src/`` there. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics. The last line of
standard output is the result; the line before it records the run: the
environment, every operation's time and every failure. See README.md.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

#: thread caps for BLAS and OpenMP, set before numpy loads; recorded with every result
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

#: glibc's mmap threshold, fixed at its largest value before numpy loads. By
#: default it adapts to the sizes freed so far, and the peak RSS of the same
#: work then differs by up to 6 MB from run to run.
MMAP_THRESHOLD = 32 << 20


def fix_mmap_threshold():
    """The fixed threshold, or None where the C library has no glibc ``mallopt``."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    return MMAP_THRESHOLD if mallopt(-3, MMAP_THRESHOLD) == 1 else None  # -3: M_MMAP_THRESHOLD


MALLOC_SETTING = {"M_MMAP_THRESHOLD": fix_mmap_threshold()}

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("simulate", "alpha_scan", "reanalyze", "bounds")

#: config parsing and the warm-up op are repeated this many times in an
#: untraced run and their median reported; stored input is written once
SETUP_REPEATS = 3
#: fewest timed operations in a run, however short ``--seconds``
MIN_OPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="specmarket benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Verdict:
    """Output checks of every operation: invariants, replay of the first op, pinned digest."""

    def __init__(self, pinned):
        self.pinned = pinned
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.setup_failures = []
        self.failures = []

    def problems(self, workload, capture, error=None):
        if error is not None:
            capture.states.clear()
            return [error]
        try:
            digest, problems = workload.check()
        except (OSError, ValueError, LookupError, RuntimeError) as exc:  # workloads.CliError is a RuntimeError
            capture.states.clear()
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems += capture.problems()
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append(f"output {digest[:16]} differs from the first op's {self.first[:16]}")
        if self.pinned is not None and digest != self.pinned:
            problems.append(f"output {digest[:16]} differs from the pinned {self.pinned[:16]}")
        return problems

    def count(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems[:3])

    @property
    def correct(self):
        return self.failed == 0 and not self.setup_failures


def set_up(workload, repeats, capture, verdict, sampler):
    """Store the input once, then prepare and run the warm-up op ``repeats`` times.

    Returns the input time, and the time of each repeat (less the sampler's
    handler time) with the host speed over it.
    """
    start = time.perf_counter()
    workload.store_input()
    input_s = time.perf_counter() - start
    verdict.setup_failures += capture.problems()
    times, speeds = [], []
    for _ in range(repeats):
        workload.clear_output()
        start = time.perf_counter()
        with sampler:
            workload.prepare()
            workload.op()
        times.append(time.perf_counter() - start - sampler.spent_s)
        speeds.append(sampler.speed())
        verdict.setup_failures += verdict.problems(workload, capture)
    return input_s, times, speeds


def timed_ops(workload, seconds, capture, verdict, sampler=None, tracer=None):
    """Operations for ``seconds`` (at least MIN_OPS).

    Returns their times, the host speed over each when a sampler is given
    (its handler time is left out of the times), and their layer metrics when
    a tracer is given.
    """
    from spans import op_metrics

    times, speeds, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        workload.clear_output()
        error = None
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("op") as root:
                    workload.op()
            elif sampler is not None:
                with sampler:
                    workload.op()
            else:
                workload.op()
        except Exception:  # a failed op is counted, and the run goes on
            error = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
        elapsed = time.perf_counter() - start
        if sampler is not None:
            elapsed -= sampler.spent_s
            speeds.append(sampler.speed())
        times.append(elapsed)
        if tracer is not None:
            spans = tracer.take()
            if error is None:
                layers.append(op_metrics(spans, root))
        verdict.count(verdict.problems(workload, capture, error))
    return times, speeds, layers


def tail(times):
    """(seconds, percentile) of the highest percentile with at least ten ops beyond it."""
    n = len(times)
    if n < 11:
        return None, None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def run_workload(args, work, import_s, modules):
    import envinfo
    import probe
    import workloads
    from calibrate import SpeedSampler
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    pins = json.loads((HERE / "digests.json").read_text())
    pinned = pins["digests"][args.workload] if args.seed == pins["seed"] else None
    verdict = Verdict(pinned)
    capture = workloads.MarketCapture()
    sampler = SpeedSampler()
    with capture:
        input_s, setup_times, setup_speeds = set_up(
            workload, 1 if args.trace else SETUP_REPEATS, capture, verdict, sampler)
        if not args.trace:
            times, speeds, _ = timed_ops(workload, args.seconds, capture, verdict, sampler=sampler)
        else:
            # half the time untraced, half traced: their difference is the trace overhead
            times, _, _ = timed_ops(workload, args.seconds / 2, capture, verdict)
            with Tracer(modules) as tracer:
                traced_times, _, layers = timed_ops(workload, args.seconds / 2, capture, verdict,
                                                    tracer=tracer)

    setup_wall_s = import_s + input_s + statistics.median(setup_times)
    setup_speed = statistics.fmean(setup_speeds)
    if not args.trace:
        # times on a host of calibrate's nominal speed, not on this shared one
        times_at_nominal = [t * v for t, v in zip(times, speeds)]
        metrics = {
            "setup_s": setup_wall_s * setup_speed,
            "op_p50_s": statistics.median(times_at_nominal),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        times_at_nominal = speeds = None
        metrics = {}
        if layers:
            # every span metric comes from the one op of median duration, so the
            # layers' self times add up to that op's time exactly
            metrics = sorted(layers, key=lambda m: m["trace.op_p50_s"])[(len(layers) - 1) // 2]
            metrics["trace.overhead_s"] = metrics["trace.op_p50_s"] - statistics.median(times)
        phases = probe.phase_sample(workload.phase_config())
        metrics["market.phase_sample.valid"] = int(phases is not None)
        metrics.update(phases or {})
        metrics.update(probe.layer_probe(modules, args.seed, work / "probe"))

    tail_s, tail_pct = tail(times_at_nominal or times)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": envinfo.environment(ROOT, THREAD_CAPS),
        "malloc": MALLOC_SETTING,
        "import_s": import_s,
        "input_s": input_s,
        "setup_times_s": setup_times,
        "setup_speeds": setup_speeds,
        "setup_speed": setup_speed,
        "setup_wall_s": setup_wall_s,
        "ops": len(times),
        "op_times_s": times,
        "op_speeds": speeds,
        "op_p50_wall_s": statistics.median(times),
        "op_tail_s": tail_s,
        "op_tail_percentile": tail_pct,
        "traced_op_times_s": traced_times if args.trace else None,
        "error_rate": verdict.failed / verdict.attempted,
        "digest": verdict.first,
        "pinned_digest": pinned,
        "setup_failures": verdict.setup_failures,
        "failures": verdict.failures[:20],
    }
    return metrics, verdict, record


def declared_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "specmarket" / "__init__.py").is_file() or not (ROOT / "configs" / "market.ini").is_file():
        print(f"perfbench: {ROOT} is not a specmarket checkout "
              "(src/specmarket and configs/market.ini are required)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import specmarket
    if Path(specmarket.__file__).resolve().parent != (src / "specmarket").resolve():
        print(f"perfbench: specmarket was imported from {specmarket.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from specmarket import analytics, cli, io, market, stats, sweep
    import workloads  # noqa: F401  (its imports count toward set-up)

    import_s = time.perf_counter() - START
    modules = {"market": market, "stats": stats, "io": io, "sweep": sweep,
               "analytics": analytics, "cli": cli}
    units = declared_units(args.trace)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        metrics, verdict, record = run_workload(args, work, import_s, modules)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    undeclared = set(metrics) - set(units)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
