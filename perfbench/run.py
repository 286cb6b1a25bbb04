"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload diag-n10 --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and drives ``cqcovert.cli.main`` from
``src/`` in this process, single-threaded.  It repeats the workload's pass
of CLI calls until ``--seconds`` would be exceeded, timing the set-up (fresh
import of the package plus the CLI's pre-loop work) a few times before each
pass and once more after the last if needed, then checks every output against the oracles in ``workloads.py`` and
``oracles.py``.  Every pass must reproduce the first byte for byte.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced (see
``tracer.py``) and the last line carries the per-layer metrics.  Earlier
lines describe the environment, every oracle check with its largest
deviation, and the structure counts.
"""

import os

# BLAS and OpenMP read these when numpy loads, so they are set before any import of it.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "CQCOVERT_WORKERS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402  -- numpy and scipy load before any set-up is timed
import scipy  # noqa: E402

from tracer import COUNTS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, CallResult, Checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21   # set-up timings per run, at least
SETUP_ROUND = 3      # of them taken before each pass, so they span the run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_cli():
    """Import the package and its CLI from scratch (numpy and scipy stay loaded)."""
    for name in [m for m in sys.modules if m == "cqcovert" or m.startswith("cqcovert.")]:
        del sys.modules[name]
    return importlib.import_module("cqcovert.cli")


def time_setup(workload) -> float:
    gc.collect()  # start each repetition from the same collector state
    t0 = time.process_time()
    workload.setup(fresh_cli())
    return time.process_time() - t0


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    results: list


def run_pass(calls, traced: bool) -> Pass:
    cli = sys.modules["cqcovert.cli"]
    results = []
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in calls:
        out = io.StringIO()
        rc, error = None, None
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            error = repr(exc)
        results.append(CallResult(argv, rc, out.getvalue(), error))
    return Pass(traced, time.perf_counter() - wall0, time.process_time() - cpu0, results)


def digest(result) -> str:
    return hashlib.sha256(f"{result.rc}\n{result.error}\n{result.out}".encode()).hexdigest()


def git_revision() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unavailable (not a git checkout)"


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": PINNED_ENV,
        "parallel_scaling": "not measured: plain single-threaded baseline only",
    }


def opt_shortfall(structure) -> float:
    """Largest relative gap of an optimizer result to the certified optimum."""
    return max([0.0, *structure["shortfalls"]])


def layer_metrics(tracer, passes, structure) -> dict:
    traced = [p for p in passes if p.traced]
    per_pass = 1.0 / len(traced)
    metrics = {}
    self_total = 0.0
    for name in SPANS:
        calls, inclusive, own = tracer.stats.get(name, (0, 0.0, 0.0))
        self_total += own
        metrics[f"{name}.calls"] = (calls * per_pass, "count")
        metrics[f"{name}.s"] = (inclusive * per_pass, "s")
        metrics[f"{name}.self_s"] = (own * per_pass, "s")
    evals = tracer.edges.get(("scaling.optimize_ptilde", "scaling._coefficient_pair"), 0)
    metrics["scaling.optimize_ptilde.evals"] = (evals * per_pass, "count")
    for name in COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) * per_pass, "count")
    metrics["coding.covert_inf"] = (structure["covert_inf"], "count")
    metrics["scaling.opt_shortfall"] = (opt_shortfall(structure), "ratio")
    traced_s = statistics.median(p.cpu_s for p in traced)
    untraced_s = statistics.median(p.cpu_s for p in passes if not p.traced)
    metrics["trace.sweep_s"] = (traced_s, "s")
    metrics["trace.untraced_sweep_s"] = (untraced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    # spans are timed by the wall clock, so their sum is compared with wall time
    metrics["trace.self_share"] = (self_total / sum(p.wall_s for p in traced), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cqcovert" / "cli.py").is_file():
        print(f"error: no cqcovert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    setup_times = [time_setup(workload)]
    loaded = Path(sys.modules["cqcovert"].__file__).resolve().parent
    if loaded != SRC / "cqcovert":
        print(f"error: imported cqcovert from {loaded}, not {SRC}", file=sys.stderr)
        return 2

    # The machine's speed drifts within a run, so set-up timings are spread
    # over it: each round re-imports the package, and the next pass uses it.
    calls = workload.calls(args.seed)
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        setup_times += [time_setup(workload) for _ in range(SETUP_ROUND)]
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(calls, traced))
        finally:
            tracer.remove()
        both_kinds = not args.trace or len(passes) >= 2
        if both_kinds and time.perf_counter() - start + passes[-1].wall_s > args.seconds:
            break
    setup_times += [time_setup(workload) for _ in range(SETUP_REPEATS - len(setup_times))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    structure = {"covert_inf": 0, "shortfalls": []}
    first = passes[0].results
    verdicts = workload.check(first, checks, structure)
    reference = [digest(r) for r in first]
    attempted = failed = 0
    for index, one in enumerate(passes):
        for result, ref, (ops, bad) in zip(one.results, reference, verdicts):
            same = index == 0 or checks.holds("determinism.same_output_as_first_pass",
                                              digest(result) == ref)
            attempted += ops
            failed += bad if same else ops

    if args.trace:
        metrics = layer_metrics(tracer, passes, structure)
    else:
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "sweep_s": (statistics.median(p.cpu_s for p in passes), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed={args.seed} "
          f"setup_cpu_s={[round(s, 4) for s in setup_times]}")
    for one in passes:
        print(f"pass traced={int(one.traced)} cpu_s={one.cpu_s:.4f} wall_s={one.wall_s:.4f}")
    for line in checks.lines():
        print(line)
    print(f"structure covert_inf={structure['covert_inf']} "
          f"opt_shortfall={opt_shortfall(structure):.6g} "
          f"shortfalls={[float(f'{s:.6g}') for s in structure['shortfalls']]}")
    print(f"fail_ratio {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
