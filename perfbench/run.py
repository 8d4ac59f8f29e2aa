#!/usr/bin/env python3
"""qtradeoff benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload conjecture --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, and the command fails without printing a result when it is absent.
One client in this process makes sequential ``qtradeoff.cli.run(argv)``
calls, each waiting for the previous one (a closed loop), in whole cycles of
the workload's argv templates until ``--seconds`` have passed.  Each call gets
its ``--seed`` from a generator seeded by the benchmark's ``--seed``.

After the timed phase every call's stdout is checked against independent
references (``reference.py``) and one sampled call is rerun and must print
the same bytes.  A call fails on a non-zero exit code, invalid JSON (NaN and
Infinity included), a failed reference check or a non-identical rerun.

Timings are scaled to a reference machine speed (``speed.py``): a fixed
kernel is timed between calls, and each call's wall time is multiplied by
the reference kernel time over the kernel time around the call.  The result
line reports scaled timings; the detail line also has the unscaled ones.
Set-up time is the median over several fresh interpreters.
``items_per_s`` is work items over the summed (scaled) call time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed,
seed-determined list of cycles twice, untraced and then with the layer
functions wrapped (``tracer.py``), and reports the per-layer metrics; its
counts repeat exactly for a given seed.  Its seconds are scaled too, each by
the traced calls' summed scaled over summed wall time.

The last stdout line is the result object; the line before it records the
provenance and the inputs of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 21
# The tail is the highest percentile with at least this many calls beyond it.
TAIL_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """Argv templates (without ``--seed``) of one cycle of calls.

    An item is one trial when the template has ``--trials``, else one call.
    ``trace_cycles`` is the fixed number of cycles of a traced run.
    """

    name: str
    item: str
    cycle: tuple
    trace_cycles: int


def _conjecture(d: int) -> tuple:
    return ("conjecture", "--dim", str(d), "--trials", "10")


def _oracle(d: int) -> tuple:
    return ("oracle-check", "--dim", str(d), "--trials", "1",
            "--samples", "2000", "--refine-iters", "200")


WORKLOADS = {wl.name: wl for wl in (
    # Criterion 10's 2:1 ratio of d=3 to d=4 trials; many independent
    # trials of overall_error, disturbance and the floor (wide eigensolves).
    Workload("conjecture", "trial", (_conjecture(3), _conjecture(3), _conjecture(4)),
             trace_cycles=10),
    # A sequential chain of error + disturbance evaluations from the two
    # conjectured optima (latency-bound eigensolves, few overall_error calls).
    Workload("minimize", "search",
             (("minimize-aprime", "--dim", "3", "--restarts", "2"),), trace_cycles=10),
    # Criterion 7's sampling oracle at d = 2, 3, 4: Haar draws and the
    # refine loop, no eigensolver.  d = 4 calls, the slowest, are three of
    # five, so that with the 20 to 45 calls of a run both the median and the
    # tail call are d = 4 calls; with one each they fall at a group boundary
    # that moves with the number of calls.
    Workload("oracle", "triple", tuple(_oracle(d) for d in (2, 3, 4, 4, 4)),
             trace_cycles=1),
)}

END_TO_END_UNITS = {"items_per_s": "1/s", "call_ms_p50": "ms", "call_ms_tail": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "linalg.eigensolve.calls": "count",
    "linalg.eigensolve.matrices": "count",
    "linalg.eigensolve.s": "s",
    "linalg.eigensolve.share": "ratio",
    "linalg.haar.calls": "count",
    "linalg.haar.s": "s",
    "metrics.overall_error.calls": "count",
    "metrics.overall_error.self_s": "s",
    "metrics.overall_error.eigensolves": "count",
    "metrics.disturbance.calls": "count",
    "metrics.disturbance.self_s": "s",
    "metrics.disturbance.eigensolves": "count",
    "metrics.error.calls": "count",
    "metrics.error.self_s": "s",
    "metrics.relaxed_error.calls": "count",
    "metrics.relaxed_error.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.samples": "count",
    "oracle.refinement_steps": "count",
    "oracle.shortfall_max": "prob",
    "explorer.self_s": "s",
    "cli.self_s": "s",
    "trace.items": "count",
    "trace.wall_s": "s",
    "trace_overhead_frac": "ratio",
}


@dataclass
class Call:
    argv: tuple
    seconds: float
    code: int
    stdout: str
    scaled: float = math.nan  # seconds on the reference machine (speed.py)


def load_cli():
    """Import qtradeoff.cli from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qtradeoff" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no qtradeoff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from qtradeoff import cli

    if Path(cli.__file__).resolve().parent != SRC / "qtradeoff":
        raise SystemExit(f"benchmark: imported qtradeoff from {cli.__file__}")
    return cli


def items_of(argv) -> int:
    return int(argv[argv.index("--trials") + 1]) if "--trials" in argv else 1


def cycles(wl: Workload, rng: random.Random):
    while True:
        yield [tpl + ("--seed", str(rng.randrange(2**31))) for tpl in wl.cycle]


def run_call(cli, argv) -> Call:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return Call(argv, time.perf_counter() - start, code, out.getvalue())


def scaled_calls(cli, argvs, scale: speed.Scale):
    for argv in argvs:
        call = run_call(cli, argv)
        call.scaled = call.seconds * scale.factor()
        yield call


def timed_loop(cli, wl: Workload, rng: random.Random, seconds: float, scale: speed.Scale):
    calls = []
    start = time.perf_counter()
    for cycle in cycles(wl, rng):
        calls.extend(scaled_calls(cli, cycle, scale))
        if time.perf_counter() - start >= seconds:
            return calls, time.perf_counter() - start


def problems_of(call: Call) -> list:
    if call.code != 0:
        return [f"exit code {call.code}"]
    return reference.check(call.argv, call.stdout)


def failures(calls, reruns) -> dict:
    """Failed calls by index; ``reruns`` maps an index to a rerun's stdout."""
    failed = {}
    for i, call in enumerate(calls):
        problems = problems_of(call)
        if i in reruns and reruns[i] != call.stdout:
            problems.append("rerun with identical argv printed different bytes")
        if problems:
            failed[i] = problems
    return failed


def setup_seconds(repeats: int = SETUP_REPEATS) -> list:
    """(wall, scaled) seconds from starting a fresh interpreter to
    qtradeoff.cli imported, per repeat.

    One untimed start first compiles the bytecode.  Meanwhile this process,
    and so each child, is held on one CPU, so that the speed kernel timed here
    measures the CPU the child runs on.
    """
    child = ("import sys; sys.path.insert(0, sys.argv[1]); import qtradeoff.cli; "
             "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    samples = []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        for i in range(repeats + 1):
            start = time.perf_counter()
            with subprocess.Popen([sys.executable, "-c", child, str(SRC)], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait(timeout=60)
            if line != "ready\n" or code != 0:
                raise SystemExit(f"benchmark: set-up child exited {code}")
            if i == 0:
                scale = speed.Scale()
            else:
                samples.append((elapsed, elapsed * scale.factor()))
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def tail(times):
    """(value, percentile, calls beyond) at the highest percentile with at
    least TAIL_BEYOND calls beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rev = dirty = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = ["git", "-C", str(ROOT)]
        try:
            rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, env=env, timeout=30).stdout.strip() or None
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                    text=True, env=env, timeout=30).stdout
            dirty = bool(status.strip()) if rev else None
        except (OSError, subprocess.SubprocessError):
            rev = dirty = None
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "platform": platform.platform(),
    }


def _metrics(values: dict, units: dict) -> dict:
    """The named metrics with their units; other values are dropped."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure_end_to_end(cli, wl: Workload, seed: int, seconds: float):
    rng = random.Random(seed)
    setup = setup_seconds()
    run_call(cli, next(cycles(wl, random.Random(-1 - seed)))[0])  # warm-up, discarded
    scale = speed.Scale()
    calls, wall = timed_loop(cli, wl, rng, seconds, scale)
    rss = peak_rss_mb()
    rerun_index = rng.randrange(len(calls))
    reruns = {rerun_index: run_call(cli, calls[rerun_index].argv).stdout}
    failed = failures(calls, reruns)
    items = sum(items_of(c.argv) for c in calls)

    def timings(times):
        tail_s, tail_pct, beyond = tail(times)
        return {"items_per_s": items / sum(times),
                "call_ms_p50": 1000.0 * statistics.median(times),
                "call_ms_tail": 1000.0 * tail_s}, tail_pct, beyond

    values, tail_pct, beyond = timings([c.scaled for c in calls])
    values.update(peak_rss_mb=rss, setup_s=statistics.median(s for _, s in setup))
    detail = {
        "timed_wall_s": wall,
        "calls": len(calls),
        "items": items,
        "tail_percentile": tail_pct,
        "tail_calls_beyond": beyond,
        "unscaled": {**timings([c.seconds for c in calls])[0],
                     "setup_s": statistics.median(w for w, _ in setup)},
        "kernel_ms_median": 1000.0 * statistics.median(scale.kernel_s),
        "kernel_ms_reference": 1000.0 * speed.REFERENCE_S,
        "setup_samples_s": setup,
        "rerun_argv": list(calls[rerun_index].argv),
    }
    return calls, failed, _metrics(values, END_TO_END_UNITS), detail


def measure_layers(cli, wl: Workload, seed: int):
    rng = random.Random(seed)
    argvs = [argv for _, cycle in zip(range(wl.trace_cycles), cycles(wl, rng))
             for argv in cycle]
    run_call(cli, argvs[0])  # warm-up, discarded
    plain = list(scaled_calls(cli, argvs, speed.Scale()))
    t = tracer.Tracer()
    with t.installed():
        calls = list(scaled_calls(cli, argvs, speed.Scale()))
    traced_s = sum(c.seconds for c in calls)
    factor = sum(c.scaled for c in calls) / traced_s  # wall to scaled seconds
    overhead = sum(c.scaled for c in calls) / sum(c.scaled for c in plain) - 1.0
    failed = failures(calls, {i: c.stdout for i, c in enumerate(plain)})
    shortfalls = [row[name] - row[name + "_oracle"]
                  for i, call in enumerate(calls)
                  if call.argv[0] == "oracle-check" and i not in failed
                  for row in reference.parse_strict(call.stdout)["instances"]
                  for name in ("epsilon", "eta", "delta")]
    values = {
        "linalg.eigensolve.calls": t.calls[tracer.EIGENSOLVE],
        "linalg.eigensolve.matrices": t.matrices,
        "linalg.eigensolve.s": factor * t.seconds[tracer.EIGENSOLVE],
        "linalg.eigensolve.share": t.seconds[tracer.EIGENSOLVE] / traced_s,
        "linalg.haar.calls": t.calls[tracer.HAAR],
        "linalg.haar.s": factor * t.seconds[tracer.HAAR],
        "oracle.calls": t.calls[tracer.ORACLE],
        "oracle.self_s": factor * t.self_seconds[tracer.ORACLE],
        "oracle.samples": t.oracle_samples,
        "oracle.refinement_steps": t.oracle_refinement_steps,
        "oracle.shortfall_max": max(shortfalls, default=0.0),
        "explorer.self_s": factor * t.self_seconds["explorer"],
        "cli.self_s": factor * t.self_seconds["cli"],
        "trace.items": sum(items_of(argv) for argv in argvs),
        "trace.wall_s": factor * traced_s,
        "trace_overhead_frac": overhead,
    }
    for metric in ("overall_error", "disturbance", "error", "relaxed_error"):
        layer = tracer.METRIC_PREFIX + metric
        values[f"{layer}.calls"] = t.calls[layer]
        values[f"{layer}.self_s"] = factor * t.self_seconds[layer]
        values[f"{layer}.eigensolves"] = t.eigensolves[layer]
    detail = {"calls": len(calls), "untraced_s": sum(c.seconds for c in plain),
              "traced_s": traced_s, "scale_factor": factor,
              "layer_calls": dict(t.calls), "layer_seconds": dict(t.seconds)}
    return calls, failed, _metrics(values, PER_LAYER_UNITS), detail


def measure(cli, wl: Workload, seed: int, seconds: float, trace: bool):
    """(detail, result) of one run; result is the benchmark's last line."""
    if trace:
        calls, failed, metrics, detail = measure_layers(cli, wl, seed)
    else:
        calls, failed, metrics, detail = measure_end_to_end(cli, wl, seed, seconds)
    detail = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "item": wl.item, "cycle": [list(tpl) for tpl in wl.cycle],
        **detail,
        "failures": {" ".join(calls[i].argv): p for i, p in sorted(failed.items())[:5]},
        "provenance": provenance(),
    }
    result = {"correct": not failed, "attempted": len(calls), "failed": len(failed),
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_cli()
    detail, result = measure(cli, WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    for value in result["metrics"].values():
        if not math.isfinite(value["value"]):
            raise SystemExit(f"benchmark: non-finite metric {value}")
    print(json.dumps(detail, allow_nan=False, sort_keys=True))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
