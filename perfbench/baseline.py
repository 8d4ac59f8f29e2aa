#!/usr/bin/env python3
"""Record a baseline of the benchmark and the run-to-run spread of its metrics.

    python3 perfbench/baseline.py

For each workload in BENCHMARK.json this runs the benchmark's command once
per seed 1 to 10 untraced, sequentially, and summarizes every end-to-end
metric by its median and quartiles (``statistics.quantiles(values, n=4)``).  The
spread is (q3 - q1) / median; it should stay below a third of the metric's
bound.  It then makes one traced run on the first seed and one untraced run
on the held-out seed, whose metrics should lie within their bounds of the
medians.  A table goes to stderr and the record to ``baseline_seed.json``
next to this file.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "baseline_seed.json"
SEEDS = list(range(1, 11))
HELD_OUT = 1001
# Detail fields that repeat across the runs of a workload: kept once.
SHARED = ("provenance", "cycle", "item", "workload", "seed", "seconds", "trace")


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{workload} seed={seed} trace={trace} run={elapsed:.1f}s failed={result['failed']}/"
          f"{result['attempted']} " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
          file=sys.stderr, flush=True)
    return {"seed": seed, "run_s": elapsed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": values, "detail": detail}


def compact(entry: dict, record: dict) -> None:
    """Move the detail fields every run repeats up to the workload and record."""
    runs = entry["runs"] + [entry["traced"], entry["held_out"]]
    shared = {k: runs[0]["detail"][k] for k in SHARED}
    record["provenance"] = shared.pop("provenance")
    entry.update(cycle=shared["cycle"], item=shared["item"])
    for run in runs:
        run["detail"] = {k: v for k, v in run["detail"].items() if k not in SHARED}


def summary(runs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "bound": m["bound"],
                          "values": values}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        runs = [bench(spec, name, seed, 0) for seed in SEEDS]
        entry = {"runs": runs, "end_to_end": summary(runs, spec["end_to_end"])}
        entry["traced"] = bench(spec, name, SEEDS[0], 1)
        held = bench(spec, name, HELD_OUT, 0)
        held["within_bound"] = {
            m: abs(v - entry["end_to_end"][m]["median"])
            <= entry["end_to_end"][m]["bound"] * entry["end_to_end"][m]["median"]
            for m, v in held["metrics"].items()}
        entry["held_out"] = held
        compact(entry, record)
        record["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{name:>12} {metric:>14} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={s['bound']} {flag}", file=sys.stderr)
        # Rewritten after each workload, so a cut run keeps its part.
        OUT.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
