#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload with tiny calls, untraced and traced, and requires that
each metric named in BENCHMARK.json is reported, finite and with its unit,
that no call fails, and that the traced run entered the layers the workload
exercises (a layer that the tracer no longer reaches would read zero).  Then it corrupts the CLI's output in several ways and
requires each corruption to be counted as a failed call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
import types

import run

TINY = {
    "conjecture": (("conjecture", "--dim", "3", "--trials", "2"),
                   ("conjecture", "--dim", "4", "--trials", "1")),
    "minimize": (("minimize-aprime", "--dim", "2", "--restarts", "2"),),
    "oracle": (("oracle-check", "--dim", "2", "--trials", "1",
                "--samples", "200", "--refine-iters", "50"),),
}


# Per-layer counts that must be positive in a traced run of each workload.
ENTERED = {
    "conjecture": ("linalg.eigensolve.calls", "metrics.overall_error.eigensolves"),
    "minimize": ("linalg.eigensolve.calls", "metrics.disturbance.eigensolves"),
    "oracle": ("oracle.calls", "linalg.haar.calls"),
}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], cycle=TINY[name], trace_cycles=1)


def check_result(result: dict, expected_units: dict, where: str) -> None:
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{where}: result keys {sorted(result)}")
    json.dumps(result, allow_nan=False)
    metrics = result["metrics"]
    require(set(metrics) == set(expected_units),
            f"{where}: metrics differ from BENCHMARK.json by "
            f"{sorted(set(metrics) ^ set(expected_units))}")
    for name, entry in metrics.items():
        value = entry["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value),
                f"{where}: {name} = {value!r}")
        require(entry["unit"] == expected_units[name],
                f"{where}: {name} has unit {entry['unit']!r}, "
                f"BENCHMARK.json says {expected_units[name]!r}")


def faulty(cli, corrupt):
    """A stand-in for qtradeoff.cli whose output passes through ``corrupt``."""

    def run_(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        text, code = corrupt(out.getvalue(), code)
        sys.stdout.write(text)
        return code

    return types.SimpleNamespace(run=run_)


def _shift(key: str, delta: float):
    def corrupt(text, code):
        payload = json.loads(text)
        payload[key] += delta
        return json.dumps(payload), code
    return corrupt


def _nondeterministic():
    count = iter(range(1_000_000))

    def corrupt(text, code):
        return json.dumps({**json.loads(text), "nonce": next(count)}), code
    return corrupt


CORRUPTIONS = {
    "value off by 1e-6": _shift("min_slack_sum", 1e-6),
    "NaN in payload": _shift("min_slack_delta", math.nan),
    "non-zero exit code": lambda text, code: (text, 3),
    "truncated JSON": lambda text, code: (text[: len(text) // 2], code),
    "rerun prints different bytes": _nondeterministic(),
}


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(end_to_end == run.END_TO_END_UNITS, "end_to_end metrics differ from run.py")
    require(per_layer == run.PER_LAYER_UNITS, "per_layer metrics differ from run.py")
    require([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
            "workloads differ from run.py")

    cli = run.load_cli()
    for name in run.WORKLOADS:
        for trace, units in ((False, end_to_end), (True, per_layer)):
            where = f"{name} trace={int(trace)}"
            _, result = run.measure(cli, tiny(name), seed=7, seconds=0.1, trace=trace)
            check_result(result, units, where)
            require(result["correct"] and result["failed"] == 0,
                    f"{where}: {result['failed']} of {result['attempted']} calls failed")
            if trace:
                for metric in ENTERED[name]:
                    require(result["metrics"][metric]["value"] > 0,
                            f"{where}: {metric} is 0, the tracer missed the layer")
            print(f"selftest: {where}: {len(result['metrics'])} metrics ok")

    for label, corrupt in CORRUPTIONS.items():
        _, result = run.measure(faulty(cli, corrupt), tiny("conjecture"), seed=7,
                                seconds=0.1, trace=False)
        require(not result["correct"] and result["failed"] >= 1,
                f"{label}: counted {result['failed']} failed of {result['attempted']}")
        print(f"selftest: {label}: failed_frac = "
              f"{result['failed']}/{result['attempted']}")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
