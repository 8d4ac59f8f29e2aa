"""Command-line front end.

Subcommands wrap the metric computations and the experiment drivers; bases
come from JSON files, reports go out as JSON or CSV.  Exit codes: 0 success,
1 internal error, 2 validation/usage error, 3 a verification subcommand found
a violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import explorer, linalg, metrics, oracle
from .errors import ValidationError, check_count, check_finite
from .measurement import (
    OrthonormalBasis,
    gram_schmidt_repair,
    haar_random_basis,
    make_basis,
)
from .tolerances import ASSERTION_TOL, FILE_INPUT_TOL, ORACLE_GAP, VALIDATION_TOL

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _complex_pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def load_basis(path: str) -> OrthonormalBasis:
    """Read a basis file: {"dim": d, "vectors": [[[re, im], ...], ...]}.

    ``dim`` must be a JSON integer in [2, linalg.MAX_DIM]; it is checked
    before the vectors are parsed.  Exactly orthonormal input is taken as is;
    input within the file tolerance is Gram-Schmidt repaired; anything worse
    is rejected naming the failing pair of indices.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        dim = data["dim"]
        if type(dim) is not int:
            raise TypeError(f"dim must be a JSON integer, got {dim!r}")
        if not 2 <= dim <= linalg.MAX_DIM:
            raise ValueError(f"dim must be in [2, {linalg.MAX_DIM}], got {dim}")
        raw = data["vectors"]
        vectors = np.array([[complex(re, im) for re, im in row] for row in raw])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: invalid basis file ({exc})") from exc
    if vectors.shape != (dim, dim):
        raise ValidationError(f"{path}: expected {dim}x{dim} vectors, got {vectors.shape}")
    try:
        return make_basis(vectors, tol=VALIDATION_TOL)
    except ValidationError:
        return gram_schmidt_repair(vectors, tol=FILE_INPUT_TOL)


def dump_basis(basis: OrthonormalBasis) -> dict:
    return {"dim": basis.dim, "vectors": [_complex_pairs(v) for v in basis.vectors]}


def _encode(obj) -> dict:
    """JSON form of the objects payloads may hold besides plain values."""
    if isinstance(obj, OrthonormalBasis):
        return dump_basis(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=_encode) + "\n"
    _write(text, out)


def emit_csv(table: explorer.ScanTable, out: str | None) -> None:
    # '.' decimal, 17 significant digits: exact double round-trip, no locale.
    lines = [",".join(table.column_names)]
    for row in table.rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    _write("\n".join(lines) + "\n", out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_payload(table: explorer.ScanTable) -> dict:
    return {"column_names": table.column_names,
            "rows": [[float(x) for x in row] for row in table.rows]}


def _emit_table(table: explorer.ScanTable, args) -> None:
    if args.format == "csv":
        emit_csv(table, args.out)
    else:
        emit_json(_table_payload(table), args.out)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    a = load_basis(args.a)
    ap = load_basis(args.aprime)
    b = load_basis(args.b)
    report = metrics.tradeoff_report(a, ap, b)
    emit_json({**vars(report), "witness_state": _complex_pairs(report.witness_state)},
              args.out)
    return EXIT_OK


def _cmd_scan_theorem1(args) -> int:
    table = explorer.scan_theorem1(args.b_angle, args.steps, plane_only=args.plane_only)
    _emit_table(table, args)
    return EXIT_OK


def _cmd_scan_bounds_d3(args) -> int:
    table = explorer.scan_bounds_d3(args.overlap1_sq, args.steps)
    _emit_table(table, args)
    return EXIT_OK


def _cmd_verify_properties(args) -> int:
    run = explorer.verify_properties(trials=args.trials, seed=args.seed,
                                     tol=args.tolerance)
    payload = {
        "checks": [{"name": n, "passed": ok, "detail": detail}
                   for n, ok, detail in run.checks],
        "all_passed": run.all_passed,
    }
    emit_json(payload, args.out)
    return EXIT_OK if run.all_passed else EXIT_VIOLATION


def _cmd_verify_theorem2(args) -> int:
    run = explorer.verify_theorem2(args.dim, args.trials, args.seed,
                                   tol=args.tolerance)
    emit_json(vars(run), args.out)
    return EXIT_OK if not run.violations else EXIT_VIOLATION


def _cmd_minimize_aprime(args) -> int:
    if (args.a is None) != (args.b is None):
        raise ValidationError("--a and --b must be given together")
    if args.a is not None:
        if args.dim is not None:
            raise ValidationError("--dim applies only without --a and --b")
        a = load_basis(args.a)
        b = load_basis(args.b)
    else:
        dim = 3 if args.dim is None else args.dim
        linalg.check_dim(dim, hi=explorer.MAX_SEARCH_DIM)
        check_count(args.restarts, 1, "restarts")
        a = haar_random_basis(dim, args.seed, 0)
        b = haar_random_basis(dim, args.seed, 1)
    result = explorer.minimize_over_intermediate(a, b, args.restarts, args.seed)
    emit_json(vars(result), args.out)
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    run = explorer.conjecture_search(args.dim, args.trials, args.seed,
                                     tol=args.tolerance)
    emit_json(vars(run), args.out)
    return EXIT_OK if not run.violations else EXIT_VIOLATION


def _cmd_oracle_check(args) -> int:
    check_count(args.trials, 1, "trials")
    check_finite(args.tolerance, "tolerance")
    instances = []
    worst_low = worst_high = -np.inf
    for t in range(args.trials):
        a = haar_random_basis(args.dim, args.seed, t, 0)
        ap = haar_random_basis(args.dim, args.seed, t, 1)
        b = haar_random_basis(args.dim, args.seed, t, 2)
        # Sub-streams 0-2 of trial t drew its bases; its oracle draws from 3.
        states = oracle.haar_states(args.dim, args.samples, args.seed, t, 3)
        pairs = {
            "epsilon": (metrics.error(a, ap).value,
                        oracle.max_error_over_states(a, ap, states, args.refine_iters)),
            "eta": (metrics.disturbance(ap, b).value,
                    oracle.max_disturbance_over_states(ap, b, states, args.refine_iters)),
            "delta": (metrics.overall_error(a, ap, b).value,
                      oracle.max_sum_over_states(a, ap, b, states, args.refine_iters)),
        }
        row = {"trial": t}
        for name, (analytic, sampled) in pairs.items():
            gap = sampled.value - analytic
            row[name] = analytic
            row[name + "_oracle"] = sampled.value
            worst_low = max(worst_low, -gap)
            worst_high = max(worst_high, gap)
        instances.append(row)
    ok = worst_low <= ORACLE_GAP and worst_high <= args.tolerance
    payload = {
        "dim": args.dim,
        "trials": args.trials,
        "seed": args.seed,
        "max_oracle_shortfall": float(worst_low),
        "max_oracle_excess": float(worst_high),
        "passed": bool(ok),
        "instances": instances,
    }
    emit_json(payload, args.out)
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtradeoff",
        description="Error-disturbance trade-off for consecutive projective measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, seeded=False, table=False, verify=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--out", type=str, default=None)
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        if table:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        if verify:
            p.add_argument("--tolerance", type=float, default=ASSERTION_TOL,
                           help="assertion tolerance of the verification")
        return p

    p = command("compute", _cmd_compute, "trade-off report for one (A, A', B) triple")
    p.add_argument("--a", required=True)
    p.add_argument("--aprime", required=True)
    p.add_argument("--b", required=True)

    p = command("scan-theorem1", _cmd_scan_theorem1, "d=2 sweep of the intermediate basis",
                table=True)
    p.add_argument("--b-angle", type=float, required=True, dest="b_angle")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--plane-only", action=argparse.BooleanOptionalAction,
                   default=True, dest="plane_only")

    p = command("scan-bounds-d3", _cmd_scan_bounds_d3, "d=3 disturbance bound sweep",
                table=True)
    p.add_argument("--overlap1-sq", type=float, default=0.1,
                   dest="overlap1_sq")
    p.add_argument("--steps", type=int, default=200)

    p = command("verify-properties", _cmd_verify_properties,
                "randomized checks of the basic properties", seeded=True, verify=True)
    p.add_argument("--trials", type=int, default=100)

    p = command("verify-theorem2", _cmd_verify_theorem2, "MUB trade-off verification",
                seeded=True, verify=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)

    p = command("minimize-aprime", _cmd_minimize_aprime,
                "search for the intermediate basis minimizing eps + eta", seeded=True)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--dim", type=int, default=None,
                   help="dimension of the random pair drawn without --a/--b (default 3)")
    p.add_argument("--restarts", type=int, default=6)

    p = command("conjecture", _cmd_conjecture, "randomized conjecture stress test",
                seeded=True, verify=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)

    p = command("oracle-check", _cmd_oracle_check,
                "cross-validate metrics against pure-state sampling", seeded=True,
                verify=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--refine-iters", type=int, default=200, dest="refine_iters")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal failure, keep the exit-code contract
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())
