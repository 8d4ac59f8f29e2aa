"""Independent checks of the qtradeoff CLI payloads.

Everything here is recomputed from the call's argv with numpy alone: the trial
bases are regenerated from their seeds, spectral radii come from
``np.linalg.eigvalsh`` on whole stacks of matrices, and outcome relabelings are
enumerated with ``itertools``.  Nothing is imported from qtradeoff, so a
payload that agrees with these values was not checked against itself.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

# Agreement required between a reported value and its reference (criterion 10).
TOL = 1e-9
# Criterion 10's argmin rule: the best intermediate basis sits at A or at B.
ARGMIN_TOL = 1e-3
# Criterion 7's window for (sampled - analytic).
ORACLE_WINDOW = (-1e-4, 1e-9)


def parse_strict(text: str):
    """json.loads that refuses NaN and +/-Infinity, which are not JSON."""

    def reject(name):
        raise ValueError(f"non-finite constant {name} in payload")

    return json.loads(text, parse_constant=reject)


def haar_rows(d: int, *stream: int) -> np.ndarray:
    """Haar-random basis (rows are the outcome vectors) for a seed stream.

    Complex Ginibre matrix, QR, diagonal of R rotated to be real positive:
    the same law and the same stream layout as the CLI's ``--seed`` inputs.
    """
    rng = np.random.default_rng([int(s) for s in stream])
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return (q * (diag / np.abs(diag))).T


def _projectors(v: np.ndarray) -> np.ndarray:
    """Stack of |v_i><v_i| for the rows of v."""
    return np.einsum("ij,ik->ijk", v, v.conj())


def _radius(m: np.ndarray) -> np.ndarray:
    """Spectral radius of each Hermitian matrix in a stack."""
    return np.max(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def _disturbance_terms(ap: np.ndarray, b: np.ndarray) -> np.ndarray:
    w = np.abs(b.conj() @ ap.T) ** 2  # w[i, k] = |<b_i|a'_k>|^2
    return _projectors(b) - np.einsum("ik,kxy->ixy", w, _projectors(ap))


def error(a: np.ndarray, ap: np.ndarray) -> float:
    return float(np.max(_radius(_projectors(a) - _projectors(ap))))


def disturbance(ap: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(_radius(_disturbance_terms(ap, b))))


def overall_error(a: np.ndarray, ap: np.ndarray, b: np.ndarray) -> float:
    e = (_projectors(a) - _projectors(ap))[:, None]
    t = _disturbance_terms(ap, b)[None, :]
    return float(max(np.max(_radius(e + t)), np.max(_radius(e - t))))


def relaxed_error(a: np.ndarray, b: np.ndarray) -> float:
    r = _radius(_projectors(a)[:, None] - _projectors(b)[None, :])  # r[i, j]
    rows = np.arange(len(a))
    return float(min(np.max(r[rows, list(p)])
                     for p in itertools.permutations(range(len(a)))))


def conjecture_floor(a: np.ndarray, b: np.ndarray) -> float:
    return min(relaxed_error(a, b), disturbance(a, b))


def _close(name: str, reported, expected: float) -> list[str]:
    if abs(float(reported) - expected) <= TOL:
        return []
    return [f"{name} = {reported!r}, reference {expected!r}"]


def _echo(payload: dict, **expected) -> list[str]:
    return [f"{k} = {payload[k]!r}, argv says {v!r}"
            for k, v in expected.items() if payload[k] != v]


def check_conjecture(opts: dict, payload: dict) -> list[str]:
    d, trials, seed = int(opts["--dim"]), int(opts["--trials"]), int(opts["--seed"])
    problems = _echo(payload, dim=d, trials=trials, seed=seed)
    if payload["violations"]:
        problems.append(f"{len(payload['violations'])} violations reported")
    slack_sum = slack_delta = np.inf
    for t in range(trials):
        a, ap, b = (haar_rows(d, seed, t, k) for k in range(3))
        floor = conjecture_floor(a, b)
        slack_sum = min(slack_sum, error(a, ap) + disturbance(ap, b) - floor)
        slack_delta = min(slack_delta, overall_error(a, ap, b) - floor)
    return (problems + _close("min_slack_sum", payload["min_slack_sum"], slack_sum)
            + _close("min_slack_delta", payload["min_slack_delta"], slack_delta))


def check_minimize(opts: dict, payload: dict) -> list[str]:
    d, seed = int(opts["--dim"]), int(opts["--seed"])
    a, b = haar_rows(d, seed, 0), haar_rows(d, seed, 1)
    best = np.array([[complex(re, im) for re, im in row]
                     for row in payload["best_basis"]["vectors"]])
    floor = conjecture_floor(a, b)
    problems = (
        _close("conjecture_floor", payload["conjecture_floor"], floor)
        + _close("min_sum", payload["min_sum"], error(a, best) + disturbance(best, b))
        + _close("min_delta", payload["min_delta"], overall_error(a, best, b))
        + _close("distance_to_a", payload["distance_to_a"], relaxed_error(best, a))
        + _close("distance_to_b", payload["distance_to_b"], relaxed_error(best, b))
    )
    nearest = min(payload["distance_to_a"], payload["distance_to_b"])
    if not nearest < ARGMIN_TOL:
        problems.append(f"argmin is {nearest!r} from both A and B")
    if not payload["min_sum"] >= payload["conjecture_floor"] - TOL:
        problems.append(f"min_sum {payload['min_sum']!r} below the conjecture floor "
                        f"{payload['conjecture_floor']!r}")
    return problems


def check_oracle(opts: dict, payload: dict) -> list[str]:
    d, trials, seed = int(opts["--dim"]), int(opts["--trials"]), int(opts["--seed"])
    problems = _echo(payload, dim=d, trials=trials, seed=seed)
    if payload["passed"] is not True:
        problems.append("passed is not true")
    rows = payload["instances"]
    if len(rows) != trials:
        problems.append(f"{len(rows)} instances for {trials} trials")
    lo, hi = ORACLE_WINDOW
    for t, row in enumerate(rows[:trials]):
        a, ap, b = (haar_rows(d, seed, t, k) for k in range(3))
        reference = {"epsilon": error(a, ap), "eta": disturbance(ap, b),
                     "delta": overall_error(a, ap, b)}
        for name, value in reference.items():
            problems += _close(f"instances[{t}].{name}", row[name], value)
            gap = row[name + "_oracle"] - row[name]
            if not lo <= gap <= hi:
                problems.append(f"instances[{t}].{name} oracle gap {gap!r} "
                                f"outside [{lo}, {hi}]")
    return problems


CHECKS = {
    "conjecture": check_conjecture,
    "minimize-aprime": check_minimize,
    "oracle-check": check_oracle,
}


def check(argv, stdout: str) -> list[str]:
    """Problems found in one call's stdout; an empty list means it passed.

    ``argv`` is a subcommand followed by ``--option value`` pairs.
    """
    try:
        payload = parse_strict(stdout)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError too
        return [f"invalid JSON: {exc}"]
    opts = dict(zip(argv[1::2], argv[2::2]))
    try:
        return CHECKS[argv[0]](opts, payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed payload: {exc!r}"]
