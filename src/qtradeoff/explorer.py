"""Experiment drivers.

Publication-style sweeps of the trade-off curves, randomized verification of
the two trade-off theorems and the basic properties, minimization of the
intermediate measurement, and randomized stress-testing of the d-dimensional
conjecture.  Every driver is a pure function of its seed and parameters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from . import bloch, linalg, metrics, structures
from .errors import UnsupportedSizeError, ValidationError
from .measurement import (
    OrthonormalBasis,
    computational_basis,
    haar_random_basis,
)
from .tolerances import ASSERTION_TOL

_MAX_SEARCH_DIM = 5

# Trials per stacked metric call in the randomized drivers; caps the memory of
# one block (its overall-error stack holds 2 d^2 matrices per trial).
_TRIAL_BLOCK = 256

_STEP_FLOOR = 1e-8  # the A' search ends once its step halves below this


@dataclass(frozen=True)
class ScanTable:
    """Rectangular table of sweep results (one row per grid point)."""

    column_names: List[str]
    rows: np.ndarray


@dataclass(frozen=True)
class ConjectureRun:
    """Summary of a randomized conjecture stress test.

    Each violation records its trial, slacks and floor, and its triple as
    the bases ``a``, ``aprime`` and ``b``.
    """

    dim: int
    trials: int
    seed: int
    min_slack_sum: float
    min_slack_delta: float
    violations: List[dict]
    argmin_distance_to_a: float
    argmin_distance_to_b: float


@dataclass(frozen=True)
class TheoremTwoRun:
    dim: int
    trials: int
    seed: int
    floor: float
    min_sum: float
    sum_at_identity: float
    violations: List[dict]


@dataclass(frozen=True)
class MinimizeResult:
    best_basis: OrthonormalBasis
    min_sum: float
    min_delta: float
    distance_to_a: float
    distance_to_b: float


@dataclass(frozen=True)
class PropertyRun:
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _grid_with_zero(lo: float, hi: float, steps: int) -> np.ndarray:
    """Uniform grid snapped so the point nearest zero is exactly zero."""
    g = np.linspace(lo, hi, steps)
    if lo < 0.0 < hi or lo == 0.0 or hi == 0.0:
        g[np.argmin(np.abs(g))] = 0.0
    return g


def scan_theorem1(b_angle: float, steps: int, plane_only: bool = True) -> ScanTable:
    """Sweep the intermediate basis direction and record eps + eta and delta.

    a = z-axis, b at angle ``b_angle`` from a in the xz-plane.  The swept
    Bloch vector a' is rotated away from a by the grid angle: within
    Span{a, b} when ``plane_only``, within the plane spanned by a and the
    normal a x b otherwise.
    """
    if steps < 3:
        raise ValidationError(f"need at least 3 grid steps, got {steps}")
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([math.sin(b_angle), 0.0, math.cos(b_angle)])
    in_plane = b - np.dot(a, b) * a
    if np.linalg.norm(in_plane) > 1e-12:
        e = in_plane / np.linalg.norm(in_plane)
    else:
        e = np.array([1.0, 0.0, 0.0])  # a and b parallel: any transverse axis
    if not plane_only:
        e = np.cross(a, e)
    angles = _grid_with_zero(-math.pi, math.pi, steps)
    rows = np.empty((steps, 3))
    for r, phi in enumerate(angles):
        ap = math.cos(phi) * a + math.sin(phi) * e
        eps = bloch.bloch_error(a, ap)
        eta = bloch.bloch_disturbance(ap, b)
        rows[r] = (phi, eps + eta, bloch.bloch_overall(a, ap, b))
    return ScanTable(column_names=["angle", "sum", "delta"], rows=rows)


def scan_bounds_d3(overlap1_sq: float, steps: int) -> ScanTable:
    """d = 3 sweep of the disturbance term against its two upper bounds.

    Fixes c1 = |<a'_1|b_i>|^2, sweeps c2 over the range compatible with the
    ordering c1 <= c2 <= c3 and normalization; each row holds the outcome-i
    disturbance value (before the max over i) and both bounds.
    """
    if steps < 3:
        raise ValidationError(f"need at least 3 grid steps, got {steps}")
    if not 0.0 <= overlap1_sq <= 1.0 / 3.0 + 1e-12:
        raise ValidationError(f"overlap1_sq must lie in [0, 1/3], got {overlap1_sq}")
    c1 = float(overlap1_sq)
    c2 = np.linspace(c1, (1.0 - c1) / 2.0, steps)
    w = np.stack([np.full(steps, c1), c2, 1.0 - c1 - c2], axis=-1)
    m = np.sqrt(w)
    eta = linalg.spectral_radius(metrics.frame_rows(m, w))
    rows = np.stack([c2, eta, metrics.bound1_rows(w), metrics.bound2_rows(m)], axis=-1)
    return ScanTable(column_names=["overlap2_sq", "eta", "bound1", "bound2"], rows=rows)


def _haar_blocks(d: int, seed: int, trials: range, *subs: tuple, prefix: tuple = ()):
    """Blocks of at most _TRIAL_BLOCK trials, as (first position, bases).

    ``bases`` holds one batch basis per sub-stream in ``subs``; entry i of
    batch k equals ``haar_random_basis(d, seed, *prefix, trials[first + i],
    *subs[k])``.  Each block makes one stacked Haar draw.
    """
    for first in range(0, len(trials), _TRIAL_BLOCK):
        ts = trials[first:first + _TRIAL_BLOCK]
        u = linalg.haar_unitaries(d, seed, [(*prefix, t, *sub) for t in ts for sub in subs])
        v = np.swapaxes(u, -1, -2).reshape(len(ts), len(subs), d, d)
        yield first, [OrthonormalBasis(vectors=v[:, k].copy()) for k in range(len(subs))]


def verify_theorem2(d: int, trials: int, seed: int,
                    tol: float = ASSERTION_TOL) -> TheoremTwoRun:
    """MUB trade-off: eps + eta >= 1 - 1/d over Haar-random intermediates."""
    if not 2 <= d <= linalg.MAX_DIM:
        raise ValidationError(f"dimension must be in [2, {linalg.MAX_DIM}], got {d}")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    a = computational_basis(d)
    b = structures.fourier_basis(d)
    floor = 1.0 - 1.0 / d
    min_sum = np.inf
    violations: List[dict] = []
    for first, (aps,) in _haar_blocks(d, seed, range(trials), ()):
        total = metrics.error(a, aps).value + metrics.disturbance(aps, b).value
        min_sum = min(min_sum, float(np.min(total)))
        for i in np.flatnonzero(total < floor - tol):
            violations.append({"trial": first + int(i), "sum": float(total[i]),
                               "floor": floor})
    sum_at_identity = metrics.error(a, a).value + metrics.disturbance(a, b).value
    return TheoremTwoRun(dim=d, trials=trials, seed=seed, floor=floor,
                         min_sum=float(min_sum), sum_at_identity=sum_at_identity,
                         violations=violations)


# ---------------------------------------------------------------------------
# Local search over the intermediate measurement
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _unitary_moves(d: int, step: float) -> np.ndarray:
    """Closed-form one-parameter unitaries, each followed by its inverse.

    d phase and d(d-1) rotation moves, so a (2 d^2, d, d) stack.  Cached per
    (d, step) and read-only; the search's steps are 0.2 / 2^k >= 1e-8, so at
    most 25 entries per d.
    """
    p, q = np.triu_indices(d, 1)  # plane (p, q): a real rotation k, a complex one k + 1
    k = d + 2 * np.arange(len(p))
    g = np.tile(np.eye(d, dtype=np.complex128), (d + 2 * len(p), 1, 1))
    g[range(d), range(d), range(d)] = np.exp(1j * step)
    c, s = math.cos(step), math.sin(step)
    g[k, p, p] = g[k, q, q] = g[k + 1, p, p] = g[k + 1, q, q] = c
    g[k, p, q], g[k, q, p] = -s, s
    g[k + 1, p, q] = g[k + 1, q, p] = 1j * s
    moves = np.stack([g, np.swapaxes(g, 1, 2).conj()], axis=1).reshape(-1, d, d)
    moves.flags.writeable = False
    return moves


def _descent(v: np.ndarray, iters: int):
    """Gauss-Seidel descent of eps + eta over the geodesic moves from ``v``.

    Yields each stack to score (first ``v`` itself) and is sent its values.
    Each move of a sweep is tried from the current point in turn and taken
    if it lowers the sum: the moves still to try are one stack, the first
    that improves is taken and the ones after it are rescored from the new
    point.  When a sweep takes no move the step halves, down to _STEP_FLOOR.
    """
    best = float((yield v[None])[0])
    step = 0.2
    for _ in range(iters):
        moves = _unitary_moves(v.shape[-1], step)
        improved = False
        while len(moves):
            cands = v @ moves
            vals = yield cands
            hits = np.flatnonzero(vals < best - 1e-15)
            if not hits.size:
                break
            k = hits[0]
            v, best = cands[k], float(vals[k])
            moves = moves[k + 1:]
            improved = True
        if not improved:
            step *= 0.5
            if step < _STEP_FLOOR:
                break
    return OrthonormalBasis(vectors=v), best


def _local_search(a: OrthonormalBasis, b: OrthonormalBasis,
                  starts: List[OrthonormalBasis],
                  iters: int) -> List[Tuple[OrthonormalBasis, float]]:
    """One :func:`_descent` per start, run in lockstep rounds.

    Each round scores the stacks of every unfinished descent with one call
    to each metric.  A stacked value does not depend on its place in the
    stack, so each (basis, value) is that of the descent run alone.
    """
    def objective(stack: np.ndarray) -> np.ndarray:
        return metrics.error_values(a, stack) + metrics.disturbance_values(stack, b)

    descents = [_descent(s.vectors.copy(), iters) for s in starts]
    results: list = [None] * len(starts)
    sends = dict.fromkeys(range(len(starts)))
    while True:
        stacks = {}
        for k, vals in sends.items():
            try:
                stacks[k] = descents[k].send(vals)
            except StopIteration as done:
                results[k] = done.value
        if not stacks:
            return results
        values = objective(np.concatenate(list(stacks.values())))
        ends = np.cumsum([len(x) for x in stacks.values()])
        sends = dict(zip(stacks, np.split(values, ends[:-1])))


def minimize_over_intermediate(a: OrthonormalBasis, b: OrthonormalBasis,
                               restarts: int, seed: int,
                               iters: int = 200) -> MinimizeResult:
    """Random-restart geodesic search for the A' minimizing eps + eta.

    Restart 0 starts at A and restart 1 at B relabeled to best match A (the
    conjectured optima); restart r >= 2 starts from the Haar-random basis of
    sub-stream (seed, r), clear of the streams (seed, 0) and (seed, 1) that
    a random (A, B) pair is drawn from.  All restarts run in one lockstep
    :func:`_local_search`; the first strictly lowest value wins.
    """
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.dim > _MAX_SEARCH_DIM:
        raise UnsupportedSizeError(f"search supports d <= {_MAX_SEARCH_DIM}, got {a.dim}")
    if restarts < 1:
        raise ValidationError(f"need at least one restart, got {restarts}")
    perm = list(metrics.relaxed_error(a, b).permutation)
    b_relabeled = OrthonormalBasis(vectors=b.vectors[perm].copy())
    starts = [a, b_relabeled] + [haar_random_basis(a.dim, seed, r) for r in range(2, restarts)]
    best_basis, best_val = None, np.inf
    for basis, val in _local_search(a, b, starts[:restarts], iters):
        if val < best_val:
            best_basis, best_val = basis, val
    min_delta = metrics.overall_error(a, best_basis, b).value
    return MinimizeResult(
        best_basis=best_basis,
        min_sum=float(best_val),
        min_delta=min_delta,
        distance_to_a=metrics.relaxed_error(best_basis, a).value,
        distance_to_b=metrics.relaxed_error(best_basis, b).value,
    )


def conjecture_search(d: int, trials: int, seed: int,
                      tol: float = ASSERTION_TOL) -> ConjectureRun:
    """Randomized search for violations of eps + eta >= f and delta >= f.

    Trial t draws A, A' and B from sub-streams (t, 0), (t, 1) and (t, 2).
    The argmin distances are those of the first trial with the least
    eps + eta slack.
    """
    if not 2 <= d <= _MAX_SEARCH_DIM:
        raise ValidationError(f"dimension must be in [2, {_MAX_SEARCH_DIM}], got {d}")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    min_slack_sum = np.inf
    min_slack_delta = np.inf
    violations: List[dict] = []
    argmin = None
    for first, (a, ap, b) in _haar_blocks(d, seed, range(trials), (0,), (1,), (2,)):
        eps = metrics.error(a, ap).value
        eta = metrics.disturbance(ap, b).value
        delta = metrics.overall_error(a, ap, b).value
        floor = metrics.conjecture_floor(a, b)
        slack_sum = eps + eta - floor
        slack_delta = delta - floor
        i = int(np.argmin(slack_sum))
        if slack_sum[i] < min_slack_sum:
            min_slack_sum = float(slack_sum[i])
            argmin = (a.vectors[i], ap.vectors[i], b.vectors[i])
        min_slack_delta = min(min_slack_delta, float(np.min(slack_delta)))
        for i in np.flatnonzero((slack_sum < -tol) | (slack_delta < -tol)):
            violations.append({
                "trial": first + int(i),
                "slack_sum": float(slack_sum[i]),
                "slack_delta": float(slack_delta[i]),
                "floor": float(floor[i]),
                "a": OrthonormalBasis(vectors=a.vectors[i]),
                "aprime": OrthonormalBasis(vectors=ap.vectors[i]),
                "b": OrthonormalBasis(vectors=b.vectors[i]),
            })
    a, ap, b = (OrthonormalBasis(vectors=v) for v in argmin)
    return ConjectureRun(dim=d, trials=trials, seed=seed,
                         min_slack_sum=min_slack_sum,
                         min_slack_delta=min_slack_delta,
                         violations=violations,
                         argmin_distance_to_a=metrics.relaxed_error(ap, a).value,
                         argmin_distance_to_b=metrics.relaxed_error(ap, b).value)


# ---------------------------------------------------------------------------
# Property verification over random instances
# ---------------------------------------------------------------------------

def verify_properties(dims=(2, 3, 4, 5), trials: int = 100, seed: int = 0,
                      tol: float = ASSERTION_TOL) -> PropertyRun:
    """Check Properties 1-4, reducibility and subsystems on random instances."""
    if not dims or not all(2 <= d <= linalg.MAX_DIM for d in dims):
        raise ValidationError(f"dims must be non-empty and in [2, {linalg.MAX_DIM}], got {dims}")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    checks: List[Tuple[str, bool, str]] = []

    # A name listed twice is one check over two slacks: the Perron-Frobenius
    # frame is non-negative and, being unitarily similar to D_i, isospectral.
    names = ("property1_error_bound", "property1_disturbance_bound", "property4_bound1",
             "property4_bound2", "property4_geometric_mean", "calibration_error_identity",
             "perron_frobenius_entries", "perron_frobenius_entries",
             "perron_frobenius_top_eigenvalue")
    bounds = np.array([1e-12, tol, tol, tol, tol, tol, 1e-12, 1e-10, 1e-10])
    for d in dims:
        worst = np.full(len(names), -np.inf)
        for _, (ap, b) in _haar_blocks(d, seed, range(trials), (0,), (1,), prefix=(d,)):
            eps = metrics.error(ap, b).value
            eta, i = metrics.disturbance(ap, b)
            frame = metrics.disturbance_matrix_in_frame(ap, b, i)
            spectrum = linalg.eigvals_hermitian(frame)
            d_i = metrics.disturbance_matrices(ap, b)[np.arange(len(i)), i]
            slacks = np.stack([
                eps - 1.0,
                eta - (1.0 - 1.0 / d),
                eta - metrics.disturbance_bound_1(ap, b),
                eta - metrics.disturbance_bound_2(ap, b),
                eta - np.sqrt((1.0 - 1.0 / d) * metrics.calibration_disturbance(ap, b)),
                np.abs(eps - np.sqrt(metrics.calibration_error(ap, b))),
                -np.min(frame, axis=(-2, -1)),
                np.max(np.abs(spectrum - linalg.eigvals_hermitian(d_i)), axis=-1),
                np.abs(spectrum[..., -1] - eta),
            ])
            worst = np.maximum(worst, np.max(slacks, axis=-1))
        for name in dict.fromkeys(names):
            k = [j for j, n in enumerate(names) if n == name]
            checks.append((f"{name}_d{d}", bool(np.all(worst[k] <= bounds[k])),
                           f"worst slack {np.max(worst[k]):.3e}"))

    # Property 1 equality witnesses.
    comp = computational_basis(2)
    flipped = OrthonormalBasis(vectors=comp.vectors[::-1].copy())
    checks.append(("property1_error_equality",
                   bool(abs(metrics.error(comp, flipped).value - 1.0) <= tol),
                   "orthogonal vector pair"))
    for d in dims:
        a = computational_basis(d)
        f = structures.fourier_basis(d)
        ok = bool(abs(metrics.disturbance(a, f).value - (1.0 - 1.0 / d)) <= tol)
        checks.append((f"property1_disturbance_equality_d{d}", ok, "unbiased basis pair"))

    # Property 2: direct sums take the max of eps and eta over their blocks.
    # Property 3: tensor products dominate each factor.  Trial t draws basis
    # w of qubit triple k from sub-stream (100 + t, k, w), resp. (200 + t, k, w).
    laws = (("property2_reducibility", 100, structures.direct_sum, 1e-12,
             lambda whole, part: np.abs(whole - part)),
            ("property3_subsystems", 200, structures.tensor_product, tol,
             lambda whole, part: part - whole))
    subs = [(k, w) for k in range(2) for w in range(3)]
    for name, offset, assemble, bound, slack in laws:
        worst = -np.inf
        for _, bases in _haar_blocks(2, seed, range(offset, offset + trials), *subs):
            parts = (bases[:3], bases[3:])
            asm = assemble(parts)
            part_eps = np.maximum(*(metrics.error(p[0], p[1]).value for p in parts))
            part_eta = np.maximum(*(metrics.disturbance(p[1], p[2]).value for p in parts))
            worst = max(worst,
                        np.max(slack(metrics.error(asm[0], asm[1]).value, part_eps)),
                        np.max(slack(metrics.disturbance(asm[1], asm[2]).value, part_eta)))
        checks.append((name, bool(worst <= bound), f"worst slack {worst:.3e}"))

    return PropertyRun(checks=checks)
