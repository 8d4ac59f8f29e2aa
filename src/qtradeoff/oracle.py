"""Independent brute-force verifiers.

Maxima over states are chased by Haar sampling followed by derivative-free
coordinate ascent on the unit sphere; 2x2 and 3x3 Hermitian eigenvalues come
from closed forms.  Nothing here ever calls the eigensolver, so agreement
with the analytic path is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .linalg import check_hermitian, haar_unit_vector
from .measurement import OrthonormalBasis

_STEP_FLOOR = 1e-10


@dataclass(frozen=True)
class OracleResult:
    value: float
    maximizer: np.ndarray
    samples_used: int
    refinement_steps: int


def _refine(objective: Callable[[np.ndarray], float], psi: np.ndarray,
            value: float, iters: int) -> tuple[np.ndarray, float, int]:
    """Projected coordinate ascent with shrinking step.

    Perturbs each complex coordinate along the real and imaginary axes in
    both directions, renormalizes, keeps improvements; the step halves after
    a sweep with no improvement and bottoms out at 1e-10.
    """
    d = psi.size
    step = 0.1
    steps_done = 0
    for _ in range(iters):
        improved = False
        for c in range(d):
            for direction in (1.0, -1.0, 1.0j, -1.0j):
                cand = psi.copy()
                cand[c] += step * direction
                cand /= np.linalg.norm(cand)
                val = objective(cand)
                if val > value:
                    psi, value = cand, val
                    improved = True
        steps_done += 1
        if not improved:
            step *= 0.5
            if step < _STEP_FLOOR:
                break
    return psi, value, steps_done


_REFINE_STARTS = 20


def _sample_then_refine(objective, dim: int, samples: int, refine_iters: int,
                        seed: int) -> OracleResult:
    # The objectives are maxima of piecewise-smooth pieces, so a single ascent
    # can stall in the wrong basin.  Refining the best sample of each chunk of
    # the stream gives several well-separated starting points.
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    chunks = min(_REFINE_STARTS, samples)
    starts = [(None, -np.inf)] * chunks
    for k in range(samples):
        psi = haar_unit_vector(dim, seed, k)
        val = objective(psi)
        c = k * chunks // samples
        if val > starts[c][1]:
            starts[c] = (psi, val)
    best_psi, best_val, total_steps = None, -np.inf, 0
    for psi, val in starts:
        psi, val, steps = _refine(objective, psi, val, refine_iters)
        total_steps += steps
        if val > best_val:
            best_psi, best_val = psi, val
    return OracleResult(value=best_val, maximizer=best_psi, samples_used=samples,
                        refinement_steps=total_steps)


def max_expectation(m: np.ndarray, samples: int, refine_iters: int,
                    seed: int) -> OracleResult:
    """Sampled maximum of |<psi|m|psi>| over unit vectors (Hermitian m)."""
    h = check_hermitian(m)

    def objective(psi: np.ndarray) -> float:
        return abs(np.real(psi.conj() @ h @ psi))

    return _sample_then_refine(objective, h.shape[0], samples, refine_iters, seed)


def _sum_objective(a: OrthonormalBasis, ap: OrthonormalBasis,
                   b: OrthonormalBasis) -> Callable[[np.ndarray], float]:
    # Direct Born-rule evaluation, no spectral machinery: for pure psi,
    # eps_rho = max_i | |<a_i|psi>|^2 - |<a'_i|psi>|^2 | and
    # eta_rho = max_i | |<b_i|psi>|^2 - sum_k |<a'_k|psi>|^2 |<b_i|a'_k>|^2 |.
    av = a.vectors.conj()
    apv = ap.vectors.conj()
    bv = b.vectors.conj()
    w = np.abs(b.gram(ap)) ** 2  # w[i, k] = |<b_i|a'_k>|^2

    def objective(psi: np.ndarray) -> float:
        pa = np.abs(av @ psi) ** 2
        pap = np.abs(apv @ psi) ** 2
        pb = np.abs(bv @ psi) ** 2
        pb_after = w @ pap
        return float(np.max(np.abs(pa - pap)) + np.max(np.abs(pb - pb_after)))

    return objective


def max_sum_over_states(a: OrthonormalBasis, ap: OrthonormalBasis,
                        b: OrthonormalBasis, samples: int, refine_iters: int,
                        seed: int) -> OracleResult:
    """Sampled maximum of eps_rho + eta_rho over pure states."""
    if not a.dim == ap.dim == b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim}, {ap.dim}, {b.dim}")
    return _sample_then_refine(_sum_objective(a, ap, b), a.dim, samples,
                               refine_iters, seed)


def max_error_over_states(a: OrthonormalBasis, ap: OrthonormalBasis,
                          samples: int, refine_iters: int, seed: int) -> OracleResult:
    """Sampled maximum of the state-dependent error over pure states."""
    if a.dim != ap.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {ap.dim}")
    av = a.vectors.conj()
    apv = ap.vectors.conj()

    def objective(psi: np.ndarray) -> float:
        return float(np.max(np.abs(np.abs(av @ psi) ** 2 - np.abs(apv @ psi) ** 2)))

    return _sample_then_refine(objective, a.dim, samples, refine_iters, seed)


def max_disturbance_over_states(ap: OrthonormalBasis, b: OrthonormalBasis,
                                samples: int, refine_iters: int,
                                seed: int) -> OracleResult:
    """Sampled maximum of the state-dependent disturbance over pure states."""
    if ap.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {ap.dim} vs {b.dim}")
    apv = ap.vectors.conj()
    bv = b.vectors.conj()
    w = np.abs(b.gram(ap)) ** 2

    def objective(psi: np.ndarray) -> float:
        pap = np.abs(apv @ psi) ** 2
        pb = np.abs(bv @ psi) ** 2
        return float(np.max(np.abs(pb - w @ pap)))

    return _sample_then_refine(objective, ap.dim, samples, refine_iters, seed)


def eig2_closed(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian 2x2 matrix by the quadratic formula."""
    h = check_hermitian(m)
    if h.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got {h.shape}")
    half_tr = 0.5 * (h[0, 0].real + h[1, 1].real)
    disc = math.sqrt(0.25 * (h[0, 0].real - h[1, 1].real) ** 2 + abs(h[0, 1]) ** 2)
    return np.array([half_tr - disc, half_tr + disc])


def eig3_closed(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian 3x3 matrix by the trigonometric cubic formula."""
    h = check_hermitian(m)
    if h.shape != (3, 3):
        raise ValidationError(f"expected a 3x3 matrix, got {h.shape}")
    q = np.trace(h).real / 3.0
    off2 = (abs(h[0, 1]) ** 2 + abs(h[0, 2]) ** 2 + abs(h[1, 2]) ** 2)
    p2 = sum((h[i, i].real - q) ** 2 for i in range(3)) + 2.0 * off2
    if p2 < 1e-30:
        return np.full(3, q)
    p = math.sqrt(p2 / 6.0)
    bmat = (h - q * np.eye(3)) / p
    det = np.linalg.det(bmat).real
    r = min(max(det / 2.0, -1.0), 1.0)
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return np.sort(np.array([lam1, lam2, lam3]))
