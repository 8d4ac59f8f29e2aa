"""Independent brute-force verifiers.

Each sampled objective is the sum over one or two families of the family's
largest term, a signed Born-rule combination such as
``|<a_i|psi>|^2 - |<a'_i|psi>|^2``.  Every entry point maximises one
objective over a sample set of unit vectors that the caller passes in, so
calls that should see the same samples (as ``oracle-check``'s three calls
per trial do) are given the same array; ``haar_states`` draws one.  The
samples are scored in the Born form; the ascent and the final values use the
Hermitian matrix of the same quadratic form.  One term per family makes a
piece.  Every piece climbs from its own best sample, by the power method on
its shifted matrix, squared at every step, taken for all pieces at once, so
none can stall in another piece's basin.
Every family is a signed pair [M; -M], held and scored as its + half M only:
negation is exact in floating point, so the - half's values are the
negations of the + half's.
2x2 and 3x3 Hermitian eigenvalues come from closed forms.  Nothing here ever
calls the eigensolver, so agreement with the analytic path is evidence rather
than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count
from .linalg import check_dim, check_hermitian, check_states, expectations, rng_from
from .measurement import OrthonormalBasis, require_same_dim

_RESIDUAL_FLOOR = 1e-10
_BLOCK = 256
# Scores per pass over the samples: a pass scores every piece on a chunk of
# max(_BLOCK, _CHUNK_SCORES // pieces) samples, so few pieces take few
# passes.  The budget keeps a pass's arrays under the 128 KB past which
# glibc's malloc maps fresh pages: at 2**14, each eps or eta call at d = 4
# page-faulted on its 256 KB arrays.
_CHUNK_SCORES = 2**12


@dataclass(frozen=True)
class OracleResult:
    """Best value found and the unit vector attaining it.

    ``refinement_steps`` counts iterations of the batched refine loop, until
    the last piece stopped or the cap; one iteration squares the shifted
    matrix of every piece still refining.  ``samples_used`` counts the rows
    of the sample set, all of which are scored.
    """
    value: float
    maximizer: np.ndarray
    samples_used: int
    refinement_steps: int


def _family(coeffs: np.ndarray, vectors: np.ndarray) -> tuple:
    """The terms sum_k coeffs[t, k] |<v_k|psi>|^2 over rows t, the + half of a
    family whose - half is their negation, as (matrices, coeffs, vectors):
    the matrices for the ascent, the Born form for scoring samples."""
    return np.einsum("tk,ki,kj->tij", coeffs, vectors, vectors.conj()), coeffs, vectors


def _born_scores(coeffs: np.ndarray, vectors: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """(t, s) values of a family's Born form on states ``draw`` (s, d)."""
    amp = vectors.conj() @ draw.T
    return coeffs @ (amp.real ** 2 + amp.imag ** 2)


def _pieces(parts):
    """Every sum of one entry (along axis 0) from each part, first part major."""
    out = parts[0]
    for part in parts[1:]:
        out = (out[:, None] + part[None, :]).reshape(-1, *out.shape[1:])
    return out


def haar_states(dim: int, samples: int, seed: int, *stream: int) -> np.ndarray:
    """``(samples, dim)`` Haar-random unit vectors from ``rng_from(seed,
    *stream)``, drawn per block of ``_BLOCK`` (real parts, then imaginary
    parts)."""
    check_dim(dim)
    check_count(samples, 1, "samples")
    rng = rng_from(seed, *stream)
    states = np.empty((samples, dim), dtype=np.complex128)
    for start in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - start)
        draw = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        states[start:start + n] = draw / np.linalg.norm(draw, axis=1, keepdims=True)
    return states


def _maximize(families, states, refine_iters: int) -> OracleResult:
    """Maximum over unit vectors of the sum over ``families`` of the family's
    largest term.  Each family is given by its + half M, as (M, coeffs,
    vectors) with the Born form of M, and stands for the signed pair
    [M; -M], so its largest term at psi is max |<psi|M|psi>|.

    ``states`` is a non-empty ``(n, d)`` set of unit vectors.  Each family's
    + half is scored in its Born form once per chunk of
    max(_BLOCK, _CHUNK_SCORES // pieces) samples, and its - half scores the
    negated values.  Every piece (one term from each family) starts from its
    best sample, and all pieces climb together by the power method with
    repeated squaring.  A piece M starts with S = M/|M|_F + I (S = I for
    M = 0), which is positive semidefinite because |M|_F >= |lambda_min|;
    each step sets psi <- S psi/|S psi| and S <- S^2/|S^2|_F, so after k
    steps psi is S^(2^k - 1) psi_0 normalised.  Since S >= 0 shares M's
    eigenvectors, the Rayleigh quotient of S^p psi_0 never falls as p grows.
    A piece stops once its residual r = M psi - <psi|M|psi> psi has
    |r| < 1e-10.
    """
    dim = families[0][0].shape[-1]
    states = check_states(states, dim)
    if states.ndim != 2 or not len(states):
        raise ValidationError(f"expected n >= 1 states of shape (n, {dim}), got {states.shape}")
    check_count(refine_iters, 1, "refine_iters")
    pieces = _pieces([np.concatenate([m, -m]) for m, _, _ in families])
    every = np.arange(len(pieces))
    psi = np.zeros((len(pieces), dim), dtype=np.complex128)
    value = np.full(len(pieces), -np.inf)
    chunk = max(_BLOCK, _CHUNK_SCORES // len(pieces))
    for start in range(0, len(states), chunk):
        draw = states[start:start + chunk]
        plus = [_born_scores(c, v, draw) for _, c, v in families]
        vals = _pieces([np.concatenate([p, -p]) for p in plus])
        best = np.argmax(vals, axis=1)
        top = vals[every, best]
        better = top > value
        psi[better] = draw[best[better]]
        value[better] = top[better]
    # The live pieces are held compacted; a piece leaves once |r| < the floor.
    norm = np.linalg.norm(pieces, axis=(1, 2))
    shift = pieces / np.where(norm > 0, norm, 1.0)[:, None, None] + np.eye(dim)
    live, mats, at = every, pieces, psi
    steps = 0
    while steps < refine_iters:
        g = (mats @ at[:, :, None])[:, :, 0]
        q = (at.conj() * g).real.sum(axis=1)
        r = g - q[:, None] * at
        keep = np.linalg.norm(r, axis=1) >= _RESIDUAL_FLOOR
        if not keep.all():
            psi[live] = at
            live, mats, shift, at = live[keep], mats[keep], shift[keep], at[keep]
            if not live.size:
                break
        at = (shift @ at[:, :, None])[:, :, 0]
        at /= np.linalg.norm(at, axis=1, keepdims=True)
        shift = shift @ shift
        shift /= np.linalg.norm(shift, axis=(1, 2))[:, None, None]
        steps += 1
    psi[live] = at
    total = sum(np.max(np.abs(expectations(m, psi)), axis=0) for m, _, _ in families)
    k = int(np.argmax(total))
    return OracleResult(value=float(total[k]), maximizer=psi[k],
                        samples_used=len(states), refinement_steps=steps)


def max_expectation(m: np.ndarray, states, refine_iters: int) -> OracleResult:
    """Sampled maximum of |<psi|m|psi>| over unit vectors (Hermitian m)."""
    return _maximize((_hermitian_family(check_hermitian(m)),), states, refine_iters)


def _hermitian_family(h: np.ndarray) -> tuple:
    """h as a family of one term, with the Born form h = sum_k |l_k><l_k| - cI.
    The l_k are the columns of the Cholesky factor of h + cI, where
    c = |h|_inf + 1 (largest absolute row sum); since |h|_inf >=
    |lambda_min|, h + cI >= I is positive definite even when h + |h|_inf I
    is singular.  Unlike the Frobenius norm, |h|_inf squares no entry, so it
    stays finite for entries near 1e300."""
    d = h.shape[0]
    c = np.linalg.norm(h, np.inf) + 1.0
    chol = np.linalg.cholesky(h + c * np.eye(d))
    return (h[None], np.concatenate([np.ones(d), np.full(d, -c)])[None],
            np.vstack([chol.T, np.eye(d)]))


def _error_terms(a: OrthonormalBasis, ap: OrthonormalBasis) -> tuple:
    # eps_psi = max_i | |<a_i|psi>|^2 - |<a'_i|psi>|^2 |
    eye = np.eye(a.dim)
    return _family(np.hstack([eye, -eye]), np.vstack([a.vectors, ap.vectors]))


def _disturbance_terms(ap: OrthonormalBasis, b: OrthonormalBasis) -> tuple:
    # eta_psi = max_j | |<b_j|psi>|^2 - sum_k w_jk |<a'_k|psi>|^2 |,
    # with w_jk = |<b_j|a'_k>|^2
    w = np.abs(b.gram(ap)) ** 2
    return _family(np.hstack([np.eye(b.dim), -w]), np.vstack([b.vectors, ap.vectors]))


def max_sum_over_states(a: OrthonormalBasis, ap: OrthonormalBasis,
                        b: OrthonormalBasis, states, refine_iters: int) -> OracleResult:
    """Sampled maximum of eps_rho + eta_rho over pure states."""
    require_same_dim(a, ap, b)
    return _maximize((_error_terms(a, ap), _disturbance_terms(ap, b)), states,
                     refine_iters)


def max_error_over_states(a: OrthonormalBasis, ap: OrthonormalBasis, states,
                          refine_iters: int) -> OracleResult:
    """Sampled maximum of the state-dependent error over pure states."""
    require_same_dim(a, ap)
    return _maximize((_error_terms(a, ap),), states, refine_iters)


def max_disturbance_over_states(ap: OrthonormalBasis, b: OrthonormalBasis, states,
                                refine_iters: int) -> OracleResult:
    """Sampled maximum of the state-dependent disturbance over pure states."""
    require_same_dim(ap, b)
    return _maximize((_disturbance_terms(ap, b),), states, refine_iters)


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
