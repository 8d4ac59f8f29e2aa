"""State-independent error, disturbance and overall error.

The state-independent quantities are maxima over input states and reduce to
spectral radii of small Hermitian matrices, one per outcome label:

* error:        eps = max_i R(|a_i><a_i| - |a'_i><a'_i|)
                    = max_i sqrt(1 - |<a'_i|a_i>|^2)
* disturbance:  eta = max_i R(|b_i><b_i| - sum_k |<b_i|a'_k>|^2 |a'_k><a'_k|)
* overall:      delta = max over (i, j, sign) of R(error term +/- disturbance term)

Calibration variants, the two disturbance upper bounds, the relaxed
(label-free) error and the conjectured floor f = min(relaxed eps, eta) are
also provided.  A witness index is the lowest index whose value lies within
``TIE_TOL`` of the maximum, so exact ties go to the lowest index whatever the
round-off; the reported value is the maximum itself.

The bounds and the Perron-Frobenius frames, on which eta is solved, depend only
on the rows of W_ik = |<b_i|a'_k>|^2: ``bound1_rows``, ``bound2_rows``, ``frame_rows``.

``error``, ``disturbance``, ``overall_error``, ``overall_error_lower_bound``,
``relaxed_error``, ``conjecture_floor``, ``calibration_error``,
``calibration_disturbance`` and ``disturbance_bound_1``/``_2`` also take
batches of bases (vectors of shape (n, d, d), or one basis broadcast against
a batch) and then return arrays of shape (n,) in place of Python scalars.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import UnsupportedSizeError, ValidationError
from .measurement import OrthonormalBasis, require_same_dim
from .tolerances import TIE_TOL

# Exhaustive permutation enumeration in relaxed_error stays cheap up to here.
_MAX_RELAXED_DIM = 8


class WitnessValue(NamedTuple):
    value: float
    index: int


class OverallError(NamedTuple):
    value: float
    error_index: int
    disturbance_index: int
    sign: int


class RelaxedError(NamedTuple):
    value: float
    permutation: tuple


def _scalar(x):
    """A 0-d result as a Python scalar; a batch of results unchanged."""
    return x.item() if np.ndim(x) == 0 else x


def _witness(values: np.ndarray, axes: int = 1):
    """The maximum over the trailing ``axes`` axes of ``values`` and the lowest
    flat index (over those axes) within TIE_TOL of it."""
    flat = values if axes == 1 else values.reshape(values.shape[:values.ndim - axes] + (-1,))
    top = flat.max(axis=-1)
    index = (flat >= top[..., None] - TIE_TOL).argmax(axis=-1)
    return _scalar(top), _scalar(index)


# ---------------------------------------------------------------------------
# State-dependent quantities
# ---------------------------------------------------------------------------

def state_dependent_error(a: OrthonormalBasis, ap: OrthonormalBasis, psi):
    """max_i | |<a_i|psi>|^2 - |<a'_i|psi>|^2 |: the infinity distance between
    the outcome distributions of A and A' on the pure state psi.

    A float for one unit vector psi of shape (d,), an (n,) array for a batch
    of shape (n, d).
    """
    psi = linalg.check_states(psi, a.dim)
    return _scalar(np.max(np.abs(linalg.expectations(error_matrices(a, ap), psi)), axis=0))


def state_dependent_disturbance(ap: OrthonormalBasis, b: OrthonormalBasis, psi):
    """max_j |<psi|D_j|psi>|: the change in the B statistics on psi caused by
    measuring A' first and discarding its outcome.  Shapes as in
    :func:`state_dependent_error`.
    """
    psi = linalg.check_states(psi, b.dim)
    return _scalar(np.max(np.abs(linalg.expectations(disturbance_matrices(ap, b), psi)), axis=0))


# ---------------------------------------------------------------------------
# State-independent quantities
# ---------------------------------------------------------------------------

def _projectors(vectors: np.ndarray) -> np.ndarray:
    """Stack of |v_i><v_i| over the rows v_i of ``vectors`` (..., d, d)."""
    return np.einsum("...ij,...ik->...ijk", vectors, vectors.conj())


def _overlaps(ap: OrthonormalBasis, b: OrthonormalBasis) -> np.ndarray:
    """|<b_i|a'_k>| at [..., i, k], once the two bases are checked to match."""
    require_same_dim(ap, b)
    return np.abs(b.gram(ap))


def _residuals(a: OrthonormalBasis, ap: OrthonormalBasis):
    """o_i = <a_i|a'_i> and r_i = a'_i - o_i a_i, once the bases are checked to match."""
    require_same_dim(a, ap)
    o = np.einsum("...ij,...ij->...i", a.vectors.conj(), ap.vectors)
    return o, ap.vectors - o[..., None] * a.vectors


def _residual_norms(a: OrthonormalBasis, ap: OrthonormalBasis) -> np.ndarray:
    """|r_i| = sqrt(1 - |<a'_i|a_i>|^2), capped at 1: shape (..., d).

    The norm of a'_i minus its projection onto a_i stays accurate when the
    two bases nearly coincide (no cancellation in 1 - |o|^2).
    """
    return np.minimum(np.linalg.norm(_residuals(a, ap)[1], axis=-1), 1.0)


def error_matrices(a: OrthonormalBasis, ap: OrthonormalBasis) -> np.ndarray:
    """Stack over i of |a_i><a_i| - |a'_i><a'_i|."""
    require_same_dim(a, ap)
    return _projectors(a.vectors) - _projectors(ap.vectors)


def disturbance_matrices(ap: OrthonormalBasis, b: OrthonormalBasis) -> np.ndarray:
    """Stack over i of |b_i><b_i| - sum_k |<b_i|a'_k>|^2 |a'_k><a'_k|: shape
    (..., d, d, d), outcome i before the matrix axes."""
    w = _overlaps(ap, b) ** 2
    return _projectors(b.vectors) - np.einsum("...ik,...kxy->...ixy", w, _projectors(ap.vectors))


def disturbance_matrix(ap: OrthonormalBasis, b: OrthonormalBasis, i: int) -> np.ndarray:
    """|b_i><b_i| - sum_k |<b_i|a'_k>|^2 |a'_k><a'_k|."""
    return disturbance_matrices(ap, b)[i]


def error(a: OrthonormalBasis, ap: OrthonormalBasis) -> WitnessValue:
    """eps = max_i sqrt(1 - |<a'_i|a_i>|^2) with the maximizing outcome."""
    return WitnessValue(*_witness(_residual_norms(a, ap)))


def disturbance(ap: OrthonormalBasis, b: OrthonormalBasis) -> WitnessValue:
    """eta = max_i R(D_i) with the maximizing outcome, solved on the A' frames."""
    m = _overlaps(ap, b)
    return WitnessValue(*_witness(linalg.spectral_radius(frame_rows(m, m**2))))


def overall_error(a: OrthonormalBasis, ap: OrthonormalBasis,
                  b: OrthonormalBasis) -> OverallError:
    """delta = max over outcome pairs and relative sign of one spectral radius.

    The 2 d^2 matrices E_i + s D_j form one stack ordered (i, j, s) with
    s = +1 before s = -1, so the flat witness index is the lowest such triple.
    """
    require_same_dim(a, ap, b)
    e = error_matrices(a, ap)[..., :, None, None, :, :]
    t = disturbance_matrices(ap, b)  # e + (-t) is e - t bit for bit (IEEE 754)
    r = linalg.spectral_radius(e + np.stack([t, -t], axis=-3)[..., None, :, :, :, :])
    value, k = _witness(r, axes=3)
    i, j, s = np.unravel_index(k, r.shape[-3:])
    return OverallError(value, _scalar(i), _scalar(j), _scalar(1 - 2 * s))


def overall_error_lower_bound(a: OrthonormalBasis, ap: OrthonormalBasis,
                              b: OrthonormalBasis):
    """max_{i,j} |<v_i|E_i|v_i>| + |<v_i|D_j|v_i>| <= delta, with no eigensolve.

    v_i = (1 + s_i) a_i - conj(o_i) r_i / s_i normalised (a_i if s_i = |r_i| = 0;
    o_i, r_i from :func:`_residuals`) is the top eigenvector of E_i, and one
    sign gives R(E_i +/- D_j) >= |<v_i|E_i +/- D_j|v_i>| = the (i, j) term.
    <v|D_j|v> = |<b_j|v>|^2 - sum_k W_jk |<a'_k|v>|^2 needs only overlaps.
    """
    o, r = _residuals(a, ap)
    s = np.linalg.norm(r, axis=-1)
    v = (1.0 + s)[..., None] * a.vectors - (o.conj() / np.where(s > 0, s, 1.0))[..., None] * r
    v = OrthonormalBasis(vectors=v / np.linalg.norm(v, axis=-1, keepdims=True))
    p = np.abs(v.gram(ap)) ** 2  # p[..., i, k] = |<a'_k|v_i>|^2
    e = np.abs(np.diagonal(np.abs(v.gram(a)) ** 2 - p, axis1=-2, axis2=-1))
    t = np.abs(np.abs(v.gram(b)) ** 2 - p @ np.swapaxes(_overlaps(ap, b) ** 2, -1, -2))
    return _scalar(np.max(e + np.max(t, axis=-1), axis=-1))


def _calibration_rows(w: np.ndarray) -> np.ndarray:
    """1 - sum_k w_k^2 per row w = |<b_i|a'_k>|^2 over k."""
    return 1.0 - np.sum(w**2, axis=-1)


def bound1_rows(w: np.ndarray) -> np.ndarray:
    """sqrt((1 - 1/d)(1 - sum_k w_k^2)) per row w = |<b_i|a'_k>|^2 over k."""
    d = w.shape[-1]
    return np.sqrt((1.0 - 1.0 / d) * np.clip(_calibration_rows(w), 0.0, None))


def bound2_rows(m: np.ndarray) -> np.ndarray:
    """max_j m_j sum_{k != j} m_k per row m = |<b_i|a'_k>| over k."""
    return np.max(m * (np.sum(m, axis=-1, keepdims=True) - m), axis=-1)


def frame_rows(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """m m^T - diag(w) per row w of W and m = sqrt(w) (both given, so W stays
    exact): D_i in the A' frame rephased to make every <a'_k|b_i> >= 0."""
    return m[..., :, None] * m[..., None, :] - w[..., None] * np.eye(w.shape[-1])


def disturbance_matrix_in_frame(ap: OrthonormalBasis, b: OrthonormalBasis,
                                i) -> np.ndarray:
    """D_i in the rephased A' frame: entries c_j c_k - delta_jk c_k^2 with
    c_k = |<a'_k|b_i>|, all non-negative.  For a batch of bases, ``i`` may
    hold one outcome per basis, giving shape (n, d, d).
    """
    m = _overlaps(ap, b)
    c = np.take_along_axis(m, np.expand_dims(i, (-2, -1)), axis=-2)[..., 0, :]
    return frame_rows(c, c**2)


def calibration_error(a: OrthonormalBasis, ap: OrthonormalBasis):
    """eps^c = max_i (1 - |<a'_i|a_i>|^2); satisfies eps = sqrt(eps^c)."""
    return _scalar(np.max(_residual_norms(a, ap) ** 2, axis=-1))


def calibration_disturbance(ap: OrthonormalBasis, b: OrthonormalBasis):
    """eta^c = max_i (1 - sum_k |<a'_k|b_i>|^4)."""
    return _scalar(np.max(_calibration_rows(_overlaps(ap, b) ** 2), axis=-1))


def disturbance_bound_1(ap: OrthonormalBasis, b: OrthonormalBasis):
    """max_i sqrt((1 - 1/d)(1 - sum_k |<a'_k|b_i>|^4))."""
    return _scalar(np.max(bound1_rows(_overlaps(ap, b) ** 2), axis=-1))


def disturbance_bound_2(ap: OrthonormalBasis, b: OrthonormalBasis):
    """max_{i,j} |<a'_j|b_i>| sum_{k != j} |<a'_k|b_i>| (Frobenius column bound)."""
    return _scalar(np.max(bound2_rows(_overlaps(ap, b)), axis=-1))


def relaxed_error(a: OrthonormalBasis, b: OrthonormalBasis) -> RelaxedError:
    """Error minimized over relabelings of the second measurement's outcomes.

    Exhaustive over permutations; a bottleneck-assignment solver would scale
    further but is unnecessary at desk scale.  Ties go to the first
    permutation in lexicographic order.
    """
    require_same_dim(a, b)
    d = a.dim
    if d > _MAX_RELAXED_DIM:
        raise UnsupportedSizeError(
            f"relaxed error enumerates permutations; d = {d} exceeds {_MAX_RELAXED_DIM}"
        )
    # sin2[..., i, j] = 1 - |<b_j|a_i>|^2 via the orthogonal residual
    # (accurate when a_i and b_j nearly coincide).
    av, bv = a.vectors, b.vectors
    o = b.gram(a)  # o[..., j, i] = <b_j|a_i>
    resid = av[..., None, :, :] - o[..., :, :, None] * bv[..., :, None, :]
    sin2 = np.swapaxes(np.sum(np.abs(resid) ** 2, axis=-1), -1, -2)
    perms = np.array(list(itertools.permutations(range(d))))  # lexicographic
    worst = np.max(sin2[..., np.arange(d), perms], axis=-1)  # (..., d!)
    value = _scalar(np.sqrt(np.min(worst, axis=-1)))
    perm = perms[np.argmin(worst, axis=-1)]
    return RelaxedError(value, tuple(perm.tolist()) if perm.ndim == 1 else perm)


def conjecture_floor(a: OrthonormalBasis, b: OrthonormalBasis):
    """f(A, B) = min(relaxed error, disturbance)."""
    return _scalar(np.minimum(relaxed_error(a, b).value, disturbance(a, b).value))


# ---------------------------------------------------------------------------
# Bundled report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradeoffReport:
    """All trade-off quantities for one (A, A', B) triple.

    ``witness_state`` is the unit eigenvector achieving the spectral radius
    that wins the overall-error maximization.
    """

    epsilon: float
    eta: float
    delta: float
    epsilon_cal: float
    eta_cal: float
    bound1: float
    bound2: float
    witness_error_index: int
    witness_disturbance_index: int
    witness_sign: int
    witness_state: np.ndarray


def tradeoff_report(a: OrthonormalBasis, ap: OrthonormalBasis,
                    b: OrthonormalBasis) -> TradeoffReport:
    eps = error(a, ap)
    eta = disturbance(ap, b)
    delta = overall_error(a, ap, b)
    winning = (error_matrices(a, ap)[delta.error_index]
               + delta.sign * disturbance_matrix(ap, b, delta.disturbance_index))
    w, v = linalg.eig_hermitian(winning)
    k = int(np.argmax(np.abs(w)))
    return TradeoffReport(
        epsilon=eps.value,
        eta=eta.value,
        delta=delta.value,
        epsilon_cal=calibration_error(a, ap),
        eta_cal=calibration_disturbance(ap, b),
        bound1=disturbance_bound_1(ap, b),
        bound2=disturbance_bound_2(ap, b),
        witness_error_index=delta.error_index,
        witness_disturbance_index=delta.disturbance_index,
        witness_sign=delta.sign,
        witness_state=v[:, k].copy(),
    )
