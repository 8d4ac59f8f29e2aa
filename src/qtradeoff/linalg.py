"""Dense complex linear algebra for small dimensions (d <= MAX_DIM = 16).

Hermitian eigenvalues, eigenvectors and spectral radii come from LAPACK
through ``np.linalg.eigvalsh``/``eigh`` and accept one matrix or a stack of
shape ``(..., d, d)``.  Quadratic forms <psi|M|psi> broadcast the same way
and need no eigensolver.  Haar-random unitaries are sampled exactly via the
Ginibre + QR construction.  Everything is deterministic given explicit seeds.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import UnsupportedSizeError, ValidationError, check_count
from .tolerances import VALIDATION_TOL

# Largest Hilbert-space dimension the package is built for.
MAX_DIM = 16


def check_dim(d: int, hi: int = MAX_DIM) -> None:
    """UnsupportedSizeError unless ``d`` is an integer with 2 <= d <= hi."""
    if not (isinstance(d, numbers.Integral) and 2 <= d <= hi):
        raise UnsupportedSizeError(f"dimension must be in [2, {hi}], got {d}")


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Reproducible 64-bit generator (PCG64) for (seed, sub-stream) pairs.

    Sub-stream indices let independent trials derive their own generators
    from one master seed, so results do not depend on evaluation order.
    Every generator is built here, so seed and indices are checked here.
    SeedSequence makes one uint32 word of each int below 2**32, so a key of
    such ints goes in as the (cheaper) uint32 array of the same words.
    """
    check_count(seed, 0, "seed")
    for s in stream:
        check_count(s, 0, "sub-stream index")
    key = [seed, *stream]
    return np.random.default_rng(np.array(key, dtype=np.uint32) if max(key) < 2**32
                                 else [int(k) for k in key])


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate hermiticity of ``m`` (or of each matrix in a stack) and
    return its symmetrized copy, float64 for real input, else complex128.

    Raises
    ------
    ValidationError
        If some entry of ``m - m^dagger`` exceeds ``VALIDATION_TOL`` in
        modulus or is not finite; the message names the offending entry.
    """
    m = np.asarray(m)
    m = m.astype(np.result_type(m, np.float64), copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected square matrices, got shape {m.shape}")
    mh = np.swapaxes(m, -1, -2).conj()
    dev = np.abs(m - mh)
    if not dev.max() <= VALIDATION_TOL:
        *batch, i, j = idx = np.unravel_index(np.argmax(dev), dev.shape)
        at = "".join(f"{k}," for k in batch)
        raise ValidationError(
            f"matrix is not Hermitian: |m[{at}{i},{j}] - conj(m[{at}{j},{i}])| = {dev[idx]:.3e}"
        )
    return 0.5 * (m + mh)


def check_states(psi, dim: int) -> np.ndarray:
    """Unit vectors of shape (dim,) or (n, dim), else ValidationError."""
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim not in (1, 2) or psi.shape[-1] != dim:
        raise ValidationError(f"expected states of shape ({dim},) or (n, {dim}), got {psi.shape}")
    dev = np.max(np.abs(np.linalg.norm(psi, axis=-1) - 1.0), initial=0.0)
    if not dev <= VALIDATION_TOL:
        raise ValidationError(f"state vector is not normalized: ||psi| - 1| = {dev:.3e}")
    return psi


def eig_hermitian(m: np.ndarray):
    """``(eigenvalues, eigenvectors)`` of Hermitian matrices.

    Eigenvalues are ascending; column ``k`` of the eigenvectors is the unit
    eigenvector for eigenvalue ``k``.
    """
    return np.linalg.eigh(check_hermitian(m))


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """Eigenvalues only, ascending along the last axis."""
    return np.linalg.eigvalsh(check_hermitian(m))


def spectral_radius(m: np.ndarray):
    """max_k |lambda_k|: a float for one matrix, an array for a stack."""
    r = np.abs(eigvals_hermitian(m)).max(axis=-1)
    return float(r) if r.ndim == 0 else r


def expectations(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Real <psi|M|psi>, broadcast over leading axes.

    Terms of shape (t, d, d) against states (s, d) give (t, s); pieces
    (P, d, d) against candidates (P, m, d) give (P, m).
    """
    return np.einsum("...j,...j->...", psi.conj() @ m, psi).real


def haar_unitaries(dim: int, seed: int, streams) -> np.ndarray:
    """Stack of Haar-distributed unitaries via complex Ginibre + QR with phase fix.

    Entry t draws its Ginibre matrix from ``rng_from(seed, *streams[t])``, so
    it equals ``haar_unitary(dim, seed, *streams[t])``; all entries share one
    stacked QR.  The diagonal of R is rotated to be real positive, which makes
    the QR map well defined and the resulting Q exactly Haar distributed.
    """
    check_dim(dim)
    x = np.empty((len(streams), 2, dim, dim))
    for t, stream in enumerate(streams):
        x[t] = rng_from(seed, *stream).standard_normal((2, dim, dim))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(dim: int, seed: int, *stream: int) -> np.ndarray:
    """One Haar-distributed unitary drawn from ``rng_from(seed, *stream)``."""
    return haar_unitaries(dim, seed, [stream])[0]


def haar_unit_vector(dim: int, seed: int, *stream: int) -> np.ndarray:
    """Haar-random unit vector (the first column of a Haar unitary in law)."""
    check_dim(dim)
    rng = rng_from(seed, *stream)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)
