"""Dense complex linear algebra for small dimensions (d <= MAX_DIM = 16).

Hermitian eigenvalues, eigenvectors and spectral radii come from LAPACK
through ``np.linalg.eigvalsh``/``eigh`` and accept one matrix or a stack of
shape ``(..., d, d)``.  Quadratic forms <psi|M|psi> broadcast the same way
and need no eigensolver.  Haar-random unitaries are sampled exactly via the
Ginibre + QR construction.  Everything is deterministic given explicit seeds.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .tolerances import VALIDATION_TOL

# Largest Hilbert-space dimension the package is built for.
MAX_DIM = 16


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Reproducible 64-bit generator (PCG64) for (seed, sub-stream) pairs.

    Sub-stream indices let independent trials derive their own generators
    from one master seed, so results do not depend on evaluation order.
    """
    return np.random.default_rng([int(seed), *[int(s) for s in stream]])


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate hermiticity of ``m`` (or of each matrix in a stack) and
    return its symmetrized copy.

    Raises
    ------
    ValidationError
        If some entry of ``m - m^dagger`` exceeds ``VALIDATION_TOL`` in
        modulus or is not finite; the message names the offending entry.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected square matrices, got shape {m.shape}")
    mh = np.swapaxes(m, -1, -2).conj()
    dev = np.abs(m - mh)
    idx = np.unravel_index(np.argmax(dev), dev.shape)
    if not dev[idx] <= VALIDATION_TOL:
        *batch, i, j = idx
        at = "".join(f"{k}," for k in batch)
        raise ValidationError(
            f"matrix is not Hermitian: |m[{at}{i},{j}] - conj(m[{at}{j},{i}])| = {dev[idx]:.3e}"
        )
    return 0.5 * (m + mh)


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
    r = np.max(np.abs(eigvals_hermitian(m)), axis=-1)
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
    if dim < 2:
        raise ValidationError(f"dimension must be >= 2, got {dim}")
    g = np.empty((len(streams), dim, dim), dtype=np.complex128)
    for t, stream in enumerate(streams):
        g.real[t], g.imag[t] = rng_from(seed, *stream).standard_normal((2, dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(dim: int, seed: int, *stream: int) -> np.ndarray:
    """One Haar-distributed unitary drawn from ``rng_from(seed, *stream)``."""
    return haar_unitaries(dim, seed, [stream])[0]


def haar_unit_vector(dim: int, seed: int, *stream: int) -> np.ndarray:
    """Haar-random unit vector (the first column of a Haar unitary in law)."""
    if dim < 2:
        raise ValidationError(f"dimension must be >= 2, got {dim}")
    rng = rng_from(seed, *stream)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)
