"""Projective-measurement model.

Orthonormal bases stand in for rank-one projective measurements: row ``i`` of
``OrthonormalBasis.vectors`` is the unit vector whose projector gives outcome
``i``.  Density matrices, Born-rule outcome distributions and the
unread-outcome collapse live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .tolerances import FILE_INPUT_TOL, VALIDATION_TOL


@dataclass(frozen=True)
class OrthonormalBasis:
    """d orthonormal complex vectors; ordering carries the outcome labels.

    ``vectors[i]`` is the i-th measurement vector.  Validation happens in
    :func:`make_basis`; direct construction skips it.  A batch of n bases
    holds vectors of shape (n, d, d); the metrics accept either.
    """

    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[-1]

    def gram(self, other: "OrthonormalBasis") -> np.ndarray:
        """Overlap matrix with entries <self_i | other_j>."""
        return self.vectors.conj() @ np.swapaxes(other.vectors, -1, -2)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrthonormalBasis) and np.array_equal(self.vectors, other.vectors)


def make_basis(vectors, tol: float = VALIDATION_TOL) -> OrthonormalBasis:
    """Validate orthonormality and wrap; never silently re-orthonormalizes.

    Raises
    ------
    ValidationError
        Naming the first offending pair of indices (i, j); i == j means a
        norm failure.  Non-finite entries fail too.
    """
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 1:
        raise ValidationError(f"expected d x d vectors, got shape {v.shape}")
    g = v.conj() @ v.T
    dev = np.abs(g - np.eye(v.shape[0]))
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    if not dev[i, j] <= tol:
        raise ValidationError(
            f"vectors are not orthonormal: |<v{i}|v{j}> - delta| = {dev[i, j]:.3e} "
            f"(indices {i}, {j})"
        )
    return OrthonormalBasis(vectors=v)


def gram_schmidt_repair(vectors, tol: float = FILE_INPUT_TOL) -> OrthonormalBasis:
    """Explicit repair of a near-orthonormal set (e.g. file input).

    Inputs must already be orthonormal within ``tol``; anything worse is an
    error, not a candidate for silent fixing.
    """
    v = np.asarray(vectors, dtype=np.complex128).copy()
    make_basis(v, tol=tol)  # reject anything beyond the repairable range
    for i in range(v.shape[0]):
        for j in range(i):
            v[i] -= (v[j].conj() @ v[i]) * v[j]
        v[i] /= np.linalg.norm(v[i])
    return make_basis(v)


def computational_basis(dim: int) -> OrthonormalBasis:
    if dim < 1:
        raise ValidationError(f"dimension must be >= 1, got {dim}")
    return OrthonormalBasis(vectors=np.eye(dim, dtype=np.complex128))


def haar_random_basis(dim: int, seed: int, *stream: int) -> OrthonormalBasis:
    """Basis whose column matrix is Haar unitary; bit-reproducible per seed."""
    u = linalg.haar_unitary(dim, seed, *stream)
    return OrthonormalBasis(vectors=u.T.copy())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_state(psi) -> DensityMatrix:
    """|psi><psi| for a unit vector psi."""
    psi = np.asarray(psi, dtype=np.complex128)
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= VALIDATION_TOL:
        raise ValidationError(f"state vector is not normalized: |psi| = {nrm!r}")
    return DensityMatrix(matrix=np.outer(psi, psi.conj()))


def random_pure_state(dim: int, seed: int, *stream: int) -> DensityMatrix:
    """Rank-one density matrix of a Haar-random unit vector."""
    return pure_state(linalg.haar_unit_vector(dim, seed, *stream))


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(matrix=np.eye(dim, dtype=np.complex128) / dim)


def _require_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")


def born_probabilities(basis: OrthonormalBasis, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution p_i = <v_i| rho |v_i>.

    Round-off below 1e-12 on either side of [0, 1] is clamped.
    """
    _require_same_dim(basis, rho)
    amps = basis.vectors.conj() @ rho.matrix @ basis.vectors.T
    p = np.real(np.diag(amps)).copy()
    p[(p < 0) & (p > -1e-12)] = 0.0
    return p


def post_measurement_state(basis: OrthonormalBasis, rho: DensityMatrix) -> DensityMatrix:
    """Unread-outcome collapse: sum_i p_i |v_i><v_i| (diagonal in ``basis``)."""
    p = born_probabilities(basis, rho)
    m = (basis.vectors.T * p) @ basis.vectors.conj()
    return DensityMatrix(matrix=0.5 * (m + m.conj().T))


def infinity_distance(x, y) -> float:
    """max_i |x_i - y_i| between two outcome distributions."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValidationError(f"length mismatch: {x.shape} vs {y.shape}")
    return float(np.max(np.abs(x - y)))
