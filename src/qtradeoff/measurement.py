"""Projective-measurement model.

Orthonormal bases stand in for rank-one projective measurements: row ``i`` of
``OrthonormalBasis.vectors`` is the unit vector whose projector gives outcome
``i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError, check_count
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


def require_same_dim(*bases: OrthonormalBasis) -> None:
    """Equal dimensions, and equal batch shapes among the batched bases."""
    shapes = [x.vectors.shape for x in bases]
    dims = [shape[-1] for shape in shapes]
    if len(set(dims)) > 1:
        raise ValidationError(f"dimension mismatch: {' vs '.join(map(str, dims))}")
    batches = [batch for batch in dict.fromkeys(shape[:-2] for shape in shapes) if batch]
    if len(batches) > 1:
        raise ValidationError(f"batch shape mismatch: {' vs '.join(map(str, batches))}")


def make_basis(vectors, tol: float = VALIDATION_TOL) -> OrthonormalBasis:
    """Validate orthonormality and wrap; never silently re-orthonormalizes.

    Takes one basis of shape (d, d) or a batch of shape (..., d, d).

    Raises
    ------
    ValidationError
        Naming the worst pair of indices (i, j), the first if several tie;
        i == j means a norm failure.  For a batch the message also names the
        batch index of that pair.  Non-finite entries fail too.
    """
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2] or v.size == 0:
        raise ValidationError(f"expected d x d vectors, got shape {v.shape}")
    dev = np.abs(v.conj() @ np.swapaxes(v, -1, -2) - np.eye(v.shape[-1]))
    *batch, i, j = idx = np.unravel_index(np.argmax(dev), dev.shape)
    if not dev[idx] <= tol:
        where = f" of basis {','.join(map(str, batch))}" if batch else ""
        raise ValidationError(
            f"vectors are not orthonormal: |<v{i}|v{j}> - delta| = {dev[idx]:.3e} "
            f"(indices {i}, {j}{where})"
        )
    return OrthonormalBasis(vectors=v)


def gram_schmidt_repair(vectors, tol: float = FILE_INPUT_TOL) -> OrthonormalBasis:
    """Explicit repair of a near-orthonormal set (e.g. file input).

    Inputs must already be orthonormal within ``tol``; anything worse is an
    error, not a candidate for silent fixing.
    """
    v = np.asarray(vectors, dtype=np.complex128).copy()
    if v.ndim != 2:
        raise ValidationError(f"expected d x d vectors, got shape {v.shape}")
    make_basis(v, tol=tol)  # reject anything beyond the repairable range
    for i in range(v.shape[0]):
        for j in range(i):
            v[i] -= (v[j].conj() @ v[i]) * v[j]
        v[i] /= np.linalg.norm(v[i])
    return make_basis(v)


def computational_basis(dim: int) -> OrthonormalBasis:
    check_count(dim, 1, "dimension")
    return OrthonormalBasis(vectors=np.eye(dim, dtype=np.complex128))


def haar_random_basis(dim: int, seed: int, *stream: int) -> OrthonormalBasis:
    """Basis whose column matrix is Haar unitary; bit-reproducible per seed."""
    u = linalg.haar_unitary(dim, seed, *stream)
    return OrthonormalBasis(vectors=u.T.copy())
