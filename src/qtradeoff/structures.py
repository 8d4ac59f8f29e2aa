"""Constructors for structured measurement triples.

Fourier (MUB) partners of the computational basis, direct sums of smaller
triples (block-reducible instances) and tensor products of triples
(subsystem instances).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .errors import UnsupportedSizeError, ValidationError
from .linalg import MAX_DIM
from .measurement import OrthonormalBasis, make_basis

BasisTriple = Tuple[OrthonormalBasis, OrthonormalBasis, OrthonormalBasis]


def fourier_basis(d: int) -> OrthonormalBasis:
    """Fourier partner of the computational basis: v_j[k] = e^{2 pi i jk/d}/sqrt(d).

    All squared overlaps with the computational basis equal 1/d, so the two
    bases are mutually unbiased in every dimension.
    """
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return make_basis(np.exp(2j * np.pi * j * k / d) / np.sqrt(d))


def direct_sum(blocks: Sequence[BasisTriple]) -> BasisTriple:
    """Assemble block triples into one triple on the direct-sum space.

    Outcome labels are concatenated in block order, so outcome ``i`` of block
    ``k`` keeps its per-block correspondence.  Blocks of dimension 1 are
    allowed as trivial summands.
    """
    if not blocks:
        raise ValidationError("direct sum needs at least one block")
    dims = []
    for t, triple in enumerate(blocks):
        if len(triple) != 3:
            raise ValidationError(f"block {t} is not a triple of bases")
        d = triple[0].dim
        if any(x.dim != d for x in triple):
            raise ValidationError(f"block {t} has mismatched dimensions")
        dims.append(d)
    total = sum(dims)
    out = []
    for which in range(3):
        vectors = np.zeros((total, total), dtype=np.complex128)
        offset = 0
        for d, triple in zip(dims, blocks):
            vectors[offset:offset + d, offset:offset + d] = triple[which].vectors
            offset += d
        out.append(make_basis(vectors))
    return tuple(out)


def tensor_product(factors: Sequence[BasisTriple]) -> BasisTriple:
    """Kronecker-product triple with lexicographic outcome ordering.

    Composite outcome (i, j) of a two-factor product maps to index
    i * d2 + j (zero-based), matching ``np.kron`` of the factor vectors.
    """
    if not factors:
        raise ValidationError("tensor product needs at least one factor")
    total = 1
    for t, triple in enumerate(factors):
        if len(triple) != 3:
            raise ValidationError(f"factor {t} is not a triple of bases")
        d = triple[0].dim
        if any(x.dim != d for x in triple):
            raise ValidationError(f"factor {t} has mismatched dimensions")
        total *= d
    if not 2 <= total <= MAX_DIM:
        raise UnsupportedSizeError(f"total dimension {total} outside [2, {MAX_DIM}]")
    out = []
    for which in range(3):
        vectors = np.array([[1.0 + 0j]])
        for triple in factors:
            vectors = np.kron(vectors, triple[which].vectors)
        out.append(make_basis(vectors))
    return tuple(out)
