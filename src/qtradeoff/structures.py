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


def _triple_dims(triples: Sequence[BasisTriple], op: str, kind: str):
    """Dimension of each triple and the batch shape all their bases share.

    Raises ValidationError naming the first malformed ``kind`` of ``op``.
    """
    if not triples:
        raise ValidationError(f"{op} needs at least one {kind}")
    for t, triple in enumerate(triples):
        if len(triple) != 3:
            raise ValidationError(f"{kind} {t} is not a triple of bases")
        if len({x.dim for x in triple}) != 1:
            raise ValidationError(f"{kind} {t} has mismatched dimensions")
    shapes = {x.vectors.shape[:-2] for triple in triples for x in triple}
    if len(shapes) != 1:
        raise ValidationError(f"{op} needs one batch shape, got {sorted(shapes)}")
    return [triple[0].dim for triple in triples], shapes.pop()


def direct_sum(blocks: Sequence[BasisTriple]) -> BasisTriple:
    """Assemble block triples into one triple on the direct-sum space.

    Outcome labels are concatenated in block order, so outcome ``i`` of block
    ``k`` keeps its per-block correspondence.  Blocks of dimension 1 are
    allowed as trivial summands.  Batch bases of one shared batch shape give
    the batch of direct sums.
    """
    dims, batch = _triple_dims(blocks, "direct sum", "block")
    total = sum(dims)
    vectors = np.zeros((3, *batch, total, total), dtype=np.complex128)
    for d, end, triple in zip(dims, np.cumsum(dims), blocks):
        vectors[..., end - d:end, end - d:end] = [x.vectors for x in triple]
    return tuple(make_basis(v) for v in vectors)


def tensor_product(factors: Sequence[BasisTriple]) -> BasisTriple:
    """Kronecker-product triple with lexicographic outcome ordering.

    Composite outcome (i, j) of a two-factor product maps to index
    i * d2 + j (zero-based), matching ``np.kron`` of the factor vectors
    entry for entry.  Batch bases of one shared batch shape give the batch
    of products.
    """
    dims, batch = _triple_dims(factors, "tensor product", "factor")
    total = int(np.prod(dims))
    if not 2 <= total <= MAX_DIM:
        raise UnsupportedSizeError(f"total dimension {total} outside [2, {MAX_DIM}]")
    vectors = np.ones((3, *batch, 1, 1), dtype=np.complex128)
    for triple in factors:
        y = np.stack([x.vectors for x in triple])
        # entry (i d2 + k, j d2 + l) is x_ij y_kl, the one product np.kron forms
        prod = vectors[..., :, None, :, None] * y[..., None, :, None, :]
        n = prod.shape[-4] * prod.shape[-3]
        vectors = prod.reshape(*prod.shape[:-4], n, n)
    return tuple(make_basis(v) for v in vectors)
