"""Two-dimensional specialization in Bloch-vector form.

Every trade-off quantity has a closed form on the Bloch sphere:

* eps  = |a - a'| / 2
* eta  = |b - (b . a') a'| / 2
* delta = max over the relative sign of |(a - a') +/- (b - (b . a') a')| / 2

The floor of the d=2 trade-off relation is |a x b| / 2 = sin(theta) / 2.
Conventions: the first basis vector maps to +a, and basis phases are fixed by
making the first nonzero amplitude real positive, so the round trip with
:func:`bloch_to_basis` is exact.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .measurement import OrthonormalBasis
from .tolerances import VALIDATION_TOL


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValidationError(f"{name} must be a real 3-vector, got shape {v.shape}")
    if not abs(np.linalg.norm(v) - 1.0) <= VALIDATION_TOL:
        raise ValidationError(f"{name} must be a unit vector, |{name}| = {np.linalg.norm(v):.3e}")
    return v


def basis_to_bloch(basis: OrthonormalBasis) -> np.ndarray:
    """Bloch vector of the first basis vector: |v_1><v_1| = (I + a.sigma)/2."""
    if basis.dim != 2:
        raise ValidationError(f"Bloch representation needs dim 2, got {basis.dim}")
    v0, v1 = basis.vectors[0]
    cross = np.conj(v0) * v1
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(v0) ** 2 - abs(v1) ** 2])


def _fix_phase(v: np.ndarray) -> np.ndarray:
    for amp in v:
        if abs(amp) > 1e-14:
            return v * (np.conj(amp) / abs(amp))
    return v


def bloch_to_basis(a) -> OrthonormalBasis:
    """Orthonormal 2d basis whose first vector has Bloch vector +a."""
    a = _check_unit(a, "a")
    theta = np.arccos(np.clip(a[2], -1.0, 1.0))
    phi = np.arctan2(a[1], a[0])
    v0 = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    v1 = np.array([np.sin(theta / 2), -np.exp(1j * phi) * np.cos(theta / 2)])
    return OrthonormalBasis(vectors=np.array([_fix_phase(v0), _fix_phase(v1)]))


def bloch_error(a, ap) -> float:
    a = _check_unit(a, "a")
    ap = _check_unit(ap, "ap")
    return 0.5 * float(np.linalg.norm(a - ap))


def bloch_disturbance(ap, b) -> float:
    ap = _check_unit(ap, "ap")
    b = _check_unit(b, "b")
    return 0.5 * float(np.linalg.norm(b - np.dot(b, ap) * ap))


def bloch_overall(a, ap, b) -> float:
    """Exact maximum over states of the summed deviation.

    max over unit n of (|u.n| + |v.n|)/2 equals max over signs of |u +/- v|/2.
    """
    a = _check_unit(a, "a")
    ap = _check_unit(ap, "ap")
    b = _check_unit(b, "b")
    u = a - ap
    v = b - np.dot(b, ap) * ap
    return 0.5 * float(max(np.linalg.norm(u + v), np.linalg.norm(u - v)))


def theorem_floor(a, b) -> float:
    """Lower bound |a x b| / 2 for both eps + eta and delta in d = 2."""
    a = _check_unit(a, "a")
    b = _check_unit(b, "b")
    return 0.5 * float(np.linalg.norm(np.cross(a, b)))
