"""Exception types shared across the package, and the input rules that raise them."""

import math
import numbers


class ValidationError(ValueError):
    """An input failed a structural check (hermiticity, orthonormality, ...)."""


class UnsupportedSizeError(ValidationError):
    """A dimension is outside the range this package is built for."""


def check_count(n: int, least: int, what: str) -> None:
    """ValidationError naming ``what`` unless ``n`` is an integer of at least ``least``."""
    if type(n) is not int and not isinstance(n, numbers.Integral):  # int: skip the ABC check
        raise ValidationError(f"{what}: need an integer, got {n!r}")
    if n < least:
        raise ValidationError(f"{what}: need at least {least}, got {n}")


def check_finite(x: float, name: str) -> None:
    """ValidationError naming ``name`` unless ``x`` is a finite number."""
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x}")
