"""Exception types shared across the package, and the input rules that raise them."""

import math


class ValidationError(ValueError):
    """An input failed a structural check (hermiticity, orthonormality, ...)."""


class UnsupportedSizeError(ValidationError):
    """A dimension is outside the range this package is built for."""


def check_count(n: int, least: int, what: str) -> None:
    """ValidationError naming ``what`` unless the integer ``n`` is at least ``least``."""
    if n < least:
        raise ValidationError(f"{what}: need at least {least}, got {n}")


def check_finite(x: float, name: str) -> None:
    """ValidationError naming ``name`` unless ``x`` is a finite number."""
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x}")
