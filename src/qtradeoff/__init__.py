"""Error-disturbance trade-off quantities for consecutive projective measurements."""

from .errors import UnsupportedSizeError, ValidationError
from .measurement import (
    OrthonormalBasis,
    computational_basis,
    haar_random_basis,
    make_basis,
)
from .metrics import (
    TradeoffReport,
    calibration_disturbance,
    calibration_error,
    conjecture_floor,
    disturbance,
    disturbance_bound_1,
    disturbance_bound_2,
    error,
    overall_error,
    relaxed_error,
    state_dependent_disturbance,
    state_dependent_error,
    tradeoff_report,
)
from .structures import direct_sum, fourier_basis, tensor_product

__version__ = "0.1.0"

__all__ = [
    "OrthonormalBasis",
    "TradeoffReport",
    "UnsupportedSizeError",
    "ValidationError",
    "calibration_disturbance",
    "calibration_error",
    "computational_basis",
    "conjecture_floor",
    "direct_sum",
    "disturbance",
    "disturbance_bound_1",
    "disturbance_bound_2",
    "error",
    "fourier_basis",
    "haar_random_basis",
    "make_basis",
    "overall_error",
    "relaxed_error",
    "state_dependent_disturbance",
    "state_dependent_error",
    "tensor_product",
    "tradeoff_report",
]
