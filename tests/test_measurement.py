import numpy as np
import pytest

from qtradeoff.errors import ValidationError
from qtradeoff.measurement import gram_schmidt_repair, haar_random_basis, make_basis


class TestBasisValidation:
    def test_rejects_non_orthonormal_naming_pair(self):
        v = np.eye(3, dtype=complex)
        v[1] = [0.1, 1.0, 0.0]
        with pytest.raises(ValidationError, match=r"indices 0, 1|indices 1, 0|indices 1, 1"):
            make_basis(v)

    def test_rejects_non_finite_entry(self):
        v = np.eye(3, dtype=complex)
        v[2, 0] = np.nan
        with pytest.raises(ValidationError):
            make_basis(v)

    def test_gram_schmidt_repair_of_truncated_file_input(self):
        basis = haar_random_basis(3, 5)
        rounded = np.round(basis.vectors, 9)  # ~1e-9 orthonormality damage
        with pytest.raises(ValidationError):
            make_basis(rounded)
        repaired = gram_schmidt_repair(rounded)
        assert np.max(np.abs(repaired.vectors - basis.vectors)) < 1e-8

    def test_repair_rejects_badly_broken_input(self):
        v = np.eye(2, dtype=complex)
        v[1] = [0.5, 1.0]
        with pytest.raises(ValidationError):
            gram_schmidt_repair(v)
