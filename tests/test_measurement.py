import numpy as np
import pytest

from qtradeoff.errors import ValidationError
from qtradeoff.measurement import (
    computational_basis,
    gram_schmidt_repair,
    haar_random_basis,
    make_basis,
)


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

    def test_single_basis_message_names_the_pair_only(self):
        v = np.eye(2, dtype=complex)
        v[1, 1] = 2.0
        with pytest.raises(ValidationError) as info:
            make_basis(v)
        assert str(info.value) == ("vectors are not orthonormal: |<v1|v1> - delta| = "
                                   "3.000e+00 (indices 1, 1)")

    def test_batch_message_names_the_bad_basis(self):
        v = np.stack([haar_random_basis(3, 7, t).vectors for t in range(6)])
        assert make_basis(v.reshape(2, 3, 3, 3)).vectors.shape == (2, 3, 3, 3)
        v[4, 2] *= 1.5
        with pytest.raises(ValidationError, match=r"\(indices 2, 2 of basis 4\)$"):
            make_basis(v)
        with pytest.raises(ValidationError, match=r"\(indices 2, 2 of basis 1,1\)$"):
            make_basis(v.reshape(2, 3, 3, 3))

    @pytest.mark.parametrize("shape", [(3,), (0, 2, 2), (2, 2, 3), (4, 0, 0)])
    def test_batch_shapes_must_hold_square_bases(self, shape):
        with pytest.raises(ValidationError, match="expected d x d vectors"):
            make_basis(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("dim, error", [(2.5, "need an integer, got 2.5"),
                                            (3.0, "need an integer, got 3.0"),
                                            (0, "need at least 1, got 0")])
    def test_computational_basis_dimension_rule(self, dim, error):
        with pytest.raises(ValidationError, match=f"^dimension: {error}$"):
            computational_basis(dim)

    def test_computational_basis_of_dimension_one(self):
        # d = 1 stays valid: a trivial block of a direct sum
        assert computational_basis(1).vectors.shape == (1, 1)
        assert computational_basis(np.int64(3)) == computational_basis(3)

    def test_repair_takes_one_basis_only(self):
        v = np.stack([np.eye(2, dtype=complex)] * 3)
        with pytest.raises(ValidationError, match="expected d x d vectors"):
            gram_schmidt_repair(v)
