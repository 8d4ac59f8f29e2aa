import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtradeoff import linalg, measurement, structures
from qtradeoff.errors import ValidationError
from qtradeoff.measurement import (
    born_probabilities,
    computational_basis,
    gram_schmidt_repair,
    haar_random_basis,
    infinity_distance,
    make_basis,
    maximally_mixed,
    post_measurement_state,
    pure_state,
    random_pure_state,
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


class TestBornProbabilities:
    def test_eigenstate(self):
        basis = haar_random_basis(4, 1)
        rho = pure_state(basis.vectors[0])
        p = born_probabilities(basis, rho)
        assert np.allclose(p, [1, 0, 0, 0], atol=1e-12)

    def test_maximally_mixed(self):
        basis = haar_random_basis(3, 2)
        p = born_probabilities(basis, maximally_mixed(3))
        assert np.allclose(p, 1 / 3, atol=1e-12)

    def test_unbiased_state_gives_uniform(self):
        ap = computational_basis(3)
        b = structures.fourier_basis(3)
        p = born_probabilities(ap, pure_state(b.vectors[0]))
        assert np.allclose(p, 1 / 3, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            born_probabilities(computational_basis(3), maximally_mixed(2))

    def test_probability_vector_invariants(self):
        for seed in range(20):
            basis = haar_random_basis(4, 100, seed)
            rho = random_pure_state(4, 101, seed)
            p = born_probabilities(basis, rho)
            assert np.all(p >= -1e-12) and np.all(p <= 1 + 1e-12)
            assert abs(np.sum(p) - 1.0) < 1e-10


class TestPostMeasurementState:
    def test_fixed_point_when_diagonal(self):
        basis = haar_random_basis(3, 3)
        p = np.array([0.5, 0.3, 0.2])
        rho = measurement.DensityMatrix(
            matrix=(basis.vectors.T * p) @ basis.vectors.conj())
        out = post_measurement_state(basis, rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_maximally_mixed_unchanged(self):
        out = post_measurement_state(haar_random_basis(4, 4), maximally_mixed(4))
        assert np.max(np.abs(out.matrix - np.eye(4) / 4)) < 1e-12

    def test_matches_term_by_term_summation(self):
        basis = haar_random_basis(3, 6)
        rho = random_pure_state(3, 7)
        expected = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            v = basis.vectors[i]
            expected += (v.conj() @ rho.matrix @ v) * np.outer(v, v.conj())
        out = post_measurement_state(basis, rho)
        assert np.max(np.abs(out.matrix - expected)) < 1e-12

    def test_idempotent(self):
        basis = haar_random_basis(4, 8)
        rho = random_pure_state(4, 9)
        once = post_measurement_state(basis, rho)
        twice = post_measurement_state(basis, once)
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12

    def test_repeat_measurement_statistics_idempotent(self):
        basis = haar_random_basis(5, 10)
        rho = random_pure_state(5, 11)
        p1 = born_probabilities(basis, rho)
        p2 = born_probabilities(basis, post_measurement_state(basis, rho))
        assert np.max(np.abs(p1 - p2)) < 1e-12

    def test_global_phase_on_basis_vector_is_irrelevant(self):
        basis = haar_random_basis(3, 12)
        rho = random_pure_state(3, 13)
        shifted = basis.vectors.copy()
        shifted[1] *= np.exp(1j * 0.7)
        rephased = measurement.OrthonormalBasis(vectors=shifted)
        assert np.max(np.abs(born_probabilities(basis, rho)
                             - born_probabilities(rephased, rho))) < 1e-12
        assert np.max(np.abs(post_measurement_state(basis, rho).matrix
                             - post_measurement_state(rephased, rho).matrix)) < 1e-12


class TestInfinityDistance:
    def test_identity(self):
        assert infinity_distance([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_disjoint_supports(self):
        assert infinity_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_direct_evaluation(self):
        assert infinity_distance([0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            infinity_distance([1.0], [0.5, 0.5])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=2, max_size=6))
    def test_metric_properties(self, xs):
        x = np.array(xs)
        s = x.sum()
        if s == 0:
            x[:] = 1.0 / len(x)
        else:
            x /= s
        y = np.roll(x, 1)
        assert infinity_distance(x, y) == infinity_distance(y, x)
        assert infinity_distance(x, x) == 0.0
        assert 0.0 <= infinity_distance(x, y) <= 1.0


class TestRandomPureState:
    def test_trace_and_purity(self):
        rho = random_pure_state(4, 0)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert abs(np.trace(rho.matrix @ rho.matrix) - 1) < 1e-10

    def test_determinism(self):
        assert np.array_equal(random_pure_state(3, 5).matrix,
                              random_pure_state(3, 5).matrix)

    def test_dim_below_two_rejected(self):
        with pytest.raises(ValidationError):
            random_pure_state(1, 0)

    def test_nan_state_rejected(self):
        with pytest.raises(ValidationError):
            pure_state([np.nan, 0.0])

    def test_overlap_statistics_follow_beta_law(self):
        d, n = 3, 30_000
        fixed = np.zeros(d)
        fixed[0] = 1.0
        samples = np.empty(n)
        for k in range(n):
            samples[k] = abs(linalg.haar_unit_vector(d, 21, k)[0]) ** 2
        samples.sort()
        ecdf = np.arange(1, n + 1) / n
        cdf = 1.0 - (1.0 - samples) ** (d - 1)
        assert np.max(np.abs(ecdf - cdf)) < 0.015
