import math

import numpy as np
import pytest

from qtradeoff import bloch, metrics
from qtradeoff.errors import ValidationError
from qtradeoff.measurement import computational_basis

from conftest import random_triple


def random_unit_vectors(n, seed):
    g = np.random.default_rng(seed)
    v = g.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestConversions:
    def test_computational_basis_is_z(self):
        assert np.allclose(bloch.basis_to_bloch(computational_basis(2)), [0, 0, 1])

    def test_hadamard_basis_is_x(self):
        h = bloch.bloch_to_basis(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(bloch.basis_to_bloch(h), [1, 0, 0], atol=1e-12)

    def test_round_trip(self):
        for a in random_unit_vectors(50, 0):
            basis = bloch.bloch_to_basis(a)
            assert np.max(np.abs(bloch.basis_to_bloch(basis) - a)) < 1e-10
            # projector identity: |v1><v1| = (I + a.sigma)/2
            v = basis.vectors[0]
            proj = np.outer(v, v.conj())
            sx = np.array([[0, 1], [1, 0]])
            sy = np.array([[0, -1j], [1j, 0]])
            sz = np.diag([1.0, -1.0])
            expect = 0.5 * (np.eye(2) + a[0] * sx + a[1] * sy + a[2] * sz)
            assert np.max(np.abs(proj - expect)) < 1e-10

    def test_phase_convention_first_amplitude_real_positive(self):
        for a in random_unit_vectors(20, 1):
            for v in bloch.bloch_to_basis(a).vectors:
                lead = next(amp for amp in v if abs(amp) > 1e-14)
                assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValidationError):
            bloch.basis_to_bloch(computational_basis(3))


class TestClosedForms:
    def test_identity_intermediate(self):
        a = np.array([0.0, 0.0, 1.0])
        for theta in (0.3, 1.0, 2.8):
            b = np.array([math.sin(theta), 0.0, math.cos(theta)])
            assert bloch.bloch_error(a, a) == 0.0
            assert bloch.bloch_disturbance(a, b) == pytest.approx(
                0.5 * math.sin(theta), abs=1e-12)

    def test_orthogonal_targets_with_identity_intermediate(self):
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([1.0, 0.0, 0.0])
        total = bloch.bloch_error(a, a) + bloch.bloch_disturbance(a, b)
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_matches_general_machinery(self):
        for seed in range(25):
            av, apv, bv = random_unit_vectors(3, 100 + seed)
            a = bloch.bloch_to_basis(av)
            ap = bloch.bloch_to_basis(apv)
            b = bloch.bloch_to_basis(bv)
            assert bloch.bloch_error(av, apv) == pytest.approx(
                metrics.error(a, ap).value, abs=1e-9)
            assert bloch.bloch_disturbance(apv, bv) == pytest.approx(
                metrics.disturbance(ap, b).value, abs=1e-9)
            assert bloch.bloch_overall(av, apv, bv) == pytest.approx(
                metrics.overall_error(a, ap, b).value, abs=1e-9)

    def test_non_unit_input_rejected(self):
        with pytest.raises(ValidationError):
            bloch.bloch_error(np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0]))

    def test_nan_input_rejected(self):
        with pytest.raises(ValidationError):
            bloch.bloch_error(np.array([np.nan, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))


class TestTheoremFloor:
    def test_parallel(self):
        a = np.array([0.0, 0.0, 1.0])
        assert bloch.theorem_floor(a, a) == 0.0

    def test_orthogonal(self):
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([1.0, 0.0, 0.0])
        assert bloch.theorem_floor(a, b) == pytest.approx(0.5)

    def test_sixty_degrees(self):
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)])
        assert bloch.theorem_floor(a, b) == pytest.approx(math.sqrt(3) / 4, abs=1e-12)

    def test_tradeoff_inequalities_random(self):
        # 10^4 seeded triples: eps + eta and delta both dominate the floor.
        n = 10_000
        a = random_unit_vectors(n, 2)
        ap = random_unit_vectors(n, 3)
        b = random_unit_vectors(n, 4)
        for k in range(n):
            floor = bloch.theorem_floor(a[k], b[k])
            eps = bloch.bloch_error(a[k], ap[k])
            eta = bloch.bloch_disturbance(ap[k], b[k])
            assert eps + eta >= floor - 1e-9
            assert bloch.bloch_overall(a[k], ap[k], b[k]) >= floor - 1e-9

    def test_identity_intermediate_attains_sum_equals_delta(self):
        for seed in range(20):
            av, bv, _ = random_unit_vectors(3, 200 + seed)
            total = bloch.bloch_error(av, av) + bloch.bloch_disturbance(av, bv)
            delta = bloch.bloch_overall(av, av, bv)
            eta_ab = bloch.bloch_disturbance(av, bv)
            assert total == pytest.approx(delta, abs=1e-9)
            assert total == pytest.approx(eta_ab, abs=1e-9)
