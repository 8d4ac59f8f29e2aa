import math
import re

import numpy as np
import pytest

from qtradeoff import linalg, metrics, oracle
from qtradeoff.errors import ValidationError
from qtradeoff.measurement import computational_basis, haar_random_basis

from conftest import random_hermitian, random_triple
from test_metrics import rotated_qubit_basis


class TestMaxExpectation:
    def test_zero_matrix(self):
        out = oracle.max_expectation(np.zeros((3, 3)), oracle.haar_states(3, 10, 0), 10)
        assert out.value == 0.0

    def test_qubit_known_eigenvalues(self):
        lam = 0.7
        m = np.array([[0.0, lam], [lam, 0.0]])
        out = oracle.max_expectation(m, oracle.haar_states(2, 200, 1), 200)
        assert out.value == pytest.approx(lam, abs=1e-6)

    def test_random_3x3_reaches_cubic_root(self):
        m = random_hermitian(3, 2)
        target = float(np.max(np.abs(oracle.eig3_closed(m))))
        out = oracle.max_expectation(m, oracle.haar_states(3, 500, 3), 200)
        assert target - 1e-4 <= out.value <= target + 1e-9

    def test_value_matches_objective_at_maximizer(self):
        m = random_hermitian(4, 4)
        out = oracle.max_expectation(m, oracle.haar_states(4, 100, 5), 50)
        psi = out.maximizer
        assert abs(np.real(psi.conj() @ m @ psi)) == pytest.approx(out.value, abs=1e-12)

    def test_one_sided_soundness(self):
        for seed in range(10):
            m = random_hermitian(4, 600 + seed)
            out = oracle.max_expectation(m, oracle.haar_states(4, 200, seed), 100)
            assert out.value <= linalg.spectral_radius(m) + 1e-9

    def test_determinism(self):
        m = random_hermitian(3, 7)
        r1 = oracle.max_expectation(m, oracle.haar_states(3, 100, 9), 50)
        r2 = oracle.max_expectation(m, oracle.haar_states(3, 100, 9), 50)
        assert r1.value == r2.value
        assert np.array_equal(r1.maximizer, r2.maximizer)

    def test_sub_streams_are_independent(self):
        m = random_hermitian(3, 8)
        r1 = oracle.max_expectation(m, oracle.haar_states(3, 1, 0, 1), 1)
        r2 = oracle.max_expectation(m, oracle.haar_states(3, 1, 1, 0), 1)
        assert not np.allclose(r1.maximizer, r2.maximizer)

    def test_huge_entries_still_reach_the_top_eigenvalue(self):
        # Entries near 1e300 overflow a Frobenius norm; the sample scores and
        # the shift S = M/(2|M|_inf) + I square no entry, so both stay finite.
        m = random_hermitian(3, 11)
        target = 1e300 * float(np.max(np.abs(oracle.eig3_closed(m))))
        out = oracle.max_expectation(1e300 * m, oracle.haar_states(3, 2000, 2), 50)
        assert abs(out.value - target) <= 1e-14 * target

    @pytest.mark.parametrize("d", range(3, 9))
    def test_the_refine_does_not_depend_on_scale(self, d):
        # The shift is scale-free and the stop rule compares unit vectors, so
        # s * m converges to the same relative accuracy in the same steps.
        m = random_hermitian(d, 460 + d)
        target = linalg.spectral_radius(m)
        steps = set()
        for s in (1e-12, 1e-9, 1.0, 1e100, 1e150, 1e300):
            with np.errstate(all="raise"):
                out = oracle.max_expectation(s * m, oracle.haar_states(d, 2000, d), 200)
            assert abs(out.value - s * target) <= 1e-14 * s * target
            steps.add(out.refinement_steps)
        assert len(steps) == 1

    def test_a_start_that_m_plus_its_norm_annihilates(self):
        # M = -E11 has (M + |M|_inf I) e1 = 0; with S = M/(2|M|_inf) + I >= I/2,
        # S e1 = e1/2 is never 0, so the step from e1 divides by no zero.
        h = -np.diag([1.0, 0.0, 0.0])
        with np.errstate(all="raise"):
            out = oracle.max_expectation(h, np.eye(3, dtype=complex)[:1], 200)
        assert out.value == 1.0

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            oracle.max_expectation(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                   oracle.haar_states(2, 1, 0), 1)


class TestMaxSumOverStates:
    def test_identity_intermediate_reaches_disturbance(self):
        theta = 1.1
        a = computational_basis(2)
        b = rotated_qubit_basis(theta)
        out = oracle.max_sum_over_states(a, a, b, oracle.haar_states(2, 500, 0), 200)
        assert out.value == pytest.approx(0.5 * math.sin(theta), abs=1e-4)

    def test_target_intermediate_reaches_error(self):
        a, _, b = random_triple(3, 1)
        out = oracle.max_sum_over_states(a, b, b, oracle.haar_states(3, 500, 2), 200)
        assert out.value == pytest.approx(metrics.error(a, b).value, abs=1e-4)

    def test_random_triple_brackets_overall_error(self):
        a, ap, b = random_triple(3, 3)
        delta = metrics.overall_error(a, ap, b).value
        out = oracle.max_sum_over_states(a, ap, b, oracle.haar_states(3, 1000, 4), 200)
        assert delta - 1e-3 <= out.value <= delta + 1e-9

    def test_dimension_mismatch(self):
        a = computational_basis(2)
        states = oracle.haar_states(2, 1, 0)
        with pytest.raises(ValidationError):
            oracle.max_sum_over_states(a, a, computational_basis(3), states, 1)
        with pytest.raises(ValidationError):
            oracle.max_sum_over_states(a, computational_basis(3), a, states, 1)

    @pytest.mark.parametrize("bad", ["width", "rows", "norm", "vector"])
    def test_bad_sample_set_rejected(self, bad):
        # An empty set would report 0.0 with a zero vector as its maximizer.
        a, ap, b = random_triple(3, 90)
        m = random_hermitian(3, 91)
        states = {"width": oracle.haar_states(4, 20, 0),
                  "rows": np.empty((0, 3), dtype=complex),
                  "norm": 1.5 * oracle.haar_states(3, 20, 0),
                  "vector": oracle.haar_states(3, 1, 0)[0]}[bad]
        for call in (lambda: oracle.max_expectation(m, states, 10),
                     lambda: oracle.max_error_over_states(a, ap, states, 10),
                     lambda: oracle.max_disturbance_over_states(ap, b, states, 10),
                     lambda: oracle.max_sum_over_states(a, ap, b, states, 10)):
            with pytest.raises(ValidationError):
                call()

    @pytest.mark.parametrize("refine_iters", [0, -4])
    def test_refinement_below_one_sweep_rejected(self, refine_iters):
        # with no step the result is the unrefined best sample: 0.805, against 0.922
        a, ap = haar_random_basis(3, 1, 0), haar_random_basis(3, 1, 1)
        with pytest.raises(ValidationError, match="refine_iters: need at least 1"):
            oracle.max_error_over_states(a, ap, oracle.haar_states(3, 50, 0), refine_iters)


class TestMaximizers:
    def test_maximizer_reproduces_value_through_state_dependent_metrics(self):
        for d in (2, 3, 4):
            a, ap, b = random_triple(d, 50 + d)
            draw = (oracle.haar_states(d, 300, d), 100)
            out = oracle.max_sum_over_states(a, ap, b, *draw)
            psi = out.maximizer
            assert (metrics.state_dependent_error(a, ap, psi)
                    + metrics.state_dependent_disturbance(ap, b, psi)
                    == pytest.approx(out.value, abs=1e-12))
            out = oracle.max_error_over_states(a, ap, *draw)
            assert metrics.state_dependent_error(a, ap, out.maximizer) == pytest.approx(
                out.value, abs=1e-12)
            out = oracle.max_disturbance_over_states(ap, b, *draw)
            assert metrics.state_dependent_disturbance(ap, b, out.maximizer) == pytest.approx(
                out.value, abs=1e-12)

    def test_entry_points_never_call_an_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called an eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("spectral_radius", "eigvals_hermitian", "eig_hermitian"):
            monkeypatch.setattr(linalg, name, refuse)
        a, ap, b = random_triple(3, 60)
        m = random_hermitian(3, 61)
        draw = (oracle.haar_states(3, 50, 0), 20)
        oracle.max_expectation(m, *draw)
        oracle.max_error_over_states(a, ap, *draw)
        oracle.max_disturbance_over_states(ap, b, *draw)
        oracle.max_sum_over_states(a, ap, b, *draw)


class TestRefineLoop:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_squaring_converges_in_a_few_steps(self, d):
        # Squaring S = M/(2|M|_inf) + I converges doubly exponentially, so a
        # handful of steps suffices whatever the gaps in the pieces' spectra.
        for seed in range(3):
            a, ap, b = random_triple(d, 360 + 10 * d + seed)
            draw = (oracle.haar_states(d, 2000, seed), 200)
            for out in (oracle.max_error_over_states(a, ap, *draw),
                        oracle.max_disturbance_over_states(ap, b, *draw),
                        oracle.max_sum_over_states(a, ap, b, *draw)):
                assert out.refinement_steps <= 16
                assert abs(np.linalg.norm(out.maximizer) - 1.0) <= 1e-12

    def test_a_cap_of_one_stops_after_one_step(self):
        # One squaring is before convergence at every d, so the cap, not
        # convergence, ends the ascent.
        for d in (2, 3, 4, 5):
            for seed in range(3):
                a, ap, b = random_triple(d, 70 * d + seed)
                draw = (oracle.haar_states(d, 2000, seed, 1, 3), 1)
                for out in (oracle.max_error_over_states(a, ap, *draw),
                            oracle.max_disturbance_over_states(ap, b, *draw),
                            oracle.max_sum_over_states(a, ap, b, *draw)):
                    assert out.refinement_steps == 1

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-6, 1e-9])
    def test_a_near_tie_at_the_top_does_not_stall(self, gap):
        # Each squaring squares the ratio of S's top two eigenvalues, so a
        # near tie costs a few more steps, not a stall short of the top.
        for d in (4, 8, 16):
            for seed in range(3):
                u = haar_random_basis(d, 380 + d, seed).vectors.T
                rest = np.random.default_rng([380 + d, seed]).uniform(-0.5, 0.5, d - 2)
                m = (u * np.concatenate([[1.0, 1.0 - gap], rest])) @ u.conj().T
                out = oracle.max_expectation(0.5 * (m + m.conj().T),
                                             oracle.haar_states(d, 2000, seed), 200)
                assert 1.0 - 1e-10 <= out.value <= 1.0 + 1e-12
                assert out.refinement_steps < 64

    @pytest.mark.parametrize("d", range(3, 9))
    def test_each_step_ascends(self, d):
        # S is positive semidefinite and shares M's eigenvectors, so the
        # Rayleigh quotient of S^p psi_0 never falls as p grows.  One sample:
        # the climb starts from a random vector.
        m = random_hermitian(d, 390 + d)
        states = oracle.haar_states(d, 1, d)
        values = [oracle._maximize((oracle._hermitian_family(m),), states, cap).value
                  for cap in range(1, 13)]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    def test_a_shift_keeps_the_step_on_the_sphere(self):
        # A shift m -> m + cI changes S = M/(2|M|_inf) + I; any drift of psi off
        # the unit sphere would show here as a value above the spectral
        # radius.
        for d in range(4, 9):
            for seed in range(5):
                m = random_hermitian(d, 340 + 10 * d + seed) + 5.0 * np.eye(d)
                out = oracle.max_expectation(m, oracle.haar_states(d, 2000, seed), 200)
                assert out.value <= linalg.spectral_radius(m) + 1e-9
                assert abs(np.linalg.norm(out.maximizer) - 1.0) <= 1e-12


class TestBornScores:
    # Samples are scored from each family's Born form, the ascent and the
    # final values from its matrices; the two must be one quadratic form.
    @pytest.mark.parametrize("d", range(2, 17))
    def test_error_and_disturbance_forms_match_their_matrices(self, d):
        a, ap, b = random_triple(d, 400 + d)
        states = oracle.haar_states(d, 500, d, 7)
        for m, coeffs, vectors in (oracle._error_terms(a, ap),
                                   oracle._disturbance_terms(ap, b)):
            assert np.max(np.abs(oracle._born_scores(coeffs, vectors, states)
                                 - linalg.expectations(m, states))) <= 1e-13

    @pytest.mark.parametrize("d", range(2, 17))
    def test_max_expectation_form_matches_its_matrix(self, d):
        # v has entries of equal modulus, so -vv^dagger + |vv^dagger|_inf I
        # is singular, and the shift needs its + 1.
        v = np.exp(2j * np.pi * np.arange(d) / d) / math.sqrt(d)
        states = oracle.haar_states(d, 500, d, 8)
        for m in (random_hermitian(d, 420 + d),
                  random_hermitian(d, 430 + d) + 5.0 * np.eye(d),
                  np.zeros((d, d)),
                  -np.outer(v, v.conj())):
            h = linalg.check_hermitian(m)
            mats, coeffs, vectors = oracle._hermitian_family(h)
            assert np.array_equal(mats[0], h)
            assert np.max(np.abs(oracle._born_scores(coeffs, vectors, states)[0]
                                 - linalg.expectations(h, states))) <= 1e-13


class TestChunks:
    # A piece starts from its first best sample, so the chunks the sample set
    # is scored in must not change any result.
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("samples", [1, 255, 256, 257, 1001, 5000])
    def test_results_do_not_depend_on_the_chunk_size(self, d, samples, monkeypatch):
        a, ap, b = random_triple(d, 440 + d)
        m = random_hermitian(d, 450 + d)
        draw = (oracle.haar_states(d, samples, d, 5), 200)

        def results():
            return [_fields(out) for out in (
                oracle.max_expectation(m, *draw),
                oracle.max_error_over_states(a, ap, *draw),
                oracle.max_disturbance_over_states(ap, b, *draw),
                oracle.max_sum_over_states(a, ap, b, *draw))]

        monkeypatch.setattr(oracle, "_CHUNK_SCORES", 0)  # chunks of _BLOCK
        blocks = results()
        monkeypatch.setattr(oracle, "_CHUNK_SCORES", 2**40)  # one pass
        assert results() == blocks


class TestAnalyticValues:
    @pytest.mark.parametrize("d, seeds, base",
                             [(4, 20, 4000), (5, 3, 5050), (6, 3, 5060), (8, 3, 5080)])
    def test_every_objective_reaches_its_analytic_value(self, d, seeds, base):
        for seed in range(seeds):
            a, ap, b = random_triple(d, base + seed)
            states = oracle.haar_states(d, 2000, seed)
            for analytic, sampled in (
                    (metrics.error(a, ap).value,
                     oracle.max_error_over_states(a, ap, states, 200)),
                    (metrics.disturbance(ap, b).value,
                     oracle.max_disturbance_over_states(ap, b, states, 200)),
                    (metrics.overall_error(a, ap, b).value,
                     oracle.max_sum_over_states(a, ap, b, states, 200))):
                assert analytic - 1e-9 <= sampled.value <= analytic + 1e-9
                assert abs(np.linalg.norm(sampled.maximizer) - 1.0) <= 1e-12


class TestClosedFormEigenvalues:
    def test_eig2_diagonal(self):
        assert np.allclose(oracle.eig2_closed(np.diag([2.0, -3.0])), [-3.0, 2.0])

    def test_eig2_traceless(self):
        m = np.array([[0.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
        lam = math.sqrt(2.0)
        assert np.allclose(oracle.eig2_closed(m), [-lam, lam])

    def test_eig3_diagonal(self):
        assert np.allclose(oracle.eig3_closed(np.diag([1.0, -2.0, 5.0])), [-2.0, 1.0, 5.0])

    def test_eig3_degenerate(self):
        assert np.allclose(oracle.eig3_closed(np.eye(3) * 0.5), [0.5, 0.5, 0.5])

    def test_cross_validation_with_jacobi(self):
        for seed in range(30):
            m2 = random_hermitian(2, 700 + seed)
            assert np.max(np.abs(oracle.eig2_closed(m2)
                                 - linalg.eigvals_hermitian(m2))) < 1e-9
            m3 = random_hermitian(3, 800 + seed)
            assert np.max(np.abs(oracle.eig3_closed(m3)
                                 - linalg.eigvals_hermitian(m3))) < 1e-9

    def test_wrong_size_rejected(self):
        with pytest.raises(ValidationError):
            oracle.eig2_closed(np.eye(3))
        with pytest.raises(ValidationError):
            oracle.eig3_closed(np.eye(2))


class TestConvergence:
    def test_reaches_analytic_values_at_small_dims(self):
        # sampled-and-refined maxima against the spectral radius
        failures = 0
        total = 0
        for d in (2, 3, 4):
            for seed in range(10):
                m = random_hermitian(d, 900 + 10 * d + seed)
                r = linalg.spectral_radius(m)
                out = oracle.max_expectation(m, oracle.haar_states(d, 500, seed), 200)
                total += 1
                if not (r - 1e-4 <= out.value <= r + 1e-9):
                    failures += 1
        assert failures == 0


def _fields(out):
    return out.value, out.maximizer.tobytes(), out.samples_used, out.refinement_steps


class TestHaarStates:
    @pytest.mark.parametrize("key, error", [
        ((-1,), "seed: need at least 0, got -1"),
        ((1.5,), "seed: need an integer, got 1.5"),
        ((1.0,), "seed: need an integer, got 1.0"),
        ((1, 2.0), "sub-stream index: need an integer, got 2.0"),
        (([1],), "seed: need an integer, got [1]"),
        ((1, {}), "sub-stream index: need an integer, got {}")])
    def test_bad_key_rejected(self, key, error):
        # float, negative and unhashable seeds and sub-stream indices
        with pytest.raises(ValidationError, match=f"^{re.escape(error)}$"):
            oracle.haar_states(3, 50, *key)

    def test_numpy_integer_keys_give_the_results_of_plain_ints(self):
        a, ap, b = random_triple(3, 85)
        n = np.int64
        states = oracle.haar_states(3, 257, 3, 1)
        assert np.array_equal(oracle.haar_states(n(3), n(257), n(3), n(1)), states)
        plain = [_fields(out) for out in (oracle.max_error_over_states(a, ap, states, 50),
                                          oracle.max_sum_over_states(a, ap, b, states, 50))]
        numpy = [_fields(out) for out in (oracle.max_error_over_states(a, ap, states, n(50)),
                                          oracle.max_sum_over_states(a, ap, b, states, n(50)))]
        assert numpy == plain

    def test_the_sample_set_is_neither_changed_nor_shared(self):
        # The caller owns the set and may pass it to several calls.
        states = oracle.haar_states(3, 300, 0, 1)
        kept = states.copy()
        out = oracle.max_expectation(random_hermitian(3, 86), states, 50)
        out.maximizer[0] = 0.0
        assert np.array_equal(states, kept)

    def test_draw_order_is_per_block_real_then_imaginary(self):
        # samples 1001 ends on a partial block of 233
        rng = linalg.rng_from(5, 0, 3)
        blocks = []
        for n in (256, 256, 256, 233):
            g = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
            blocks.append(g / np.linalg.norm(g, axis=1, keepdims=True))
        assert np.array_equal(oracle.haar_states(8, 1001, 5, 0, 3), np.concatenate(blocks))
