import numpy as np
import pytest

from qtradeoff import linalg, measurement, oracle
from qtradeoff.errors import UnsupportedSizeError, ValidationError

from conftest import random_hermitian


class TestEigHermitian:
    def test_diagonal(self):
        w, _ = linalg.eig_hermitian(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(w, [-1.0, 2.0, 3.0])

    def test_pauli_x(self):
        w, _ = linalg.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_random_3x3_matches_closed_form_cubic(self):
        # Independent oracle: trigonometric solution of the characteristic cubic.
        for seed in range(20):
            m = random_hermitian(3, seed)
            w, _ = linalg.eig_hermitian(m)
            assert np.max(np.abs(w - oracle.eig3_closed(m))) < 1e-9

    def test_reconstruction_and_orthonormality(self):
        for d in (2, 3, 5, 8, 16):
            m = random_hermitian(d, 100 + d)
            w, v = linalg.eig_hermitian(m)
            recon = (v * w) @ v.conj().T
            assert np.max(np.abs(recon - m)) < 1e-10
            gram = v.conj().T @ v
            assert np.max(np.abs(gram - np.eye(d))) < 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_trace_identities(self):
        for d in (2, 3, 4, 5):
            m = random_hermitian(d, 200 + d)
            w = linalg.eigvals_hermitian(m)
            assert abs(np.sum(w) - np.trace(m).real) < 1e-9
            assert abs(np.sum(w**2) - np.trace(m @ m).real) < 1e-9

    def test_non_hermitian_rejected_naming_entry(self):
        m = np.eye(3, dtype=complex)
        m[0, 2] = 1e-6
        with pytest.raises(ValidationError, match=r"m\[0,2\]"):
            linalg.eig_hermitian(m)


class TestStacks:
    def test_spectral_radius_of_stack_matches_each_matrix(self):
        ms = np.stack([random_hermitian(4, 300 + k) for k in range(6)]).reshape(2, 3, 4, 4)
        r = linalg.spectral_radius(ms)
        assert r.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert abs(r[idx] - linalg.spectral_radius(ms[idx])) < 1e-12

    def test_non_hermitian_entry_of_stack_named(self):
        ms = np.tile(np.eye(3, dtype=complex), (2, 2, 1, 1))
        ms[1, 0, 2, 1] = 1e-6
        with pytest.raises(ValidationError, match=r"m\[1,0,1,2\] - conj\(m\[1,0,2,1\]\)"):
            linalg.check_hermitian(ms)

    def test_non_finite_entry_of_stack_rejected(self):
        ms = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        ms[2, 1, 1] = np.nan
        with pytest.raises(ValidationError, match=r"m\[2,1,1\]"):
            linalg.check_hermitian(ms)


class TestRealSymmetricInput:
    """Real input stays float64, so LAPACK takes its real symmetric solver."""

    def test_real_stack_stays_real_and_matches_the_complex_solve(self):
        g = np.random.default_rng(7).standard_normal((5, 4, 4))
        m = g + np.swapaxes(g, -1, -2)
        assert linalg.check_hermitian(m).dtype == np.float64
        assert linalg.check_hermitian(m.astype(np.float32)).dtype == np.float64
        assert linalg.check_hermitian(np.eye(3, dtype=int)).dtype == np.float64
        assert linalg.check_hermitian(m.astype(complex)).dtype == np.complex128
        real = linalg.eigvals_hermitian(m)
        assert real.dtype == np.float64
        assert np.max(np.abs(real - linalg.eigvals_hermitian(m.astype(complex)))) <= 1e-13

    def test_asymmetric_real_entry_named(self):
        ms = np.tile(np.eye(3), (2, 1, 1))
        ms[1, 0, 2] = 1e-6
        with pytest.raises(ValidationError, match=r"m\[1,0,2\] - conj\(m\[1,2,0\]\)"):
            linalg.check_hermitian(ms)

    def test_nan_real_entry_named(self):
        m = np.eye(3)
        m[1, 1] = np.nan
        with pytest.raises(ValidationError, match=r"m\[1,1\]"):
            linalg.eigvals_hermitian(m)


class TestExpectations:
    def test_broadcasts_like_explicit_quadratic_forms(self):
        terms = np.array([random_hermitian(3, 30 + t) for t in range(4)])
        states = np.array([linalg.haar_unit_vector(3, 31, s) for s in range(5)])
        out = linalg.expectations(terms, states)
        assert out.shape == (4, 5)
        for t in range(4):
            for s in range(5):
                psi = states[s]
                assert out[t, s] == pytest.approx((psi.conj() @ terms[t] @ psi).real, abs=1e-14)
        # one candidate stack per matrix: (P, m, d) against (P, d, d) gives (P, m)
        per_term = linalg.expectations(terms, np.broadcast_to(states, (4, 5, 3)))
        assert np.allclose(per_term, out, atol=1e-14, rtol=0)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert linalg.spectral_radius(np.zeros((3, 3))) == 0.0

    def test_diag_plus_minus_one(self):
        assert linalg.spectral_radius(np.diag([1.0, -1.0])) == pytest.approx(1.0)

    def test_projector_difference_d2(self):
        # R(|b><b| - |a><a|) = sqrt(1 - c) for squared overlap c.
        for c in (0.0, 0.3, 0.9, 1.0):
            a = np.array([1.0, 0.0])
            b = np.array([np.sqrt(c), np.sqrt(1 - c)])
            m = np.outer(b, b) - np.outer(a, a)
            assert linalg.spectral_radius(m) == pytest.approx(np.sqrt(1 - c), abs=1e-12)

    def test_dominates_sampled_expectations(self):
        m = random_hermitian(4, 7)
        r = linalg.spectral_radius(m)
        best = 0.0
        for k in range(1000):
            psi = linalg.haar_unit_vector(4, 7, k)
            best = max(best, abs(np.real(psi.conj() @ m @ psi)))
        assert best <= r + 1e-9
        refined = oracle.max_expectation(m, oracle.haar_states(4, 1000, 7), 100)
        assert r - 1e-3 <= refined.value <= r + 1e-9


class TestHaarSampling:
    def test_determinism(self):
        u1 = linalg.haar_unitary(3, 42)
        u2 = linalg.haar_unitary(3, 42)
        assert np.array_equal(u1, u2)
        assert np.array_equal(linalg.haar_unit_vector(3, 5), linalg.haar_unit_vector(3, 5))

    def test_unitarity(self):
        for d in (2, 3, 5, 16):
            u = linalg.haar_unitary(d, 1)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10
            assert abs(np.linalg.norm(linalg.haar_unit_vector(d, 1)) - 1.0) <= 1e-12

    def test_dim_below_two_rejected(self):
        with pytest.raises(ValidationError):
            linalg.haar_unitary(1, 0)
        with pytest.raises(ValidationError):
            linalg.haar_unit_vector(1, 0)

    def test_dim_above_max_rejected(self):
        for draw in (linalg.haar_unitary, linalg.haar_unit_vector):
            with pytest.raises(UnsupportedSizeError,
                               match=r"^dimension must be in \[2, 16\], got 17$"):
                draw(17, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="^seed: need at least 0, got -1$"):
            linalg.haar_unitary(2, -1)

    @pytest.mark.parametrize("seed, error", [(-1, "need at least 0, got -1"),
                                             (2.5, "need an integer, got 2.5")])
    def test_every_generator_checks_its_seed(self, seed, error):
        # rng_from builds every generator, so no draw gets past the seed rule
        for draw in (lambda: linalg.rng_from(seed, 0), lambda: linalg.haar_unit_vector(3, seed),
                     lambda: linalg.haar_unitaries(3, seed, [(0,)])):
            with pytest.raises(ValidationError, match=f"^seed: {error}$"):
                draw()

    @pytest.mark.parametrize("stream, error", [((1.5,), "need an integer, got 1.5"),
                                               ((0, -1), "need at least 0, got -1"),
                                               (("1",), "need an integer, got '1'")])
    def test_every_sub_stream_index_checked(self, stream, error):
        for draw in (lambda: linalg.rng_from(0, *stream),
                     lambda: linalg.haar_unitary(3, 0, *stream),
                     lambda: linalg.haar_unit_vector(3, 0, *stream),
                     lambda: linalg.haar_unitaries(3, 0, [(0,), stream]),
                     lambda: measurement.haar_random_basis(3, 0, *stream)):
            with pytest.raises(ValidationError, match=f"^sub-stream index: {error}$"):
                draw()

    @pytest.mark.parametrize("key", [(0,), (7, 0, 0), (2**32 - 1, 0, 5), (3, 2**32 - 1),
                                     (2**32, 1), (4, 2**32, 0), (2**40, 2**32 - 1, 0)])
    def test_generator_is_numpy_default_rng_of_the_key(self, key):
        # keys below 2**32 go in as a uint32 array, larger ones as the int list
        expected = np.random.default_rng(list(key)).standard_normal(6)
        assert np.array_equal(linalg.rng_from(*key).standard_normal(6), expected)
        numpy_key = [np.uint64(k) if k >= 2**32 - 1 else np.int64(k) for k in key]
        assert np.array_equal(linalg.rng_from(*numpy_key).standard_normal(6), expected)

    def test_non_integer_dimension_rejected(self):
        for d in (2.5, 3.0, "3"):
            with pytest.raises(UnsupportedSizeError,
                               match=rf"^dimension must be in \[2, 16\], got {d}$"):
                linalg.haar_unitaries(d, 0, [(0,)])

    def test_numpy_integers_accepted(self):
        n = np.int64
        assert np.array_equal(linalg.haar_unitaries(n(3), n(4), [(n(1),)]),
                              linalg.haar_unitaries(3, 4, [(1,)]))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_stack_equals_single_draws(self, d):
        streams = [(t, k) for t in range(20) for k in range(3)] + [()]
        stack = linalg.haar_unitaries(d, 42, streams)
        assert stack.shape == (len(streams), d, d)
        for u, stream in zip(stack, streams):
            assert np.array_equal(u, linalg.haar_unitary(d, 42, *stream))
            # one Ginibre matrix, one QR, the diagonal of R rotated real positive
            rng = linalg.rng_from(42, *stream)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(g)
            assert np.array_equal(u, q * (np.diag(r) / np.abs(np.diag(r))))

    def test_stack_dim_below_two_rejected(self):
        with pytest.raises(ValidationError):
            linalg.haar_unitaries(1, 0, [(0,)])

    def test_first_column_overlap_follows_beta_law(self):
        # |<e_1|u_1>|^2 ~ Beta(1, d-1); empirical CDF vs 1 - (1-x)^(d-1).
        d, n = 3, 100_000
        u = linalg.haar_unitaries(d, 9, [(k,) for k in range(n)])
        samples = np.abs(u[:, 0, 0]) ** 2
        samples.sort()
        ecdf = np.arange(1, n + 1) / n
        cdf = 1.0 - (1.0 - samples) ** (d - 1)
        ks = max(np.max(np.abs(ecdf - cdf)), np.max(np.abs(ecdf - 1.0 / n - cdf)))
        assert ks < 0.01

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

    def test_left_invariance_of_overlap_moments(self):
        # Fixed left-multiplication by a unitary leaves overlap moments alone.
        d, n = 3, 4000
        v = linalg.haar_unitary(d, 123)
        plain = np.empty(n)
        rotated = np.empty(n)
        for k in range(n):
            u = linalg.haar_unitary(d, 77, k)
            plain[k] = abs(u[0, 0]) ** 2
            rotated[k] = abs((v @ linalg.haar_unitary(d, 78, k))[0, 0]) ** 2
        for moments in (plain, rotated):
            assert abs(np.mean(moments) - 1.0 / d) < 0.02
            assert abs(np.mean(moments**2) - 2.0 / (d * (d + 1))) < 0.02


class TestExpectationsOfNegation:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_negating_the_matrix_negates_every_value_exactly(self, d):
        # The oracle scores only the + half of each signed family [M; -M].
        terms = np.array([random_hermitian(d, 40 * d + t) for t in range(3)])
        states = np.array([linalg.haar_unit_vector(d, 41, d, s) for s in range(300)])
        assert np.array_equal(linalg.expectations(-terms, states),
                              -linalg.expectations(terms, states))
        assert np.array_equal(linalg.expectations(-terms, np.broadcast_to(states, (3, 300, d))),
                              -linalg.expectations(terms, np.broadcast_to(states, (3, 300, d))))
