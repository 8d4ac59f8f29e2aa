import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtradeoff import bloch, explorer, linalg, metrics, oracle, structures
from qtradeoff.errors import UnsupportedSizeError, ValidationError
from qtradeoff.measurement import OrthonormalBasis, computational_basis, haar_random_basis
from qtradeoff.tolerances import TIE_TOL

from conftest import random_hermitian, random_triple


def rotated_qubit_basis(phi):
    """Computational basis rotated by Bloch angle phi about the y-axis."""
    return bloch.bloch_to_basis(np.array([math.sin(phi), 0.0, math.cos(phi)]))


# Density-matrix reference for the state-dependent quantities, written from
# the definitions: rho = |psi><psi|, the Born distribution is the diagonal of
# rho in a basis, and an unread measurement collapses rho to
# sum_k <v_k|rho|v_k> |v_k><v_k|.

def born(basis, rho):
    return np.real(np.diag(basis.vectors.conj() @ rho @ basis.vectors.T))


def collapse(basis, rho):
    return sum(p * np.outer(v, v.conj()) for p, v in zip(born(basis, rho), basis.vectors))


def reference_error(a, ap, psi):
    rho = np.outer(psi, psi.conj())
    return np.max(np.abs(born(a, rho) - born(ap, rho)))


def reference_disturbance(ap, b, psi):
    rho = np.outer(psi, psi.conj())
    return np.max(np.abs(born(b, rho) - born(b, collapse(ap, rho))))


class TestStateDependent:
    def test_error_vanishes_for_identical_bases(self):
        a = haar_random_basis(3, 0)
        psi = linalg.haar_unit_vector(3, 1)
        assert metrics.state_dependent_error(a, a, psi) == 0.0

    def test_error_maximal_for_orthogonal_eigenstate(self):
        a = computational_basis(2)
        ap = OrthonormalBasis(vectors=a.vectors[::-1].copy())
        assert metrics.state_dependent_error(a, ap, a.vectors[0]) == pytest.approx(1.0)

    def test_error_matches_direct_born_evaluation(self):
        for d in (2, 3, 4, 5):
            a, ap, _ = random_triple(d, 11 + d)
            psi = linalg.haar_unit_vector(d, 12, d)
            got = metrics.state_dependent_error(a, ap, psi)
            assert isinstance(got, float)
            assert got == pytest.approx(reference_error(a, ap, psi), abs=1e-12)

    def test_disturbance_vanishes_for_compatible_measurement(self):
        b = haar_random_basis(3, 2)
        psi = linalg.haar_unit_vector(3, 3)
        assert metrics.state_dependent_disturbance(b, b, psi) < 1e-12

    def test_disturbance_matches_composition(self):
        for d in (2, 3, 4, 5):
            ap, b, _ = random_triple(d, 14 + d)
            psi = linalg.haar_unit_vector(d, 15, d)
            got = metrics.state_dependent_disturbance(ap, b, psi)
            assert isinstance(got, float)
            assert got == pytest.approx(reference_disturbance(ap, b, psi), abs=1e-12)

    def test_batch_matches_each_state(self):
        a, ap, b = random_triple(4, 16)
        psi = np.array([linalg.haar_unit_vector(4, 17, k) for k in range(6)])
        eps = metrics.state_dependent_error(a, ap, psi)
        eta = metrics.state_dependent_disturbance(ap, b, psi)
        assert eps.shape == eta.shape == (6,)
        for k in range(6):
            assert eps[k] == pytest.approx(metrics.state_dependent_error(a, ap, psi[k]), abs=1e-15)
            assert eta[k] == pytest.approx(
                metrics.state_dependent_disturbance(ap, b, psi[k]), abs=1e-15)

    @pytest.mark.parametrize("psi", [
        [np.nan, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
        [1.0, 0.0],
        [[[1.0, 0.0, 0.0]]],
        [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
    ])
    def test_bad_states_rejected(self, psi):
        a, ap, b = random_triple(3, 18)
        with pytest.raises(ValidationError):
            metrics.state_dependent_error(a, ap, psi)
        with pytest.raises(ValidationError):
            metrics.state_dependent_disturbance(ap, b, psi)

    def test_norm_messages_print_plain_numbers(self):
        a, ap, _ = random_triple(2, 18)
        with pytest.raises(ValidationError) as state:
            metrics.state_dependent_error(a, ap, [1.0, 1.0])
        with pytest.raises(ValidationError) as vector:
            bloch.bloch_error([0, 0, 2], [0, 0, 1])
        assert str(state.value).endswith("||psi| - 1| = 4.142e-01")
        assert str(vector.value).endswith("|a| = 2.000e+00")
        assert "np.float64" not in str(state.value) + str(vector.value)


class TestError:
    def test_identical_bases(self):
        a = haar_random_basis(4, 4)
        assert metrics.error(a, a).value < 1e-12

    def test_orthogonal_pair_maximal(self):
        a = computational_basis(2)
        ap = OrthonormalBasis(vectors=a.vectors[::-1].copy())
        got = metrics.error(a, ap)
        assert got.value == pytest.approx(1.0)
        assert got.index == 0  # ties break to the lowest outcome
        # Exact ties that round-off splits still go to the lowest index.
        assert metrics.disturbance(computational_basis(3), structures.fourier_basis(3)).index == 0
        assert metrics.overall_error(a, a, structures.fourier_basis(2))[1:] == (0, 0, +1)
        blk = tuple(haar_random_basis(3, 9, w) for w in range(3))
        asm = structures.direct_sum([blk, blk])
        assert metrics.error(*asm[:2]).index == metrics.error(*blk[:2]).index
        assert metrics.disturbance(*asm[1:]).index == metrics.disturbance(*blk[1:]).index
        assert metrics.overall_error(*asm)[1:] == metrics.overall_error(*blk)[1:]

    def test_qubit_bloch_angle(self):
        for phi in (0.3, 1.2, 2.5):
            a = computational_basis(2)
            ap = rotated_qubit_basis(phi)
            assert metrics.error(a, ap).value == pytest.approx(math.sin(phi / 2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            metrics.error(computational_basis(2), computational_basis(3))


class TestDisturbance:
    def test_identical_bases(self):
        b = haar_random_basis(3, 5)
        assert metrics.disturbance(b, b).value < 1e-12

    def test_mub_pair_d2(self):
        a = computational_basis(2)
        f = structures.fourier_basis(2)
        assert metrics.disturbance(a, f).value == pytest.approx(0.5, abs=1e-10)

    def test_unbiased_vector_d3(self):
        a = computational_basis(3)
        f = structures.fourier_basis(3)
        assert metrics.disturbance(a, f).value == pytest.approx(2 / 3, abs=1e-10)

    def test_spectral_radius_definition(self):
        ap, b, _ = random_triple(3, 16)
        expected = max(
            linalg.spectral_radius(metrics.disturbance_matrix(ap, b, i))
            for i in range(3))
        assert metrics.disturbance(ap, b).value == pytest.approx(expected, abs=1e-12)


class TestDisturbanceOnFrames:
    """eta is solved on the real A' frames; the complex D_i stack is the reference."""

    @staticmethod
    def complex_path(ap, b):
        r = linalg.spectral_radius(metrics.disturbance_matrices(ap, b))
        top = r.max(axis=-1)
        return top, np.argmax(r >= top[..., None] - TIE_TOL, axis=-1)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_haar_pairs_match_the_complex_stack(self, d):
        aps = stack_bases([haar_random_basis(d, 70, t, 0) for t in range(12)])
        bs = stack_bases([haar_random_basis(d, 70, t, 1) for t in range(12)])
        value, index = self.complex_path(aps, bs)
        eta = metrics.disturbance(aps, bs)
        assert np.max(np.abs(eta.value - value)) <= 1e-13
        assert np.array_equal(eta.index, index)
        for t in (0, 5, 11):
            single = metrics.disturbance(OrthonormalBasis(vectors=aps.vectors[t]),
                                         OrthonormalBasis(vectors=bs.vectors[t]))
            assert abs(single.value - value[t]) <= 1e-13 and single.index == index[t]

    @pytest.mark.parametrize("d", range(2, 17))
    def test_mub_pair_and_identical_bases(self, d):
        a, f = computational_basis(d), structures.fourier_basis(d)
        eta = metrics.disturbance(a, f)
        value, index = self.complex_path(a, f)
        assert abs(eta.value - (1.0 - 1.0 / d)) <= 1e-13
        assert abs(eta.value - value) <= 1e-13 and eta.index == index
        b = haar_random_basis(d, 71)
        assert metrics.disturbance(b, b).value <= 1e-14

    def test_frame_matrix_is_a_row_of_the_solved_stack(self):
        aps = stack_bases([haar_random_basis(4, 72, t, 0) for t in range(6)])
        b = haar_random_basis(4, 72, 99)
        eta = metrics.disturbance(aps, b)
        frame = metrics.disturbance_matrix_in_frame(aps, b, eta.index)
        assert frame.dtype == np.float64 and frame.shape == (6, 4, 4)
        assert np.array_equal(linalg.spectral_radius(frame), eta.value)


class TestStackedEigensolves:
    def test_one_spectral_radius_call_per_metric(self, monkeypatch):
        shapes = []
        real = linalg.spectral_radius

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "spectral_radius", counting)
        a, ap, b = random_triple(3, 45)
        metrics.disturbance(ap, b)
        assert shapes == [(3, 3, 3)]
        shapes.clear()
        metrics.overall_error(a, ap, b)
        assert shapes == [(3, 3, 2, 3, 3)]
        shapes.clear()
        metrics.disturbance(stack_bases([haar_random_basis(3, 46, k) for k in range(5)]), b)
        assert shapes == [(5, 3, 3, 3)]


def stack_bases(bases):
    return OrthonormalBasis(vectors=np.stack([x.vectors for x in bases]))


class TestBatchedMetrics:
    """A batch of bases gives, field by field, what each basis gives alone."""

    @staticmethod
    def triples(d):
        comp, four = computational_basis(d), structures.fourier_basis(d)
        ties = [(comp, comp, comp), (comp, comp, four), (comp, four, four),
                (four, comp, comp), (comp, four, comp)]
        return [random_triple(d, 60 + k) for k in range(6)] + ties

    @staticmethod
    def each(a, ap, b):
        """Witness tuples, then plain values (the last is a frame matrix)."""
        eta = metrics.disturbance(ap, b)
        return ((metrics.error(a, ap), eta, metrics.overall_error(a, ap, b),
                 metrics.relaxed_error(a, b)),
                (metrics.conjecture_floor(a, b), metrics.calibration_error(a, ap),
                 metrics.calibration_disturbance(ap, b), metrics.disturbance_bound_1(ap, b),
                 metrics.disturbance_bound_2(ap, b),
                 metrics.disturbance_matrix_in_frame(ap, b, eta.index)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_batch_matches_each_basis(self, d):
        triples = self.triples(d)
        n = len(triples)
        tuples, values = self.each(*(stack_bases(col) for col in zip(*triples)))
        assert tuples[3].permutation.shape == (n, d)
        assert [v.shape for v in values] == [(n,)] * 5 + [(n, d, d)]
        for k, triple in enumerate(triples):
            single_tuples, single_values = self.each(*triple)
            for got, want in zip(values[:-1], single_values[:-1]):
                assert type(want) is float
                assert np.array_equal(got[k], want)
            assert single_values[-1].shape == (d, d)
            assert np.array_equal(values[-1][k], single_values[-1])
            for got, want in zip(tuples, single_tuples):
                assert type(got) is type(want)
                for got_field, want_field in zip(got, want):
                    assert type(want_field) in (float, int, tuple)
                    if type(want_field) is tuple:
                        assert all(type(x) is int for x in want_field)
                    assert np.array_equal(got_field[k], want_field), (type(got), k)

    def test_single_basis_broadcasts_against_batch(self):
        a, b = computational_basis(3), structures.fourier_basis(3)
        aps = [haar_random_basis(3, 61, k) for k in range(5)]
        eps = metrics.error(a, stack_bases(aps))
        eta = metrics.disturbance(stack_bases(aps), b)
        for k, ap in enumerate(aps):
            assert eps.value[k] == metrics.error(a, ap).value
            assert eta.value[k] == metrics.disturbance(ap, b).value
            assert eta.index[k] == metrics.disturbance(ap, b).index

    def test_mismatched_batches_rejected(self):
        three = stack_bases([haar_random_basis(3, 62, k) for k in range(4)])
        four = stack_bases([haar_random_basis(4, 62, k) for k in range(4)])
        short = stack_bases([haar_random_basis(3, 63, k) for k in range(2)])
        for x, y in ((three, four), (three, short), (computational_basis(4), three)):
            for call in (lambda: metrics.error(x, y),
                         lambda: metrics.disturbance(x, y),
                         lambda: metrics.overall_error(x, x, y),
                         lambda: metrics.relaxed_error(x, y),
                         lambda: metrics.conjecture_floor(x, y),
                         lambda: metrics.calibration_error(x, y),
                         lambda: metrics.calibration_disturbance(x, y),
                         lambda: metrics.disturbance_bound_1(x, y),
                         lambda: metrics.disturbance_bound_2(x, y)):
                with pytest.raises(ValidationError):
                    call()


class TestRephasing:
    def test_perron_frobenius_structure(self):
        for d in (2, 3, 4, 5):
            ap, b, _ = random_triple(d, 18 + d)
            for i in range(d):
                frame = metrics.disturbance_matrix_in_frame(ap, b, i)
                assert np.min(frame) > -1e-12
                top = linalg.eigvals_hermitian(frame)[-1]
                r = linalg.spectral_radius(metrics.disturbance_matrix(ap, b, i))
                assert abs(top - r) < 1e-10


def all_quantities(a, ap, b, psi):
    """eps, eta, delta and the state-dependent eps_psi, eta_psi."""
    return np.array([metrics.error(a, ap).value, metrics.disturbance(ap, b).value,
                     metrics.overall_error(a, ap, b).value,
                     metrics.state_dependent_error(a, ap, psi),
                     metrics.state_dependent_disturbance(ap, b, psi)])


class TestInvariance:
    """The quantities depend on the bases only through projectors and Born
    statistics, so a common unitary or a rephased vector changes nothing."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_common_unitary_changes_nothing(self, d, seed):
        a, ap, b = random_triple(d, seed)
        psi = linalg.haar_unit_vector(d, seed, 3)
        u = linalg.haar_unitary(d, seed, 4)
        moved = [OrthonormalBasis(vectors=x.vectors @ u.T) for x in (a, ap, b)]
        before = all_quantities(a, ap, b, psi)
        after = all_quantities(*moved, u @ psi)
        assert np.max(np.abs(after - before)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), which=st.integers(0, 2),
           index=st.integers(0, 4), phase=st.floats(0.0, 2 * math.pi))
    def test_rephasing_one_vector_changes_nothing(self, d, seed, which, index, phase):
        triple = list(random_triple(d, seed))
        psi = linalg.haar_unit_vector(d, seed, 3)
        v = triple[which].vectors.copy()
        v[index % d] *= np.exp(1j * phase)
        before = all_quantities(*triple, psi)
        triple[which] = OrthonormalBasis(vectors=v)
        assert np.max(np.abs(all_quantities(*triple, psi) - before)) <= 1e-12

    @staticmethod
    def labelled_quantities(a, ap, b):
        """eps, eta, delta and the conjectured floor f."""
        return np.array([metrics.error(a, ap).value, metrics.disturbance(ap, b).value,
                         metrics.overall_error(a, ap, b).value,
                         metrics.conjecture_floor(a, b)])

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_conjugating_all_three_bases_changes_nothing(self, d, seed):
        # every matrix becomes its entrywise conjugate, which has the same spectrum
        triple = random_triple(d, seed)
        conjugated = [OrthonormalBasis(vectors=x.vectors.conj()) for x in triple]
        before, after = (np.append(self.labelled_quantities(*t),
                                   metrics.relaxed_error(t[0], t[2]).value)
                         for t in (triple, conjugated))
        assert np.max(np.abs(after - before)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           order=st.permutations(range(5)), b_alone=st.booleans())
    def test_relabelling_changes_nothing(self, d, seed, order, b_alone):
        # relabel A and A' together (the error pairs a_i with a'_i), or B alone
        perm = [k for k in order if k < d]
        triple = list(random_triple(d, seed))
        before = self.labelled_quantities(*triple)
        for which in ((2,) if b_alone else (0, 1)):
            triple[which] = OrthonormalBasis(vectors=triple[which].vectors[perm])
        after = self.labelled_quantities(*triple)
        assert np.max(np.abs(after - before)) <= 1e-12


class TestOverallError:
    def test_reduces_to_disturbance_at_identity(self):
        a, _, b = random_triple(3, 19)
        assert metrics.overall_error(a, a, b).value == pytest.approx(
            metrics.disturbance(a, b).value, abs=1e-10)

    def test_reduces_to_error_at_target(self):
        a, _, b = random_triple(3, 20)
        assert metrics.overall_error(a, b, b).value == pytest.approx(
            metrics.error(a, b).value, abs=1e-10)

    def test_qubit_matches_pure_state_sampling(self):
        a, ap, b = random_triple(2, 21)
        delta = metrics.overall_error(a, ap, b).value
        sampled = oracle.max_sum_over_states(a, ap, b, oracle.haar_states(2, 500, 22), 150)
        assert delta - 1e-3 <= sampled.value <= delta + 1e-9

    def test_sum_decomposition(self):
        for d in (2, 3, 4):
            a, ap, b = random_triple(d, 23 + d)
            delta = metrics.overall_error(a, ap, b).value
            total = metrics.error(a, ap).value + metrics.disturbance(ap, b).value
            assert delta <= total + 1e-9


def haar_triples(d, n, seed):
    """n <= 256 (A, A', B) triples as three batch bases, drawn as conjecture_search does."""
    [(_, triple)] = explorer._haar_blocks(d, seed, range(n), (0,), (1,), (2,))
    return triple


class TestOverallErrorLowerBound:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_below_delta_on_haar_triples(self, d):
        a, ap, b = haar_triples(d, 200, 40 + d)
        low = metrics.overall_error_lower_bound(a, ap, b)
        delta = metrics.overall_error(a, ap, b).value
        assert low.shape == (200,)
        assert np.all(low <= delta + 1e-13)
        # close enough to delta to rule trials out (measured mean 0.88-0.93)
        assert np.mean(low / delta) > 0.8

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_below_delta_at_the_endpoints_and_on_mub_pairs(self, d):
        a, _, b = random_triple(d, 50 + d)
        b_tilde = OrthonormalBasis(vectors=b.vectors[list(metrics.relaxed_error(a, b).permutation)])
        w, u = np.linalg.eigh(random_hermitian(d, 60 + d))
        near_a = OrthonormalBasis(vectors=((u * np.exp(1e-8j * w)) @ u.conj().T @ a.vectors.T).T)
        comp, fourier = computational_basis(d), structures.fourier_basis(d)
        triples = [(a, a, b), (a, b_tilde, b), (a, near_a, b), (comp, comp, fourier),
                   (comp, fourier, fourier), (comp, a, fourier), (comp, fourier, comp)]
        for triple in triples:
            low = metrics.overall_error_lower_bound(*triple)
            assert isinstance(low, float)
            assert low <= metrics.overall_error(*triple).value + 1e-13

    def test_overall_error_rows_do_not_depend_on_the_batch(self):
        # conjecture_search solves delta on row subsets of a block
        a, ap, b = haar_triples(4, 50, 7)
        full = metrics.overall_error(a, ap, b).value
        for rows in ([3], [0, 17, 49], np.arange(50) % 3 == 1, 21):
            part = metrics.overall_error(*(OrthonormalBasis(vectors=x.vectors[rows])
                                           for x in (a, ap, b))).value
            assert np.array_equal(part, full[rows])


class TestCalibration:
    def test_calibration_disturbance_zero_for_identical(self):
        b = haar_random_basis(3, 27)
        assert metrics.calibration_disturbance(b, b) < 1e-12

    def test_calibration_disturbance_mub(self):
        for d in (2, 3, 4):
            a = computational_basis(d)
            f = structures.fourier_basis(d)
            assert metrics.calibration_disturbance(a, f) == pytest.approx(
                1 - 1 / d, abs=1e-12)

    def test_epsilon_is_sqrt_of_calibration_error(self):
        for d in (2, 3, 4, 5):
            a, ap, _ = random_triple(d, 28 + d)
            assert metrics.error(a, ap).value == pytest.approx(
                math.sqrt(metrics.calibration_error(a, ap)), abs=1e-9)

    def test_qubit_geometric_mean_equality(self):
        ap, b, _ = random_triple(2, 33)
        eta = metrics.disturbance(ap, b).value
        assert eta == pytest.approx(
            math.sqrt(0.5 * metrics.calibration_disturbance(ap, b)), abs=1e-9)


class TestDisturbanceBounds:
    def test_qubit_equalities(self):
        ap, b, _ = random_triple(2, 34)
        eta = metrics.disturbance(ap, b).value
        assert metrics.disturbance_bound_1(ap, b) == pytest.approx(eta, abs=1e-9)
        assert metrics.disturbance_bound_2(ap, b) == pytest.approx(eta, abs=1e-9)

    def test_unbiased_case_saturates(self):
        for d in (2, 3, 4):
            a = computational_basis(d)
            f = structures.fourier_basis(d)
            eta = metrics.disturbance(a, f).value
            assert metrics.disturbance_bound_1(a, f) == pytest.approx(1 - 1 / d, abs=1e-9)
            assert metrics.disturbance_bound_2(a, f) == pytest.approx(1 - 1 / d, abs=1e-9)
            assert eta == pytest.approx(1 - 1 / d, abs=1e-9)

    def test_bounds_dominate_disturbance(self):
        for seed in range(30):
            ap, b, _ = random_triple(3, 300 + seed)
            eta = metrics.disturbance(ap, b).value
            assert eta <= metrics.disturbance_bound_1(ap, b) + 1e-9
            assert eta <= metrics.disturbance_bound_2(ap, b) + 1e-9


class TestRelaxedError:
    def test_permuted_labels_give_zero(self):
        a = haar_random_basis(3, 35)
        permuted = OrthonormalBasis(vectors=a.vectors[[2, 0, 1]].copy())
        got = metrics.relaxed_error(a, permuted)
        assert got.value < 1e-9
        assert got.permutation == (1, 2, 0)

    def test_identity_labels_give_zero(self):
        a = haar_random_basis(4, 36)
        assert metrics.relaxed_error(a, a).value < 1e-9

    def test_qubit_bloch_angle(self):
        for phi in (0.4, 1.1, 2.0):
            a = computational_basis(2)
            b = rotated_qubit_basis(phi)
            expected = min(math.sin(phi / 2), math.cos(phi / 2))
            assert metrics.relaxed_error(a, b).value == pytest.approx(expected, abs=1e-9)

    def test_oversize_rejected(self):
        a = haar_random_basis(9, 37)
        b = haar_random_basis(9, 38)
        with pytest.raises(UnsupportedSizeError):
            metrics.relaxed_error(a, b)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_permutation_loop(self, d):
        # reference: every relabeling in itertools order, the first minimum
        # kept; sin2[i, j] = |a_i - <b_j|a_i> b_j|^2 as in the metric
        comp, four = computational_basis(d), structures.fourier_basis(d)
        pairs = [(comp, comp), (comp, four), (four, comp)]
        pairs += [(haar_random_basis(d, 64, k), haar_random_basis(d, 65, k)) for k in range(4)]
        for a, b in pairs:
            sin2 = np.array([[np.sum(np.abs(x - (y.conj() @ x) * y) ** 2) for y in b.vectors]
                             for x in a.vectors])
            best, best_perm = math.inf, None
            for perm in itertools.permutations(range(d)):
                worst = max(sin2[i, perm[i]] for i in range(d))
                if worst < best:
                    best, best_perm = worst, perm
            got = metrics.relaxed_error(a, b)
            assert got.permutation == best_perm
            assert abs(got.value - math.sqrt(max(best, 0.0))) <= 1e-15


class TestConjectureFloor:
    def test_identical_bases(self):
        a = haar_random_basis(3, 39)
        assert metrics.conjecture_floor(a, a) < 1e-9

    def test_qubit_orthogonal_bloch_vectors(self):
        a = computational_basis(2)
        b = rotated_qubit_basis(math.pi / 2)
        expected = min(metrics.relaxed_error(a, b).value, 0.5)
        assert metrics.conjecture_floor(a, b) == pytest.approx(expected, abs=1e-9)

    def test_mub_pair_d3(self):
        a = computational_basis(3)
        f = structures.fourier_basis(3)
        expected = min(metrics.relaxed_error(a, f).value, 2 / 3)
        assert metrics.conjecture_floor(a, f) == pytest.approx(expected, abs=1e-9)


class TestPointwiseDominance:
    def test_state_dependent_below_state_independent(self):
        for d in (2, 3, 4, 5):
            for seed in range(25):
                a, ap, b = random_triple(d, 1000 * d + seed)
                psi = linalg.haar_unit_vector(d, 2000 * d + seed)
                eps = metrics.error(a, ap).value
                eta = metrics.disturbance(ap, b).value
                assert metrics.state_dependent_error(a, ap, psi) <= eps + 1e-9
                assert metrics.state_dependent_disturbance(ap, b, psi) <= eta + 1e-9


class TestTradeoffReport:
    def test_invariants_on_random_triples(self):
        for d in (2, 3, 4):
            a, ap, b = random_triple(d, 40 + d)
            rep = metrics.tradeoff_report(a, ap, b)
            assert rep.epsilon <= 1 + 1e-9
            assert rep.eta <= 1 - 1 / d + 1e-9
            assert rep.eta >= rep.eta_cal - 1e-9
            assert rep.epsilon == pytest.approx(math.sqrt(rep.epsilon_cal), abs=1e-9)
            assert rep.eta <= min(rep.bound1, rep.bound2) + 1e-9
            assert rep.delta <= rep.epsilon + rep.eta + 1e-9

    def test_witness_state_achieves_delta(self):
        a, ap, b = random_triple(3, 44)
        rep = metrics.tradeoff_report(a, ap, b)
        psi = rep.witness_state
        achieved = (metrics.state_dependent_error(a, ap, psi)
                    + metrics.state_dependent_disturbance(ap, b, psi))
        assert achieved == pytest.approx(rep.delta, abs=1e-9)
        # the witness is a genuine lower bound through the state-dependent path
        assert rep.delta >= achieved - 1e-9


class TestDeltaFloorNearTheTarget:
    def test_delta_falls_below_the_floor_next_to_a_at_d3(self):
        # At A' = A every E_i vanishes, so delta'(A; X) = max_i |<H_i, X>| +
        # <G, X> for the active eta piece (outcome j, eigenvector v, sign
        # sigma), with <M, X> = Re tr(M X).  At d >= 3 the H_i do not span the
        # off-diagonal X, and X = -(G minus its projection onto span{H_i})
        # lowers delta at first order; eps' = |X|_c is a norm, so eps + eta
        # cannot fall.  The delta >= f half of the conjecture fails here.
        a, b = computational_basis(3), haar_random_basis(3, 0, 1)
        floor = metrics.conjecture_floor(a, b)
        eta = metrics.disturbance(a, b)
        assert floor == eta.value  # eta < relaxed eps on this pair
        lam, vecs = np.linalg.eigh(metrics.disturbance_matrices(a, b)[eta.index])
        top = int(np.argmax(np.abs(lam)))
        sigma, v = np.sign(lam[top]), vecs[:, top]
        vv = np.outer(v, v.conj())
        p_j = np.outer(b.vectors[eta.index], b.vectors[eta.index].conj())

        def comm(x, y):
            return x @ y - y @ x

        def dephase(m):
            return np.diag(np.diag(m))

        h = [-1j * comm(np.outer(ai, ai.conj()), vv) for ai in a.vectors]
        g = sigma * (-1j * comm(dephase(p_j), vv) + 1j * comm(p_j, dephase(vv)))
        real = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in (*h, g)])
        coef = np.linalg.lstsq(real[:-1].T, real[-1], rcond=None)[0]
        x = -(g - np.tensordot(coef, h, axes=1))
        x = 0.5 * (x + x.conj().T)
        x *= math.sqrt(2) / np.linalg.norm(x)
        w, u = np.linalg.eigh(x)
        move = (u * np.exp(1e-3j * w)) @ u.conj().T
        ap = OrthonormalBasis(vectors=(move @ a.vectors.T).T)

        delta = metrics.overall_error(a, ap, b).value
        e, dm = metrics.error_matrices(a, ap), metrics.disturbance_matrices(ap, b)
        closed = max(np.max(np.abs(oracle.eig3_closed(ei + s * dj)))
                     for ei in e for dj in dm for s in (1, -1))
        assert delta < floor - 1e-6
        assert closed < floor - 1e-6
        assert abs(delta - closed) <= 1e-12
        assert metrics.error(a, ap).value + metrics.disturbance(ap, b).value >= floor


class TestFirstOrderNearTheTarget:
    # A computational, A' = e^{itX}A and B = e^{itY}A with X, Y Hermitian and
    # zero on the diagonal.  To first order in t, eps = t|X|_c,
    # eta(A', B) = t|X - Y|_c and relaxed eps(A, B) = eta(A, B) = t|Y|_c, where
    # |X|_c is the largest norm of a column of X: the conjecture reads as the
    # triangle inequality for |.|_c.
    @staticmethod
    def rotation(h, t):
        w, v = np.linalg.eigh(h)
        return OrthonormalBasis(vectors=((v * np.exp(1j * t * w)) @ v.conj().T).T)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_each_quantity_over_t_reaches_its_column_norm(self, d):
        t = 1e-5
        a = computational_basis(d)
        for seed in range(5):
            x, y = (random_hermitian(d, 470 + 10 * d + 2 * seed + k) for k in range(2))
            np.fill_diagonal(x, 0.0)
            np.fill_diagonal(y, 0.0)
            ap, b = self.rotation(x, t), self.rotation(y, t)
            for value, h in ((metrics.error(a, ap).value, x),
                             (metrics.disturbance(ap, b).value, x - y),
                             (metrics.relaxed_error(a, b).value, y),
                             (metrics.disturbance(a, b).value, y)):
                limit = np.max(np.linalg.norm(h, axis=0))
                assert abs(value / t - limit) <= 1e-3 * limit
