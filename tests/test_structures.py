import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtradeoff import bloch, metrics, structures
from qtradeoff.errors import UnsupportedSizeError, ValidationError
from qtradeoff.measurement import OrthonormalBasis, computational_basis, haar_random_basis
from qtradeoff.tolerances import ASSERTION_TOL

from conftest import random_triple


def batch_triple(d, n, seed, k):
    """(A, A', B) batches of n bases; basis w of entry t is drawn from
    sub-stream (k, t, w).  Dimension 1 gives random phases."""
    if d == 1:
        phases = np.random.default_rng([seed, k]).uniform(0, 2 * np.pi, (3, n, 1, 1))
        return tuple(OrthonormalBasis(vectors=np.exp(1j * p)) for p in phases)
    return tuple(OrthonormalBasis(vectors=np.stack(
        [haar_random_basis(d, seed, k, t, w).vectors for t in range(n)])) for w in range(3))


def entry(triple, t):
    """Triple of the single bases at batch index t."""
    return tuple(OrthonormalBasis(vectors=x.vectors[t]) for x in triple)


def qubit_pair_with_error(eps):
    """(computational, rotated) d=2 pair with exactly the requested error."""
    phi = 2.0 * math.asin(eps)
    a = computational_basis(2)
    ap = bloch.bloch_to_basis(np.array([math.sin(phi), 0.0, math.cos(phi)]))
    return a, ap


class TestFourierBasis:
    def test_all_overlaps_are_one_over_d(self):
        for d in (2, 3, 5, 7):
            f = structures.fourier_basis(d)
            comp = computational_basis(d)
            overlaps = np.abs(f.gram(comp)) ** 2
            assert np.max(np.abs(overlaps - 1.0 / d)) < 1e-12

    def test_unitarity(self):
        f = structures.fourier_basis(4)
        g = f.vectors.conj() @ f.vectors.T
        assert np.max(np.abs(g - np.eye(4))) < 1e-12

    def test_small_dim_rejected(self):
        with pytest.raises(ValidationError):
            structures.fourier_basis(1)

    def test_achieves_maximal_disturbance(self):
        for d in (2, 3, 4, 5):
            eta = metrics.disturbance(computational_basis(d), structures.fourier_basis(d))
            assert eta.value == pytest.approx(1 - 1 / d, abs=1e-9)


class TestDirectSum:
    def test_single_block_is_identity_embedding(self):
        triple = random_triple(3, 0)
        out = structures.direct_sum([triple])
        for got, want in zip(out, triple):
            assert np.array_equal(got.vectors, want.vectors)

    def test_error_is_max_of_blocks(self):
        a1, ap1 = qubit_pair_with_error(0.3)
        a2, ap2 = qubit_pair_with_error(0.5)
        b = computational_basis(2)
        asm = structures.direct_sum([(a1, ap1, b), (a2, ap2, b)])
        assert metrics.error(asm[0], asm[1]).value == pytest.approx(0.5, abs=1e-12)

    def test_disturbance_is_max_of_blocks(self):
        blocks = [random_triple(2, seed) for seed in (1, 2)]
        asm = structures.direct_sum(blocks)
        expected = max(metrics.disturbance(bl[1], bl[2]).value for bl in blocks)
        assert metrics.disturbance(asm[1], asm[2]).value == pytest.approx(
            expected, abs=1e-12)

    def test_property2_equalities_random_blocks(self):
        for seed in range(20):
            blocks = [random_triple(2, 100 + seed), random_triple(2, 200 + seed)]
            asm = structures.direct_sum(blocks)
            eps_blocks = max(metrics.error(bl[0], bl[1]).value for bl in blocks)
            eta_blocks = max(metrics.disturbance(bl[1], bl[2]).value for bl in blocks)
            assert abs(metrics.error(asm[0], asm[1]).value - eps_blocks) < 1e-12
            assert abs(metrics.disturbance(asm[1], asm[2]).value - eta_blocks) < 1e-12

    def test_malformed_blocks_rejected(self):
        with pytest.raises(ValidationError):
            structures.direct_sum([])
        a = computational_basis(2)
        with pytest.raises(ValidationError):
            structures.direct_sum([(a, a, computational_basis(3))])


class TestTensorProduct:
    def test_dimensions_and_ordering(self):
        t1 = random_triple(2, 3)
        t2 = random_triple(2, 4)
        asm = structures.tensor_product([t1, t2])
        assert asm[0].dim == 4
        # composite outcome (i, j) sits at index i*d2 + j
        for i in range(2):
            for j in range(2):
                expected = np.kron(t1[0].vectors[i], t2[0].vectors[j])
                assert np.max(np.abs(asm[0].vectors[i * 2 + j] - expected)) < 1e-12

    def test_factor_dominance(self):
        for seed in range(20):
            factors = [random_triple(2, 300 + seed), random_triple(2, 400 + seed)]
            asm = structures.tensor_product(factors)
            f_eps = max(metrics.error(f[0], f[1]).value for f in factors)
            f_eta = max(metrics.disturbance(f[1], f[2]).value for f in factors)
            assert metrics.error(asm[0], asm[1]).value >= f_eps - 1e-9
            assert metrics.disturbance(asm[1], asm[2]).value >= f_eta - 1e-9

    def test_identity_factor_leaves_error_unchanged(self):
        active = random_triple(2, 5)
        c = computational_basis(2)
        trivial = (c, c, c)
        asm = structures.tensor_product([active, trivial])
        assert metrics.error(asm[0], asm[1]).value == pytest.approx(
            metrics.error(active[0], active[1]).value, abs=1e-9)

    def test_oversize_rejected(self):
        t3 = random_triple(3, 6)
        with pytest.raises(UnsupportedSizeError):
            structures.tensor_product([t3, t3, t3])


class TestBatchConstruction:
    @pytest.mark.parametrize("build, dims", [
        (structures.direct_sum, (2, 3)), (structures.direct_sum, (1, 4, 2)),
        (structures.tensor_product, (2, 3)), (structures.tensor_product, (2, 1, 2, 2))])
    def test_batch_equals_per_basis_construction_bit_for_bit(self, build, dims):
        parts = [batch_triple(d, 5, 11, k) for k, d in enumerate(dims)]
        batch = build(parts)
        for t in range(5):
            single = build([entry(p, t) for p in parts])
            for got, want in zip(batch, single):
                assert got.vectors[t].tobytes() == want.vectors.tobytes()

    def test_tensor_product_matches_kron_bit_for_bit(self):
        parts = [random_triple(2, 21), random_triple(3, 22)]
        for got, x, y in zip(structures.tensor_product(parts), *parts):
            assert got.vectors.tobytes() == np.kron(x.vectors, y.vectors).tobytes()

    @pytest.mark.parametrize("build", [structures.direct_sum, structures.tensor_product])
    def test_mismatched_batch_shapes_rejected(self, build):
        three, four = batch_triple(2, 3, 0, 0), batch_triple(2, 4, 0, 1)
        single = random_triple(2, 0)
        mixed = (three[0], three[1], four[2])
        for parts in ([three, four], [three, single], [mixed]):
            with pytest.raises(ValidationError, match="needs one batch shape"):
                build(parts)

    @pytest.mark.parametrize("build, op, kind", [
        (structures.direct_sum, "direct sum", "block"),
        (structures.tensor_product, "tensor product", "factor")])
    def test_malformed_triples_name_the_part(self, build, op, kind):
        a = computational_basis(2)
        with pytest.raises(ValidationError, match=f"^{op} needs at least one {kind}$"):
            build([])
        with pytest.raises(ValidationError, match=f"^{kind} 1 is not a triple of bases$"):
            build([(a, a, a), (a, a)])
        with pytest.raises(ValidationError, match=f"^{kind} 0 has mismatched dimensions$"):
            build([(a, a, computational_basis(3))])


class TestCompositionLaws:
    """Properties 2 and 3 on random batches of blocks of dimension 1-4."""

    @settings(max_examples=30, deadline=None)
    @given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=4).filter(
               lambda dims: sum(dims) <= 15),
           at=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_direct_sum_takes_the_max_over_blocks(self, dims, at, seed):
        dims = dims[:at] + [1] + dims[at:]  # a trivial one-dimensional summand
        blocks = [batch_triple(d, 4, seed, k) for k, d in enumerate(dims)]
        a, ap, b = structures.direct_sum(blocks)
        eps = np.max([metrics.error(x[0], x[1]).value for x in blocks], axis=0)
        eta = np.max([metrics.disturbance(x[1], x[2]).value for x in blocks], axis=0)
        assert np.max(np.abs(metrics.error(a, ap).value - eps)) <= 1e-12
        assert np.max(np.abs(metrics.disturbance(ap, b).value - eta)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
               lambda dims: 2 <= math.prod(dims) <= 16),
           seed=st.integers(0, 2**32 - 1))
    def test_tensor_product_dominates_each_factor(self, dims, seed):
        factors = [batch_triple(d, 4, seed, k) for k, d in enumerate(dims)]
        a, ap, b = structures.tensor_product(factors)
        eps, eta = metrics.error(a, ap).value, metrics.disturbance(ap, b).value
        for x in factors:
            assert np.all(eps >= metrics.error(x[0], x[1]).value - ASSERTION_TOL)
            assert np.all(eta >= metrics.disturbance(x[1], x[2]).value - ASSERTION_TOL)
