"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package at full sample sizes
and prints a single PASS line when it holds.  Sample counts and tolerances
are deliberately hard-coded; loosening them is a behavior change.
"""

import json
import math
import time

import numpy as np
import pytest

from qtradeoff import bloch, cli, explorer, linalg, metrics, oracle, structures
from qtradeoff.measurement import OrthonormalBasis, computational_basis, haar_random_basis

from conftest import random_hermitian


def _unit_vectors(n, seed):
    g = np.random.default_rng(seed)
    v = g.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_theorem1_floor():
    start = time.perf_counter()
    n = 10_000
    a, ap, b = (_unit_vectors(n, s) for s in (10, 11, 12))
    for k in range(n):
        floor = bloch.theorem_floor(a[k], b[k])
        eps = bloch.bloch_error(a[k], ap[k])
        eta = bloch.bloch_disturbance(ap[k], b[k])
        assert eps + eta - floor >= -1e-9
        assert bloch.bloch_overall(a[k], ap[k], b[k]) - floor >= -1e-9
    for k in range(200):
        theta = math.acos(np.clip(np.dot(a[k], b[k]), -1.0, 1.0))
        want = 0.5 * math.sin(theta)
        total = bloch.bloch_error(a[k], a[k]) + bloch.bloch_disturbance(a[k], b[k])
        assert abs(total - want) <= 1e-9
        assert abs(bloch.bloch_overall(a[k], a[k], b[k]) - want) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    _report("criterion 1 (qubit floor, 10^4 triples)")


def test_criterion_02_theorem2_mub_floor():
    start = time.perf_counter()
    expected = {2: 0.5, 3: 2 / 3, 4: 0.75, 5: 0.8}
    for d in (2, 3, 4, 5):
        run = explorer.verify_theorem2(d, trials=1000, seed=20 + d)
        assert run.violations == []
        assert run.min_sum >= 1 - 1 / d - 1e-9
        assert abs(run.sum_at_identity - expected[d]) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _report("criterion 2 (MUB floor, d = 2..5)")


def test_criterion_03_property1_bounds():
    for d in (2, 3, 4, 5):
        for t in range(1000):
            ap = haar_random_basis(d, 30, d, t, 0)
            b = haar_random_basis(d, 30, d, t, 1)
            assert metrics.error(ap, b).value <= 1.0 + 1e-12
            assert metrics.disturbance(ap, b).value <= 1 - 1 / d + 1e-9
    comp = computational_basis(2)
    flipped = OrthonormalBasis(vectors=comp.vectors[::-1].copy())
    assert abs(metrics.error(comp, flipped).value - 1.0) <= 1e-9
    for d in (2, 3, 4, 5):
        eta = metrics.disturbance(computational_basis(d), structures.fourier_basis(d))
        assert abs(eta.value - (1 - 1 / d)) <= 1e-9
    _report("criterion 3 (metric range bounds and equality instances)")


def test_criterion_04_disturbance_bounds():
    for d in (2, 3, 4, 5):
        for t in range(250):
            ap = haar_random_basis(d, 40, d, t, 0)
            b = haar_random_basis(d, 40, d, t, 1)
            eps = metrics.error(ap, b).value
            eta = metrics.disturbance(ap, b).value
            b1 = metrics.disturbance_bound_1(ap, b)
            b2 = metrics.disturbance_bound_2(ap, b)
            assert eta <= b1 + 1e-9
            assert eta <= b2 + 1e-9
            geo = math.sqrt((1 - 1 / d) * metrics.calibration_disturbance(ap, b))
            assert eta <= geo + 1e-9
            assert abs(eps - math.sqrt(metrics.calibration_error(ap, b))) <= 1e-9
            if d == 2:
                assert abs(eta - b1) <= 1e-9
                assert abs(eta - b2) <= 1e-9
    _report("criterion 4 (disturbance upper bounds and calibration identities)")


def test_criterion_05_perron_frobenius_structure():
    for d in (2, 3, 4, 5):
        for t in range(1000):
            ap = haar_random_basis(d, 50, d, t, 0)
            b = haar_random_basis(d, 50, d, t, 1)
            i = metrics.disturbance(ap, b).index
            frame = metrics.disturbance_matrix_in_frame(ap, b, i)
            assert np.min(frame) >= -1e-12
            top = linalg.eigvals_hermitian(frame)[-1]
            r = linalg.spectral_radius(metrics.disturbance_matrix(ap, b, i))
            assert abs(top - r) <= 1e-10
    _report("criterion 5 (nonnegative disturbance matrix, top eigenvalue)")


def test_criterion_06_composition_rules():
    for t in range(100):
        blocks = [tuple(haar_random_basis(2, 60, t, k, w) for w in range(3))
                  for k in range(2)]
        asm = structures.direct_sum(blocks)
        eps_blocks = max(metrics.error(bl[0], bl[1]).value for bl in blocks)
        eta_blocks = max(metrics.disturbance(bl[1], bl[2]).value for bl in blocks)
        assert abs(metrics.error(asm[0], asm[1]).value - eps_blocks) <= 1e-12
        assert abs(metrics.disturbance(asm[1], asm[2]).value - eta_blocks) <= 1e-12
    for t in range(100):
        factors = [tuple(haar_random_basis(2, 61, t, k, w) for w in range(3))
                   for k in range(2)]
        asm = structures.tensor_product(factors)
        f_eps = max(metrics.error(fa[0], fa[1]).value for fa in factors)
        f_eta = max(metrics.disturbance(fa[1], fa[2]).value for fa in factors)
        assert metrics.error(asm[0], asm[1]).value >= f_eps - 1e-9
        assert metrics.disturbance(asm[1], asm[2]).value >= f_eta - 1e-9
    _report("criterion 6 (direct sums and tensor products, 10^2 each)")


def test_criterion_07_oracle_equivalence():
    count = 0
    for d in (2, 3, 4):
        for t in range(34):
            a = haar_random_basis(d, 70, d, t, 0)
            ap = haar_random_basis(d, 70, d, t, 1)
            b = haar_random_basis(d, 70, d, t, 2)
            states = oracle.haar_states(d, 2000, 700 + t)
            pairs = (
                (metrics.error(a, ap).value,
                 oracle.max_error_over_states(a, ap, states, 200)),
                (metrics.disturbance(ap, b).value,
                 oracle.max_disturbance_over_states(ap, b, states, 200)),
                (metrics.overall_error(a, ap, b).value,
                 oracle.max_sum_over_states(a, ap, b, states, 200)),
            )
            for analytic, sampled in pairs:
                gap = sampled.value - analytic
                assert -1e-4 <= gap <= 1e-9, f"d={d} t={t} gap={gap:.2e}"
            count += 1
    assert count >= 100
    for seed in range(50):
        m2 = random_hermitian(2, 7000 + seed)
        assert np.max(np.abs(oracle.eig2_closed(m2)
                             - linalg.eigvals_hermitian(m2))) <= 1e-9
        m3 = random_hermitian(3, 7100 + seed)
        assert np.max(np.abs(oracle.eig3_closed(m3)
                             - linalg.eigvals_hermitian(m3))) <= 1e-9
    _report("criterion 7 (sampling oracles and closed-form eigenvalues)")


def test_criterion_08_intermediate_sweep(tmp_path):
    out = tmp_path / "scan.csv"
    code = cli.run(["scan-theorem1", "--b-angle", str(math.pi / 2),
                    "--steps", "201", "--format", "csv", "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
    for col in (1, 2):
        k = int(np.argmin(rows[:, col]))
        assert rows[k, 0] == 0.0
        assert abs(rows[k, col] - 0.5) <= 1e-9
    assert np.all(rows[:, 1] >= rows[:, 2] - 1e-9)
    _report("criterion 8 (sweep minima at the identity intermediate)")


def test_criterion_09_bound_sweep(tmp_path):
    out = tmp_path / "bounds.csv"
    code = cli.run(["scan-bounds-d3", "--overlap1-sq", "0.01",
                    "--steps", "200", "--format", "csv", "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert np.all(rows[:, 1] <= rows[:, 2] + 1e-9)
    assert np.all(rows[:, 1] <= rows[:, 3] + 1e-9)
    diff = rows[:, 2] - rows[:, 3]
    assert np.min(diff) < -1e-6 and np.max(diff) > 1e-6
    unbiased = explorer.scan_bounds_d3(1 / 3, steps=3).rows[-1]
    assert np.max(np.abs(unbiased[1:] - 2 / 3)) <= 1e-9
    _report("criterion 9 (bound sweep with crossover, unbiased point 2/3)")


def test_criterion_10_conjecture_support(tmp_path, capsys):
    start = time.perf_counter()
    for dim, trials in ((3, 10_000), (4, 5_000)):
        out = tmp_path / f"conj{dim}.json"
        code = cli.run(["conjecture", "--dim", str(dim), "--trials", str(trials),
                        "--seed", "42", "--tolerance", "1e-9", "--out", str(out)])
        assert code == cli.EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["violations"] == []
        assert payload["min_slack_sum"] >= -1e-9
        assert payload["min_slack_delta"] >= -1e-9
    for pair in range(50):
        a = haar_random_basis(3, 100 + pair, 0)
        b = haar_random_basis(3, 100 + pair, 1)
        res = explorer.minimize_over_intermediate(a, b, restarts=4,
                                                  seed=pair, iters=80)
        assert min(res.distance_to_a, res.distance_to_b) < 1e-3, f"pair {pair}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f} s"
    _report("criterion 10 (conjecture stress test and argmin location)")
