import math

import numpy as np
import pytest

from qtradeoff import explorer, linalg, metrics, structures
from qtradeoff.errors import UnsupportedSizeError, ValidationError
from qtradeoff.measurement import OrthonormalBasis, computational_basis, haar_random_basis


def scalar_gauss_seidel(a, b, start, iters):
    """Reference search: every move scored on its own, in sweep order."""
    def objective(vectors):
        ap = OrthonormalBasis(vectors=vectors)
        return metrics.error(a, ap).value + metrics.disturbance(ap, b).value

    v = start.vectors.copy()
    best = objective(v)
    step, accepted = 0.2, 0
    for _ in range(iters):
        improved = False
        for g in explorer._unitary_moves(a.dim, step):
            cand = v @ g
            val = objective(cand)
            if val < best - 1e-15:
                v, best, improved = cand, val, True
                accepted += 1
        if not improved:
            step *= 0.5
            if step < explorer._STEP_FLOOR:
                break
    return v, best, accepted


def per_trial_conjecture(d, trials, seed, tol):
    """Reference search: one trial at a time, each metric on single bases."""
    min_sum = min_delta = math.inf
    violations, dist_a, dist_b = [], 0.0, 0.0
    for t in range(trials):
        a, ap, b = (haar_random_basis(d, seed, t, k) for k in range(3))
        floor = metrics.conjecture_floor(a, b)
        slack_sum = metrics.error(a, ap).value + metrics.disturbance(ap, b).value - floor
        slack_delta = metrics.overall_error(a, ap, b).value - floor
        if slack_sum < min_sum:
            min_sum = slack_sum
            dist_a = metrics.relaxed_error(ap, a).value
            dist_b = metrics.relaxed_error(ap, b).value
        min_delta = min(min_delta, slack_delta)
        if slack_sum < -tol or slack_delta < -tol:
            violations.append({"trial": t, "slack_sum": slack_sum, "slack_delta": slack_delta,
                               "floor": floor, "a": a, "aprime": ap, "b": b})
    return explorer.ConjectureRun(dim=d, trials=trials, seed=seed, min_slack_sum=min_sum,
                                  min_slack_delta=min_delta, violations=violations,
                                  argmin_distance_to_a=dist_a, argmin_distance_to_b=dist_b)


def per_d_property_checks(d, trials, seed, tol):
    """Reference per-d property checks: one (A', B) pair at a time, and the
    Perron-Frobenius eigenvalue compared with its own spectral radius."""
    worst = [-math.inf] * 9
    for t in range(trials):
        ap = haar_random_basis(d, seed, d, t, 0)
        b = haar_random_basis(d, seed, d, t, 1)
        eps = metrics.error(ap, b).value
        eta, i = metrics.disturbance(ap, b)
        frame = metrics.disturbance_matrix_in_frame(ap, b, i)
        spectrum = linalg.eigvals_hermitian(frame)
        d_i = metrics.disturbance_matrix(ap, b, i)
        slacks = (eps - 1.0, eta - (1.0 - 1.0 / d),
                  eta - metrics.disturbance_bound_1(ap, b),
                  eta - metrics.disturbance_bound_2(ap, b),
                  eta - math.sqrt((1.0 - 1.0 / d) * metrics.calibration_disturbance(ap, b)),
                  abs(eps - math.sqrt(metrics.calibration_error(ap, b))),
                  float(-np.min(frame)),
                  float(np.max(np.abs(spectrum - linalg.eigvals_hermitian(d_i)))),
                  abs(spectrum[-1] - linalg.spectral_radius(d_i)))
        worst = [max(w, x) for w, x in zip(worst, slacks)]
    names = ("property1_error_bound", "property1_disturbance_bound", "property4_bound1",
             "property4_bound2", "property4_geometric_mean", "calibration_error_identity")
    bounds = (1e-12, tol, tol, tol, tol, tol)
    checks = [(f"{name}_d{d}", bool(w <= bound), f"worst slack {w:.3e}")
              for name, w, bound in zip(names, worst, bounds)]
    entries = max(worst[6], worst[7])
    checks.append((f"perron_frobenius_entries_d{d}", worst[6] <= 1e-12 and worst[7] <= 1e-10,
                   f"worst slack {entries:.3e}"))
    checks.append((f"perron_frobenius_top_eigenvalue_d{d}", bool(worst[8] <= 1e-10),
                   f"worst slack {worst[8]:.3e}"))
    return checks


def per_trial_property_checks(dims, trials, seed, tol):
    """Reference for every check of verify_properties: the per-d checks, the
    Property 1 witnesses, then one direct sum and one tensor product of qubit
    triples at a time."""
    checks = [c for d in dims for c in per_d_property_checks(d, trials, seed, tol)]
    comp = computational_basis(2)
    flipped = OrthonormalBasis(vectors=comp.vectors[::-1].copy())
    checks.append(("property1_error_equality",
                   abs(metrics.error(comp, flipped).value - 1.0) <= tol, "orthogonal vector pair"))
    for d in dims:
        eta = metrics.disturbance(computational_basis(d), structures.fourier_basis(d)).value
        checks.append((f"property1_disturbance_equality_d{d}", abs(eta - (1.0 - 1.0 / d)) <= tol,
                       "unbiased basis pair"))
    worst = -math.inf
    for t in range(trials):
        blocks = [tuple(haar_random_basis(2, seed, 100 + t, k, w) for w in range(3))
                  for k in range(2)]
        asm = structures.direct_sum(blocks)
        block_eps = max(metrics.error(bl[0], bl[1]).value for bl in blocks)
        block_eta = max(metrics.disturbance(bl[1], bl[2]).value for bl in blocks)
        worst = max(worst,
                    abs(metrics.error(asm[0], asm[1]).value - block_eps),
                    abs(metrics.disturbance(asm[1], asm[2]).value - block_eta))
    checks.append(("property2_reducibility", worst <= 1e-12, f"worst slack {worst:.3e}"))
    worst = -math.inf
    for t in range(trials):
        factors = [tuple(haar_random_basis(2, seed, 200 + t, k, w) for w in range(3))
                   for k in range(2)]
        asm = structures.tensor_product(factors)
        f_eps = max(metrics.error(fa[0], fa[1]).value for fa in factors)
        f_eta = max(metrics.disturbance(fa[1], fa[2]).value for fa in factors)
        worst = max(worst,
                    f_eps - metrics.error(asm[0], asm[1]).value,
                    f_eta - metrics.disturbance(asm[1], asm[2]).value)
    checks.append(("property3_subsystems", worst <= tol, f"worst slack {worst:.3e}"))
    return checks


def per_trial_theorem2(d, trials, seed, tol):
    """Reference MUB check: one Haar intermediate at a time."""
    a, b = computational_basis(d), structures.fourier_basis(d)
    floor, sums = 1.0 - 1.0 / d, []
    for t in range(trials):
        ap = haar_random_basis(d, seed, t)
        sums.append(metrics.error(a, ap).value + metrics.disturbance(ap, b).value)
    violations = [{"trial": t, "sum": x, "floor": floor}
                  for t, x in enumerate(sums) if x < floor - tol]
    return explorer.TheoremTwoRun(
        dim=d, trials=trials, seed=seed, floor=floor, min_sum=min(sums),
        sum_at_identity=metrics.error(a, a).value + metrics.disturbance(a, b).value,
        violations=violations)


class TestScanTheorem1:
    def test_row_at_zero_matches_closed_form(self):
        for b_angle in (0.7, math.pi / 2, 2.0):
            table = explorer.scan_theorem1(b_angle, steps=101)
            k = int(np.argmin(np.abs(table.rows[:, 0])))
            assert table.rows[k, 0] == 0.0
            assert table.rows[k, 1] == pytest.approx(0.5 * math.sin(b_angle), abs=1e-9)
            assert table.rows[k, 2] == pytest.approx(0.5 * math.sin(b_angle), abs=1e-9)

    def test_orthogonal_targets_minimum_is_half_at_zero(self):
        table = explorer.scan_theorem1(math.pi / 2, steps=200)
        for col in (1, 2):
            k = int(np.argmin(table.rows[:, col]))
            assert table.rows[k, 0] == 0.0
            assert table.rows[k, col] == pytest.approx(0.5, abs=1e-9)

    def test_ordering_and_floor_hold_on_every_row(self):
        b_angle = 1.2
        floor = 0.5 * math.sin(b_angle)
        table = explorer.scan_theorem1(b_angle, steps=150)
        assert table.rows.shape == (150, 3)
        assert np.all(table.rows[:, 1] >= table.rows[:, 2] - 1e-9)
        assert np.all(table.rows[:, 2] >= floor - 1e-9)

    def test_degenerate_parallel_targets_still_valid(self):
        table = explorer.scan_theorem1(0.0, steps=51)
        assert np.all(table.rows[:, 1] >= table.rows[:, 2] - 1e-9)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValidationError):
            explorer.scan_theorem1(1.0, steps=2)


class TestScanBoundsD3:
    def test_unbiased_point_all_equal(self):
        table = explorer.scan_bounds_d3(1 / 3, steps=5)
        last = table.rows[-1]
        assert last[0] == pytest.approx(1 / 3, abs=1e-12)
        assert np.allclose(last[1:], 2 / 3, atol=1e-9)

    def test_compatible_endpoint_vanishes(self):
        table = explorer.scan_bounds_d3(0.0, steps=5)
        first = table.rows[0]  # c = (0, 0, 1): b_i aligned with a'_3
        assert first[1] == pytest.approx(0.0, abs=1e-9)

    def test_bounds_dominate_pointwise(self):
        table = explorer.scan_bounds_d3(0.1, steps=100)
        assert np.all(table.rows[:, 1] <= table.rows[:, 2] + 1e-9)
        assert np.all(table.rows[:, 1] <= table.rows[:, 3] + 1e-9)

    def test_bounds_cross_on_generic_sweep(self):
        table = explorer.scan_bounds_d3(0.01, steps=200)
        diff = table.rows[:, 2] - table.rows[:, 3]
        assert np.min(diff) < -1e-6 and np.max(diff) > 1e-6

    def test_out_of_range_overlap_rejected(self):
        with pytest.raises(ValidationError):
            explorer.scan_bounds_d3(0.5, steps=5)


class TestVerifyTheorem2:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_no_violations_and_identity_attains_floor(self, d):
        run = explorer.verify_theorem2(d, trials=50, seed=0)
        assert run.violations == []
        assert run.min_sum >= run.floor - 1e-9
        assert run.sum_at_identity == pytest.approx(1 - 1 / d, abs=1e-9)

    def test_dimension_range(self):
        for d in (1, 17):
            with pytest.raises(ValidationError, match=r"\[2, 16\]"):
                explorer.verify_theorem2(d, trials=1, seed=0)
        run = explorer.verify_theorem2(16, trials=1, seed=0)
        assert run.violations == []

    @pytest.mark.parametrize("tol", [1e-9, -0.6])
    def test_blocks_match_the_per_trial_loop(self, tol):
        trials = explorer._TRIAL_BLOCK + 3
        run = explorer.verify_theorem2(2, trials, seed=5, tol=tol)
        assert run == per_trial_theorem2(2, trials, 5, tol)
        assert tol > 0 or 0 < len(run.violations) < trials


class TestLocalSearch:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_moves_are_unitaries_each_followed_by_its_inverse(self, d):
        moves = explorer._unitary_moves(d, 0.3)
        assert moves.shape == (2 * d * d, d, d)
        eye = np.eye(d)
        for g in moves:
            assert np.allclose(g @ g.conj().T, eye, atol=1e-15)
        for g, inverse in zip(moves[::2], moves[1::2]):
            assert np.allclose(g @ inverse, eye, atol=1e-15)
            assert not np.allclose(g, eye)

    def test_moves_are_cached_and_read_only(self):
        moves = explorer._unitary_moves(3, 0.2 / 8)
        assert explorer._unitary_moves(3, 0.2 / 8) is moves
        assert not moves.flags.writeable
        with pytest.raises(ValueError):
            moves[0, 0, 0] = 0.0

    @pytest.mark.parametrize("d", [3, 4])
    def test_batched_sweeps_follow_the_scalar_path(self, d):
        a = haar_random_basis(d, 60, 0)
        b = haar_random_basis(d, 60, 1)
        start = haar_random_basis(d, 60, 2)
        v, best, accepted = scalar_gauss_seidel(a, b, start, iters=80)
        assert accepted > 10
        [(basis, value)] = explorer._local_search(a, b, [start], 80)
        assert np.max(np.abs(basis.vectors - v)) <= 1e-12
        assert abs(value - best) <= 1e-12

    @pytest.mark.parametrize("d, iters", [(3, 80), (4, 60), (3, 0), (3, 1), (4, 1)])
    def test_lockstep_starts_each_follow_the_scalar_path(self, d, iters):
        a = haar_random_basis(d, 61, 0)
        b = haar_random_basis(d, 61, 1)
        perm = list(metrics.relaxed_error(a, b).permutation)
        starts = [a, OrthonormalBasis(vectors=b.vectors[perm].copy()),
                  haar_random_basis(d, 61, 2), haar_random_basis(d, 61, 3)]
        results = explorer._local_search(a, b, starts, iters)
        assert len(results) == len(starts)
        for k, (start, (basis, value)) in enumerate(zip(starts, results)):
            v, best, accepted = scalar_gauss_seidel(a, b, start, iters)
            if k >= 2 and iters:
                assert accepted > 0  # the Haar starts take moves
            assert np.max(np.abs(basis.vectors - v)) <= 1e-12
            assert abs(value - best) <= 1e-12
            if iters == 0:
                assert np.array_equal(basis.vectors, start.vectors)


class TestMinimizeOverIntermediate:
    def test_qubit_reaches_cross_product_floor(self):
        a = haar_random_basis(2, 0)
        b = haar_random_basis(2, 1)
        from qtradeoff import bloch
        floor = bloch.theorem_floor(bloch.basis_to_bloch(a), bloch.basis_to_bloch(b))
        out = explorer.minimize_over_intermediate(a, b, restarts=4, seed=2, iters=100)
        assert out.min_sum == pytest.approx(floor, abs=1e-6)
        assert out.min_delta == pytest.approx(floor, abs=1e-6)
        assert min(out.distance_to_a, out.distance_to_b) < 1e-3

    def test_mub_pair_d3_reaches_two_thirds(self):
        a = computational_basis(3)
        b = structures.fourier_basis(3)
        out = explorer.minimize_over_intermediate(a, b, restarts=4, seed=3, iters=80)
        assert out.min_sum == pytest.approx(2 / 3, abs=1e-6)

    def test_random_pair_respects_conjectured_floor(self):
        a = haar_random_basis(3, 4)
        b = haar_random_basis(3, 5)
        out = explorer.minimize_over_intermediate(a, b, restarts=4, seed=6, iters=80)
        assert out.min_sum >= metrics.conjecture_floor(a, b) - 1e-6

    @staticmethod
    def spy_on_search(monkeypatch):
        """Record the starts and results of every _local_search call."""
        calls = []
        search = explorer._local_search

        def spy(a, b, starts, iters):
            results = search(a, b, starts, iters)
            calls.append((starts, results))
            return results

        monkeypatch.setattr(explorer, "_local_search", spy)
        return calls

    def test_search_gets_one_start_per_restart(self, monkeypatch):
        calls = self.spy_on_search(monkeypatch)
        a = haar_random_basis(2, 8)
        b = haar_random_basis(2, 9)
        for restarts in (1, 3):
            calls.clear()
            explorer.minimize_over_intermediate(a, b, restarts=restarts, seed=0, iters=5)
            [(starts, results)] = calls
            assert len(starts) == len(results) == restarts

    @pytest.mark.parametrize("d", [2, 3])
    def test_haar_starts_avoid_the_random_pair(self, monkeypatch, d):
        # the CLI draws a random A and B from sub-streams (seed, 0) and (seed, 1)
        calls = self.spy_on_search(monkeypatch)
        a = haar_random_basis(d, 7, 0)
        b = haar_random_basis(d, 7, 1)
        explorer.minimize_over_intermediate(a, b, restarts=6, seed=7, iters=2)
        [(starts, _)] = calls
        assert starts[0] is a
        for r, start in enumerate(starts[2:], start=2):
            assert start == haar_random_basis(d, 7, r)
            for pair in (a, b):
                assert not np.allclose(start.vectors, pair.vectors)

    def test_oversize_rejected(self):
        a = haar_random_basis(6, 7)
        b = haar_random_basis(6, 8)
        with pytest.raises(UnsupportedSizeError):
            explorer.minimize_over_intermediate(a, b, restarts=2, seed=0)


class TestConjectureSearch:
    def test_qubit_has_no_violations(self):
        run = explorer.conjecture_search(2, trials=200, seed=0)
        assert run.violations == []
        assert run.min_slack_sum >= -1e-9
        assert run.min_slack_delta >= -1e-9

    def test_d3_reproducible_and_clean(self):
        r1 = explorer.conjecture_search(3, trials=100, seed=42)
        r2 = explorer.conjecture_search(3, trials=100, seed=42)
        assert r1 == r2
        assert r1.violations == []

    def test_identity_intermediate_slack_is_nonnegative(self):
        # f <= eta(A, B) by definition, so A' = A gives slack >= 0 exactly
        d = 3
        a = haar_random_basis(d, 9, 0)
        b = haar_random_basis(d, 9, 1)
        eta_ab = metrics.disturbance(a, b).value
        floor = metrics.conjecture_floor(a, b)
        assert eta_ab - floor >= 0.0

    def test_violations_hold_the_triple(self):
        # a negative tolerance makes every trial a violation
        r1 = explorer.conjecture_search(3, trials=2, seed=0, tol=-2.0)
        r2 = explorer.conjecture_search(3, trials=2, seed=0, tol=-2.0)
        assert r1 == r2
        assert [v["trial"] for v in r1.violations] == [0, 1]
        for v in r1.violations:
            for name, sub in (("a", 0), ("aprime", 1), ("b", 2)):
                assert v[name] == haar_random_basis(3, 0, v["trial"], sub)

    @pytest.mark.parametrize("tol", [1e-9, -2.0])
    def test_blocks_match_the_per_trial_loop(self, tol):
        # at seed 3 both least slacks fall in the second block (trials 485, 375)
        trials = 2 * explorer._TRIAL_BLOCK + 3
        run = explorer.conjecture_search(3, trials, seed=3, tol=tol)
        assert run == per_trial_conjecture(3, trials, 3, tol)
        assert len(run.violations) == (trials if tol < 0 else 0)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValidationError):
            explorer.conjecture_search(7, trials=1, seed=0)


class TestTrialCounts:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_drivers_reject_fewer_than_one_trial(self, trials):
        with pytest.raises(ValidationError, match="at least one trial"):
            explorer.conjecture_search(3, trials, 0)
        with pytest.raises(ValidationError, match="at least one trial"):
            explorer.verify_theorem2(3, trials, 0)
        with pytest.raises(ValidationError, match="at least one trial"):
            explorer.verify_properties(trials=trials)

    @pytest.mark.parametrize("dims", [(), (1,), (2, 17), (0, 3)])
    def test_property_dims_must_be_non_empty_and_in_range(self, dims):
        with pytest.raises(ValidationError, match="dims"):
            explorer.verify_properties(dims=dims, trials=1)


class TestVerifyProperties:
    def test_all_checks_pass(self):
        run = explorer.verify_properties(dims=(2, 3), trials=30, seed=0)
        failed = [c for c in run.checks if not c[1]]
        assert run.all_passed, failed

    def test_blocks_match_the_per_trial_loop(self):
        dims, trials, tol = (2, 3, 5), explorer._TRIAL_BLOCK + 3, 1e-9
        run = explorer.verify_properties(dims=dims, trials=trials, seed=4, tol=tol)
        reference = per_trial_property_checks(dims, trials, 4, tol)
        assert [c[:2] for c in run.checks] == [c[:2] for c in reference]
        for (name, _, got), (_, _, want) in zip(run.checks, reference):
            if name.startswith("perron_frobenius_top_eigenvalue"):
                # one stacked eigensolve against a single one: round-off only
                assert abs(float(got.split()[-1]) - float(want.split()[-1])) <= 1e-15
            else:
                assert got == want, name

    def test_qubit_frame_is_the_same_from_either_outcome_row(self):
        # unitarity gives the other row's moduli c' = (c_1, c_0), and the frame
        # c c^T - diag(c^2) is [[0, c_0 c_1], [c_0 c_1, 0]] from either row
        for t in range(20):
            ap, b = haar_random_basis(2, 12, t, 0), haar_random_basis(2, 12, t, 1)
            rows = [metrics.disturbance_matrix_in_frame(ap, b, i) for i in (0, 1)]
            assert np.max(np.abs(rows[0] - rows[1])) <= 1e-12

    def test_frame_from_the_wrong_outcome_row_fails(self, monkeypatch):
        in_frame = metrics.disturbance_matrix_in_frame

        def wrong_row(ap, b, i):
            return in_frame(ap, b, (i + 1) % ap.dim)

        monkeypatch.setattr(metrics, "disturbance_matrix_in_frame", wrong_row)
        # not d = 2: there the wrong row's frame is the right one (see
        # test_qubit_frame_is_the_same_from_either_outcome_row), so no check can fail
        run = explorer.verify_properties(dims=(3, 4, 5), trials=20, seed=0)
        entries = [c for c in run.checks if c[0].startswith("perron_frobenius_entries")]
        assert len(entries) == 3
        assert not any(ok for _, ok, _ in entries), entries


class TestDeterminism:
    def test_scans_are_pure_functions_of_parameters(self):
        t1 = explorer.scan_theorem1(1.0, steps=20)
        t2 = explorer.scan_theorem1(1.0, steps=20)
        assert np.array_equal(t1.rows, t2.rows)
        s1 = explorer.scan_bounds_d3(0.2, steps=20)
        s2 = explorer.scan_bounds_d3(0.2, steps=20)
        assert np.array_equal(s1.rows, s2.rows)
