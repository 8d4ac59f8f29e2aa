import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtradeoff
from qtradeoff import cli, metrics
from qtradeoff.measurement import computational_basis, haar_random_basis


def write_basis(path, basis):
    path.write_text(json.dumps(cli.dump_basis(basis)))
    return str(path)


@pytest.fixture
def triple_files(tmp_path):
    paths = []
    for k, name in enumerate(("a.json", "ap.json", "b.json")):
        basis = haar_random_basis(3, 11, k)
        paths.append(write_basis(tmp_path / name, basis))
    return paths


# Valid small arguments per subcommand; a test appends the one value under test.
SMALL = {
    "scan-theorem1": ["--b-angle", "1", "--steps", "3"],
    "scan-bounds-d3": ["--steps", "3"],
    "verify-properties": ["--trials", "1"],
    "verify-theorem2": ["--dim", "2", "--trials", "1"],
    "minimize-aprime": ["--dim", "2", "--restarts", "1"],
    "conjecture": ["--dim", "2", "--trials", "1"],
    "oracle-check": ["--dim", "2", "--trials", "1", "--samples", "4", "--refine-iters", "1"],
}
COUNTS = ("0", "-1")
NON_FINITE = ("nan", "inf", "-inf")
# Every numeric flag of every subcommand with the values it must reject.
BAD_VALUES = {
    "scan-theorem1": {"--b-angle": NON_FINITE, "--steps": COUNTS + ("2",)},
    "scan-bounds-d3": {"--overlap1-sq": NON_FINITE + ("-1",), "--steps": COUNTS + ("2",)},
    "verify-properties": {"--trials": COUNTS, "--tolerance": NON_FINITE},
    "verify-theorem2": {"--dim": COUNTS + ("1", "17"), "--trials": COUNTS + ("-5",),
                        "--tolerance": NON_FINITE},
    "minimize-aprime": {"--dim": COUNTS + ("1", "6", "17"), "--restarts": COUNTS},
    "conjecture": {"--dim": COUNTS + ("1", "6", "17"), "--trials": COUNTS,
                   "--tolerance": NON_FINITE},
    "oracle-check": {"--dim": COUNTS + ("1", "17"), "--trials": COUNTS, "--samples": COUNTS,
                     "--refine-iters": COUNTS, "--tolerance": NON_FINITE},
}


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(qtradeoff.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run([sys.executable, "-m", "qtradeoff", "scan-theorem1",
                               "--b-angle", "1", "--steps", "3"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert len(json.loads(done.stdout)["rows"]) == 3


class TestBasisFiles:
    def test_round_trip(self, tmp_path):
        basis = haar_random_basis(4, 0)
        path = write_basis(tmp_path / "b.json", basis)
        loaded = cli.load_basis(path)
        assert np.max(np.abs(loaded.vectors - basis.vectors)) < 1e-15

    def test_near_orthonormal_input_repaired(self, tmp_path):
        v = haar_random_basis(3, 1).vectors + 1e-9
        payload = {"dim": 3, "vectors": [[[z.real, z.imag] for z in row] for row in v]}
        (tmp_path / "b.json").write_text(json.dumps(payload))
        loaded = cli.load_basis(str(tmp_path / "b.json"))
        g = loaded.vectors.conj() @ loaded.vectors.T
        assert np.max(np.abs(g - np.eye(3))) < 1e-12

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"dim\": 2}")
        assert cli.run(["compute", "--a", str(bad), "--aprime", str(bad),
                        "--b", str(bad)]) == cli.EXIT_USAGE

    def test_missing_file_is_usage_error(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert cli.run(["compute", "--a", missing, "--aprime", missing,
                        "--b", missing]) == cli.EXIT_USAGE

    def test_non_finite_input_is_usage_error(self, tmp_path):
        payload = {"dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                         [[0.0, 0.0], [float("nan"), 0.0]]]}
        path = tmp_path / "b.json"
        path.write_text(json.dumps(payload))
        assert "NaN" in path.read_text()
        assert cli.run(["compute", "--a", str(path), "--aprime", str(path),
                        "--b", str(path)]) == cli.EXIT_USAGE

    def test_non_orthonormal_input_rejected(self, tmp_path):
        payload = {"dim": 2, "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                         [[1.0, 0.0], [0.1, 0.0]]]}
        (tmp_path / "b.json").write_text(json.dumps(payload))
        assert cli.run(["compute", "--a", str(tmp_path / "b.json"),
                        "--aprime", str(tmp_path / "b.json"),
                        "--b", str(tmp_path / "b.json")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("d", [1, 17])
    def test_dimension_outside_two_to_sixteen_is_usage_error(self, d, tmp_path, capsys):
        path = write_basis(tmp_path / "b.json", computational_basis(d))
        assert cli.run(["compute", "--a", path, "--aprime", path, "--b", path]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "dim must be in [2, 16]" in err
        # the dimension is checked before the vectors are read
        (tmp_path / "c.json").write_text(json.dumps({"dim": d, "vectors": "unread"}))
        assert cli.run(["compute", "--a", str(tmp_path / "c.json"), "--aprime", path,
                        "--b", path]) == cli.EXIT_USAGE
        assert "dim must be in [2, 16]" in capsys.readouterr().err


    @pytest.mark.parametrize("dim", [2.9, "2", True])
    def test_dimension_must_be_a_json_integer(self, dim, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({**cli.dump_basis(computational_basis(2)), "dim": dim}))
        assert cli.run(["compute", "--a", str(path), "--aprime", str(path),
                        "--b", str(path)]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "dim must be a JSON integer" in err


class TestCompute:
    def test_report_fields_and_exit_code(self, triple_files, tmp_path, capsys):
        a, ap, b = triple_files
        out = tmp_path / "report.json"
        code = cli.run(["compute", "--a", a, "--aprime", ap, "--b", b,
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert set(report) == {
            "epsilon", "eta", "delta", "epsilon_cal", "eta_cal",
            "bound1", "bound2", "witness_error_index",
            "witness_disturbance_index", "witness_sign", "witness_state",
        }
        assert 0.0 <= report["epsilon"] <= 1.0
        assert report["delta"] <= report["epsilon"] + report["eta"] + 1e-9
        assert len(report["witness_state"]) == 3

    def test_stdout_when_no_out_flag(self, triple_files, capsys):
        a, ap, b = triple_files
        assert cli.run(["compute", "--a", a, "--aprime", ap, "--b", b]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["eta"] <= 2 / 3 + 1e-9


class TestScans:
    def test_csv_header_and_values(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = cli.run(["scan-theorem1", "--b-angle", str(math.pi / 2),
                        "--steps", "11", "--format", "csv", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "angle,sum,delta"
        assert len(lines) == 12

    def test_csv_round_trips_doubles_exactly(self, tmp_path):
        from qtradeoff import explorer
        out = tmp_path / "scan.csv"
        cli.run(["scan-theorem1", "--b-angle", "1.0", "--steps", "40",
                 "--format", "csv", "--out", str(out)])
        table = explorer.scan_theorem1(1.0, steps=40)
        parsed = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert np.array_equal(parsed, table.rows)

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan.json"
        cli.run(["scan-bounds-d3", "--overlap1-sq", "0.1", "--steps", "7",
                 "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["column_names"] == ["overlap2_sq", "eta", "bound1", "bound2"]
        assert len(payload["rows"]) == 7

    def test_seeded_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("x1.json", "x2.json"):
            out = tmp_path / name
            cli.run(["conjecture", "--dim", "2", "--trials", "20",
                     "--seed", "5", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_thread_flag_is_rejected(self, capsys):
        assert cli.run(["verify-theorem2", "--dim", "2", "--trials", "20",
                        "--threads", "8"]) == cli.EXIT_USAGE


class TestVerificationExitCodes:
    def test_verify_properties_ok(self, tmp_path, capsys):
        code = cli.run(["verify-properties", "--trials", "5", "--seed", "0"])
        capsys.readouterr()
        assert code == cli.EXIT_OK

    def test_verify_theorem2_ok(self, capsys):
        code = cli.run(["verify-theorem2", "--dim", "2", "--trials", "10"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["violations"] == []
        assert payload["sum_at_identity"] == pytest.approx(0.5, abs=1e-9)

    def test_conjecture_ok(self, capsys):
        code = cli.run(["conjecture", "--dim", "2", "--trials", "30", "--seed", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["min_slack_sum"] >= -1e-9

    def test_impossible_tolerance_reports_violation(self, capsys):
        # a negative tolerance forces every trial to count as a violation
        code = cli.run(["verify-theorem2", "--dim", "2", "--trials", "5",
                        "--tolerance", "-1.0"])
        capsys.readouterr()
        assert code == cli.EXIT_VIOLATION

    def test_conjecture_violations_are_reported_in_full(self, capsys):
        code = cli.run(["conjecture", "--dim", "3", "--trials", "2",
                        "--tolerance", "-1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_VIOLATION
        assert [v["trial"] for v in payload["violations"]] == [0, 1]
        for v in payload["violations"]:
            for name, sub in (("a", 0), ("aprime", 1), ("b", 2)):
                basis = haar_random_basis(3, 0, v["trial"], sub)
                assert v[name] == cli.dump_basis(basis)

    def test_flags_only_where_honoured(self, capsys, triple_files):
        assert cli.run(["conjecture", "--dim", "2", "--trials", "1",
                        "--format", "csv"]) == cli.EXIT_USAGE
        assert cli.run(["minimize-aprime", "--dim", "2", "--restarts", "1",
                        "--tolerance", "1e-9"]) == cli.EXIT_USAGE
        a, ap, b = triple_files
        assert cli.run(["minimize-aprime", "--a", a, "--b", b, "--dim", "3",
                        "--restarts", "1"]) == cli.EXIT_USAGE
        for argv in (["compute", "--a", a, "--aprime", ap, "--b", b],
                     ["scan-theorem1", "--b-angle", "1", "--steps", "5"],
                     ["scan-bounds-d3", "--steps", "5"]):
            assert cli.run(argv + ["--seed", "5"]) == cli.EXIT_USAGE, argv
        assert capsys.readouterr().out == ""

    def test_rejected_call_leaves_the_next_one_unchanged(self, capsys):
        # the parser is built once per process and reused across calls
        valid = ["conjecture", "--dim", "3", "--trials", "4", "--seed", "2"]
        assert cli.run(["conjecture", "--trials", "0"]) == cli.EXIT_USAGE
        capsys.readouterr()
        assert cli.run(valid) == cli.EXIT_OK
        after_rejection = capsys.readouterr().out
        cli._parser.cache_clear()
        assert cli.run(valid) == cli.EXIT_OK
        assert capsys.readouterr().out == after_rejection

    def test_bad_arguments_are_usage_errors(self, capsys):
        assert cli.run(["scan-theorem1"]) == cli.EXIT_USAGE
        assert cli.run(["no-such-command"]) == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("case", [f"{command} {flag}={value}"
                                      for command, flags in BAD_VALUES.items()
                                      for flag, values in flags.items() for value in values])
    def test_bad_numeric_value_is_usage_error(self, case, capsys):
        # "--flag=value" keeps argparse from reading "-inf" as an option
        command, bad = case.split(" ")
        assert cli.run([command, *SMALL[command], bad]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        if bad.endswith(NON_FINITE):
            assert "must be finite" in err

    @pytest.mark.parametrize("command", ["verify-properties", "verify-theorem2",
                                         "minimize-aprime", "conjecture", "oracle-check"])
    def test_negative_seed_is_usage_error(self, command, capsys):
        assert cli.run([command, *SMALL[command], "--seed=-1"]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "seed: need at least 0, got -1" in err

    def test_non_finite_payload_is_never_written(self):
        with pytest.raises(ValueError):
            cli.emit_json({"min_slack_sum": float("inf")}, None)

    def test_invalid_dimension_is_usage_error(self, capsys):
        assert cli.run(["conjecture", "--dim", "9", "--trials", "1"]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_dimension_cap_is_sixteen(self, capsys):
        tiny = {"verify-theorem2": ["--trials", "1"],
                "oracle-check": ["--trials", "1", "--samples", "4", "--refine-iters", "1"]}
        for command, counts in tiny.items():
            assert cli.run([command, "--dim", "17", *counts]) == cli.EXIT_USAGE, command
            assert capsys.readouterr().out == ""
            assert cli.run([command, "--dim", "16", *counts]) != cli.EXIT_USAGE, command
            assert json.loads(capsys.readouterr().out)["dim"] == 16


class TestMinimizeAprime:
    def test_random_pair_lands_on_a_or_b(self, capsys):
        code = cli.run(["minimize-aprime", "--dim", "2", "--restarts", "4",
                        "--seed", "7"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["min_sum"] >= payload["conjecture_floor"] - 1e-6
        assert min(payload["distance_to_a"], payload["distance_to_b"]) < 1e-3

    def test_default_dimension_is_three(self, capsys):
        assert cli.run(["minimize-aprime", "--restarts", "1"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["best_basis"]["dim"] == 3

    @pytest.fixture
    def draws(self, monkeypatch):
        drawn = []

        def spy(*args):
            drawn.append(args)
            raise AssertionError("drew a basis")
        monkeypatch.setattr(cli, "haar_random_basis", spy)
        return drawn

    # the A' search stops at d = 5, so 6 to 16 are rejected before any draw too
    @pytest.mark.parametrize("dim", ["1", "6", "16", "17", "1000000000"])
    def test_dimension_is_checked_before_drawing(self, dim, draws, capsys):
        assert cli.run(["minimize-aprime", "--dim", dim]) == cli.EXIT_USAGE
        assert draws == []
        out, err = capsys.readouterr()
        assert out == "" and f"dimension must be in [2, 5], got {dim}" in err

    def test_restarts_are_checked_before_drawing(self, draws, capsys):
        assert cli.run(["minimize-aprime", "--restarts", "0"]) == cli.EXIT_USAGE
        assert draws == []
        out, err = capsys.readouterr()
        assert out == "" and "restarts: need at least 1, got 0" in err

    @pytest.mark.parametrize("dim", [2, 3])
    def test_floor_reuses_the_search_relaxed_error(self, dim, monkeypatch, capsys):
        # the search's relaxed_error(A, B) labels B and gives the floor; the
        # other two calls are the distances of the best basis to A and to B
        relaxed = metrics.relaxed_error
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return relaxed(x, y)
        monkeypatch.setattr(metrics, "relaxed_error", counted)
        assert cli.run(["minimize-aprime", "--dim", str(dim), "--restarts", "2",
                        "--seed", "7"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == 3
        a, b = haar_random_basis(dim, 7, 0), haar_random_basis(dim, 7, 1)
        assert payload["conjecture_floor"] == metrics.conjecture_floor(a, b)

    def test_one_basis_file_alone_is_usage_error(self, tmp_path, capsys):
        a = write_basis(tmp_path / "a.json", computational_basis(2))
        assert cli.run(["minimize-aprime", "--a", a]) == cli.EXIT_USAGE
        assert cli.run(["minimize-aprime", "--b", a]) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_basis_files_accepted(self, tmp_path, capsys):
        a = write_basis(tmp_path / "a.json", computational_basis(2))
        b = write_basis(tmp_path / "b.json", haar_random_basis(2, 13))
        code = cli.run(["minimize-aprime", "--a", a, "--b", b,
                        "--restarts", "3", "--seed", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["best_basis"]["dim"] == 2


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        code = cli.run(["oracle-check", "--dim", "2", "--trials", "3",
                        "--samples", "500", "--refine-iters", "150",
                        "--tolerance", "1e-9"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["max_oracle_shortfall"] <= 1e-3
        assert payload["max_oracle_excess"] <= 1e-9

    def test_d4_instance_with_a_rival_local_maximum(self, capsys):
        # One piece of this instance's delta peaks at 1.2482, a local maximum
        # of the whole objective, while the analytic delta is 1.3311.
        code = cli.run(["oracle-check", "--dim", "4", "--trials", "1",
                        "--samples", "2000", "--refine-iters", "200",
                        "--seed", "688153797"])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        row = payload["instances"][0]
        for name in ("epsilon", "eta", "delta"):
            assert -1e-4 <= row[name + "_oracle"] - row[name] <= 1e-9


class TestOracleRerunInOneProcess:
    def test_each_argv_prints_the_bytes_of_a_fresh_process(self, capsys):
        # Each trial draws its own sample set; no call may depend on what an
        # earlier call in the same process left behind.
        argv = ["oracle-check", "--dim", "3", "--trials", "2", "--samples", "300",
                "--refine-iters", "50", "--seed"]
        src = str(Path(qtradeoff.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        fresh = {seed: subprocess.run([sys.executable, "-m", "qtradeoff", *argv, seed],
                                      capture_output=True, text=True, env=env,
                                      timeout=60).stdout
                 for seed in ("4", "5")}
        assert fresh["4"] and fresh["4"] != fresh["5"]
        for seed in ("4", "4", "5", "4", "5"):
            assert cli.run([*argv, seed]) == cli.EXIT_OK
            assert capsys.readouterr().out == fresh[seed]
