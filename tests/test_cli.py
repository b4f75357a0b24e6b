import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import socave
from socave import cli
from socave.cli import main
from socave.experiments import _fork_alongside
from socave.model import AveProblem, residual, save_problem
from socave.problems import example_toy
from socave.reporting import read_trajectory_csv
from socave.soc import ConeStructure


@pytest.fixture
def unique_file(tmp_path):
    path = tmp_path / "unique.json"
    save_problem(path, example_toy("unique"), x_star=[0.0, 1.0])
    return str(path)


def assert_no_child_left():
    """No child of this process is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_vector(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return str(path)


def strict_json(path):
    """The JSON in path, parsed as RFC 8259 has it: Infinity and NaN are errors."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


# a solve of the unique toy that runs; a flag added after it replaces its value
SOLVE = ["solve", "--builtin", "unique", "--gamma", "2", "--tspan", "0,1",
         "--out", "t.csv", "--report", "r.json"]


def overflowing_file(tmp_path):
    """A problem with finite entries whose products A x overflow for x of
    order 1."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2, "cone_blocks": [2], "b": [1, 1], "A": {
        "kind": "dense", "entries": [[1e308, 1e308], [-1e308, 1e308]]}}))
    return str(path)


class TestSolve:
    def test_builtin_unique(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        report = tmp_path / "report.json"
        code = main(["solve", "--builtin", "unique", "--gamma", "2",
                     "--tspan", "0,5", "--x0", "2,-2",
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["termination"] == "ReachedTf"
        assert np.linalg.norm(np.array(rep["final_state"]) - [0.0, 1.0]) <= 1e-3
        assert rep["certificate"]["verdict"] == "BoundaryRegime"
        assert rep["n_rhs_evals"] == 1 + 3 * (rep["n_accepted"] + rep["n_rejected"])

    def test_problem_file_with_stop_residual(self, tmp_path, unique_file):
        out = tmp_path / "t.csv"
        report = tmp_path / "r.json"
        code = main(["solve", "--problem", unique_file, "--gamma", "2",
                     "--tspan", "0,50", "--x0", "3,0", "--stop-residual", "1e-6",
                     "--time-to-tol", "1e-2,1e-4",
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["termination"] == "ResidualEvent"
        assert rep["time_to_tolerance"]["0.01"] is not None

    def test_none_runs_to_tf_without_tolerance_hit(self, tmp_path):
        out = tmp_path / "t.csv"
        report = tmp_path / "r.json"
        code = main(["solve", "--builtin", "none", "--gamma", "2",
                     "--tspan", "0,10", "--stop-residual", "1e-3",
                     "--time-to-tol", "1e-3",
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["termination"] == "ReachedTf"
        assert rep["time_to_tolerance"]["0.001"] is None

    def test_time_to_tols_that_print_alike_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # both are reported under the key "0.001", where one would hide the other
        assert main(SOLVE + ["--time-to-tol", "1e-3,1.0000001e-3,1e-2"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: --time-to-tol [0.001, 0.0010000001, 0.01] holds two values "
                       "with one report key\n")
        assert not (tmp_path / "r.json").exists()

    def test_a_repeated_time_to_tol_is_one_key(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(["solve", "--builtin", "unique", "--gamma", "2", "--tspan", "0,5",
                     "--x0", "2,-2", "--time-to-tol", "1e-3,1e-2,0.001,1e-3",
                     "--out", str(tmp_path / "t.csv"), "--report", str(report)]) == 0
        times = json.loads(report.read_text())["time_to_tolerance"]
        assert list(times) == ["0.001", "0.01"] and None not in times.values()

    def test_final_residual_is_the_norm_at_the_final_state(self, tmp_path, unique_file):
        # the report takes the last recorded norm, which a stride does not skip
        report = tmp_path / "r.json"
        assert main(["solve", "--problem", unique_file, "--gamma", "2", "--tspan", "0,50",
                     "--x0", "grid:3", "--stop-residual", "1e-6", "--record-stride", "7",
                     "--out", str(tmp_path / "t.csv"), "--report", str(report)]) == 0
        p = example_toy("unique")
        for rep in json.loads(report.read_text()):
            assert rep["final_residual_norm"] == \
                float(np.linalg.norm(residual(p, rep["final_state"])))

    def test_grid_source_writes_indexed_csvs(self, tmp_path, unique_file):
        out = tmp_path / "t.csv"
        report = tmp_path / "r.json"
        code = main(["solve", "--problem", unique_file, "--gamma", "2",
                     "--tspan", "0,5", "--x0", "grid:4",
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        for i in range(4):
            assert (tmp_path / f"t_{i:03d}.csv").exists()
        assert len(json.loads(report.read_text())) == 4

    def test_malformed_problem_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["solve", "--problem", str(bad), "--gamma", "2",
                     "--tspan", "0,5", "--out", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1

    def test_csv_round_trip(self, tmp_path):
        from socave.model import residual as res_fn

        out = tmp_path / "t.csv"
        report = tmp_path / "r.json"
        main(["solve", "--builtin", "unique", "--gamma", "2", "--tspan", "0,2",
              "--x0", "2,-2", "--out", str(out), "--report", str(report)])
        times, states, res = read_trajectory_csv(out)
        p = example_toy("unique")
        for x, r in zip(states, res):
            assert abs(np.linalg.norm(res_fn(p, x)) - r) <= 1e-9

    @pytest.mark.parametrize("flags", [
        ["--gamma", "0"],
        ["--record-stride", "0"],
        ["--x0", "grid:0"],
        ["--rtol", "-1"],
        ["--x0", "nan,1"],
        ["--tspan", "0,inf"],
        ["--time-to-tol", "0"],
        ["--time-to-tol", "abc"],
    ])
    def test_bad_argument_exits_1_without_traceback(self, tmp_path, capsys, flags):
        args = {"--gamma": "2", "--tspan": "0,1", "--x0": "zeros",
                "--out": str(tmp_path / "t.csv"), "--report": str(tmp_path / "r.json")}
        argv = ["solve", "--builtin", "unique"] + flags
        for name, value in args.items():
            if name not in flags:
                argv += [name, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("out, report", [
        ("nodir/t.csv", "nodir/r.json"),
        ("t.csv", "nodir/r.json"),
    ])
    def test_unwritable_output_exits_1_without_traceback(self, tmp_path, capsys,
                                                         out, report):
        code = main(["solve", "--builtin", "unique", "--gamma", "2", "--tspan", "0,1",
                     "--out", str(tmp_path / out), "--report", str(tmp_path / report)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert err.count("\n") == 1

    def test_tridiag_stays_banded_at_n_1e5(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(["solve", "--builtin", "tridiag", "--n", "100000", "--gamma", "200",
                     "--tspan", "0,0.0005", "--record-stride", "100000",
                     "--out", str(tmp_path / "t.csv"), "--report", str(report)])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["termination"] == "ReachedTf"
        assert rep["certificate"]["sigma_min"] == pytest.approx(2.0, rel=1e-9)
        assert rep["n_accepted"] > 0

    # 8 PB and 1.6 PB, past the 2**47-byte user address space, so the
    # allocation fails at once whatever the overcommit setting
    @pytest.mark.parametrize("source", [["--builtin", "tridiag", "--n", "1000000000000000"],
                                        ["--builtin", "unique", "--x0", "grid:100000000000000"]],
                             ids=["tridiag-n", "grid-k"])
    def test_an_input_too_large_to_allocate_exits_1(self, tmp_path, capsys, source):
        code = main(["solve", *source, "--gamma", "1", "--tspan", "0,1",
                     "--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_a_count_past_the_c_long_range_exits_1(self, tmp_path, capsys):
        code = main(["solve", "--builtin", "tridiag", "--n", "1" + "0" * 400,
                     "--gamma", "1", "--tspan", "0,1",
                     "--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too large" in err and err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_nonsymmetric_tridiag_past_the_dense_limit_exits_1(self, tmp_path, capsys):
        # its certificate would take a dense SVD of a 2002 x 2002 matrix
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "n": 2002, "cone_blocks": [2002], "b": [0.0] * 2002,
            "A": {"kind": "tridiag", "sub": -0.7, "diag": 4, "sup": -1.3}}))
        code = main(["solve", "--problem", str(problem), "--gamma", "1", "--tspan", "0,1",
                     "--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n <= 2000" in err and err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv, named", [
        (SOLVE + ["--gamma", "abc"], "--gamma"),
        ([a for a in SOLVE if a not in ("--tspan", "0,1")], "--tspan"),
        ([], "command"),
        (["bogus"], "bogus"),
        (SOLVE + ["--n", "1.5"], "--n"),
        (SOLVE + ["--gamma", "nan"], "gamma"),
        (SOLVE + ["--gamma", "inf"], "gamma"),
        (SOLVE + ["--rtol", "nan"], "rtol"),
        (SOLVE + ["--atol", "nan"], "atol"),
        (SOLVE + ["--stop-residual", "nan"], "stop_on_residual"),
        (SOLVE + ["--stop-residual", "-1"], "stop_on_residual"),
        (SOLVE + ["--time-to-tol", "1,nan"], "--time-to-tol"),
        (["verify", "--builtin", "unique", "--x", "x.json", "--tol", "nan"], "tol"),
        (SOLVE + ["--tspan", "0"], "tspan"),
        (SOLVE + ["--x0", "grid:abc"], "--x0"),
        # --n is for --builtin tridiag only
        (SOLVE + ["--n", "7"], "--n"),
        (["verify", "--builtin", "unique", "--n", "9", "--x", "x.json", "--tol", "1"], "--n"),
        (["verify", "--problem", "x.json", "--n", "2", "--x", "x.json", "--tol", "1"], "--n"),
        # time_to_tolerance reads only the recorded rows
        (SOLVE + ["--time-to-tol", "1e-3", "--record-stride", "50"], "--record-stride"),
    ])
    def test_malformed_input_is_one_error_line_naming_it(self, tmp_path, monkeypatch,
                                                         capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        write_vector(tmp_path, "x.json", [0.0, 1.0])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-h"])
        assert exc.value.code == 0
        assert "--gamma" in capsys.readouterr().out

    def test_tridiag_requires_n(self, tmp_path):
        code = main(["solve", "--builtin", "tridiag", "--gamma", "2",
                     "--tspan", "0,1", "--out", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1


class TestVerify:
    def test_solution_accepted(self, tmp_path, unique_file):
        x = write_vector(tmp_path, "x.json", [0.0, 1.0])
        assert main(["verify", "--problem", unique_file, "--x", x, "--tol", "1e-8"]) == 0

    def test_nonsolution_rejected_with_exit_3(self, tmp_path, unique_file):
        x = write_vector(tmp_path, "x.json", [1.0, 0.0])
        assert main(["verify", "--problem", unique_file, "--x", x, "--tol", "1e-8"]) == 3

    def test_nonfinite_candidate_exit_1(self, tmp_path, unique_file, capsys):
        x = tmp_path / "x.json"
        x.write_text("[NaN, 1.0]")
        assert main(["verify", "--problem", unique_file, "--x", str(x), "--tol", "1e-8"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_dimension_mismatch_exit_1(self, tmp_path, unique_file):
        x = write_vector(tmp_path, "x.json", [1.0, 0.0, 0.0])
        assert main(["verify", "--problem", unique_file, "--x", x, "--tol", "1e-8"]) == 1

    def test_prints_residual_and_agreement(self, tmp_path, unique_file, capsys):
        x = write_vector(tmp_path, "x.json", [0.0, 1.0])
        main(["verify", "--problem", unique_file, "--x", x, "--tol", "1e-8"])
        out = capsys.readouterr().out
        assert "residual_norm=" in out
        assert "residual_form_agreement=" in out


class TestSchema:
    """Sizes in a problem JSON are integers: anything else is rejected where
    it is read, with one error line, not truncated or raised as a traceback."""

    @pytest.mark.parametrize("n, blocks", [
        ("1e400", "[2]"),
        ("2.7", "[2]"),
        ('"2"', "[2]"),
        ("2", "[2.5]"),
        ("2", "[1e400]"),
        ("2", "[1.5, 0.5]"),
    ])
    def test_non_integer_size_exits_1(self, tmp_path, capsys, n, blocks):
        problem = tmp_path / "p.json"
        problem.write_text(f'{{"n": {n}, "cone_blocks": {blocks}, "b": [1, 1], '
                           '"A": {"kind": "tridiag", "sub": -1, "diag": 4, "sup": -1}}')
        x = write_vector(tmp_path, "x.json", [0.0, 1.0])
        assert main(["verify", "--problem", str(problem), "--x", x, "--tol", "1e-8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be an integer" in err
        assert err.count("\n") == 1

    def test_integer_valued_float_is_accepted(self, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text('{"n": 2.0, "cone_blocks": [2.0], "b": [-1, -1], '
                           '"A": {"kind": "dense", "entries": [[1, 0], [0, -1]]}}')
        x = write_vector(tmp_path, "x.json", [0.0, 1.0])
        assert main(["verify", "--problem", str(problem), "--x", x, "--tol", "1e-8"]) == 0


def problem_text(b="[-1, -1]", A='{"kind": "dense", "entries": [[1, 0], [0, -1]]}',
                 x_star="[0, 1]"):
    """The unique toy as JSON text, with the given fields spliced in."""
    return f'{{"n": 2, "cone_blocks": [2], "A": {A}, "b": {b}, "x_star": {x_star}}}'


class TestSchemaNumbers:
    """A schema error names the file, and every number in a problem JSON is
    a JSON number: a string or a bool is rejected, not converted."""

    @pytest.mark.parametrize("text", [
        '{"n": 2.7, "cone_blocks": [2], "b": [1, 1], "A": {"kind": "tridiag", '
        '"sub": -1, "diag": 4, "sup": -1}}',
        '{"n": 2, "cone_blocks": [2], "b": [1, 1]}',
    ])
    def test_schema_error_names_the_file(self, tmp_path, capsys, text):
        problem = tmp_path / "p.json"
        problem.write_text(text)
        x = write_vector(tmp_path, "x.json", [0.0, 1.0])
        assert main(["verify", "--problem", str(problem), "--x", x, "--tol", "1e-8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {problem}: ") and err.count("\n") == 1

    def test_valid_problem_passes(self, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(problem_text())
        x = write_vector(tmp_path, "x.json", [0.0, 1.0])
        assert main(["verify", "--problem", str(problem), "--x", x, "--tol", "1e-8"]) == 0

    @pytest.mark.parametrize("field, fields", [
        ("b", {"b": '["-1", true]'}),
        ("b", {"b": "[-1, true]"}),
        ("b", {"b": "[-1, 1" + "0" * 400 + "]"}),
        ("A entries", {"A": '{"kind": "dense", "entries": [["1", 0], [0, -1]]}'}),
        ("A entries", {"A": '{"kind": "dense", "entries": [[true, 0], [0, -1]]}'}),
        ("x_star", {"x_star": '["0", "1"]'}),
        ("tridiag sub", {"A": '{"kind": "tridiag", "sub": "-1", "diag": 4, "sup": -1}'}),
        ("tridiag diag", {"A": '{"kind": "tridiag", "sub": -1, "diag": true, "sup": -1}'}),
    ])
    def test_non_number_exits_1(self, tmp_path, capsys, field, fields):
        problem = tmp_path / "p.json"
        problem.write_text(problem_text(**fields))
        x = write_vector(tmp_path, "x.json", [0.0, 1.0])
        assert main(["verify", "--problem", str(problem), "--x", x, "--tol", "1e-8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {problem}: {field} must be a finite number")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, shown", [("null", "None"), ("[1, 2]", "[1, 2]"),
                                             ("7", "7"), ("false", "False")])
    def test_a_name_that_is_not_a_string_exits_1(self, tmp_path, capsys, name, shown):
        # not a name made of its text, such as "None" or "[1, 2]"
        problem = tmp_path / "p.json"
        problem.write_text(problem_text()[:-1] + f', "name": {name}}}')
        assert main(["solve", "--problem", str(problem), "--gamma", "2", "--tspan", "0,1",
                     "--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {problem}: name must be a string, got {shown}\n"

    def test_a_string_name_is_the_report_problem(self, tmp_path):
        problem, report = tmp_path / "p.json", tmp_path / "r.json"
        problem.write_text(problem_text()[:-1] + ', "name": "toy one"}')
        assert main(["solve", "--problem", str(problem), "--gamma", "2", "--tspan", "0,1",
                     "--out", str(tmp_path / "t.csv"), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["problem"] == "toy one"

    @pytest.mark.parametrize("depth", [990, 100_000])
    def test_deeply_nested_json_exits_1(self, tmp_path, unique_file, capsys, depth):
        # past the recursion limit of json.load, or of the walk over its lists
        nested = "[" * depth + "1" + "]" * depth
        problem = tmp_path / "p.json"
        problem.write_text(problem_text(b=nested))
        x = write_vector(tmp_path, "x.json", [0.0, 1.0])
        assert main(["verify", "--problem", str(problem), "--x", x, "--tol", "1e-8"]) == 1
        (tmp_path / "deep.json").write_text(nested)
        assert main(["verify", "--problem", unique_file, "--x", str(tmp_path / "deep.json"),
                     "--tol", "1e-8"]) == 1
        err = capsys.readouterr().err.splitlines()
        deep = tmp_path / "deep.json"
        assert err[0].startswith(f"error: {problem}: ") and err[1].startswith(f"error: {deep}: ")
        assert len(err) == 2

    @pytest.mark.parametrize("flag, text, reason", [
        ("--problem", None, "No such file or directory"),
        ("--x", None, "No such file or directory"),
        ("--problem", "{oops", "invalid JSON: "),
        ("--x", "[0, 1", "invalid JSON: "),
        ("--x", "[" * 990 + "1" + "]" * 990, "maximum recursion depth"),
        ("--x", '[0, "1"]', "entries must be a finite number"),
    ], ids=["missing-problem", "missing-x", "invalid-problem", "invalid-x", "deep-x",
            "string-in-x"])
    def test_file_error_is_one_line_naming_the_file(self, tmp_path, unique_file, capsys,
                                                    flag, text, reason):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        files = {"--problem": unique_file, "--x": write_vector(tmp_path, "x.json", [0, 1]),
                 flag: str(path)}
        argv = ["verify", "--problem", files["--problem"], "--x", files["--x"], "--tol", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1

    def test_nested_vector_file_exits_1(self, tmp_path, unique_file, capsys):
        # a vector file holds a flat list; [[0, 1]] is not flattened
        x = write_vector(tmp_path, "x.json", [[0, 1]])
        assert main(["verify", "--problem", unique_file, "--x", x, "--tol", "1e-8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {x}: entries must have ndim=1") and err.count("\n") == 1

    def test_non_number_in_vector_file_exits_1(self, tmp_path, unique_file, capsys):
        x = write_vector(tmp_path, "x.json", ["0", True])
        assert main(["verify", "--problem", unique_file, "--x", x, "--tol", "1e-8"]) == 1
        assert "must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify", "--x0"])
    def test_an_oversized_malformed_field_is_one_short_error_line(self, tmp_path, capsys,
                                                                   command):
        # its repr is 688,897 characters: the line quotes a prefix of it
        big = json.dumps({"v": list(range(100_000))})
        outputs = ["--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.json")]
        if command == "solve":
            problem = tmp_path / "p.json"
            problem.write_text(problem_text(b=big))
            argv = ["solve", "--problem", str(problem), "--gamma", "1", "--tspan", "0,1",
                    *outputs]
        elif command == "verify":
            (tmp_path / "x.json").write_text(big)
            argv = ["verify", "--builtin", "unique", "--x", str(tmp_path / "x.json"),
                    "--tol", "1"]
        else:  # a start of 20,000 entries for a 2-d problem
            argv = ["solve", "--builtin", "unique", "--gamma", "1", "--tspan", "0,1",
                    "--x0", ",".join(map(str, range(20_000))), *outputs]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 300
        assert ("got {'v': [0, 1, 2, " if command != "--x0" else "bad --x0 '0,1,2,") in err


class TestOverflow:
    """A finite input whose residual overflows is a run that fails, reported
    through the exit code, with nothing on stderr."""

    @pytest.mark.parametrize("x0", ["zeros", "1,1"])
    def test_solve_exits_2_silently(self, tmp_path, capsys, x0):
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--problem", overflowing_file(tmp_path), "--gamma", "1",
                         "--tspan", "0,1", "--x0", x0, "--out", str(tmp_path / "t.csv"),
                         "--report", str(report)])
        assert code == 2
        assert json.loads(report.read_text())["termination"] == "StepUnderflow"
        assert capsys.readouterr().err == ""

    def test_report_writes_an_overflowed_residual_as_null(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main(["solve", "--problem", overflowing_file(tmp_path), "--gamma", "1",
                     "--tspan", "0,1", "--x0", "1,1", "--out", str(tmp_path / "t.csv"),
                     "--report", str(report)])
        assert code == 2
        assert strict_json(report)["final_residual_norm"] is None
        assert "final_residual=inf" in capsys.readouterr().out

    def test_report_writes_an_overflowed_certificate_as_null(self, tmp_path):
        # with sub = sup the closed form 2 * sub * cos(...) overflows
        problem = tmp_path / "p.json"
        problem.write_text('{"n": 2, "cone_blocks": [2], "b": [1, 1], "A": {"kind": '
                           '"tridiag", "sub": 1e308, "diag": 0, "sup": 1e308}}')
        report = tmp_path / "r.json"
        main(["solve", "--problem", str(problem), "--gamma", "1", "--tspan", "0,1",
              "--out", str(tmp_path / "t.csv"), "--report", str(report)])
        assert strict_json(report)["certificate"]["sigma_min"] is None

    def test_verify_exits_3_silently(self, tmp_path, capsys):
        x = write_vector(tmp_path, "x.json", [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--problem", overflowing_file(tmp_path), "--x", x,
                         "--tol", "1e-8"])
        assert code == 3
        out, err = capsys.readouterr()
        assert "residual_norm=inf" in out and "solution: no" in out
        assert err == ""


class TestSuite:
    def test_unknown_name_exit_1(self, tmp_path):
        assert main(["suite", "--name", "nope", "--out-dir", str(tmp_path)]) == 1

    def test_experiment_runs_are_deterministic(self):
        from socave.experiments import run_toy_experiment

        assert run_toy_experiment("unique") == run_toy_experiment("unique")

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_dir_under_a_file_exits_1(self, tmp_path, capsys, sub):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["suite", "--name", "paper-examples",
                     "--out-dir", str(afile / sub)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert err.count("\n") == 1

    def test_unwritable_out_dir_exits_1_before_running(self, tmp_path, capsys,
                                                       monkeypatch):
        # root may write anywhere, so stand in for a read-only directory
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        assert main(["suite", "--name", "paper-examples",
                     "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert os.listdir(tmp_path) == []

    def test_run_paper_suite_makes_and_checks_its_directory(self, tmp_path, monkeypatch):
        import socave.experiments as experiments

        out = tmp_path / "made"
        # a stand-in for a read-only directory, as above
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        with pytest.raises(ValueError, match=re.escape(
                f"cannot write {out}: directory is not writable")):
            experiments.run_paper_suite(str(out))
        assert os.listdir(out) == []
        assert_no_child_left()

    def test_paper_suite_matches_a_serial_run(self, tmp_path, capsys):
        """The CLI suite (n = 1000 in a forked worker) writes the same bytes as
        the experiments run one after another in this process."""
        from socave.experiments import run_toy_experiment, run_tridiag_experiment

        out, ref = tmp_path / "out", tmp_path / "ref"
        # recorded, not raised: CPython drops os.fork()'s warning about a
        # multi-threaded parent when the "error" filter would raise it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["suite", "--name", "paper-examples", "--out-dir", str(out)])
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().out.count("PASS") == 5

        ref.mkdir()
        small = run_tridiag_experiment(n=100, out_dir=str(ref))
        large = run_tridiag_experiment(n=1000, out_dir=str(ref))
        toys = {name: run_toy_experiment(name, out_dir=str(ref))
                for name in ("multi", "unique", "none")}
        criteria = {
            "tridiag_final_error": large["final_err_ok"],
            "tridiag_gamma_speedup": large["gamma_speedup_ok"],
            "multi_solutions_reached": toys["multi"]["all_ok"],
            "unique_solution_reached": toys["unique"]["all_ok"],
            "no_solution_divergence": toys["none"]["all_ok"],
        }
        summary = {"criteria": criteria, "all_ok": all(criteria.values()),
                   "tridiag_n100": small, "tridiag_n1000": large, "toys": toys}
        with open(ref / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

        names = sorted(os.listdir(ref))
        assert len(names) == 30  # 29 CSVs and summary.json
        assert sorted(os.listdir(out)) == names
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_worker_failure_propagates(self, tmp_path, monkeypatch):
        import socave.experiments as experiments

        original = experiments.run_tridiag_experiment

        def failing(n, **kwargs):
            if n == 1000:
                raise ValueError("n = 1000 failed")
            return original(n=n, **kwargs)

        # bound before the fork, so the child runs it too
        monkeypatch.setattr(experiments, "run_tridiag_experiment", failing)
        with pytest.raises(ValueError, match="n = 1000 failed"):
            experiments.run_paper_suite(str(tmp_path))
        assert_no_child_left()

    def test_small_tridiag_failure_here_propagates(self, tmp_path, monkeypatch):
        import socave.experiments as experiments

        original = experiments.run_tridiag_experiment
        parent = os.getpid()

        def failing(n, **kwargs):
            if n == 100:
                where = "here" if os.getpid() == parent else "the child"
                raise ValueError(f"n = 100 failed in {where}")
            return original(n=n, **kwargs)

        # bound before the fork, so the child runs it too
        monkeypatch.setattr(experiments, "run_tridiag_experiment", failing)
        with pytest.raises(ValueError, match="n = 100 failed in here"):
            experiments.run_paper_suite(str(tmp_path))
        assert_no_child_left()
        # the child ran n = 1000 alone, to the end, and wrote its CSVs
        for gamma in (50, 100, 200):
            assert (tmp_path / f"tridiag_n1000_gamma{gamma}.csv").exists()
        assert not list(tmp_path.glob("toy_*.csv"))

    # the first is written by this process, the second by the forked child
    @pytest.mark.parametrize("name", ["toy_multi_00.csv", "tridiag_n1000_gamma50.csv"])
    def test_an_unwritable_suite_csv_is_one_error_line(self, tmp_path, capsys, name):
        blocked = tmp_path / name
        blocked.mkdir()
        assert main(["suite", "--name", "paper-examples", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocked}: ") and err.count("\n") == 1
        assert_no_child_left()

    def test_a_failed_fork_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        assert main(["suite", "--name", "paper-examples", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_failed_fork_leaves_no_descriptor_open(self, tmp_path, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        before = len(os.listdir("/proc/self/fd"))
        assert main(["suite", "--name", "paper-examples", "--out-dir", str(tmp_path)]) == 1
        assert len(os.listdir("/proc/self/fd")) == before

    def test_a_bug_in_the_suite_is_not_an_error_line(self, tmp_path, monkeypatch):
        import socave.experiments as experiments

        def broken(out_dir=None):
            raise RuntimeError("a bug")

        monkeypatch.setattr(experiments, "run_paper_suite", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["suite", "--name", "paper-examples", "--out-dir", str(tmp_path)])


# for each flag: the values used when it is not at fault (None leaves it
# out), then those used when it is. "source" stands for --builtin, --problem
# and --n, whose values are argv fragments. Every solve is of a 2-d toy (or
# tridiag at n = 4) with gamma <= 10 over a span of at most 1, so each runs
# in milliseconds
FUZZ_VALUES = {
    "source": ([["--builtin", "unique"], ["--builtin", "multi"], ["--builtin", "none"],
                ["--builtin", "tridiag", "--n", "4"], ["--problem", "p.json"]],
               [[], ["--builtin", "tridiag"], ["--builtin", "tridiag", "--n", "3"],
                ["--builtin", "tridiag", "--n", "1.5"], ["--builtin", "bogus"],
                ["--builtin", "unique", "--problem", "p.json"], ["--problem", "bad.json"],
                ["--problem", "missing.json"], ["--problem", "."],
                ["--builtin", "tridiag", "--n", "1000000000000000"]]),
    "--gamma": (["2", "10"], ["0", "-1", "nan", "inf", "abc", None]),
    "--tspan": (["0,1", "0,0.5", "-1,0"],
                ["1,1", "1,0", "0", "0,inf", "nan,1", "0,abc", "", None]),
    "--x0": ([None, "zeros", "1,1", "grid:2", "x.json"],
             ["grid:0", "grid:abc", "grid:", "nan,1", "1,2,3", "bad.json", "missing.json", "",
              "grid:100000000000000"]),
    "--rtol": ([None, "1e-3"], ["0", "-1", "nan", "inf"]),
    "--atol": ([None, "1e-6"], ["0", "nan", "inf"]),
    "--stop-residual": ([None, "1e-3"], ["0", "-1", "nan", "inf"]),
    "--record-stride": ([None, "3"], ["0", "-1", "1.5"]),
    "--time-to-tol": ([None, "1e-2,1e-4"], ["", "0", "1,nan", "abc"]),
    "--out": (["t.csv"], ["nodir/t.csv", None]),
    "--report": (["r.json"], ["nodir/r.json", None]),
    "--x": (["x.json"], ["bad.json", "missing.json", "x3.json", None]),
    "--tol": (["1e-8", "1"], ["0", "-1", "nan", "abc", None]),
    "--name": (["nope"], ["", None]),
    "--out-dir": (["suite_out"], [None]),
}
FUZZ_FLAGS = {
    "solve": ["source", "--gamma", "--tspan", "--x0", "--rtol", "--atol", "--stop-residual",
              "--record-stride", "--time-to-tol", "--out", "--report"],
    "verify": ["source", "--x", "--tol"],
    "suite": ["--name", "--out-dir"],
    "bogus": [],
    None: [],
}
# at fault, these flags may also take free text; it has no decimal digits, so
# float() reads at most inf or nan from it
FUZZ_TEXT_FLAGS = ("--tspan", "--x0", "--x")
FUZZ_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=8).filter(
    lambda v: not v.startswith("-"))


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["solve", "verify", "suite", "bogus", None]))
    flags = FUZZ_FLAGS[command]
    at_fault = draw(st.sets(st.sampled_from(flags), max_size=2)) if flags else set()
    argv = [] if command is None else [command]
    for flag in flags:
        good, bad = FUZZ_VALUES[flag]
        if flag not in at_fault:
            value = draw(st.sampled_from(good))
        elif flag in FUZZ_TEXT_FLAGS and draw(st.booleans()):
            value = draw(FUZZ_TEXT)
        else:
            value = draw(st.sampled_from(bad))
        if isinstance(value, list):
            argv += value
        elif value is not None:
            argv += [flag, value]
    return argv + draw(st.lists(st.sampled_from(["extra", "--bogus", "--gamma"]), max_size=1))


class TestFuzz:
    """Whatever the argv, main returns a documented exit code and writes at
    most one error line to stderr, with no traceback and no warning."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz")
        save_problem(path / "p.json", example_toy("unique"), x_star=[0.0, 1.0])
        (path / "bad.json").write_text("{oops")
        (path / "x.json").write_text("[0, 1]")
        (path / "x3.json").write_text("[0, 1, 2]")
        return path

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=fuzz_argv())
    def test_exit_code_and_stderr(self, workdir, monkeypatch, argv):
        monkeypatch.chdir(workdir)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert err.getvalue() == "" or (err.getvalue().startswith("error:")
                                        and err.getvalue().count("\n") == 1)
        assert [str(w.message) for w in caught] == []


# a valid problem of each matrix kind, and the places in it where the fuzz
# puts an arbitrary JSON value; lists stay short, so no value sets up an
# n-sized array before the sizes disagree. JSON integers have no bound, so
# they reach past the float range
FUZZ_PROBLEMS = {
    "dense": {"n": 2, "cone_blocks": [2], "name": "toy", "b": [-1, -1], "x_star": [0, 1],
              "A": {"kind": "dense", "entries": [[1, 0], [0, -1]]}},
    "tridiag": {"n": 2, "cone_blocks": [1, 1], "b": [-4, 4], "x_star": [-1, 1],
                "A": {"kind": "tridiag", "sub": -1, "diag": 4, "sup": -1}},
}
FUZZ_PATHS = {
    "dense": [("n",), ("cone_blocks",), ("cone_blocks", 0), ("name",), ("b",), ("b", 1),
              ("x_star",), ("x_star", 0), ("A",), ("A", "kind"), ("A", "entries"),
              ("A", "entries", 0), ("A", "entries", 1, 1)],
    "tridiag": [("n",), ("cone_blocks", 1), ("b", 0), ("A", "kind"), ("A", "sub"),
                ("A", "diag"), ("A", "sup")],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


class TestProblemFuzz:
    """Whatever one field of a problem JSON holds, verify exits 0, 1 or 3
    with at most one error line on stderr, no traceback and no warning."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("problem_fuzz")
        (path / "x.json").write_text("[0, 1]")
        return path

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_and_stderr(self, workdir, data):
        kind = data.draw(st.sampled_from(sorted(FUZZ_PROBLEMS)))
        path = data.draw(st.sampled_from(FUZZ_PATHS[kind]))
        d = json.loads(json.dumps(FUZZ_PROBLEMS[kind]))
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_VALUES)
        problem = workdir / "p.json"
        problem.write_text(json.dumps(d))
        argv = ["verify", "--problem", str(problem), "--x", str(workdir / "x.json"),
                "--tol", "1e-8"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 3)
        assert err.getvalue() == "" or (err.getvalue().startswith("error:")
                                        and err.getvalue().count("\n") == 1)
        assert [str(w.message) for w in caught] == []


class TestForkAlongside:
    def test_returns_both_results(self):
        theirs, mine = _fork_alongside(os.getpid, os.getpid)
        assert mine == os.getpid() != theirs
        assert_no_child_left()

    def test_failure_here_wins_and_the_child_is_reaped(self):
        def child():
            time.sleep(0.2)  # still running when this side fails
            raise ValueError("child failed")

        def here():
            raise KeyError("here failed")

        with pytest.raises(KeyError, match="here failed"):
            _fork_alongside(child, here)
        assert_no_child_left()

    def test_child_base_exception_comes_back(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _fork_alongside(lambda: sys.exit(3), lambda: None)
        # a child that let SystemExit escape would run on from here
        (tmp_path / str(os.getpid())).touch()
        assert exc.value.code == 3
        assert os.listdir(tmp_path) == [str(os.getpid())]
        assert_no_child_left()

    def test_unpicklable_child_result_is_a_runtime_error(self):
        with pytest.raises(RuntimeError, match="exited with status 1 without a result"):
            _fork_alongside(lambda: (lambda: None), lambda: None)
        assert_no_child_left()


SRC = os.path.dirname(os.path.dirname(socave.__file__))


def cli_process(argv, cwd, stdout=subprocess.PIPE, **env):
    """The finished `python -m socave.cli` process on argv, run in cwd with
    the environment updated by env; a None value removes that variable.
    Its stdout is buffered, so that its output waits for run's flush."""
    env = {**os.environ, "PYTHONUNBUFFERED": None, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])), **env}
    env = {k: v for k, v in env.items() if v is not None}
    return subprocess.run([sys.executable, "-m", "socave.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def written_files(path):
    """{name: content} of the files in path, each report with its wall time
    dropped: the one field that differs between two runs."""
    files = {}
    for name in sorted(os.listdir(path)):
        text = (path / name).read_text()
        if name == "r.json":
            text = {k: v for k, v in json.loads(text).items() if k != "wall_time_s"}
        files[name] = text
    return files


# argv of each exit path of the CLI, with the code it ends in
PROCESS_CASES = {
    "solved": (SOLVE, 0),
    "bad input": (SOLVE[:2] + ["nope"] + SOLVE[3:], 1),
    # the ulp of 1e20 is 16384, wider than the span: no step can move t
    "not converged": (SOLVE + ["--tspan", "1e20,1.0000000000001e20"], 2),
    "not a solution": (["verify", "--builtin", "unique", "--x", "x.json", "--tol", "1e-12"], 3),
    "help": (["-h"], 0),
}


class TestProcess:
    """`python -m socave.cli` ends through run, in a process of its own."""

    @pytest.mark.parametrize("argv, code", PROCESS_CASES.values(), ids=PROCESS_CASES.keys())
    def test_a_process_matches_main_in_process(self, tmp_path, monkeypatch, capsys, argv,
                                               code):
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, on both sides
        for side in ("process", "main"):
            (tmp_path / side).mkdir()
            write_vector(tmp_path / side, "x.json", [0.0, 0.0])
        proc = cli_process(argv, tmp_path / "process")
        monkeypatch.chdir(tmp_path / "main")
        try:
            got = main(argv)
        except SystemExit as e:  # -h
            got = e.code
        out, err = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (got, out, err)
        assert got == code
        if code == 1:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1
        else:
            assert out != "" and err == ""
        assert written_files(tmp_path / "process") == written_files(tmp_path / "main")

    def test_a_closed_stdout_pipe_is_reported_by_the_interpreter(self, tmp_path):
        # the output first meets the pipe in run's flush
        r, w = os.pipe()
        os.close(r)
        try:
            proc = cli_process(SOLVE, tmp_path, stdout=w)
        finally:
            os.close(w)
        assert proc.returncode == 120
        assert "BrokenPipeError" in proc.stderr and "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 2

    def test_verify_overflow_is_silent_under_warnings_as_errors(self, tmp_path):
        # each residual form is silent on its own, and cmd_verify for
        # r_direct - r_proj. The sum of squares of the one-row tail overflows
        # and x1 + s does; |x| = x is finite all the same, Ax is not
        write_vector(tmp_path, "x.json", [1e308, 1e308])
        proc = cli_process(["verify", "--builtin", "unique", "--x", "x.json", "--tol", "1e-8"],
                           tmp_path, PYTHONWARNINGS="error::RuntimeWarning")
        assert (proc.returncode, proc.stderr) == (3, "")
        assert proc.stdout.startswith("residual_norm=inf\n")

    def test_verify_prints_a_finite_norm_whose_sum_of_squares_overflows(self, tmp_path):
        save_problem(tmp_path / "p.json",
                     AveProblem(np.diag([3.0, 3.0]), np.zeros(2), ConeStructure((1, 1))))
        write_vector(tmp_path, "x.json", [1e200, 1e200])
        proc = cli_process(["verify", "--problem", "p.json", "--x", "x.json", "--tol", "1"],
                           tmp_path, PYTHONWARNINGS="error::RuntimeWarning")
        assert (proc.returncode, proc.stderr) == (3, "")
        assert proc.stdout.startswith("residual_norm=2.8284271247461901e+200\n")


def record_exits(monkeypatch):
    """The codes that run passes to os._exit, replaced so that pytest lives
    on, each with what stdout and stderr had written through by then."""
    out, err = io.BytesIO(), io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8"))
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(err, encoding="utf-8"))
    calls = []
    monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(
        (code, out.getvalue().decode(), err.getvalue().decode())))
    return calls


class TestRun:
    """run in-process, through record_exits."""

    @pytest.mark.parametrize("argv, code", [PROCESS_CASES["not a solution"],
                                            PROCESS_CASES["bad input"]])
    def test_exits_once_with_mains_code_after_the_flush(self, tmp_path, monkeypatch, capsys,
                                                         argv, code):
        monkeypatch.chdir(tmp_path)
        write_vector(tmp_path, "x.json", [0.0, 0.0])
        assert main(argv) == code
        out, err = capsys.readouterr()
        exits = record_exits(monkeypatch)
        monkeypatch.setattr(sys, "argv", ["socave", *argv])
        cli.run()
        assert exits == [(code, out, err)]

    @pytest.mark.parametrize("argv, raised", [(["verify", "--builtin", "unique", "--x", "x.json",
                                                 "--tol", "1"], RuntimeError),
                                               (["-h"], SystemExit)])
    def test_an_exception_from_main_propagates_without_exit(self, monkeypatch, argv, raised):
        def bug(args):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cli, "cmd_verify", bug)
        exits = record_exits(monkeypatch)
        monkeypatch.setattr(sys, "argv", ["socave", *argv])
        with pytest.raises(raised):
            cli.run()
        assert exits == []

    def test_a_failed_flush_leaves_the_exit_to_the_interpreter(self, tmp_path, monkeypatch):
        def broken():
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.chdir(tmp_path)
        write_vector(tmp_path, "x.json", [0.0, 0.0])
        exits = record_exits(monkeypatch)
        monkeypatch.setattr(sys.stdout, "flush", broken)
        monkeypatch.setattr(sys, "argv", ["socave", *PROCESS_CASES["not a solution"][0]])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert (exc.value.code, exits) == (3, [])
