"""Command line behavior: subcommands, exit codes, file outputs, config precedence."""

from __future__ import annotations

import csv
import json
import re

import numpy as np
import pytest

import hieralm.alm
import hieralm.cli
import hieralm.problem
from hieralm import (
    TRACE_FIELDS,
    GridSpec,
    ProblemData,
    SolverConfig,
    build_instance,
    hierarchical_shift,
    load_problem,
    save_problem,
    solve,
)
from hieralm.cli import main

SCI = r"-?\d\.\d{2}e[+-]\d{2,3}"
EMPTY_COO = {"coo": {"rows": [], "cols": [], "values": []}}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenGrid:
    def test_writes_loadable_instance(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        code, out, err = run_cli(
            capsys, "gen-grid", "--rows", "3", "--cols", "4", "--kappa", "0.5",
            "--out", str(path),
        )
        assert (code, err) == (0, "")
        p = load_problem(path)
        assert (p.n, p.m1, p.m2) == (34, 8, 4)
        doc = json.loads(path.read_text())
        assert doc["meta"]["kappa"] == 0.5

    def test_stdout_mode_emits_json(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "gen-grid", "--rows", "2", "--cols", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["format"] == "hieralm-problem"
        path = tmp_path / "echo.json"
        path.write_text(out)
        assert load_problem(path).n == 8

    def test_rejects_bad_shape(self, capsys):
        code, _, err = run_cli(capsys, "gen-grid", "--rows", "1", "--cols", "3")
        assert code == 1
        assert "rows must be >= 2" in err


class TestSolveCommand:
    def test_feasible_grid_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--grid", "3x3")
        assert (code, err) == (0, "")
        assert out.splitlines()[0].split() == list(TRACE_FIELDS)
        assert "status: Converged" in out

    def test_table_uses_three_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--grid", "3x3")
        rows = out.splitlines()[1:-2]
        for row in rows:
            cells = row.split()
            assert re.fullmatch(r"\d+", cells[0])
            for cell in cells[1:]:
                assert re.fullmatch(SCI, cell), cell

    def test_out_flag_redirects_table(self, tmp_path, capsys):
        path = tmp_path / "table.txt"
        code, out, _ = run_cli(capsys, "solve", "--grid", "3x3", "--out", str(path))
        assert code == 0
        assert out == ""
        assert "status: Converged" in path.read_text()

    def test_trace_csv_round_trips_exactly(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--grid", "3x3", "--kappa", "0.5", "--trace", str(trace_path)
        )
        assert code == 0
        p, _ = build_instance(GridSpec(3, 3, kappa=0.5))
        report = solve(p, SolverConfig())
        with open(trace_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.trace)
        for row, rec in zip(rows, report.trace):
            assert int(row["k"]) == rec.k
            for name in TRACE_FIELDS[1:]:
                assert float(row[name]) == getattr(rec, name), name

    def test_problem_file_source(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        run_cli(capsys, "gen-grid", "--rows", "3", "--cols", "3", "--out", str(path))
        code, out, _ = run_cli(capsys, "solve", "--problem", str(path))
        assert code == 0
        assert "status: Converged" in out

    def test_max_iter_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--grid", "3x3", "--kappa", "0.5", "--max-iter", "2"
        )
        assert code == 2
        assert "status: MaxIter" in out

    def test_divergence_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--grid", "3x3", "--kappa", "0.5", "--mode", "standard-al"
        )
        assert code == 3
        assert "status: DivergenceSuspected" in out

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "solve")
        assert code == 1
        assert "exactly one problem source" in err
        path = tmp_path / "inst.json"
        run_cli(capsys, "gen-grid", "--rows", "2", "--cols", "2", "--out", str(path))
        code, _, err = run_cli(
            capsys, "solve", "--problem", str(path), "--grid", "2x2"
        )
        assert code == 1
        assert "exactly one problem source" in err

    def test_kappa_requires_grid(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        run_cli(capsys, "gen-grid", "--rows", "2", "--cols", "2", "--out", str(path))
        code, _, err = run_cli(
            capsys, "solve", "--problem", str(path), "--kappa", "0.5"
        )
        assert code == 1
        assert "--kappa only applies" in err

    def test_bad_grid_shape_string(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--grid", "20by20")
        assert code == 1
        assert "ROWSxCOLS" in err

    def test_non_finite_penalty_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--grid", "3x3", "--rho0", "inf")
        assert code == 1
        assert "rho0 must be positive and finite" in err

    def test_missing_problem_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "solve", "--problem", str(tmp_path / "no.json"))
        assert code == 1
        assert "cannot read" in err

    def test_malformed_problem_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", "--problem", str(path))
        assert code == 1
        assert "invalid JSON" in err


class TestConfigFile:
    def test_file_values_apply(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_iter": 2}))
        code, _, _ = run_cli(
            capsys, "solve", "--grid", "3x3", "--kappa", "0.5", "--config", str(cfg_path)
        )
        assert code == 2

    def test_flags_override_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_iter": 2}))
        code, _, _ = run_cli(
            capsys,
            "solve", "--grid", "3x3", "--kappa", "0.5",
            "--config", str(cfg_path), "--max-iter", "50",
        )
        assert code == 0

    def test_schedule_keys(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma1_factor": 20.0, "eta_cap": 1e10}))
        code, _, _ = run_cli(
            capsys, "solve", "--grid", "3x3", "--kappa", "0.5", "--config", str(cfg_path)
        )
        assert code == 0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        for key in ("maxiter", "eps0"):
            cfg_path.write_text(json.dumps({key: 2}))
            code, _, err = run_cli(capsys, "solve", "--grid", "3x3", "--config", str(cfg_path))
            assert code == 1
            assert f"unknown config keys: {key}" in err

    def test_invalid_value_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tau": 2.0}))
        code, _, err = run_cli(capsys, "solve", "--grid", "3x3", "--config", str(cfg_path))
        assert code == 1
        assert "tau must be in (0, 1)" in err

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"max_iter": True}, "max_iter must be an integer, got True"),
            ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
            ({"rho0": True}, "rho0 must be a real number, got True"),
            ({"box1_lo": {}}, "box1_lo must be a real number or a vector, got {}"),
            ({"box1_lo": "1"}, "box1_lo must be a real number or a vector, got '1'"),
        ],
        ids=["max_iter-bool", "max_iter-float", "rho0-bool", "box-object", "box-string"],
    )
    def test_mistyped_value_rejected(self, tmp_path, capsys, values, message):
        # JSON true would otherwise run as 1, and 2.5 as a cap of 3 iterations
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        code, out, err = run_cli(
            capsys, "solve", "--grid", "3x3", "--kappa", "0.5", "--config", str(cfg_path)
        )
        assert (code, out) == (1, "")
        assert err == f"hieralm: error: {message}\n"

    def test_box_bounds_of_different_lengths_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"box1_lo": [0.0, 0.0], "box1_hi": [1.0, 1.0, 1.0]}))
        code, out, err = run_cli(
            capsys, "solve", "--grid", "3x3", "--kappa", "0.5", "--config", str(cfg_path)
        )
        assert (code, out) == (1, "")
        assert err == "hieralm: error: box1_lo and box1_hi differ in length: 2 and 3\n"

    def test_infinite_eta_cap_rejected(self, tmp_path, capsys):
        # 1e999 parses to inf; the sweep reaches k = 352, where an uncapped sigma2 underflows
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"eta_cap": 1e999}')
        code, out, err = run_cli(
            capsys, "shift-sweep", "--grid", "3x3", "--kappa", "0.5", "--count", "400",
            "--config", str(cfg_path),
        )
        assert (code, out) == (1, "")
        assert err == "hieralm: error: eta_cap must be finite and >= 1, got inf\n"

    def test_weights_beyond_the_double_range_rejected(self, tmp_path, capsys):
        # the sweep reaches k = 309, where sigma2 = 9.99**309 leaves the double range
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"sigma1_0": 2.2250738585072014e-308, "sigma2_factor": 9.99}')
        code, out, err = run_cli(
            capsys, "shift-sweep", "--grid", "3x3", "--config", str(cfg_path), "--count", "320"
        )
        assert (code, out) == (1, "")
        assert err == "hieralm: error: sigma2 must be positive and finite, got inf\n"

    def test_starting_ratio_below_the_normal_range_rejected(self, tmp_path, capsys):
        # rejected with the config, before the instance is built or solved
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"sigma1_0": 1e-300, "sigma2_0": 1e300}')
        code, out, err = run_cli(
            capsys, "solve", "--grid", "3x3", "--kappa", "0.5", "--config", str(cfg_path)
        )
        assert (code, out) == (1, "")
        assert err == "hieralm: error: sigma1 / sigma2 must be a normal number, got 0.0\n"

    def test_invalid_json_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{")
        code, _, err = run_cli(capsys, "solve", "--grid", "3x3", "--config", str(cfg_path))
        assert code == 1
        assert "invalid JSON" in err


class TestUnboundedSubproblem:
    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_one_error_line(self, tmp_path, capsys, command):
        # Q = 0 and c = (0, 1): x2 is free and lowers the objective without bound
        path = tmp_path / "unbounded.json"
        save_problem(
            ProblemData(Q=np.zeros((2, 2)), c=[0.0, 1.0], A1=[[1.0, 0.0]], b1=[0.0],
                        A2=np.zeros((0, 2)), b2=[]),
            path,
        )
        code, out, err = run_cli(capsys, command, "--problem", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "hieralm: error: iteration 1: subproblem unbounded below: singular system is "
            "inconsistent (residual 1.000e+00 > 2.000e-10)\n"
        )


class TestOracleCommand:
    def test_prints_summary_and_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "shift.json"
        code, out, _ = run_cli(
            capsys, "oracle", "--grid", "3x3", "--kappa", "0.5", "--out", str(out_path)
        )
        assert code == 0
        assert "norm_s1:" in out and "rank1:" in out
        doc = json.loads(out_path.read_text())
        p, _ = build_instance(GridSpec(3, 3, kappa=0.5))
        res = hierarchical_shift(p)
        assert np.allclose(doc["s1"], res.shift.s1, atol=1e-12)
        assert np.allclose(doc["s2"], res.shift.s2, atol=1e-12)
        assert doc["rank1"] == res.rank1

    def test_problem_file_source(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        run_cli(capsys, "gen-grid", "--rows", "2", "--cols", "3", "--out", str(path))
        code, out, _ = run_cli(capsys, "oracle", "--problem", str(path))
        assert code == 0
        assert "stage2_value:" in out

    def test_integer_beyond_double_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run_cli(capsys, "gen-grid", "--rows", "2", "--cols", "2", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["c"][0] = 10**400
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "oracle", "--problem", str(path))
        assert (code, out) == (1, "")
        assert err == "hieralm: error: c[0]: non-finite value\n"

    @pytest.mark.parametrize(
        "declared, field",
        [({"n": 10**12, "Q": EMPTY_COO}, "c"), ({"m1": 10**12, "A1": EMPTY_COO, "b1": []}, "b1")],
        ids=["n", "m1"],
    )
    def test_oversized_dimension_is_a_format_error(self, tmp_path, capsys, declared, field):
        # a COO matrix is sized by the declared dimensions, so its vector must bound them first
        path = tmp_path / "g.json"
        run_cli(capsys, "gen-grid", "--rows", "2", "--cols", "2", "--out", str(path))
        doc = json.loads(path.read_text())
        doc.update(declared)
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "oracle", "--problem", str(path))
        assert (code, out) == (1, "")
        message = rf"hieralm: error: {field}: has length \d+, declared 1000000000000\n"
        assert re.fullmatch(message, err)

    def test_coo_beyond_physical_memory_is_a_format_error(self, tmp_path, capsys):
        # c confirms n = 10^6, so the 8 TB dense Q is refused by size, before allocation
        n = 1_000_000
        path = tmp_path / "g.json"
        run_cli(capsys, "gen-grid", "--rows", "2", "--cols", "2", "--out", str(path))
        doc = json.loads(path.read_text())
        # one entry off the diagonal; a diagonal COO Q would load as its diagonal
        off_diagonal = {"coo": {"rows": [0], "cols": [1], "values": [1.0]}}
        doc.update(n=n, m1=0, m2=0, c=[0] * n, Q=off_diagonal, A1=[], b1=[], A2=[], b2=[])
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "oracle", "--problem", str(path))
        assert (code, out) == (1, "")
        message = (
            r"hieralm: error: Q: a dense 1000000x1000000 matrix needs 8000000000000 bytes, "
            r"more than this machine's \d+ bytes of memory\n"
        )
        assert re.fullmatch(message, err)


class TestShiftSweep:
    def test_default_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "shift-sweep", "--grid", "3x3", "--kappa", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,sigma1,sigma2,norm_s1,norm_s2,r1,r2"
        assert len(lines) == 27
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == 1.0
        # the approximation error shrinks along the schedule
        assert float(last[5]) < float(first[5])
        assert float(last[6]) < float(first[6])

    def test_count_flag_and_out_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "shift-sweep", "--grid", "2x2", "--count", "5", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6

    def test_rejects_nonpositive_count(self, capsys):
        code, _, err = run_cli(capsys, "shift-sweep", "--grid", "2x2", "--count", "0")
        assert code == 1
        assert "--count" in err


class TestCompare:
    def test_feasible_instance_matches_in_both_modes(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--grid", "3x3")
        assert code == 0
        assert "infeasibility-control" in out
        assert "standard-al" in out
        assert out.count("Converged") == 2

    def test_infeasible_instance_diverges_only_in_standard_mode(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--grid", "3x3", "--kappa", "0.5")
        assert code == 0
        assert "Converged" in out
        assert "DivergenceSuspected" in out

    def test_setup_runs_once_for_both_modes(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("cho_factor", "eigh", "svd", "validate_problem"):
            original = getattr(hieralm.alm, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(hieralm.alm, name, counting)
        code, out, _ = run_cli(capsys, "compare", "--grid", "4x4", "--kappa", "0.5")
        assert code == 0
        assert "DivergenceSuspected" in out
        # the grid's Q = I gives a setup of one m x m eigh: no SVD and no n x n factor
        assert sorted(calls) == ["eigh", "validate_problem"]
        # a Q with entries off its diagonal is factored, once for both modes
        p, _ = build_instance(GridSpec(4, 4, kappa=0.5))
        Q = np.eye(p.n) + 0.25 * (np.eye(p.n, k=1) + np.eye(p.n, k=-1))
        path = tmp_path / "tridiagonal.json"
        save_problem(ProblemData(Q=Q, c=p.c, A1=p.A1, b1=p.b1, A2=p.A2, b2=p.b2), path)
        calls.clear()
        code, out, _ = run_cli(capsys, "compare", "--problem", str(path))
        assert code == 0
        assert "DivergenceSuspected" in out
        assert sorted(calls) == ["cho_factor", "svd", "validate_problem"]

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "cmp.txt"
        code, out, _ = run_cli(capsys, "compare", "--grid", "2x2", "--out", str(path))
        assert code == 0
        assert out == ""
        assert "iterations" in path.read_text()


class TestLogging:
    def test_unknown_level_warns_but_runs(self, capsys, caplog, monkeypatch):
        monkeypatch.setenv("HIERALM_LOG", "chatty")
        code, _, _ = run_cli(capsys, "solve", "--grid", "2x2")
        assert code == 0
        assert any("unknown HIERALM_LOG" in rec.message for rec in caplog.records)

    def test_debug_level_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("HIERALM_LOG", "debug")
        code, _, _ = run_cli(capsys, "solve", "--grid", "2x2")
        assert code == 0


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "hieralm: error" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1


class TestParser:
    ARGVS = (
        ["--help"], ["solve", "--help"], ["shift-sweep", "--help"], [], ["frobnicate"],
        ["oracle", "--grid"], ["solve", "--max-iter", "many"], ["gen-grid", "--rows", "3"],
    )

    def texts(self, capsys, monkeypatch, fresh):
        """(exit code, stdout, stderr) of main on each argv, at two terminal
        widths, with the parser built anew for each call or not."""
        texts = []
        for columns in ("60", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in self.ARGVS:
                if fresh:
                    hieralm.cli._parser.cache_clear()
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # --help exits from argparse
                    code = exc.code
                texts.append((code, *capsys.readouterr()))
        return texts

    def test_main_builds_the_parser_once_with_the_same_text(self, capsys, monkeypatch):
        # help, usage and error text are those of a parser built for each
        # call, at each terminal width
        fresh = self.texts(capsys, monkeypatch, fresh=True)
        assert fresh[0][1] != fresh[len(self.ARGVS)][1]  # the help wraps at the width
        built = []
        build = hieralm.cli.build_parser
        monkeypatch.setattr(hieralm.cli, "build_parser", lambda: built.append(1) or build())
        hieralm.cli._parser.cache_clear()
        assert self.texts(capsys, monkeypatch, fresh=False) == fresh
        assert len(built) == 1
        code, out, _ = run_cli(capsys, "oracle", "--grid", "3x3")
        assert code == 0 and out and len(built) == 1


class TestErrorPrecedence:
    """With several faults in one invocation, the first check in this order reports:
    grid string and shape, --kappa without a grid, config file, one source,
    --count, instance file. An empty --problem or --grid counts as absent."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--grid", "20by20", "--config", "{cfg}"],
             "--grid expects ROWSxCOLS (e.g. 20x20), got '20by20'"),
            (["solve", "--grid", "1x3", "--config", "{cfg}"],
             "rows must be >= 2 (supply and demand rows), got 1"),
            (["solve", "--problem", "{missing}", "--kappa", "0.5", "--config", "{cfg}"],
             "--kappa only applies to --grid instances"),
            (["solve", "--problem", "{missing}", "--config", "{cfg}"],
             "{cfg}: unknown config keys: maxiter"),
            (["solve", "--config", "{cfg}"], "{cfg}: unknown config keys: maxiter"),
            (["shift-sweep", "--problem", "{missing}", "--count", "0"],
             "--count must be >= 1, got 0"),
            (["shift-sweep", "--count", "0"],
             "exactly one problem source required: --problem or --grid"),
            (["solve", "--problem", "{missing}", "--grid", "2x2"],
             "exactly one problem source required: --problem or --grid"),
            (["solve"], "exactly one problem source required: --problem or --grid"),
            (["solve", "--problem", ""],
             "exactly one problem source required: --problem or --grid"),
            (["solve", "--grid", ""],
             "exactly one problem source required: --problem or --grid"),
            (["oracle", "--grid", "", "--kappa", "0.5"],
             "--kappa only applies to --grid instances"),
            (["oracle", "--problem", "{missing}", "--kappa", "0.5"],
             "--kappa only applies to --grid instances"),
            (["compare", "--problem", "{missing}"],
             "cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"),
            (["solve", "--grid", "2x2", "--config", "{missing}"],
             "cannot read config {missing}: [Errno 2] No such file or directory: '{missing}'"),
            (["solve", "--grid", "2x2", "--config", "{array}"],
             "{array}: config must be a JSON object"),
        ],
        ids=[
            "grid-string-before-config", "grid-shape-before-config", "kappa-before-config",
            "config-before-file", "config-before-source", "count-before-file",
            "source-before-count", "both-sources", "no-source", "empty-problem",
            "empty-grid", "empty-grid-with-kappa", "kappa-with-problem", "missing-file",
            "missing-config", "config-array",
        ],
    )
    def test_first_fault_reports(self, tmp_path, capsys, argv, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"maxiter": 2}))
        array = tmp_path / "array.json"
        array.write_text(json.dumps([{"tau": 0.5}]))
        paths = {"cfg": str(cfg), "missing": str(tmp_path / "no.json"), "array": str(array)}
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out) == (1, "")
        assert err == f"hieralm: error: {message.format(**paths)}\n"


class TestGridBeyondMemory:
    @pytest.mark.parametrize(
        "argv",
        [["gen-grid", "--rows", "20", "--cols", "20"], ["solve", "--grid", "20x20"]],
        ids=["gen-grid", "solve"],
    )
    def test_one_error_line(self, capsys, monkeypatch, argv):
        # A of a 20x20 grid takes 400 x 1520 doubles; on a 1 MiB machine it cannot fit
        monkeypatch.setattr(hieralm.problem, "_physical_memory", lambda: 2**20)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            "hieralm: error: A: a dense 400x1520 matrix needs 4864000 bytes, "
            "more than this machine's 1048576 bytes of memory\n"
        )


class TestNoDenseA:
    @pytest.mark.parametrize("source", ["file", "grid"])
    @pytest.mark.parametrize("command", ["oracle", "shift-sweep"])
    def test_oracle_and_sweep_build_no_dense_a(
        self, tmp_path, capsys, monkeypatch, command, source
    ):
        # the 20x20 grid's A is 400 x 1520; any numpy allocation with 1520
        # columns or 1520 rows fails, as would building A, a block of it or A'
        path = tmp_path / "grid.json"
        save_problem(build_instance(GridSpec(20, 20, kappa=0.5))[0], path)

        def refusing(allocate):
            def guarded(shape, *args, **kwargs):
                if np.ndim(shape) and len(shape) == 2 and 1520 in tuple(shape):
                    raise MemoryError(f"a dense {tuple(shape)} array")
                return allocate(shape, *args, **kwargs)

            return guarded

        for name in ("zeros", "empty", "ones", "full"):
            monkeypatch.setattr(np, name, refusing(getattr(np, name)))
        built = []
        for name in ("load_problem", "build_instance"):
            original = getattr(hieralm.cli, name)
            monkeypatch.setattr(
                hieralm.cli, name, lambda *a, _f=original: built.append(_f(*a)) or built[-1]
            )
        if source == "file":
            argv = [command, "--problem", str(path)]
        else:
            argv = [command, "--grid", "20x20", "--kappa", "0.5"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out
        (p,) = [b[0] if isinstance(b, tuple) else b for b in built]
        assert not {"A", "A1", "A2"} & set(vars(p))
