"""Command-line interface: schemas, status lines, exit codes, determinism."""

import csv
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sosarp import sos_certify
from sosarp.cli import main
from sosarp.problems_io import bundled_problem_paths
from sosarp.sdp_core import SdpStatus, solve_sdp

MINIMIZE_HEADER = ["iter", "case", "lambda_min", "sigma_bar", "sigma_r",
                   "sigma", "step_norm", "rho", "f", "grad_norm", "success"]
SCAN_HEADER = ["row", "x", "seed", "sigma_bar", "status", "slope"]


@pytest.fixture()
def quad2_path():
    return bundled_problem_paths()["quad2"]


@pytest.fixture()
def start_point(tmp_path):
    path = tmp_path / "start.txt"
    path.write_text("1.5 -2.0\n")
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle)]
    footer = [r for r in rows if r and r[0].startswith("#")]
    rows = [r for r in rows if not (r and r[0].startswith("#"))]
    return rows[0], rows[1:], footer


class TestMinimize:
    def test_csv_schema_and_status_line(self, tmp_path, quad2_path,
                                        start_point, capsys):
        out = str(tmp_path / "run.csv")
        code = main(["minimize", "--problem", quad2_path, "--point",
                     start_point, "--p", "3", "--eps", "1e-6",
                     "--output", out])
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == MINIMIZE_HEADER
        assert len(rows) == 1
        assert rows[0][1] == "StronglyConvex"
        assert rows[0][10] == "1"
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("status=Converged iters=1 f=")
        assert "grad_norm=" in line

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        rosen = bundled_problem_paths()["rosenbrock2"]
        point = tmp_path / "x.txt"
        point.write_text("-1.2, 1.0")
        code = main(["minimize", "--problem", rosen, "--point", str(point),
                     "--eps", "1e-8", "--max-iter", "2"])
        assert code == 2
        assert "status=MaxIterations" in capsys.readouterr().out

    def test_certification_failure_keeps_rows(self, tmp_path, capsys,
                                              request):
        rosen = bundled_problem_paths()["rosenbrock2"]
        point = tmp_path / "x.txt"
        point.write_text("-1.2, 1.0")
        args = ["minimize", "--problem", rosen, "--point", str(point)]
        full = str(tmp_path / "full.csv")
        assert main(args + ["--output", full]) == 0
        request.getfixturevalue("second_certification_fails")
        cut = str(tmp_path / "cut.csv")
        code = main(args + ["--output", cut])
        assert code == 3
        header, rows, _ = read_csv(cut)
        assert header == MINIMIZE_HEADER
        _, full_rows, _ = read_csv(full)
        # the rows up to and including the first accepted step
        first_success = next(i for i, row in enumerate(full_rows)
                             if row[10] == "1")
        assert rows == full_rows[:first_success + 1]
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith(f"status=CertificationFailure "
                               f"iters={first_success + 1} ")

    def test_certification_failure_names_sdp_status(self, quad2_path,
                                                    start_point, capsys,
                                                    monkeypatch):
        # every certification SDP reports a breakdown with unusable residuals
        def broken(problem, tol, certify=None):
            return replace(solve_sdp(problem, tol, certify),
                           status=SdpStatus.NUMERICAL_FAILURE, primal_residual=1.0)

        monkeypatch.setattr(sos_certify, "solve_sdp", broken)
        code = main(["minimize", "--problem", quad2_path, "--point",
                     start_point])
        assert code == 3
        captured = capsys.readouterr()
        assert "status=CertificationFailure iters=0 " in captured.out
        assert "min-sigma SDP ended with NumericalFailure" in captured.err

    @pytest.mark.parametrize("extra", [
        ["--eps", "2"],
        ["--a", "0.5", "--delta", "0.1"],
        ["--a", "0.9"],
    ])
    def test_usage_errors(self, quad2_path, extra, capsys):
        code = main(["minimize", "--problem", quad2_path] + extra)
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_problem_file(self, tmp_path, capsys):
        code = main(["minimize", "--problem", str(tmp_path / "no.prob")])
        assert code == 1


class TestCertify:
    def test_univariate_oracle(self, tmp_path, capsys):
        path = tmp_path / "uni.prob"
        path.write_text(json.dumps({
            "name": "uni", "n": 1, "kind": "ExplicitPolynomial", "degree": 3,
            "terms": [[[2], 0.5], [[3], 1.0]]}))
        code = main(["certify", "--problem", str(path), "--p", "3",
                     "--delta", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma_bar=3.000000" in out
        assert "residual=" in out
        assert "case=StronglyConvex" in out

    def test_quadratic_needs_no_weight(self, quad2_path, capsys):
        code = main(["certify", "--problem", quad2_path, "--p", "3",
                     "--delta", "0.5"])
        assert code == 0
        assert "sigma_bar=0.000000" in capsys.readouterr().out

    def test_corrupted_file(self, tmp_path, capsys):
        path = tmp_path / "bad.prob"
        path.write_text("not json")
        code = main(["certify", "--problem", str(path)])
        assert code == 1
        assert "usage error" in capsys.readouterr().err


class TestScans:
    def test_cell_summary_footer_schema(self, tmp_path, capsys):
        out = str(tmp_path / "scan.csv")
        code = main(["scan-tensor", "--scales", "1,10", "--seeds", "2",
                     "--seed", "3", "--output", out])
        assert code == 0
        header, rows, footer = read_csv(out)
        assert header == SCAN_HEADER
        kinds = [r[0] for r in rows]
        assert kinds.count("cell") == 4 and kinds.count("summary") == 2
        assert footer == [["# failures=0"]]
        summary = [r for r in rows if r[0] == "summary"][0]
        assert summary[2] == ""
        assert summary[5] != ""
        assert f"slope={summary[5]}" in capsys.readouterr().out

    def test_single_scale_empty_slope(self, tmp_path, capsys):
        out = str(tmp_path / "scan.csv")
        code = main(["scan-tensor", "--scales", "5", "--seeds", "2",
                     "--output", out])
        assert code == 0
        _, rows, _ = read_csv(out)
        assert all(r[5] == "" for r in rows)
        assert "slope= " in capsys.readouterr().out

    def test_seed_env_var_and_flag_precedence(self, tmp_path, monkeypatch):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        out_c = str(tmp_path / "c.csv")
        monkeypatch.setenv("SOSARP_SEED", "9")
        assert main(["scan-tensor", "--scales", "1", "--seeds", "2",
                     "--output", out_a]) == 0
        monkeypatch.delenv("SOSARP_SEED")
        assert main(["scan-tensor", "--scales", "1", "--seeds", "2",
                     "--seed", "9", "--output", out_b]) == 0
        assert main(["scan-tensor", "--scales", "1", "--seeds", "2",
                     "--output", out_c]) == 0
        read = lambda p: Path(p).read_text()
        assert read(out_a) == read(out_b)      # env supplies the seed
        assert read(out_a) != read(out_c)      # default seed differs

    def test_delta_scan_default_grid(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        code = main(["scan-delta", "--seeds", "1", "--output", out])
        assert code == 0
        _, rows, _ = read_csv(out)
        xs = sorted({float(r[1]) for r in rows})
        assert len(xs) == 7
        assert xs[0] == pytest.approx(1e-3) and xs[-1] == pytest.approx(1.0)

    def test_invalid_scales_no_partial_file(self, tmp_path, capsys):
        out = str(tmp_path / "scan.csv")
        code = main(["scan-tensor", "--scales", "1,-3", "--output", out])
        assert code == 1
        assert not os.path.exists(out)


class TestConvexRate:
    def test_summary_and_trajectories(self, tmp_path, capsys):
        quartic = bundled_problem_paths()["quartic_sc2"]
        point = tmp_path / "x.txt"
        point.write_text("1.0 -1.0")
        out = str(tmp_path / "rate.csv")
        code = main(["convex-rate", "--problem", quartic, "--point",
                     str(point), "--eps-list", "1e-1,1e-2", "--output", out])
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["epsilon", "successful_iterations",
                          "total_iterations", "trajectory_file"]
        assert len(rows) == 2
        for row in rows:
            traj = os.path.join(tmp_path, row[3])
            t_header, t_rows, _ = read_csv(traj)
            assert t_header == ["successful_iteration", "f_gap"]
            assert len(t_rows) == int(row[1])

    def test_certification_failure_exit_code(self, tmp_path, capsys,
                                             second_certification_fails):
        quartic = bundled_problem_paths()["quartic_sc2"]
        point = tmp_path / "x.txt"
        point.write_text("1.0 -1.0")
        out = str(tmp_path / "rate.csv")
        code = main(["convex-rate", "--problem", quartic, "--point",
                     str(point), "--eps-list", "1e-1,1e-2", "--output", out])
        assert code == 3
        assert "CertificationFailure" in capsys.readouterr().err
        _, rows, _ = read_csv(out)
        assert len(rows) == 2

    def test_refuses_nonconvex_problem(self, tmp_path, capsys):
        cq = bundled_problem_paths()["cubic_quartic"]
        out = str(tmp_path / "rate.csv")
        code = main(["convex-rate", "--problem", cq, "--eps-list", "1e-2",
                     "--output", out])
        assert code == 1
        assert "strongly convex" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestCheckDerivs:
    def test_bundled_problem_passes(self, capsys):
        cq = bundled_problem_paths()["cubic_quartic"]
        code = main(["check-derivs", "--problem", cq, "--p", "4",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "derivatives ok" in out
        assert out.count("order=") == 4


class TestOutOfRangeFlags:
    """Flags that the run itself would refuse are usage errors, reported
    before any run starts or output file is opened."""

    @pytest.mark.parametrize("command, flags", [
        ("convex-rate", ["--p", "2"]),
        ("convex-rate", ["--max-iter", "0"]),
        ("minimize", ["--p", "9"]),
        ("certify", ["--p", "9"]),
        ("check-derivs", ["--p", "9"]),
    ])
    def test_usage_error_and_no_output(self, command, flags, tmp_path,
                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = [command, "--problem", bundled_problem_paths()["quartic_sc2"]]
        if command == "convex-rate":
            args += ["--eps-list", "1e-2", "--output", "rate.csv"]
        elif command == "minimize":
            args += ["--output", "run.csv"]
        assert main(args + flags) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["minimize"]) == 1
