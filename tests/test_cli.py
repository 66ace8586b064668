"""Command line surface: formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hilfer_dfc import ContourError, HilferOrder, IvpSpec, Linear, existence_bound, solve_linear
from hilfer_dfc import cli, solvers
from hilfer_dfc.cli import main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSolve:
    def test_linear_row_count_and_header(self, tmp_path):
        code = main(
            [
                "solve", "--linear", "--lambda", "0.1", "--mu", "0.8",
                "--nu", "0.5", "--zeta", "1", "--a", "0", "--steps", "30",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        assert lines[0] == "n,x,u"
        assert len(lines) == 32  # header + steps + 1
        meta = json.loads((tmp_path / "solution.json").read_text())
        assert meta["solver"] == "linear-recursion"
        assert meta["max_residual"] < 1e-10
        assert meta["lambda"] == 0.1

    def test_zero_lambda_emits_monomial_column(self, tmp_path):
        code = main(
            [
                "solve", "--linear", "--lambda", "0", "--mu", "0.6",
                "--nu", "0.25", "--zeta", "2", "--steps", "8",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "solution.csv").read_text().splitlines()[1:]
        eta = HilferOrder(0.6, 0.25).eta
        for n, line in enumerate(lines):
            u = float(line.split(",")[2])
            expect = 2.0 * math.gamma(n + eta) / (math.gamma(eta) * math.gamma(n + 1))
            assert u == pytest.approx(expect, rel=1e-12)

    def test_registry_nonlinear(self, tmp_path):
        code = main(
            [
                "solve", "--nonlinear", "--g", "example45", "--a", "0.3",
                "--steps", "9", "--mu", "0.7", "--nu", "0.5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        assert len(lines) == 11

    def test_affine_g(self, tmp_path):
        code = main(
            [
                "solve", "--nonlinear", "--g-affine", "0.1", "-0.05",
                "--mu", "0.5", "--nu", "0.5", "--steps", "10",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0

    def test_nonhomogeneous_constant_forcing(self, tmp_path):
        code = main(
            [
                "solve", "--nonhomogeneous", "--lambda", "0.1",
                "--forcing-const", "0.5", "--mu", "0.8", "--nu", "0.5",
                "--steps", "12", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        meta = json.loads((tmp_path / "solution.json").read_text())
        assert meta["max_residual"] < 1e-10

    def test_forcing_csv_writes_the_constant_forcing_bytes(self, tmp_path):
        # the np.loadtxt branch: one sample per line, read as --forcing-const reads its value
        (tmp_path / "forcing.csv").write_text("0.2\n" * 40)
        args = ["solve", "--nonhomogeneous", "--lambda", "0.3", "--mu", "0.6", "--nu", "0.4",
                "--steps", "40"]
        assert main(args + ["--forcing-csv", str(tmp_path / "forcing.csv"),
                            "--out", str(tmp_path / "csv")]) == 0
        assert main(args + ["--forcing-const", "0.2", "--out", str(tmp_path / "const")]) == 0
        for name in ("solution.csv", "solution.json"):
            assert read(tmp_path / "csv" / name) == read(tmp_path / "const" / name)

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "solve", "--linear", "--lambda", "0.1", "--mu", "0.8",
            "--nu", "0.5", "--steps", "30",
        ]
        main(args + ["--out", str(tmp_path / "one")])
        main(args + ["--out", str(tmp_path / "two")])
        assert read(tmp_path / "one/solution.csv") == read(tmp_path / "two/solution.csv")
        assert read(tmp_path / "one/solution.json") == read(tmp_path / "two/solution.json")

    def test_missing_rhs_is_config_error(self, tmp_path, capsys):
        code = main(["solve", "--mu", "0.5", "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "solution.csv").exists()

    def test_series_with_nonlinear_is_config_error(self, tmp_path, capsys):
        code = main(
            ["solve", "--nonlinear", "--g", "example45", "--mu", "0.5", "--series",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --series needs --linear or --nonhomogeneous\n"
        )
        assert not (tmp_path / "solution.csv").exists()

    def test_invalid_order_is_config_error(self, tmp_path):
        code = main(
            ["solve", "--linear", "--lambda", "0.1", "--mu", "1.5",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert not (tmp_path / "solution.csv").exists()

    def test_overflow_exit_code_with_partial_output(self, tmp_path):
        code = main(
            [
                "solve", "--nonlinear", "--g-affine", "0", "1e6",
                "--mu", "0.5", "--nu", "0.5", "--steps", "64",
                "--zeta", "5", "--out", str(tmp_path),
            ]
        )
        assert code == 3
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        assert 1 < len(lines) < 66
        meta = json.loads((tmp_path / "solution.json").read_text())
        assert meta["overflow_at"] is not None
        assert meta["max_relative_residual"] is None


class TestFigures:
    def test_files_and_shape(self, tmp_path):
        code = main(["figures", "--out", str(tmp_path)])
        assert code == 0
        for tag in ("fig1", "fig2"):
            lines = (tmp_path / f"{tag}.csv").read_text().splitlines()
            assert lines[0] == "n,nu_0.00,nu_0.25,nu_0.50,nu_0.75,nu_1.00"
            assert len(lines) == 32

    def test_endpoint_columns_bit_match_standalone_solvers(self, tmp_path):
        main(["figures", "--out", str(tmp_path)])
        lines = (tmp_path / "fig1.csv").read_text().splitlines()[1:]
        rl = solve_linear(IvpSpec(0.0, 30, HilferOrder(0.8, 0.0), 1.0, Linear(0.1)))
        cap = solve_linear(IvpSpec(0.0, 30, HilferOrder(0.8, 1.0), 1.0, Linear(0.1)))
        for n, line in enumerate(lines):
            cells = line.split(",")
            assert cells[1] == f"{float(rl.values.values[n]):.16e}"
            assert cells[-1] == f"{float(cap.values.values[n]):.16e}"

    def test_intermediate_types_interpolate(self, tmp_path):
        main(["figures", "--out", str(tmp_path)])
        for tag in ("fig1", "fig2"):
            data = np.loadtxt(tmp_path / f"{tag}.csv", delimiter=",", skiprows=1)
            lo = np.minimum(data[:, 1], data[:, 5])
            hi = np.maximum(data[:, 1], data[:, 5])
            for col in (2, 3, 4):
                assert np.all(data[:, col] >= lo - 1e-12)
                assert np.all(data[:, col] <= hi + 1e-12)

    def test_deterministic(self, tmp_path):
        main(["figures", "--out", str(tmp_path / "a")])
        main(["figures", "--out", str(tmp_path / "b")])
        assert read(tmp_path / "a/fig1.csv") == read(tmp_path / "b/fig1.csv")
        assert read(tmp_path / "a/fig2.csv") == read(tmp_path / "b/fig2.csv")


class TestVerify:
    def test_fresh_tree_passes(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["all_passed"]
        assert all(c["passed"] for c in payload["checks"])

    def test_subset_run(self, tmp_path, capsys):
        code = main(
            ["verify", "--only", "laplace", "--y", "2.0", "--tol", "1e-8",
             "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert len(payload["checks"]) == 3

    def test_failure_exit_code(self, tmp_path):
        code = main(
            ["verify", "--only", "power-rule", "--tol", "1e-30",
             "--out", str(tmp_path)]
        )
        assert code == 1


class TestBound:
    def test_threshold_print(self, capsys):
        code = main(["bound", "--a", "0.3", "--T", "9.3", "--mu", "0.7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.1974" in out

    def test_single_step_is_one(self, capsys):
        code = main(["bound", "--a", "0", "--T", "1", "--mu", "0.5"])
        assert code == 0
        assert "1.0" in capsys.readouterr().out

    def test_uniqueness_comparison(self, capsys):
        code = main(["bound", "--a", "0.3", "--T", "9.3", "--mu", "0.7", "--K", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied = False" in out

    @pytest.mark.parametrize("T, expect", [("1e200", 8.86226925452758e-101),
                                           ("1e306", 8.86226925452758e-154)])
    def test_large_horizon(self, T, expect, capsys):
        # Gamma(1.5) / (T - 1/2)^[1/2], and (T - 1/2)^[1/2] = sqrt(T) to 1e-200
        assert main(["bound", "--a", "0", "--T", T, "--mu", "0.5"]) == 0
        value = float(capsys.readouterr().out.split()[2])
        assert value == pytest.approx(expect, rel=1e-13)

    def test_existence_comparison(self, capsys):
        assert main(["bound", "--a", "0.3", "--T", "9.3", "--mu", "0.7", "--L-star", "0.1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"bound     = {existence_bound(0.3, 9.3, 0.7)!r}",
            "kind      = existence",
            "supplied  = 0.1",
            "satisfied = True",
            "strict    = False",
        ]

    def test_bad_horizon_is_config_error(self, capsys):
        code = main(["bound", "--a", "0.0", "--T", "5.5", "--mu", "0.7"])
        assert code == 2


class TestEvaluators:
    def test_laplace_json(self, capsys):
        code = main(["laplace", "--y", "2.0", "--f-kind", "const"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transform"] == pytest.approx(0.5, rel=1e-8)
        assert payload["fractional_sum_identity"]["error"] < 1e-8
        assert payload["hilfer_identity"]["error"] < 1e-8

    def test_laplace_unknown_test_function(self, capsys):
        assert main(["laplace", "--y", "2", "--f-kind", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown --f-kind 'bogus'\n" and captured.out == ""

    def test_laplace_domain_error(self, capsys):
        code = main(["laplace", "--y", "0.1"])
        assert code == 2

    def test_ml_json(self, capsys):
        code = main(["ml", "--mu", "1.0", "--lambda", "0.5", "--z", "10"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1.5**10, rel=1e-12)
        assert payload["exact_termination"] is True

    def test_ml_cancelling_lattice_point(self, capsys):
        # terms of total size 5.1e20 sum to -2.076e-4, read from the transform
        argv = ["--mu", "0.8", "--eta", "0.4", "--gamma", "1.3", "--lambda", "-0.6", "--z", "120"]
        assert main(["ml", *argv, "--bold"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(-2.0760175647701864e-4, rel=1e-12)
        assert payload["terms_used"] == 121 and payload["exact_termination"] is True

    def test_ml_bad_params(self, capsys):
        code = main(["ml", "--mu", "1.0", "--lambda", "1.5", "--z", "3"])
        assert code == 2


class TestLibraryErrorsExitTwo:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "3.5"], "SingularGammaError"),
            (  # off the lattice: term 48 of a series cut after 24 sits on a pole
                ["ml", "--mu", "0.55", "--eta", "0.7", "--gamma", "1.5", "--lambda", "0.3",
                 "--z", "12.6"],
                "SingularGammaError",
            ),
            (
                ["ml", "--mu", "0.5", "--lambda", "0.5", "--z", "25.3", "--tol", "1e-300"],
                "SeriesConvergenceError",
            ),
            (  # off the lattice: the terms fall to 1e-30 near k = 190, then grow
                ["ml", "--mu", "0.15099786340608712", "--eta", "0.3495867483767302",
                 "--gamma", "0.8442201896021259", "--lambda", "-0.7877801511160267",
                 "--z", "177.43824521694432"],
                "SeriesConvergenceError",
            ),
            (  # off the lattice: terms of total size 2.9e17 sum to -2.6e-4
                ["ml", "--mu", "0.8", "--eta", "0.4", "--gamma", "1.3", "--lambda", "-0.5",
                 "--z", "120.3"],
                "SeriesConvergenceError",
            ),
            (
                ["laplace", "--y", "2", "--f-kind", "geometric", "--count", "5"],
                "TruncationError",
            ),
            (["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "1e17"], "OverflowError"),
            (  # finite ends whose span T - a overflows
                ["bound", "--a=-1e308", "--T", "1e308", "--mu", "0.5"], "OverflowError",
            ),
            (
                ["solve", "--mu", "0.5", "--linear", "--lambda", "0.2", "--g", "example45",
                 "--forcing-const", "3"],
                "--linear does not take these flags",
            ),
            (
                ["solve", "--mu", "0.5", "--nonlinear", "--g", "example45", "--lambda", "0.5"],
                "--nonlinear does not take these flags",
            ),
            (  # was exit 3, "overflow_at: 1"
                ["solve", "--nonhomogeneous", "--lambda", "0.1", "--mu", "0.5",
                 "--forcing-const", "nan", "--steps", "5"],
                "forcing must be finite",
            ),
            (  # was exit 3, "overflow_at: 0"
                ["solve", "--linear", "--lambda", "0.1", "--mu", "0.5", "--zeta", "inf",
                 "--steps", "5"],
                "a and zeta must be finite",
            ),
            (  # was exit 0 with nan rows and a non-standard JSON NaN
                ["solve", "--linear", "--lambda", "0.1", "--mu", "0.5", "--a", "nan",
                 "--steps", "3"],
                "a and zeta must be finite",
            ),
            (  # was exit 0: the forcing-base check compared inf with inf
                ["solve", "--nonhomogeneous", "--lambda", "0.1", "--mu", "0.5", "--a", "inf",
                 "--forcing-const", "1", "--steps", "3"],
                "a and zeta must be finite",
            ),
            (  # was exit 3, "overflow_at: 1"
                ["solve", "--linear", "--lambda", "inf", "--mu", "0.5", "--steps", "3"],
                "lam must be finite",
            ),
            (  # was exit 0 with one repeated x on every row
                ["solve", "--linear", "--lambda", "0.2", "--mu", "0.5", "--a", "1e17", "--steps", "10"],
                "base 1e+17",
            ),
            (  # was exit 0 with "transform": NaN
                ["laplace", "--f-kind", "geometric", "--ratio", "nan", "--y", "2"],
                "the transform needs finite samples",
            ),
            # each non-finite argument is named, not reported as an integer
            # conversion, a contour, a truncation or an overflow failure
            (["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "nan"], "z must be finite"),
            (["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "inf"], "z must be finite"),
            (["ml", "--mu", "0.7", "--eta", "nan", "--lambda", "0.2", "--z", "3"], "eta must be finite"),
            (["ml", "--mu", "0.7", "--gamma", "nan", "--lambda", "0.2", "--z", "3"],
             "gamma must be finite"),
            (["ml", "--mu", "nan", "--lambda", "0.2", "--z", "3"], "mu must be finite"),
            (["laplace", "--y", "nan"], "y must be finite"),
            (["laplace", "--y", "2", "--mu", "nan"], "mu must be finite"),
            (["bound", "--a", "0", "--T", "nan", "--mu", "0.5"], "T must be finite"),
            (["bound", "--a", "0", "--T", "inf", "--mu", "0.5"], "T must be finite"),
            (["bound", "--a", "nan", "--T", "3", "--mu", "0.5"], "a must be finite"),
            (["bound", "--a", "0", "--T", "3", "--mu", "nan"], "mu must be finite"),
            # a meaningless constant was reported as satisfied or not, exit 0
            (["bound", "--a", "0", "--T", "3", "--mu", "0.5", "--K", "nan"], "k must be finite and nonnegative"),
            (["bound", "--a", "0", "--T", "3", "--mu", "0.5", "--K", "-0.1"], "k must be finite and nonnegative"),
            (["bound", "--a", "0", "--T", "3", "--mu", "0.5", "--L-star", "inf"],
             "l_star must be finite and nonnegative"),
            (["bound", "--a", "0", "--T", "3", "--mu", "0.5", "--L-star", "-0.1"],
             "l_star must be finite and nonnegative"),
            # an infinite tolerance was exit 0 with a wrong value, nan was
            # blamed on the series or failed every verify check, and 0 ran
            # with the default tolerance
            (["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "4.321", "--tol", "inf"], "tol must be finite"),
            (["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "4.321", "--tol", "nan"], "tol must be finite"),
            (["ml", "--mu", "0.7", "--lambda", "0.2", "--z", "4.321", "--tol", "0"], "tol must be positive"),
            (["laplace", "--y", "2", "--tol", "inf"], "tol must be finite"),
            (["laplace", "--y", "2", "--tol", "nan"], "tol must be finite"),
            (["laplace", "--y", "2", "--tol", "0"], "tol must be positive"),
            (["verify", "--tol", "nan"], "tol must be finite"),
            (["verify", "--tol", "inf"], "tol must be finite"),
        ],
        ids=["singular-gamma", "series-pole", "series-convergence", "series-divergence", "series-cancellation",
             "truncation", "ml-overflow",
             "bound-overflow", "linear-foreign-flags", "nonlinear-foreign-flags",
             "nan-forcing", "inf-zeta", "nan-base", "inf-base", "inf-lambda", "huge-base", "nan-laplace-ratio",
             "nan-ml-z", "inf-ml-z", "nan-ml-eta", "nan-ml-gamma", "nan-ml-mu",
             "nan-laplace-y", "nan-laplace-mu",
             "nan-bound-horizon", "inf-bound-horizon", "nan-bound-base", "nan-bound-mu",
             "nan-bound-k", "negative-bound-k", "inf-bound-l-star", "negative-bound-l-star",
             "inf-ml-tol", "nan-ml-tol", "zero-ml-tol", "inf-laplace-tol", "nan-laplace-tol",
             "zero-laplace-tol", "nan-verify-tol", "inf-verify-tol"],
    )
    def test_one_line_on_stderr_and_exit_two(self, argv, error, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # a solve that got through would write here
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--nonlinear", "--g", "nope"], "unknown --g registry entry 'nope'"),
            (["--linear"], "--linear requires --lambda"),
            (["--nonlinear"], "--nonlinear requires --g or --g-affine"),
            (["--nonhomogeneous", "--forcing-const", "1"], "--nonhomogeneous requires --lambda"),
            (["--nonhomogeneous", "--lambda", "0.1"],
             "--nonhomogeneous requires --forcing-csv or --forcing-const"),
        ],
        ids=["unknown-g", "linear-without-lambda", "nonlinear-without-g", "nonhomogeneous-without-lambda",
             "nonhomogeneous-without-forcing"],
    )
    def test_incomplete_solve_flags(self, flags, message, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--mu", "0.5", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_uncertified_contour(self, monkeypatch, tmp_path, capsys):
        def refuse(spec):
            raise ContourError("a zero of D lies inside the contour")

        monkeypatch.setattr(solvers, "solve_linear_series", refuse)
        argv = ["solve", "--linear", "--series", "--lambda", "0.5", "--mu", "0.5",
                "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: ContourError: a zero of D lies inside the contour\n"

    def test_nan_from_right_hand_side(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "_nonlinear_registry", lambda name, a: lambda w, u: math.nan)
        argv = ["solve", "--nonlinear", "--g", "nan", "--mu", "0.5", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NonFiniteError: right-hand side is nan at index 0")
        assert err.count("\n") == 1
        assert not (tmp_path / "solution.json").exists()


class TestLongHorizonSeries:
    def test_series_route_runs_past_512_terms(self, tmp_path):
        code = main(
            [
                "solve", "--linear", "--series", "--lambda", "0.9", "--mu", "0.6",
                "--nu", "0.5", "--steps", "600", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        meta = json.loads((tmp_path / "solution.json").read_text())
        assert meta["solver"] == "linear-series"
        assert meta["overflow_at"] is None
        # symbol samples: M/2 + 1 for M = 9720, the even 5-smooth length >= 16 * 601
        assert meta["terms_used"] == 4861


class TestRelativeResidual:
    @pytest.mark.parametrize(
        "argv",
        [
            # absolute residual 6e109 on a trajectory right to 1e-10
            ["--linear", "--series", "--lambda", "0.9", "--mu", "0.6",
             "--nu", "0.5", "--steps", "600"],
            ["--linear", "--lambda", "0.1", "--mu", "0.8", "--nu", "0.5",
             "--steps", "30"],
            ["--nonhomogeneous", "--lambda", "-0.3", "--mu", "0.4",
             "--nu", "0.75", "--forcing-const", "2", "--steps", "40"],
            # negative lam: the series routes cancelled to garbage here
            ["--mu", "0.5", "--linear", "--series", "--lambda", "-0.9", "--steps", "200"],
            ["--mu", "0.5", "--nonhomogeneous", "--lambda", "-0.9", "--forcing-const",
             "0.4", "--steps", "300"],
        ],
    )
    def test_relative_residual_is_written(self, argv, tmp_path):
        assert main(["solve", *argv, "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "solution.json").read_text())
        assert 0.0 <= meta["max_relative_residual"] <= 1e-12


class TestLaplaceZeroFirstSample:
    def test_ramp_transform_and_identities(self, capsys):
        code = main(["laplace", "--y", "2", "--f-kind", "ramp"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["transform"] - 0.25) < 1e-10
        assert payload["fractional_sum_identity"]["error"] < 1e-8
        assert payload["hilfer_identity"]["error"] < 1e-8


_NO_SCIPY = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from hilfer_dfc import cli
out = sys.argv[1]
runs = [
    ["verify", "--only", "ml-", "--out", out],
    ["solve", "--linear", "--series", "--lambda", "0.4", "--mu", "0.6", "--nu", "0.5",
     "--steps", "50", "--out", out],
    ["ml", "--bold", "--mu", "0.7", "--eta", "0.8", "--gamma", "1.3", "--lambda", "0.4",
     "--z", "12"],
    ["laplace", "--y", "2"],
    ["bound", "--a", "0.3", "--T", "20.3", "--mu", "0.4"],
]
codes = [cli.main(argv) for argv in runs]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy" and sys.modules[name])
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


class TestWithoutScipy:
    # "block" fails on any scipy import; "free" fails on one that is
    # caught and falls back, since scipy is then loaded
    @pytest.mark.parametrize("mode", ["block", "free"])
    def test_cli_commands_load_no_scipy(self, mode, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY, str(tmp_path), mode],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0, 0, 0, 0], "scipy": []}
