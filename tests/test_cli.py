"""End-to-end tests of the command-line interface (in-process)."""

import json
import math
import warnings

import numpy as np
import pytest

from hkfrac import cli, specfun
from hkfrac.analytic import LinearProblemSpec, homogeneous_solution
from hkfrac.errors import ValidationError
from hkfrac.frame import make_params
from hkfrac.solver import picard_solve

HOMOGENEOUS_CONFIG = """\
# homogeneous problem: D^(a,b) phi = -phi
alpha = 0.5
beta = 0.5
rho = 2
a = 1
b = 2
c = 1
lambda = -1
source = 0
n = 256
tol = 1e-9
"""

FREE_TERM_CONFIG = """\
alpha = 0.5
beta = 0.5
rho = 1
a = 1
b = 2
c = 3
lambda = 0
source = 0
n = 64
"""

SINGULAR_SOURCE_CONFIG = """\
alpha = 0.3
beta = 0
rho = 2
a = 1
b = 2
c = 1
lambda = -1
source = z^(-0.5)
"""

SMALL_ORDER_CONFIG = """\
alpha = 0.1
beta = 0
rho = 2
a = 1
b = 2
c = 1
lambda = -0.5
source = 0
n = 1024
"""


class TestMlCommand:
    def test_exponential(self, capsys):
        assert cli.main(["ml", "--alpha", "1", "--beta", "1", "--x", "1"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(math.e, rel=1e-12)

    def test_one_parameter_default(self, capsys):
        assert cli.main(["ml", "--alpha", "2", "--x", "1"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(math.cosh(1.0), rel=1e-12)

    def test_golden_point(self, capsys):
        assert cli.main(["ml", "--alpha", "0.5", "--beta", "0.5", "--x", "0.3"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1.000314353400585936183, rel=1e-10)

    def test_seventeen_significant_digits(self, capsys):
        cli.main(["ml", "--alpha", "1", "--beta", "1", "--x", "1"])
        text = capsys.readouterr().out.strip()
        digits = text.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) == 17

    def test_domain_error_exit_code(self, capsys):
        assert cli.main(["ml", "--alpha", "0.5", "--x", "100"]) == 2

    def test_nan_argument_exit_code(self, capsys):
        assert cli.main(["ml", "--alpha", "0.5", "--x", "nan"]) == 2
        assert "series regime" in capsys.readouterr().err

    def test_invalid_parameter_exit_code(self):
        assert cli.main(["ml", "--alpha", "-1", "--x", "0.5"]) == 2

    @pytest.mark.parametrize("field,value", [("alpha", "inf"), ("alpha", "nan"), ("beta", "inf")])
    def test_nonfinite_parameter_exits_2_without_summing(self, capsys, field, value):
        # a non-finite order used to run the series to its term cap, warn, and exit 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["ml", "--alpha", "0.5", f"--{field}", value, "--x", "0.5"]) == 2
        assert f"finite {field}" in capsys.readouterr().err

    def test_malformed_args_exit_code(self, capsys):
        assert cli.main(["ml", "--alpha", "1"]) == 1
        assert "usage" in capsys.readouterr().err


class TestSolveCommand:
    def test_homogeneous_matches_analytic_oracle(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG)
        out = tmp_path / "out.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x,z,phi,weighted_phi"
        assert len(rows) == 1 + 256
        params = make_params(0.5, 0.5, 2.0, 1.0, 2.0)
        spec = LinearProblemSpec(params, -1.0, 1.0)
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        x, z, phi, weighted = data.T
        exact = homogeneous_solution(spec, 2.0)
        assert phi[-1] == pytest.approx(exact, abs=5e-4)
        assert np.allclose(weighted, z ** (1.0 - params.gamma) * phi, rtol=1e-12)

    def test_free_term_gives_constant_weighted_column(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FREE_TERM_CONFIG)
        out = tmp_path / "out.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        weighted = np.array([float(r.split(",")[3]) for r in rows])
        assert np.allclose(weighted, 3.0 / math.gamma(0.75), rtol=1e-12)

    def test_out_of_range_alpha_names_the_bound(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG.replace("alpha = 0.5", "alpha = 1.5"))
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert "0 < alpha < 1" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG + "wibble = 3\n")
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_json_report_revalidates_and_is_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out1), "--format", "json"]) == 0
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out2), "--format", "json"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert set(payload) == {"config", "columns", "report"}
        # the embedded config re-validates against the schema
        cli.validate_config(payload["config"])
        report = payload["report"]
        assert report["converged"] is True
        assert len(payload["columns"]["x"]) == 256
        assert all(w < 1.0 for w in report["contraction_factors"])
        assert len(report["residual_history"]) == len(report["iterations"])

    def test_hadamard_mode_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG.replace("rho = 2", "rho = hadamard"))
        out = tmp_path / "out.json"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["rho"] == "hadamard"
        assert payload["report"]["family"] == "Hilfer-Hadamard"

    def test_nonconvergence_still_writes_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG.replace("tol = 1e-9", "tol = 1e-16\nmax_iters = 2"))
        out = tmp_path / "out.json"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 3
        payload = json.loads(out.read_text())
        assert payload["report"]["converged"] is False

    def test_nonfinite_source_exits_2_without_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            HOMOGENEOUS_CONFIG.replace("source = 0", "source = ln(x - 1.5)").replace("n = 256", "n = 512")
        )
        out = tmp_path / "out.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "not finite at x" in capsys.readouterr().err

    def test_division_by_zero_in_the_source_exits_2_without_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG.replace("source = 0", "source = x + 1/0"))
        out = tmp_path / "out.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "not finite at x" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [512, 4096])
    def test_a_source_singular_at_a_solves_on_the_grids_exact_z(self, tmp_path, n):
        # alpha = 0.3: the leading nodes' x round to a, where z rebuilt from x is 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SINGULAR_SOURCE_CONFIG + f"n = {n}\n")
        out = tmp_path / "out.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.shape == (n, 4) and np.all(np.isfinite(table))
        assert table[0, 0] == 1.0

    def test_a_small_order_solve_meets_its_closed_form(self, tmp_path):
        # alpha = 0.1, beta = 0: with near-band weights that cancel to every
        # digit on the tiny panels near a, this solve converges to phi(2) =
        # -1730.8
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL_ORDER_CONFIG)
        out = tmp_path / "out.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        x, _, phi, _ = np.loadtxt(out, delimiter=",", skiprows=1)[-1]
        exact = homogeneous_solution(LinearProblemSpec(make_params(0.1, 0.0, 2.0, 1.0, 2.0), -0.5, 1.0), 2.0)
        assert x == 2.0 and abs(exact - 0.0306379) <= 1e-7
        assert abs(phi - exact) <= 1e-5

    def test_a_usage_error_between_two_solves_leaves_the_shared_parser_working(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FREE_TERM_CONFIG)
        out = tmp_path / "out.csv"
        argv = ["solve", "--config", str(cfg), "--out", str(out)]
        assert cli.main(argv) == 0
        first = out.read_text()
        out.unlink()
        built = cli._build_parser.cache_info().misses
        assert cli.main(["solve", "--config", str(cfg)]) == 1  # no --out
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert cli.main(argv) == 0
        assert out.read_text() == first
        assert cli._build_parser.cache_info().misses == built  # built once, at the first call

    def test_outputs_hold_the_solution_columns_to_seventeen_digits(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG.replace("source = 0", "source = (0.5*z^(1.5)) - sin(x)"))
        csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(csv_out)]) == 0
        assert cli.main(["solve", "--config", str(cfg), "--out", str(json_out), "--format", "json"]) == 0
        _, problem, config = cli.validate_config(cli.parse_config_text(cfg.read_text()))
        report = picard_solve(problem, config)
        z, phi = report.grid.nodes_z, report.solution.values
        columns = {"x": report.grid.nodes_x, "z": z, "phi": phi,
                   "weighted_phi": report.solution.regular_values}
        rows = [",".join(format(float(v), ".17g") for v in row) for row in zip(*columns.values())]
        assert csv_out.read_text() == "\n".join(["x,z,phi,weighted_phi"] + rows) + "\n"
        got = json.loads(json_out.read_text())["columns"]
        assert got == {name: [float(v) for v in col] for name, col in columns.items()}

    def test_missing_config_file(self, capsys):
        assert cli.main(["solve", "--config", "/nonexistent", "--out", "/tmp/x.csv"]) == 1

    def test_power_weighted_form(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG.replace("beta = 0.5", "beta = 0") + "xi = 0.5\n")
        out = tmp_path / "out.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0

    def test_explicit_lipschitz_constant(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG + "lipschitz = 1\n")
        out = tmp_path / "out.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0

    def test_grid_too_coarse_still_writes_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            HOMOGENEOUS_CONFIG.replace("lambda = -1", "lambda = -10").replace("n = 256", "n = 512")
        )
        out = tmp_path / "out.json"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 3
        assert "grid too coarse" in capsys.readouterr().err
        report = json.loads(out.read_text())["report"]
        assert report["converged"] is False
        assert report["breakpoints"] == [2.0]
        assert report["contraction_factors"] == []
        assert report["residual_history"] == []
        assert report["iterations"] == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_output_is_an_error_line_not_a_traceback(self, tmp_path, capsys, fmt):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FREE_TERM_CONFIG)
        out = tmp_path / "no_such_dir" / f"out.{fmt}"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


class TestConfigParsing:
    def test_comments_and_blank_lines(self):
        config = cli.parse_config_text(
            "# leading comment\n\nalpha = 0.5 # trailing\nbeta=0\nrho = 1\na=1\nb=2\nc=0\n"
        )
        assert config["alpha"] == 0.5 and config["n"] == 512

    def test_duplicate_key(self):
        with pytest.raises(ValidationError, match="duplicate"):
            cli.parse_config_text("alpha = 0.5\nalpha = 0.6\n")

    def test_missing_required(self):
        with pytest.raises(ValidationError, match="missing"):
            cli.parse_config_text("alpha = 0.5\n")

    def test_non_numeric_value(self):
        with pytest.raises(ValidationError, match="needs a number"):
            cli.parse_config_text("alpha = fast\nbeta=0\nrho=1\na=1\nb=2\nc=0\n")

    def test_integer_keys(self):
        with pytest.raises(ValidationError, match="integer"):
            cli.parse_config_text("alpha=.5\nbeta=0\nrho=1\na=1\nb=2\nc=0\nn = 12.5\n")

    @pytest.mark.parametrize(
        "line",
        [
            "n = inf",
            "max_iters = inf",
            "grading = 0.5",
            "grading = nan",
            "b = inf",
            "tol = inf",
            "lambda = inf",
            "c = nan",
            "lipschitz = -1",
        ],
    )
    def test_bad_number_is_a_config_error(self, tmp_path, capsys, line):
        key = line.split("=")[0].strip()
        kept = [l for l in HOMOGENEOUS_CONFIG.splitlines() if l.split("=")[0].strip() != key]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("\n".join(kept + [line]) + "\n")
        out = tmp_path / "o.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"key {key!r}" in err or f"{key} must satisfy" in err
        assert not out.exists()

    def test_a_grid_the_config_cannot_build_is_a_config_error(self, tmp_path, capsys):
        # z_1 = z(b) (1/64)^400 underflows to 0, which the grid refuses
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG.replace("n = 256", "n = 64") + "grading = 400\n")
        out = tmp_path / "o.csv"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "z > 0" in err
        assert not out.exists()

    def test_bad_source_expression_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(HOMOGENEOUS_CONFIG.replace("source = 0", "source = 2 +* x"))
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1


class TestVerifyCommand:
    def test_fast_suites_pass(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "kilbas-saigo", "--json", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "[PASS]" in stdout and "all passed" in stdout
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert all(r["passed"] for r in payload["records"])

    def test_unwritable_json_is_an_error_line_not_a_traceback(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "v.json"
        assert cli.main(["verify", "--suite", "kilbas-saigo", "--json", str(out)]) == 1
        captured = capsys.readouterr()
        assert "all passed" in captured.out
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"

    def test_limits_suite_passes(self):
        assert cli.main(["verify", "--suite", "limits"]) == 0

    def test_power_rule_suite_reports_small_errors(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "power-rule", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        accuracy = [r for r in payload["records"] if "accuracy" in r["case"]]
        assert accuracy
        assert max(r["error"] for r in accuracy) <= 1e-4

    def test_unknown_suite(self, capsys):
        assert cli.main(["verify", "--suite", "bogus"]) == 1

    def test_broken_gamma_negative_control(self, monkeypatch, capsys):
        perturbed = list(specfun._LANCZOS_COEFFS)
        perturbed[1] *= 1.001
        monkeypatch.setattr(specfun, "_LANCZOS_COEFFS", tuple(perturbed))
        assert cli.main(["verify", "--suite", "kilbas-saigo"]) == 3
        assert "[FAIL]" in capsys.readouterr().out

    def test_golden_dir_override(self, monkeypatch, tmp_path, capsys):
        wrong = {
            "ml2": [{"alpha": 1.0, "beta": 1.0, "x": 1.0, "value": "2.9", "tol": 1e-10}],
            "ml_ks": [],
            "linear_solution": [],
        }
        (tmp_path / "golden.json").write_text(json.dumps(wrong))
        monkeypatch.setenv("HKF_GOLDEN_DIR", str(tmp_path))
        assert cli.main(["verify", "--suite", "kilbas-saigo"]) == 3
