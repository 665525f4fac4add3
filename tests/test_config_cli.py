"""Tests for config parsing and the command-line interface.

CLI commands are exercised in-process through cli.main(argv) so exit
codes and emitted files are asserted directly.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

import stefansim.oracle as oracle
from stefansim.cli import main
from stefansim.config import build_run_config, load_config, parse_config_text
from stefansim.errors import ConfigError, InvalidInput
from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
)
from stefansim.numerics import Tolerance
from stefansim.similarity import solve_problem, y_from_psi

EXP_LAM_111 = 0.6457803612217943

DIMLESS_EXP = """
problem.dimensionless = true
problem.ste = 1.0
problem.delta = 1.0
problem.p = 1.0
source.kind = exponential
oracle.enabled = false
"""

DIMENSIONAL_NONE = """
material.rho = 1000.0
material.c0 = 4200.0
material.k0 = 0.6
material.latent_heat = 334000.0
material.delta = 0.5
material.p = 1.0
boundary.theta0 = 285.05
boundary.theta_f = 273.15
source.kind = none
oracle.enabled = false
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestParse:
    def test_comments_and_blanks_ignored(self):
        raw = parse_config_text("# c\n\nproblem.ste = 1.0  # trailing\n")
        assert raw == {"problem.ste": "1.0"}

    def test_unknown_key_rejected(self):
        # solver.table_nodes sized a profile table that no longer exists.
        for text in ("problem.stf = 1.0\n", "solver.table_nodes = 129\n"):
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config_text(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("problem.ste = 1\nproblem.ste = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("problem.ste 1.0\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config_text("problem.ste =\n")

    def test_every_dataclass_field_is_a_key(self):
        sections = {
            "material": Material,
            "boundary": BoundaryData,
            "solver": Tolerance,
            "oracle": oracle.OracleConfig,
        }
        text = "".join(
            f"{section}.{field.name} = 1\n"
            for section, cls in sections.items()
            for field in dataclasses.fields(cls)
        )
        assert len(parse_config_text(text)) == 18


class TestBuild:
    def test_dimensionless_problem(self):
        cfg = build_run_config(parse_config_text(DIMLESS_EXP))
        assert cfg.reduced is not None
        assert isinstance(cfg.source, ExponentialSource)
        assert cfg.material.latent_heat == 1.0
        assert cfg.boundary.theta0 == 1.0 and cfg.boundary.theta_f == 0.0
        assert cfg.oracle is None

    def test_dimensional_problem(self):
        cfg = build_run_config(parse_config_text(DIMENSIONAL_NONE))
        assert cfg.reduced is None
        assert isinstance(cfg.source, NoSource)
        assert cfg.material.rho == 1000.0

    def test_feedback_mapping(self):
        text = DIMLESS_EXP.replace("source.kind = exponential",
                                   "source.kind = feedback\nsource.feedback = 1.0")
        cfg = build_run_config(parse_config_text(text))
        assert isinstance(cfg.source, FluxFeedbackSource)
        # A = 2 lambda0 / (rho c0 a) = 2 lambda0 in reduced units.
        assert cfg.source.lambda0 == 0.5

    def test_mixed_modes_rejected(self):
        with pytest.raises(ConfigError, match="not allowed"):
            build_run_config(parse_config_text(DIMLESS_EXP + "material.rho = 1.0\n"))
        with pytest.raises(ConfigError, match="dimensionless"):
            build_run_config(parse_config_text(DIMENSIONAL_NONE + "problem.ste = 1.0\n"))

    def test_missing_required_key(self):
        text = DIMLESS_EXP.replace("problem.ste = 1.0\n", "")
        with pytest.raises(ConfigError, match="problem.ste"):
            build_run_config(parse_config_text(text))

    def test_feedback_value_requires_feedback_kind(self):
        with pytest.raises(ConfigError, match="source.feedback"):
            build_run_config(parse_config_text(DIMLESS_EXP + "source.feedback = 1.0\n"))

    def test_sweep_requires_dimensionless(self):
        with pytest.raises(ConfigError, match="sweep"):
            build_run_config(parse_config_text(DIMENSIONAL_NONE + "sweep.ste = 1,2\n"))

    def test_sweep_allows_omitted_base(self):
        text = DIMLESS_EXP.replace("problem.ste = 1.0\n", "") + "sweep.ste = 0.5, 1\n"
        cfg = build_run_config(parse_config_text(text))
        assert cfg.material is None
        assert cfg.sweep == {"ste": [0.5, 1.0]}
        assert cfg.reduced.ste is None

    def test_sweep_lists_sorted(self):
        cfg = build_run_config(parse_config_text(DIMLESS_EXP + "sweep.ste = 2, 0.5, 1\n"))
        assert cfg.sweep["ste"] == [0.5, 1.0, 2.0]

    def test_model_invariants_surface(self):
        text = DIMENSIONAL_NONE.replace("boundary.theta0 = 285.05",
                                        "boundary.theta0 = 270.0")
        with pytest.raises(InvalidInput, match="theta0"):
            build_run_config(parse_config_text(text))

    def test_solver_and_oracle_defaults_are_the_dataclass_defaults(self):
        text = DIMLESS_EXP.replace("oracle.enabled = false\n", "")
        cfg = build_run_config(parse_config_text(text))
        assert cfg.tol == Tolerance()
        assert cfg.oracle == oracle.OracleConfig()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")


class TestSolveCommand:
    def test_writes_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DIMLESS_EXP)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "summary.csv")
        assert rows[0][:6] == ["source", "ste", "delta", "p", "feedback", "lam"]
        record = dict(zip(rows[0], rows[1]))
        assert float(record["lam"]) == pytest.approx(EXP_LAM_111, abs=1e-9)
        assert float(record["lambda_residual"]) <= 1e-8
        assert float(record["y_prime0"]) < 0.0
        out = capsys.readouterr().out
        assert "lam = " in out

    def test_classical_summary_value(self, tmp_path):
        text = DIMLESS_EXP.replace("problem.delta = 1.0", "problem.delta = 1e-12")
        text = text.replace("source.kind = exponential", "source.kind = none")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        record = dict(zip(*read_csv(tmp_path / "summary.csv")))
        assert float(record["lam"]) == pytest.approx(0.620063, abs=1e-4)

    def test_deterministic_output(self, tmp_path):
        cfg = write_cfg(tmp_path, DIMLESS_EXP)
        main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "summary.csv").read_bytes()
        b = (tmp_path / "b" / "summary.csv").read_bytes()
        assert a == b

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        for line in ("problem.bogus = 1\n", "solver.table_nodes = 129\n"):
            cfg = write_cfg(tmp_path, DIMLESS_EXP + line)
            assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
            assert "unknown config key" in capsys.readouterr().err

    def test_exit_2_on_invalid_physics(self, tmp_path, capsys):
        text = DIMENSIONAL_NONE.replace("boundary.theta0 = 285.05",
                                        "boundary.theta0 = 270.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg]) == 2
        assert "theta0" in capsys.readouterr().err

    def test_exit_2_on_zero_feedback(self, tmp_path, capsys):
        text = DIMLESS_EXP.replace("source.kind = exponential",
                                   "source.kind = feedback\nsource.feedback = 0.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg]) == 2
        assert "lambda0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("solver.max_iter = 2.5", "not an integer"),
            ("oracle.n_space = 1e3", "not an integer"),
            ("oracle.t_end = inf", "must be finite"),
        ],
    )
    def test_exit_2_on_mistyped_field(self, tmp_path, capsys, line, message):
        text = DIMLESS_EXP.replace("oracle.enabled = false\n", line + "\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_exit_2_on_missing_file(self, capsys):
        assert main(["solve", "--config", "/no/such.cfg"]) == 2


class TestProfileCommand:
    def test_rows_ordered_and_bounded(self, tmp_path):
        cfg = write_cfg(tmp_path, DIMLESS_EXP)
        code = main([
            "profile", "--config", cfg, "--out", str(tmp_path),
            "--t", "1.0,0.25", "--points", "7",
        ])
        assert code == 0
        rows = read_csv(tmp_path / "profile.csv")
        assert rows[0] == ["t", "x", "eta", "y", "theta"]
        body = [[float(v) for v in row] for row in rows[1:]]
        assert len(body) == 14
        # Ordered by (t, x); times sorted ascending even though given unsorted.
        keys = [(row[0], row[1]) for row in body]
        assert keys == sorted(keys)
        for t_block in (0.25, 1.0):
            block = [row for row in body if row[0] == t_block]
            assert block[0][4] == 1.0  # theta0 at x = 0
            assert abs(block[-1][4]) <= 1e-8  # theta_f at the front
            for _, x, eta, y, theta in block:
                assert eta == pytest.approx(x / (2.0 * math.sqrt(t_block)), rel=1e-12)
                assert theta == pytest.approx(y, rel=0, abs=1e-15)  # unit span
        # The y column is the exact profile at the printed eta, digit for digit.
        run = load_config(cfg)
        sol = solve_problem(run.material, run.boundary, run.source, run.tol)
        for t_block in ("0.25", "1"):
            block = [row for row in rows[1:] if row[0] == t_block]
            etas = np.array([float(row[2]) for row in block])
            assert len(etas) == 7
            assert [row[3] for row in block] == ["%.17g" % y for y in y_from_psi(sol.psi, etas)]

    def test_bad_time_list(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DIMLESS_EXP)
        assert main(["profile", "--config", cfg, "--t", "0,-1"]) == 2
        assert main(["profile", "--config", cfg, "--t", "abc"]) == 2
        assert main(["profile", "--config", cfg, "--points", "1"]) == 2


class TestVerifyCommand:
    def test_passes_without_oracle(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DIMLESS_EXP)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "verify.csv")
        assert rows[0] == ["check", "value", "threshold", "passed"]
        names = [row[0] for row in rows[1:]]
        assert "lambda_residual" in names
        assert "ode_residual" in names
        assert "closed_form_vs_quadrature" in names
        assert all(row[3] == "true" for row in rows[1:])

    def test_passes_with_default_oracle(self, tmp_path):
        cfg = write_cfg(tmp_path, DIMLESS_EXP.replace("oracle.enabled = false", ""))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        names = [row[0] for row in read_csv(tmp_path / "verify.csv")[1:]]
        assert "oracle_front_rel_err" in names

    def test_exit_4_when_check_fails(self, tmp_path, capsys):
        # A deliberately coarse oracle grid cannot meet the fixed gates.
        text = DIMLESS_EXP.replace(
            "oracle.enabled = false", "oracle.n_space = 16\noracle.n_time = 256"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 4
        rows = read_csv(tmp_path / "verify.csv")
        failed = [row[0] for row in rows[1:] if row[3] == "false"]
        assert "oracle_front_rel_err" in failed


    def test_exit_3_when_oracle_solve_fails(self, tmp_path, capsys, monkeypatch):
        def singular(lower, diag, upper, rhs, *flags):
            return lower, diag, upper, rhs, 1

        monkeypatch.setattr(oracle, "dgtsv", singular)
        text = DIMLESS_EXP.replace(
            "oracle.enabled = false", "oracle.n_space = 16\noracle.n_time = 16"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "solver error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_grid_rows_and_monotonicity(self, tmp_path):
        text = DIMLESS_EXP + "sweep.ste = 0.5, 1.0, 2.0\nsweep.delta = 0.1, 1.0\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == [
            "ste", "delta", "p", "feedback", "lam", "y_prime0",
            "lambda_residual", "status",
        ]
        body = rows[1:]
        assert len(body) == 6
        assert all(row[7] == "ok" for row in body)
        # Lexicographic (ste, delta) order and lam increasing in Ste per slice.
        for delta in ("0.1", "1"):
            slice_lams = [
                float(row[4]) for row in body if float(row[1]) == float(delta)
            ]
            assert slice_lams == sorted(slice_lams)
            assert len(set(slice_lams)) == 3

    def test_single_tuple_matches_solve(self, tmp_path):
        cfg = write_cfg(tmp_path, DIMLESS_EXP + "sweep.ste = 1.0\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = dict(zip(*read_csv(tmp_path / "sweep.csv")))
        main(["solve", "--config", write_cfg(tmp_path, DIMLESS_EXP, "s.cfg"),
              "--out", str(tmp_path)])
        summary = dict(zip(*read_csv(tmp_path / "summary.csv")))
        assert row["lam"] == summary["lam"]
        assert row["y_prime0"] == summary["y_prime0"]

    def test_workers_do_not_change_bytes(self, tmp_path):
        text = DIMLESS_EXP + "sweep.ste = 0.5, 1.0, 2.0\n"
        cfg = write_cfg(tmp_path, text)
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"])
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "w2"), "--workers", "2"])
        assert (tmp_path / "w1" / "sweep.csv").read_bytes() == (
            tmp_path / "w2" / "sweep.csv"
        ).read_bytes()

    def test_failures_recorded_in_row(self, tmp_path):
        # delta = -1 violates a model invariant per-tuple, not globally.
        text = DIMLESS_EXP + "sweep.delta = -1.0, 1.0\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        body = read_csv(tmp_path / "sweep.csv")[1:]
        statuses = {row[1]: row[7] for row in body}
        assert statuses["-1"] == (
            "error: InvalidInput: delta must be a finite positive number, got -1.0"
        )
        assert statuses["1"] == "ok"

    def test_all_failures_exit_3(self, tmp_path, capsys):
        text = DIMLESS_EXP + "sweep.delta = -1.0, -2.0\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_sweep_without_lists_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DIMLESS_EXP)
        assert main(["sweep", "--config", cfg]) == 2
