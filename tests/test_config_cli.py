"""Tests for config parsing and the command-line interface.

CLI commands are exercised in-process through cli.main(argv) so exit
codes and emitted files are asserted directly.
"""

import csv
import dataclasses
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import stefansim.cli as cli
import stefansim.config as config
import stefansim.oracle as oracle
import stefansim.similarity as similarity
from stefansim.cli import main
from stefansim.config import (
    DimensionlessProblem,
    build_run_config,
    load_config,
    parse_config_text,
    reduced_problem,
)
from stefansim.errors import ConfigError, InvalidInput, NonConvergence
from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
)
from stefansim.similarity import solve_problem, y_from_psi

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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

# Solver tolerances that were keys and are now constants, the oracle's
# time-stepping weight, which is now always Crank-Nicolson, its time window,
# now the constants oracle.T_START and T_END, and the output directory,
# which only --out sets.
REMOVED_KEYS = (
    "solver.abs_tol = 1e-10",
    "solver.rel_tol = 1e-12",
    "solver.max_iter = 200",
    "oracle.picard_tol = 1e-10",
    "oracle.picard_max_iter = 50",
    "oracle.theta_scheme = 1",
    "oracle.t_start = 0.01",
    "oracle.t_end = 1.0",
    "output.dir = results",
)


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
        # solver.table_nodes sized a profile table that no longer exists;
        # REMOVED_KEYS set what is now a constant or left to --out.
        for line in ("problem.stf = 1.0", "solver.table_nodes = 129", *REMOVED_KEYS):
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config_text(line + "\n")

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
            "oracle": oracle.OracleConfig,
        }
        text = "".join(
            f"{section}.{field.name} = 1\n"
            for section, cls in sections.items()
            for field in dataclasses.fields(cls)
        )
        assert len(parse_config_text(text)) == 10
        assert len(config._KNOWN_KEYS) == 22
        # The reduced problem's base and sweep keys, from its fields' metadata.
        reduced = [f for f in dataclasses.fields(DimensionlessProblem) if f.name != "kind"]
        derived = {f"{f.metadata.get('section', 'problem')}.{f.name}" for f in reduced}
        derived |= {f"sweep.{f.name}" for f in reduced}
        known = {
            key for key in config._KNOWN_KEYS
            if key.startswith(("problem.", "sweep.")) or key == "source.feedback"
        }
        assert derived == known - {"problem.dimensionless"}

    def test_oracle_config_has_no_scheme_weight(self):
        # The oracle always steps Crank-Nicolson; the weight is not a field.
        with pytest.raises(TypeError):
            oracle.OracleConfig(theta_scheme=1.0)


class TestBuild:
    def test_dimensionless_problem(self):
        cfg = build_run_config(parse_config_text(DIMLESS_EXP))
        assert cfg.sweep == []
        assert isinstance(cfg.source, ExponentialSource)
        assert cfg.material.latent_heat == 1.0
        assert cfg.boundary.theta0 == 1.0 and cfg.boundary.theta_f == 0.0
        assert cfg.oracle is None

    def test_dimensional_problem(self):
        cfg = build_run_config(parse_config_text(DIMENSIONAL_NONE))
        assert cfg.sweep == []
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
        assert cfg.sweep == [
            DimensionlessProblem(ste=ste, delta=1.0, p=1.0, kind="exponential")
            for ste in (0.5, 1.0)
        ]

    def test_sweep_lists_sorted(self):
        cfg = build_run_config(parse_config_text(DIMLESS_EXP + "sweep.ste = 2, 0.5, 1\n"))
        assert [case.ste for case in cfg.sweep] == [0.5, 1.0, 2.0]

    def test_model_invariants_surface(self):
        text = DIMENSIONAL_NONE.replace("boundary.theta0 = 285.05",
                                        "boundary.theta0 = 270.0")
        with pytest.raises(InvalidInput, match="theta0"):
            build_run_config(parse_config_text(text))

    def test_oracle_defaults_are_the_dataclass_defaults(self):
        text = DIMLESS_EXP.replace("oracle.enabled = false\n", "")
        cfg = build_run_config(parse_config_text(text))
        assert cfg.oracle == oracle.OracleConfig()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize(
        "text, message",
        [
            (DIMLESS_EXP.replace("problem.ste = 1.0", "problem.ste = abc"), "not a number"),
            (DIMLESS_EXP.replace("= true", "= yes"), "expected true or false"),
            (DIMLESS_EXP + "sweep.ste = 1.0,,2.0\n", "empty entry in list"),
            (DIMLESS_EXP + "sweep.ste = 1.0, x\n", "not a number list"),
            (DIMLESS_EXP + "sweep.ste = 1.0, inf\n", "entries must be finite"),
            (
                DIMENSIONAL_NONE.replace("material.k0 = 0.6\n", ""),
                "missing required config key 'material.k0'",
            ),
            (
                DIMLESS_EXP.replace("source.kind = exponential\n", ""),
                "missing required config key 'source.kind'",
            ),
            (
                DIMLESS_EXP.replace("= exponential", "= solar"),
                "source.kind: expected one of none, exponential, feedback, got 'solar'",
            ),
            (
                DIMLESS_EXP + "sweep.feedback = 1.0, 2.0\n",
                "sweep.feedback requires source.kind = feedback",
            ),
            (
                DIMENSIONAL_NONE + "source.lambda0 = 1.0\n",
                "source.lambda0 requires source.kind = feedback",
            ),
            (
                DIMLESS_EXP + "oracle.n_space = 64\n",
                "oracle.n_space given but oracle.enabled = false",
            ),
            (
                DIMLESS_EXP.replace("problem.ste = 1.0", "problem.ste = inf"),
                "problem.ste: must be finite, got 'inf'",
            ),
        ],
    )
    def test_config_error_messages(self, text, message):
        with pytest.raises(ConfigError) as err:
            build_run_config(parse_config_text(text))
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((0.0, 1.0, 1.0, "none", None), InvalidInput,
             "ste must be a finite positive number, got 0.0"),
            ((-1.0, 1.0, 1.0, "none", None), InvalidInput,
             "ste must be a finite positive number, got -1.0"),
            ((1.0, 1.0, 1.0, "custom", None), ConfigError,
             "source.kind: expected one of none, exponential, feedback, got 'custom'"),
            ((1.0, 1.0, 1.0, "none", 2.0), ConfigError,
             "source.feedback requires source.kind = feedback"),
        ],
        ids=["ste-zero", "ste-negative", "unknown-kind", "stray-coupling"],
    )
    def test_reduced_problem_errors_are_typed(self, args, error, message):
        with pytest.raises(error) as err:
            reduced_problem(*args)
        assert str(err.value) == message


DIMENSIONAL_FEEDBACK = DIMENSIONAL_NONE.replace(
    "source.kind = none", "source.kind = feedback\nsource.lambda0 = 0.5"
)
DIMLESS_FEEDBACK = DIMLESS_EXP.replace(
    "source.kind = exponential", "source.kind = feedback\nsource.feedback = 1.0"
)
DIMLESS_ORACLE = DIMLESS_EXP.replace("oracle.enabled = false", "oracle.enabled = true")


def with_key(text, key, value):
    """The raw pairs of text with key set to value, last in file order."""
    raw = parse_config_text(text)
    raw.pop(key, None)
    raw[key] = value
    return raw


def scope_cases():
    """(key, value, config with its switch on, config with it off, message)."""
    physical = parse_config_text(DIMENSIONAL_FEEDBACK)
    for key in config._PHYSICAL_KEYS:
        yield (key, physical[key], DIMENSIONAL_FEEDBACK, DIMLESS_EXP,
               "not allowed when problem.dimensionless = true")
    for key in config._REDUCED_KEYS:
        value = "0.5, 1.0" if key.startswith("sweep.") else "1.0"
        yield (key, value, DIMLESS_FEEDBACK, DIMENSIONAL_FEEDBACK,
               "requires problem.dimensionless = true")
    for key in config._FEEDBACK_KEYS:
        if key in config._PHYSICAL_KEYS:
            on, off = DIMENSIONAL_FEEDBACK, DIMENSIONAL_NONE
        else:
            on, off = DIMLESS_FEEDBACK, DIMLESS_EXP
        value = "0.5, 1.0" if key.startswith("sweep.") else "0.5"
        yield key, value, on, off, "requires source.kind = feedback"
    defaults = oracle.OracleConfig()
    for f in dataclasses.fields(defaults):
        yield (f"oracle.{f.name}", str(getattr(defaults, f.name)), DIMLESS_ORACLE, DIMLESS_EXP,
               "given but oracle.enabled = false")


SCOPE_CASES = list(scope_cases())


@pytest.mark.parametrize(
    "key, value, on, off, message",
    SCOPE_CASES,
    ids=[f"{case[0]}-{case[4].split()[-3]}" for case in SCOPE_CASES],
)
def test_switch_admits_its_keys(key, value, on, off, message):
    # Each key is accepted with its switch on and rejected, by name, with it off.
    build_run_config(with_key(on, key, value))
    with pytest.raises(ConfigError) as err:
        build_run_config(with_key(off, key, value))
    assert str(err.value) == f"{key} {message}"


def test_first_offending_key_in_file_order_is_reported():
    text = DIMLESS_EXP + "oracle.n_space = 64\nmaterial.rho = 1.0\n"
    with pytest.raises(ConfigError) as err:
        build_run_config(parse_config_text(text))
    assert str(err.value) == "oracle.n_space given but oracle.enabled = false"


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

    def test_feedback_coupling_printed(self, tmp_path, capsys):
        text = DIMLESS_EXP.replace("source.kind = exponential",
                                   "source.kind = feedback\nsource.feedback = 1.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        feedback = [line for line in lines if line.startswith("feedback = ")]
        assert len(feedback) == 1
        assert float(feedback[0].split("=", 1)[1]) == pytest.approx(1.0, rel=1e-12)

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
        for line in ("problem.bogus = 1", "solver.table_nodes = 129", *REMOVED_KEYS):
            cfg = write_cfg(tmp_path, DIMLESS_EXP + line + "\n")
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
            ("oracle.n_space = 1e3", "not an integer"),
        ],
    )
    def test_exit_2_on_mistyped_field(self, tmp_path, capsys, line, message):
        text = DIMLESS_EXP.replace("oracle.enabled = false\n", line + "\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_exit_2_on_missing_file(self, capsys):
        assert main(["solve", "--config", "/no/such.cfg"]) == 2

    def test_exit_2_on_unwritable_out(self, tmp_path, capsys):
        # --out names an existing file, so the output directory cannot be made.
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg = write_cfg(tmp_path, DIMLESS_EXP)
        assert main(["solve", "--config", cfg, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write '{taken}")


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
        sol = solve_problem(run.material, run.boundary, run.source)
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

    def test_solver_error_leaves_no_profile(self, tmp_path, capsys, monkeypatch):
        # Every y is computed before profile.csv is opened.
        def failing(sol, etas):
            raise NonConvergence("planted")

        monkeypatch.setattr(similarity.SimilaritySolution, "y_many", failing)
        cfg = write_cfg(tmp_path, DIMLESS_EXP)
        assert main(["profile", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out" / "profile.csv").exists()

    def test_peak_memory_bounded(self, tmp_path):
        # 2e5 rows peaked at about 150 MB when every row was held as text;
        # the rows are now formatted as they are written.
        config = os.path.join(ROOT, "configs", "exponential.cfg")
        code, max_rss_kib = child_main_peak(
            ["profile", "--config", config, "--t", "1", "--points", "200000",
             "--out", str(tmp_path)]
        )
        assert code == "0"
        assert len(read_csv(tmp_path / "profile.csv")) == 200001
        assert max_rss_kib < 100 * 1024


def test_in_process_calls_share_no_state(tmp_path, capsys):
    # One argument parser serves every call of main in a process.
    cfg = write_cfg(tmp_path, DIMLESS_EXP)
    out = ["--out", str(tmp_path)]
    assert main(["profile", "--config", cfg, "--t", "0.5", *out]) == 0
    assert {row[0] for row in read_csv(tmp_path / "profile.csv")[1:]} == {"0.5"}
    assert main(["profile", "--config", cfg, *out]) == 0
    assert {row[0] for row in read_csv(tmp_path / "profile.csv")[1:]} == {"1"}
    with pytest.raises(SystemExit) as info:
        main(["profile", "--config", cfg, "--bogus", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["solve", "--config", cfg, *out]) == 0
    assert cli._build_parser() is cli._build_parser()


def child_main_peak(argv):
    """(exit code, peak RSS in KiB) of cli.main(argv) run in a child process.

    Linux starts a process's ru_maxrss at the peak of the process it was
    started from, so the run goes through a small launcher, not straight
    from this test process.
    """
    script = textwrap.dedent(
        """
        import resource, sys
        from stefansim.cli import main
        code = main(sys.argv[1:])
        print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """
    )
    launcher = "import subprocess, sys; subprocess.run([sys.executable, *sys.argv[1:]], check=True)"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run(
        [sys.executable, "-c", launcher, "-c", script, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    code, max_rss_kib = done.stdout.split()[-2:]
    return code, int(max_rss_kib)


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
            "oracle.enabled = false", "oracle.n_space = 16\noracle.n_time = 16"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 4
        rows = read_csv(tmp_path / "verify.csv")
        failed = [row[0] for row in rows[1:] if row[3] == "false"]
        assert "oracle_front_rel_err" in failed

    def test_peak_memory_bounded(self, tmp_path):
        # A 64 x 8192 oracle peaked at 107 MB with about eleven trajectory
        # arrays alive; the run now maps w to temperatures in place, and the
        # map and compare work in blocks of rows.
        text = DIMLESS_EXP.replace(
            "oracle.enabled = false", "oracle.n_space = 64\noracle.n_time = 8192"
        )
        cfg = write_cfg(tmp_path, text)
        code, max_rss_kib = child_main_peak(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert code == "0"
        names = [row[0] for row in read_csv(tmp_path / "verify.csv")[1:]]
        assert "oracle_temp_max_err" in names
        assert max_rss_kib < 90 * 1024

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

    def test_pool_never_outnumbers_cases(self, tmp_path, monkeypatch):
        # The stand-in pool maps in this process, so no worker is started.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        text = DIMLESS_EXP + "sweep.ste = 0.5, 1.0, 2.0\nsweep.delta = 0.1, 1.0\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--workers", "1000000"]) == 0
        assert sizes == [6]
        assert len(read_csv(tmp_path / "sweep.csv")) == 7

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

    def test_zero_ste_recorded_in_row(self, tmp_path):
        text = DIMLESS_EXP.replace("problem.ste = 1.0\n", "") + "sweep.ste = 0, 1\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        statuses = [row[7] for row in read_csv(tmp_path / "sweep.csv")[1:]]
        assert statuses == [
            "error: InvalidInput: ste must be a finite positive number, got 0.0", "ok",
        ]

    def test_all_failures_exit_3(self, tmp_path, capsys):
        text = DIMLESS_EXP + "sweep.delta = -1.0, -2.0\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_sweep_without_lists_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DIMLESS_EXP)
        assert main(["sweep", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["profile"], ["verify"], ["sweep"]],
    ids=["solve", "profile", "verify", "sweep"],
)
def test_scheme_weight_exits_2_on_every_command(tmp_path, capsys, argv):
    # A config written for the former default still names the weight; every
    # command that runs the config without it refuses it by name, before it
    # writes anything.
    text = DIMLESS_ORACLE + "sweep.ste = 0.5, 1.0\n"
    assert main([*argv, "--config", write_cfg(tmp_path, text), "--out", str(tmp_path)]) == 0
    cfg = write_cfg(tmp_path, text + "oracle.theta_scheme = 0.5\n", "old.cfg")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line ")
    assert "unknown config key 'oracle.theta_scheme'" in err
    assert not out.exists()


@pytest.mark.parametrize("line", REMOVED_KEYS[-3:], ids=["t_start", "t_end", "output-dir"])
@pytest.mark.parametrize(
    "argv",
    [["solve"], ["profile"], ["verify"], ["sweep"]],
    ids=["solve", "profile", "verify", "sweep"],
)
def test_removed_keys_exit_2_on_every_command(tmp_path, capsys, argv, line):
    text = DIMLESS_ORACLE + "sweep.ste = 0.5, 1.0\n" + line + "\n"
    out = tmp_path / "out"
    assert main([*argv, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    key = line.split(" = ")[0]
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# Address-space limit of the child that runs an oversized command.  Without
# the size caps these commands allocate gigabytes and fail with MemoryError
# (exit 1); with them they are refused before any allocation.
CHILD_ADDRESS_LIMIT = 1 << 30


def main_limited(argv: list[str]) -> subprocess.CompletedProcess:
    """Run cli.main(argv) in a child interpreter under CHILD_ADDRESS_LIMIT."""
    script = textwrap.dedent(
        f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_LIMIT}, {CHILD_ADDRESS_LIMIT}))
        from stefansim.cli import main
        sys.exit(main({argv!r}))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "line, argv, message",
    [
        ("oracle.n_space = 1000000000", ["verify"], "exceeds 16777216 values"),
        ("oracle.n_time = 20000000", ["verify"], "exceeds 16777216 values"),
        ("", ["profile", "--points", "1000000000"], "profile.csv holds at most 1000000"),
        ("", ["profile", "--t", "0.5,1", "--points", "500001"], "2 x 500001 rows"),
    ],
    ids=["oracle-n_space", "oracle-n_time", "profile-points", "profile-rows"],
)
def test_oversized_run_exits_2(tmp_path, line, argv, message):
    cfg = write_cfg(tmp_path, DIMLESS_ORACLE + line + "\n")
    done = main_limited([*argv, "--config", cfg, "--out", str(tmp_path)])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("config error: ")
    assert message in done.stderr


SWEEP_NO_BASE = DIMLESS_EXP.replace("problem.ste = 1.0\n", "") + "sweep.ste = 0.5, 1.0\n"


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (DIMLESS_EXP, ["profile", "--t", "0.5,nan"], "--t: times must be finite and positive"),
        (DIMLESS_EXP, ["profile", "--t", "0.5,inf"], "--t: times must be finite and positive"),
        (DIMLESS_EXP, ["profile", "--t", ","], "--t: empty time list"),
        (SWEEP_NO_BASE, ["solve"], "config leaves swept parameters without base values"),
        (SWEEP_NO_BASE, ["sweep", "--workers", "0"], "--workers must be at least 1"),
        (
            DIMLESS_EXP.replace("problem.ste = 1.0", "problem.ste = 0"),
            ["solve"],
            "ste must be a finite positive number, got 0.0",
        ),
        (
            DIMLESS_EXP.replace("problem.ste = 1.0", "problem.ste = 1e-310"),
            ["solve"],
            "1/ste must be a finite positive number, got inf",
        ),
    ],
    ids=["t-nan", "t-inf", "t-empty", "solve-sweep-config", "workers-0", "ste-zero", "ste-tiny"],
)
def test_usage_errors_exit_2(tmp_path, capsys, text, argv, message):
    cfg = write_cfg(tmp_path, text)
    assert main([*argv, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
