"""Tests of tools/oracle_probe.py: one coarse case, the default-grid verdicts and --grid errors."""

import importlib.util
from pathlib import Path

import pytest

from stefansim.oracle import OracleConfig

PROBE_PATH = Path(__file__).resolve().parents[1] / "tools" / "oracle_probe.py"
_spec = importlib.util.spec_from_file_location("oracle_probe", PROBE_PATH)
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)


def test_probe_case_runs_the_oracle():
    # The 16 x 16 grid is too coarse to pass the oracle thresholds; the
    # smoke test asks only that the case reaches the oracle comparison.
    cfg = OracleConfig(n_space=16, n_time=16)
    outcome, detail = probe.probe_case("none", None, 1.0, 1.0, 1.0, cfg)
    assert outcome in ("pass", "fail"), detail
    front, temp = (float(part) for part in detail.split(" / "))
    assert front >= 0.0 and temp >= 0.0


def test_default_grid_verdicts(capsys):
    # The verdicts of the 135 cases, pinned so that a change to the scheme
    # that moves any of them shows here.
    assert probe.main([]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("135 cases: 126 pass, 7 fail, 0 no closed form, 2 oracle error; ")


@pytest.mark.parametrize("grid", ["128", "8x8"])
def test_bad_grid_exits_2(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        probe.main(["--grid", grid])
    assert exc.value.code == 2
    assert f"argument --grid: expected NSPACExNTIME, got {grid!r}" in capsys.readouterr().err
