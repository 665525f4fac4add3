"""Tests of tools/domain_probe.py: one case's shape and the pinned counts of all 700."""

import importlib.util
from pathlib import Path

PROBE_PATH = Path(__file__).resolve().parents[1] / "tools" / "domain_probe.py"
_spec = importlib.util.spec_from_file_location("domain_probe", PROBE_PATH)
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)


def test_probe_case_passes_unit_case():
    for kind, feedback in probe.SOURCES:
        assert probe.probe_case(kind, feedback, 1.0, 1.0, 1.0) == ("pass", ""), kind


def test_probe_case_names_failed_checks():
    # Ste = 1e-20 puts lam near 7e-11, where front_slope and ode_residual
    # read rounding noise.
    outcome, detail = probe.probe_case("exponential", None, 1e-20, 1.0, 1.0)
    assert outcome == "fail"
    for item in detail.split(", "):
        name, ratio = item.rsplit(" ", 1)
        assert name and float(ratio) > 1.0


def test_extreme_probe_counts(capsys):
    # Every tuple solves: each root that is a double is found, however far
    # e^{lam^2} is past the largest double.  The checks still fail or
    # raise at the extremes of delta and Ste; these counts pin where that
    # stands, as test_oracle_probe pins the oracle probe.
    assert probe.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("700 cases: 66 pass, 471 fail, 0 no closed form, 163 check error; ")
    assert [line for line in lines if line.startswith("error ")] == [
        "error FloatingPointError in run_checks: 163",
    ]
