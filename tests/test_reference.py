"""Flux-feedback lam and Psi against a committed high-precision table.

tests/data/reference.json holds 30-digit mpmath values written by
tools/mp_reference.py.  That script solves the unscaled front equation,
built from integrals of e^{z^2}, and never uses Dawson's function, so it is
independent of the scaled form in stefansim.similarity.  These tests only
read the file; `python tools/mp_reference.py --check` recomputes it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from stefansim.model import BoundaryData, FluxFeedbackSource, Material
from stefansim.similarity import solve_problem

TABLE = json.loads((Path(__file__).parent / "data" / "reference.json").read_text())
CASES = TABLE["cases"]
IDS = [f"ste={c['ste']:g}-delta={c['delta']:g}-p={c['p']:g}-A={c['feedback']:g}" for c in CASES]

LAM_REL_TOL = 1e-11
PSI_ABS_TOL = 1e-10


def solve_case(case):
    # Unit material: a = 1, so the coupling A = 2 lambda0.
    mat = Material(
        rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0 / case["ste"], delta=case["delta"], p=case["p"]
    )
    source = FluxFeedbackSource(lambda0=case["feedback"] / 2.0)
    return solve_problem(mat, BoundaryData(theta0=1.0, theta_f=0.0), source)


def reference_errors(case, model, lam):
    """(relative lam error, largest absolute Psi error) of lam and model.psi(lam)."""
    lam_ref = float(case["lam"])
    psi = model.psi(lam).evaluate_many(np.array(case["eta"]))
    psi_ref = np.array([float(v) for v in case["psi"]])
    return abs(lam - lam_ref) / lam_ref, float(np.max(np.abs(psi - psi_ref)))


def test_table_covers_wide_domain():
    assert TABLE["source"] == "flux-feedback" and TABLE["digits"] == 30
    assert len(CASES) >= 8
    assert {1e2, 1e4} <= {c["ste"] for c in CASES}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_matches_reference(case):
    sol = solve_case(case)
    assert sol.dimensionless.feedback == pytest.approx(case["feedback"], rel=1e-15)
    lam_err, psi_err = reference_errors(case, sol.model, sol.lam)
    assert lam_err <= LAM_REL_TOL
    assert psi_err <= PSI_ABS_TOL


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_perturbed_lam_fails(case):
    sol = solve_case(case)
    lam_err, psi_err = reference_errors(case, sol.model, sol.lam * (1.0 + 1e-9))
    assert lam_err > LAM_REL_TOL
    assert psi_err > PSI_ABS_TOL
