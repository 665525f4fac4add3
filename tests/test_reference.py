"""lam and Psi against committed high-precision tables.

tests/data/reference.json holds 30-digit mpmath values for the flux-feedback
source, written by tools/mp_reference.py.  That script solves the unscaled
front equation, built from integrals of e^{z^2}, and never uses Dawson's
function, so it is independent of the scaled form in stefansim.similarity.
tests/data/reference_closed_forms.json holds the same values for the
no-source and exponential closed forms, solved with mp.findroot, and
tests/data/reference_custom_beta.json for the similarity source with
beta(eta) = (1 + eta) e^{-eta^2} / 2, integrated with mp.quad, and
tests/data/reference_dawson_integral.json for the integral F of Dawson's
function, from its 2F2 closed form.  These tests only read the files;
`python tools/mp_reference.py --check` recomputes them.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
)
from stefansim.numerics import _F_FAR_CONST, dawson_integral
from stefansim.similarity import solve_problem

DATA = Path(__file__).parent / "data"
TABLE = json.loads((DATA / "reference.json").read_text())
CASES = TABLE["cases"]
IDS = [f"ste={c['ste']:g}-delta={c['delta']:g}-p={c['p']:g}-A={c['feedback']:g}" for c in CASES]
CLOSED_CASES = json.loads((DATA / "reference_closed_forms.json").read_text())["cases"]
CLOSED_IDS = [
    f"{c['source']}-ste={c['ste']:g}-delta={c['delta']:g}-p={c['p']:g}" for c in CLOSED_CASES
]
CLOSED_SOURCES = {"none": NoSource(), "exponential": ExponentialSource()}
CUSTOM_CASES = json.loads((DATA / "reference_custom_beta.json").read_text())["cases"]
CUSTOM_IDS = [f"ste={c['ste']:g}-delta={c['delta']:g}-p={c['p']:g}" for c in CUSTOM_CASES]
CUSTOM_SOURCE = SimilaritySource(lambda eta: 0.5 * (1.0 + eta) * np.exp(-eta * eta))

DAWSON = json.loads((DATA / "reference_dawson_integral.json").read_text())
F_LADDER = [c["x"] for c in DAWSON["cases"]]

LAM_REL_TOL = 1e-11
F_REL_TOL = 1e-14
PSI_ABS_TOL = 1e-10

# (Ste, delta, p) rows of the closed-form and custom-beta tables: the 8
# acceptance-grid corners, the unit case, and two roots with lam^2 just
# below the overflow of e^{lam^2} (about 701 and 703).
CLOSED_ROWS = {
    *itertools.product((0.1, 5.0), (0.1, 5.0), (0.5, 3.0)),
    (1.0, 1.0, 1.0),
    (1e306, 1.0, 1.0),
    (1e307, 1.0, 1.0),
}


def solve_case(case, source=None):
    # Unit material: a = 1, so the coupling A = 2 lambda0.
    mat = Material(
        rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0 / case["ste"], delta=case["delta"], p=case["p"]
    )
    if source is None:
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
    assert sol.model.feedback == pytest.approx(case["feedback"], rel=1e-15)
    lam_err, psi_err = reference_errors(case, sol.model, sol.lam)
    assert lam_err <= LAM_REL_TOL
    assert psi_err <= PSI_ABS_TOL


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_perturbed_lam_fails(case):
    sol = solve_case(case)
    lam_err, psi_err = reference_errors(case, sol.model, sol.lam * (1.0 + 1e-9))
    assert lam_err > LAM_REL_TOL
    assert psi_err > PSI_ABS_TOL


def test_closed_table_covers_acceptance_corners():
    for source in CLOSED_SOURCES:
        rows = [(c["ste"], c["delta"], c["p"]) for c in CLOSED_CASES if c["source"] == source]
        assert len(rows) == len(CLOSED_ROWS) and set(rows) == CLOSED_ROWS


@pytest.mark.parametrize("case", CLOSED_CASES, ids=CLOSED_IDS)
def test_closed_form_matches_reference(case):
    sol = solve_case(case, CLOSED_SOURCES[case["source"]])
    lam_err, psi_err = reference_errors(case, sol.model, sol.lam)
    assert lam_err <= LAM_REL_TOL
    assert psi_err <= PSI_ABS_TOL
    lam_err, psi_err = reference_errors(case, sol.model, sol.lam * (1.0 + 1e-9))
    assert lam_err > LAM_REL_TOL
    assert psi_err > PSI_ABS_TOL


def test_custom_table_covers_acceptance_corners():
    rows = [(c["ste"], c["delta"], c["p"]) for c in CUSTOM_CASES]
    assert len(rows) == len(CLOSED_ROWS) and set(rows) == CLOSED_ROWS


@pytest.mark.parametrize("case", CUSTOM_CASES, ids=CUSTOM_IDS)
def test_custom_beta_matches_reference(case):
    sol = solve_case(case, CUSTOM_SOURCE)
    lam_err, psi_err = reference_errors(case, sol.model, sol.lam)
    assert lam_err <= LAM_REL_TOL
    assert psi_err <= PSI_ABS_TOL
    lam_err, psi_err = reference_errors(case, sol.model, sol.lam * (1.0 + 1e-9))
    assert lam_err > LAM_REL_TOL
    assert psi_err > PSI_ABS_TOL


def test_dawson_ladder_spans_both_ranges():
    # 1e-8 to 1e4, both sides of a knot (2.5 = 320/128) and of the series' X0 = 10.
    assert min(F_LADDER) <= 1e-8 and max(F_LADDER) >= 1e4
    for edge in (2.5, 10.0):
        assert {math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)} <= set(F_LADDER)


@pytest.mark.parametrize("case", DAWSON["cases"], ids=[f"x={x!r}" for x in F_LADDER])
def test_dawson_integral_matches_reference(case):
    want = float(case["F"])
    assert abs(dawson_integral(case["x"]) - want) <= F_REL_TOL * want


def test_dawson_integral_array_matches_reference():
    # The whole ladder in one array: table points and series points mixed.
    want = np.array([float(c["F"]) for c in DAWSON["cases"]])
    got = dawson_integral(np.array(F_LADDER))
    np.testing.assert_array_less(np.abs(got - want), F_REL_TOL * want)


def test_large_x_constant():
    # gamma/4 + ln(2)/2, the limit of F(x) - ln(x)/2, against mpmath's F at
    # x = 1e4 with the series' 13 terms added back.
    assert DAWSON["limit_x"] >= 1e4
    assert _F_FAR_CONST == float(DAWSON["limit"])
    assert _F_FAR_CONST == pytest.approx(float(DAWSON["limit_at_x"]), rel=1e-16)
