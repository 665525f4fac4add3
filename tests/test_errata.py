"""Permanent regression guards for rejected formula transcriptions.

docs/errata.md records the derivation and the numerical evidence; these
tests keep the rejected variants failing and the corrected forms passing
forever.  Companion acceptance check: criterion 5 in test_acceptance.py.
"""

import math

import numpy as np
import pytest

from stefansim.errata import (
    variant_lambda_exponential,
    variant_psi_front_term_flipped,
)
from stefansim.model import BoundaryData, ExponentialSource, Material, SimilaritySource
from stefansim.oracle import OracleConfig, run_oracle_for
from stefansim.similarity import (
    phi_map,
    solve_lambda,
    solve_problem,
    source_model,
    y_from_psi,
)

STE, DELTA, P = 1.0, 1.0, 1.0
EXPONENTIAL = source_model(ExponentialSource(), STE, DELTA, P)


@pytest.fixture(scope="module")
def lam():
    return solve_lambda(EXPONENTIAL.equation)


class TestFrontTermSign:
    def test_front_sign_variant_violates_front_condition(self, lam):
        correct = EXPONENTIAL.psi(lam)
        variant = variant_psi_front_term_flipped(
            lam, STE, DELTA, P, ExponentialSource.beta
        )
        assert abs(correct.evaluate(lam)) <= 1e-8
        # The defect is the identity 2 (sqrt(pi)/Ste) erf(lam) lam e^{lam^2}.
        defect = (
            2.0
            * math.sqrt(math.pi)
            / STE
            * math.erf(lam)
            * lam
            * math.exp(lam * lam)
        )
        assert variant.evaluate(lam) == pytest.approx(
            correct.evaluate(lam) + defect, rel=1e-10
        )
        assert abs(variant.evaluate(lam)) > 0.1  # bounded away from zero

    def test_variant_profile_cannot_reach_zero(self, lam):
        variant = variant_psi_front_term_flipped(
            lam, STE, DELTA, P, ExponentialSource.beta
        )
        # Psi_variant(lam) = 2.219 exceeds Phi(1) = 1.5: the profile value
        # at the front inverts to y > 1 (above the fixed-face value, not 0)
        # and the strict inverse rejects it outright.
        assert variant.evaluate(lam) > phi_map(DELTA, P, 1.0)
        y_front = y_from_psi(variant, np.array([lam]), clamp=False)[0]
        assert y_front > 1.3
        from stefansim.errors import OutOfRange

        with pytest.raises(OutOfRange):
            y_from_psi(variant, np.array([lam]), clamp=True)


class TestExponentialFrontEquation:
    def test_variant_root_far_from_corrected(self, lam):
        lam_variant = variant_lambda_exponential(STE, DELTA, P)
        assert abs(lam_variant - lam) / lam > 0.05
        assert lam_variant == pytest.approx(0.8136962525264777, abs=1e-9)
        assert lam == pytest.approx(0.6457803612217943, abs=1e-9)

    def test_oracle_arbitrates_under_refinement(self, lam):
        """The discrete front tracks the corrected root and stays >5% from
        the variant's front at every time, on both of two grid levels."""
        mat = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0, delta=DELTA, p=P)
        sol = solve_problem(mat, BoundaryData(theta0=1.0, theta_f=0.0), ExponentialSource())
        lam_variant = variant_lambda_exponential(STE, DELTA, P)
        for n_space, n_time in ((64, 256), (128, 1024)):
            run = run_oracle_for(sol, OracleConfig(n_space=n_space, n_time=n_time))
            assert run.front_rel_err <= 0.02
            variant_front = 2.0 * lam_variant * np.sqrt(run.times)
            rel_gap = np.abs(run.front - variant_front) / variant_front
            assert rel_gap.min() > 0.05

    def test_variant_equation_shape(self):
        # At the corrected root the variant equation misses the target.
        from stefansim.errata import variant_lambda_equation_exponential

        eq = variant_lambda_equation_exponential(STE, DELTA, P)
        corrected_root = solve_lambda(EXPONENTIAL.equation)
        assert abs(eq.evaluate(corrected_root) - eq.target) > 0.1


class TestSlopePrefactor:
    def test_slope_prefactor(self, lam):
        """(1 + delta) y'(0) = -(2/Ste)(lam e^{lam^2} + 2 Ibe(lam)); the
        circulated 4/Ste variant is exactly a factor 2 off."""
        quadrature = source_model(SimilaritySource(ExponentialSource.beta), STE, DELTA, P)
        got = quadrature.psi(lam).y_prime0
        psi = EXPONENTIAL.psi(lam)
        h = 1e-6
        etas = np.array([0.0, h, 2.0 * h])
        y = y_from_psi(psi, etas)
        fd = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
        assert fd == pytest.approx(got, rel=1e-6)
        doubled = 2.0 * got
        assert abs(fd - doubled) / abs(fd) == pytest.approx(1.0, abs=1e-5)
