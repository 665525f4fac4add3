"""Tests for problem-definition types and dimensionless groups."""

import math

import numpy as np
import pytest

from stefansim.errors import InvalidInput
from stefansim.model import (
    BoundaryData,
    ExponentialSource,
    FluxFeedbackSource,
    Material,
    NoSource,
    SimilaritySource,
    conductivity,
    dimensionless_groups,
    specific_heat,
)

WATER_ICE = Material(
    rho=1000.0, c0=4200.0, k0=0.6, latent_heat=334000.0, delta=0.5, p=1.0
)
MELT = BoundaryData(theta0=285.05, theta_f=273.15)


class TestMaterialValidation:
    @pytest.mark.parametrize(
        "field", ["rho", "c0", "k0", "latent_heat", "delta", "p"]
    )
    def test_rejects_nonpositive(self, field):
        good = dict(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0, delta=1.0, p=1.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidInput):
                Material(**{**good, field: bad})

    def test_boundary_requires_order(self):
        with pytest.raises(InvalidInput):
            BoundaryData(theta0=273.15, theta_f=273.15)
        with pytest.raises(InvalidInput):
            BoundaryData(theta0=270.0, theta_f=273.15)

    def test_feedback_source_requires_positive_coupling(self):
        with pytest.raises(InvalidInput):
            FluxFeedbackSource(lambda0=0.0)
        with pytest.raises(InvalidInput):
            FluxFeedbackSource(lambda0=-1.0)


class TestGroups:
    def test_stefan_number_water_ice(self):
        # c0 (theta0 - theta_f) / l with the constants above.
        want = 4200.0 * (285.05 - 273.15) / 334000.0
        got = dimensionless_groups(WATER_ICE, MELT, NoSource()).ste
        assert got == pytest.approx(want, rel=1e-15)
        assert 0.14 < want < 0.16

    def test_diffusivity(self):
        want = math.sqrt(0.6 / (1000.0 * 4200.0))
        got = dimensionless_groups(WATER_ICE, MELT, NoSource()).a
        assert got == pytest.approx(want, rel=1e-15)

    def test_feedback_coefficient(self):
        # 2 lambda0 / sqrt(rho c0 k0); frozen value for the constants above.
        got = dimensionless_groups(WATER_ICE, MELT, FluxFeedbackSource(lambda0=10.0)).feedback
        assert got == pytest.approx(20.0 / math.sqrt(1000.0 * 4200.0 * 0.6), rel=1e-15)
        assert got == pytest.approx(0.012598815766974242, abs=1e-15)

    def test_groups_wiring(self):
        groups = dimensionless_groups(WATER_ICE, MELT, NoSource())
        assert groups.feedback is None
        fb = dimensionless_groups(WATER_ICE, MELT, FluxFeedbackSource(lambda0=10.0))
        assert (fb.ste, fb.a) == (groups.ste, groups.a)
        assert fb.feedback == pytest.approx(20.0 / (1000.0 * 4200.0 * groups.a))

    def test_dimensionless_normalization(self):
        # Unit material with latent_heat = 1/Ste realizes any Ste with a = 1.
        mat = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=0.5, delta=1.0, p=1.0)
        bd = BoundaryData(theta0=1.0, theta_f=0.0)
        groups = dimensionless_groups(mat, bd, NoSource())
        assert groups.ste == pytest.approx(2.0, rel=1e-15)
        assert groups.a == pytest.approx(1.0, rel=1e-15)


class TestCoefficients:
    def test_endpoints(self):
        assert conductivity(WATER_ICE, MELT, 273.15) == pytest.approx(0.6, rel=1e-15)
        assert conductivity(WATER_ICE, MELT, 285.05) == pytest.approx(
            0.6 * 1.5, rel=1e-15
        )
        assert specific_heat(WATER_ICE, MELT, 285.05) == pytest.approx(
            4200.0 * 1.5, rel=1e-15
        )

    def test_monotone_in_temperature(self):
        thetas = np.linspace(273.15, 285.05, 64)
        ks = conductivity(WATER_ICE, MELT, thetas)
        assert np.all(np.diff(ks) > 0.0)

    def test_power_law_shape(self):
        mat = Material(rho=1.0, c0=1.0, k0=2.0, latent_heat=1.0, delta=3.0, p=2.0)
        bd = BoundaryData(theta0=2.0, theta_f=1.0)
        # y = 0.5 midway: k = k0 (1 + delta y^p) = 2 (1 + 3/4).
        assert conductivity(mat, bd, 1.5) == pytest.approx(3.5, rel=1e-14)

    def test_out_of_band_rejected(self):
        with pytest.raises(InvalidInput):
            conductivity(WATER_ICE, MELT, 273.0)
        with pytest.raises(InvalidInput):
            specific_heat(WATER_ICE, MELT, 290.0)

    def test_rounding_slack_clipped(self):
        span = MELT.theta0 - MELT.theta_f
        inside = conductivity(WATER_ICE, MELT, MELT.theta_f - 1e-10 * span)
        assert inside == pytest.approx(0.6, rel=1e-9)


class TestSources:
    def test_exponential_beta(self):
        assert ExponentialSource.beta(0.0) == pytest.approx(0.5, abs=0)
        etas = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            ExponentialSource.beta(etas), 0.5 * np.exp(-etas * etas), rtol=0
        )

    def test_similarity_source_holds_callable(self):
        src = SimilaritySource(beta=lambda eta: np.exp(-eta))
        assert src.beta(0.0) == pytest.approx(1.0)

    def test_source_equality_semantics(self):
        assert NoSource() == NoSource()
        assert ExponentialSource() == ExponentialSource()
        assert FluxFeedbackSource(1.0) == FluxFeedbackSource(1.0)
        assert FluxFeedbackSource(1.0) != FluxFeedbackSource(2.0)
