"""Tests for problem-definition types and the dimensionless groups they give."""

import dataclasses
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
)
from stefansim.cli import main
from stefansim.similarity import problem_model, solve_problem

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

    @pytest.mark.parametrize("typ", [np.int64, np.float32, np.float64])
    def test_numpy_scalars_are_stored_as_floats(self, typ):
        # Integral values, so every numpy type holds them exactly.
        material = dict(rho=1000, c0=4200, k0=1, latent_heat=334000, delta=2, p=3)
        boundary = dict(theta0=285, theta_f=273)
        plain = (
            Material(**{k: float(v) for k, v in material.items()}),
            BoundaryData(**{k: float(v) for k, v in boundary.items()}),
            FluxFeedbackSource(lambda0=2.0),
        )
        got = (
            Material(**{k: typ(v) for k, v in material.items()}),
            BoundaryData(**{k: typ(v) for k, v in boundary.items()}),
            FluxFeedbackSource(lambda0=typ(2)),
        )
        assert got == plain
        for spec in got:
            assert all(type(getattr(spec, f.name)) is float for f in dataclasses.fields(spec))
        assert solve_problem(*got).lam == solve_problem(*plain).lam

    def test_feedback_source_requires_positive_coupling(self):
        with pytest.raises(InvalidInput):
            FluxFeedbackSource(lambda0=0.0)
        with pytest.raises(InvalidInput):
            FluxFeedbackSource(lambda0=-1.0)


class TestGroups:
    def test_stefan_number_water_ice(self):
        # c0 (theta0 - theta_f) / l with the constants above.
        want = 4200.0 * (285.05 - 273.15) / 334000.0
        got = problem_model(WATER_ICE, MELT, NoSource()).ste
        assert got == pytest.approx(want, rel=1e-15)
        assert 0.14 < want < 0.16

    def test_diffusivity(self):
        want = math.sqrt(0.6 / (1000.0 * 4200.0))
        assert WATER_ICE.a == pytest.approx(want, rel=1e-15)

    def test_feedback_coefficient(self):
        # 2 lambda0 / sqrt(rho c0 k0); frozen value for the constants above.
        got = problem_model(WATER_ICE, MELT, FluxFeedbackSource(lambda0=10.0)).feedback
        assert got == pytest.approx(20.0 / math.sqrt(1000.0 * 4200.0 * 0.6), rel=1e-15)
        assert got == pytest.approx(0.012598815766974242, abs=1e-15)

    def test_groups_wiring(self):
        model = problem_model(WATER_ICE, MELT, NoSource())
        assert model.feedback is None
        assert (model.delta, model.p) == (WATER_ICE.delta, WATER_ICE.p)
        fb = problem_model(WATER_ICE, MELT, FluxFeedbackSource(lambda0=10.0))
        assert fb.ste == model.ste
        assert fb.feedback == pytest.approx(20.0 / (1000.0 * 4200.0 * WATER_ICE.a))

    def test_dimensionless_normalization(self):
        # Unit material with latent_heat = 1/Ste realizes any Ste with a = 1.
        mat = Material(rho=1.0, c0=1.0, k0=1.0, latent_heat=0.5, delta=1.0, p=1.0)
        bd = BoundaryData(theta0=1.0, theta_f=0.0)
        assert problem_model(mat, bd, NoSource()).ste == pytest.approx(2.0, rel=1e-15)
        assert mat.a == pytest.approx(1.0, rel=1e-15)

    # Each field is valid, but a group under- or overflows to 0 or inf.
    @pytest.mark.parametrize(
        "group, material, lambda0",
        [
            ("a", dict(rho=1e200, c0=1e200), None),
            ("a", dict(rho=1e-200, c0=1e-200, k0=1e200), None),
            ("ste", dict(c0=1e300, k0=1e300, latent_heat=1e-300), None),
            ("ste", dict(c0=1e-300, k0=1e-300, latent_heat=1e300), None),
            ("feedback", dict(rho=1e200, k0=1e200), 1e-300),
            ("feedback", dict(rho=1e-200, k0=1e-200), 1e300),
        ],
        ids=["a-zero", "a-inf", "ste-inf", "ste-zero", "A-zero", "A-inf"],
    )
    def test_degenerate_group_rejected(self, tmp_path, capsys, group, material, lambda0):
        fields = dict(rho=1.0, c0=1.0, k0=1.0, latent_heat=1.0, delta=1.0, p=1.0) | material
        source = NoSource() if lambda0 is None else FluxFeedbackSource(lambda0=lambda0)
        message = f"{group} must be a finite positive number"
        with pytest.raises(InvalidInput, match=f"^{message}"):
            solve_problem(Material(**fields), BoundaryData(theta0=1.0, theta_f=0.0), source)
        lines = [f"material.{name} = {value!r}" for name, value in fields.items()]
        lines += ["boundary.theta0 = 1.0", "boundary.theta_f = 0.0", f"source.kind = {source.kind}"]
        if lambda0 is not None:
            lines.append(f"source.lambda0 = {lambda0!r}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines + ["oracle.enabled = false", ""]))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert f"solver error: {message}" in capsys.readouterr().err


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
