"""The package's top-level names: the pinned list, and the README examples
that reach the library through them alone."""

import contextlib
import importlib
import io
import os
import re

import pytest

import stefansim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC_NAMES = [
    # Inputs a caller builds.
    "BoundaryData", "ExponentialSource", "FluxFeedbackSource", "Material",
    "NoSource", "OracleConfig", "SimilaritySource",
    # Entry points.
    "front_position", "run_checks", "run_oracle_for", "solve_lambda",
    "solve_problem", "source_model", "temperature",
    # Results they return.
    "CheckResult", "OracleRun", "SimilaritySolution",
    # Errors a caller can catch.
    "BracketExpansionFailed", "ConfigError", "FrontCollapse", "InvalidInput",
    "MaxSubdivisionsExceeded", "NonConvergence", "NotBracketed", "OutOfDomain",
    "OutOfRange", "StefanError",
]


def _quick_start_blocks() -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_all_is_pinned():
    assert sorted(stefansim.__all__) == sorted(PUBLIC_NAMES)
    assert len(stefansim.__all__) == 27


def test_every_name_resolves():
    for name in stefansim.__all__:
        assert getattr(stefansim, name) is not None, name


def test_readme_quick_start_blocks_run_on_top_level_names():
    blocks = _quick_start_blocks()
    assert len(blocks) == 2
    for block in blocks:
        imports = re.findall(r"^(?:from|import) (\S+)", block, flags=re.MULTILINE)
        assert set(imports) <= {"numpy", "stefansim"}, imports
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(block, "README.md", "exec"), {})
        assert "FAIL" not in out.getvalue()


# Names dropped from the top level that stay in their modules.
MODULE_NAMES = {
    "errors": ["MismatchedProblem"],
    "model": ["SourceSpec", "conductivity", "specific_heat"],
    "numerics": ["erf", "integrate", "integrate_cumulative"],
    "oracle": ["compare"],
    "reconstruct": ["fixed_face_flux", "similarity_coordinate", "source_field"],
    "similarity": ["LambdaEquation", "PsiProfile", "SourceModel", "phi_inverse_quadratic",
                   "phi_map", "problem_model"],
}


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_dropped_names_stay_in_their_modules(module):
    mod = importlib.import_module(f"stefansim.{module}")
    for name in MODULE_NAMES[module]:
        assert name not in stefansim.__all__
        assert hasattr(mod, name), name
