"""The package's top-level names: the pinned list, and the README examples
that reach the library through them alone."""

import ast
import collections
import contextlib
import importlib
import io
import os
import pathlib
import re
import tokenize

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
    "ConfigError", "FrontCollapse", "InvalidInput", "MaxSubdivisionsExceeded",
    "NonConvergence", "NotBracketed", "OutOfDomain", "OutOfRange", "StefanError",
]


def _quick_start_blocks() -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_all_is_pinned():
    assert sorted(stefansim.__all__) == sorted(PUBLIC_NAMES)
    assert len(stefansim.__all__) == 26


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
    "model": ["SourceSpec"],
    "numerics": ["erf", "integrate", "integrate_cumulative"],
    "oracle": ["compare"],
    "reconstruct": ["similarity_coordinate"],
    "similarity": ["LambdaEquation", "PsiProfile", "SourceModel", "phi_map", "problem_model"],
}


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_dropped_names_stay_in_their_modules(module):
    mod = importlib.import_module(f"stefansim.{module}")
    for name in MODULE_NAMES[module]:
        assert name not in stefansim.__all__
        assert hasattr(mod, name), name


# Names kept without a caller in src/, tools/ or bench/: the package's export list.
UNCALLED_ON_PURPOSE = {"__all__"}


def _module_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and constants a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return names


def test_every_src_name_has_a_caller():
    # NAME tokens only, so a name that survives in a docstring or comment
    # alone counts as unused.  tests/ does not count as a caller.
    uses = collections.Counter()
    defined = collections.Counter()
    for top in ("src", "tools", "bench"):
        for path in sorted(pathlib.Path(ROOT, top).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if token.type == tokenize.NAME:
                    uses[token.string] += 1
            if top == "src":
                defined.update(_module_level_names(ast.parse(source)))
    unused = sorted(
        name for name, count in defined.items()
        if uses[name] <= count and name not in UNCALLED_ON_PURPOSE
    )
    assert unused == []
