"""The CSVs the shipped configs produce, pinned byte for byte, and the
library solutions no shipped config reaches.

Each command runs in-process through cli.main into a temporary directory.
Small CSVs are compared verbatim, each profile.csv by its sha256.  Every
shipped config and sweep has p = 1, where y comes from the quadratic
Phi^{-1}, and none can name a custom beta; so four solutions at p = 1.7
(LIBRARY) are pinned too: lam, y'(0) and every run_checks value by repr,
and y_many at 1000 points by its sha256.  A change that moves these values
on purpose re-pins them with

    PYTHONPATH=src python tests/test_shipped_outputs.py

and says so in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from stefansim.checks import run_checks
from stefansim.cli import main
from stefansim.config import reduced_problem
from stefansim.model import SimilaritySource
from stefansim.similarity import solve_problem

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "data" / "shipped_outputs.json"
SHIPPED = ("exponential", "feedback", "water_ice")
PROFILE_ARGS = ["--t", "0.5,1,2", "--points", "201"]

# name -> (cli arguments before --config, config, file written)
RUNS = {
    **{f"solve {cfg}": (["solve"], cfg, "summary.csv") for cfg in SHIPPED},
    **{f"verify {cfg}": (["verify"], cfg, "verify.csv") for cfg in SHIPPED},
    **{f"profile {cfg}": (["profile", *PROFILE_ARGS], cfg, "profile.csv") for cfg in SHIPPED},
    "sweep sweep": (["sweep"], "sweep", "sweep.csv"),
}

# (Ste, delta, p) of the library solutions, and their source kinds; the
# feedback coupling is A = 1.
LIBRARY_GROUPS = (1.3, 2.0, 1.7)
LIBRARY = {f"library {kind}": kind for kind in ("none", "exponential", "feedback", "custom")}


def custom_beta(eta):
    """beta = (1 + eta) e^{-eta^2} / 2, a source with no closed form in the solver."""
    return 0.5 * (1.0 + eta) * np.exp(-eta * eta)


def shipped_output(name: str, out_dir: Path) -> str:
    """The pinned form of one run: the CSV text, or the sha256 of profile.csv."""
    args, cfg, filename = RUNS[name]
    config = str(ROOT / "configs" / f"{cfg}.cfg")
    assert main([*args, "--config", config, "--out", str(out_dir)]) == 0
    data = (out_dir / filename).read_bytes()
    return hashlib.sha256(data).hexdigest() if filename == "profile.csv" else data.decode()


def library_output(name: str) -> str:
    """The pinned form of one library solution: one "name value" line per number."""
    kind = LIBRARY[name]
    if kind == "custom":
        material, boundary, _ = reduced_problem(*LIBRARY_GROUPS, "none", None)
        problem = (material, boundary, SimilaritySource(custom_beta))
    else:
        problem = reduced_problem(*LIBRARY_GROUPS, kind, 1.0 if kind == "feedback" else None)
    sol = solve_problem(*problem)
    lines = [f"lam {sol.lam!r}", f"y_prime0 {sol.y_prime0!r}"]
    lines += [f"{r.name} {r.value!r}" for r in run_checks(sol)]
    y = sol.y_many(np.linspace(0.0, sol.lam, 1000))
    lines.append(f"y_many sha256 {hashlib.sha256(y.tobytes()).hexdigest()}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_shipped_output_is_pinned(name, tmp_path):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert shipped_output(name, tmp_path) == pins[name]


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_output_is_pinned(name):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert library_output(name) == pins[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: shipped_output(name, Path(tmp) / str(i)) for i, name in enumerate(RUNS)}
    pins.update({name: library_output(name) for name in LIBRARY})
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
