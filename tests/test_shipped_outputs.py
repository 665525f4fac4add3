"""The CSVs the shipped configs produce, pinned byte for byte.

Each command runs in-process through cli.main into a temporary directory.
Small CSVs are compared verbatim, each profile.csv by its sha256.  A change
that moves these values on purpose re-pins them with

    PYTHONPATH=src python tests/test_shipped_outputs.py

and says so in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from stefansim.cli import main

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


def shipped_output(name: str, out_dir: Path) -> str:
    """The pinned form of one run: the CSV text, or the sha256 of profile.csv."""
    args, cfg, filename = RUNS[name]
    config = str(ROOT / "configs" / f"{cfg}.cfg")
    assert main([*args, "--config", config, "--out", str(out_dir)]) == 0
    data = (out_dir / filename).read_bytes()
    return hashlib.sha256(data).hexdigest() if filename == "profile.csv" else data.decode()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_shipped_output_is_pinned(name, tmp_path):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert shipped_output(name, tmp_path) == pins[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: shipped_output(name, Path(tmp) / str(i)) for i, name in enumerate(RUNS)}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
