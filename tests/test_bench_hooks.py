"""The traced benchmark pass rebinds attributes of stefansim modules
(bench/spans.py).  A simplification of src/ that removes or renames one of
them breaks the traced benchmark only; this test catches it in tier-1."""

import collections
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def test_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    importlib.import_module("workloads")


def test_tracer_rebinds_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    originals = {}
    try:
        tracer.install()
        for owner, attr, fn in tracer._undo:
            originals.setdefault((owner, attr), fn)
        assert originals
        for (owner, attr), fn in originals.items():
            assert getattr(owner, attr) is not fn, f"{owner.__name__}.{attr}"
    finally:
        tracer.close()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr}"


def test_traced_verify_sees_the_oracle_layers(monkeypatch, tmp_path):
    # The oracle layers of the traced benchmark pass are the spans of the
    # rebound names; a step that stopped calling oracle.solve_banded, or a
    # run that stopped calling oracle.compare, would read as zero time.
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    import stefansim.cli as cli

    n_time = 16
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem.dimensionless = true\nproblem.ste = 1.0\nproblem.delta = 1.0\n"
        f"problem.p = 1.0\nsource.kind = exponential\noracle.n_space = 32\noracle.n_time = {n_time}\n",
        encoding="utf-8",
    )
    tracer = spans.Tracer()
    try:
        tracer.install()
        code = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    finally:
        tracer.close()
    # So coarse a grid misses the oracle's gates; only the spans matter here.
    assert code == 4
    names = collections.Counter(span[0] for span in tracer.spans)
    assert names["oracle.solve_banded"] == n_time
    assert names["oracle.compare"] == 1
    assert names["oracle.run_oracle_for"] == 1
    assert names["reconstruct.temperature"] >= 1
    assert tracer.counts["oracle.steps"] == n_time
