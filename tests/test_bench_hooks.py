"""The traced benchmark pass rebinds attributes of stefansim modules
(bench/spans.py).  A simplification of src/ that removes or renames one of
them breaks the traced benchmark only; this test catches it in tier-1."""

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
