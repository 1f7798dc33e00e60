"""The benchmark's per-layer timing hooks name functions that exist."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def test_every_hook_target_resolves(monkeypatch):
    """A rename of a hooked ``cbo`` function would leave its benchmark
    metric silently empty; ``benchmark/spans.py`` is loaded without writing
    to its directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.Tracer().missing == []
