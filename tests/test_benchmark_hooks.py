"""The benchmark's timing hooks and workloads still fit the ``cbo`` API.

The benchmark's files are loaded by path, without writing to their
directory."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "benchmark"


def _load(monkeypatch, name):
    """``benchmark/<name>.py`` as module ``name``, registered in sys.modules
    for the duration of the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name, and workloads imports spans
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(monkeypatch):
    """A rename of a hooked ``cbo`` function would leave its benchmark
    metric silently empty."""
    spans = _load(monkeypatch, "spans")
    assert spans.Tracer().missing == []


def test_every_workload_sets_up(monkeypatch):
    """Each workload's set-up (config load and build) runs against the
    current config and harness API, so a change to either cannot stop the
    benchmark before it measures."""
    _load(monkeypatch, "spans")
    workloads = _load(monkeypatch, "workloads")
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        assert callable(workload.setup(ROOT))
