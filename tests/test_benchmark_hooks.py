"""The benchmark's timing hooks and workloads still fit the ``cbo`` API.

The benchmark's files are loaded by path, without writing to their
directory."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import yaml

import cbo.harness
from cbo.cli import EXIT_OK, main
from cbo.config import resolve
from cbo.dynamics import CboParams
from cbo.objectives import Sphere
from cbo.theory import AssumptionConstants

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


def test_every_trial_path_calls_the_hooked_run_once(monkeypatch, tmp_path):
    """``cbo run``, ``run_trials`` and ``decay_experiment`` each take their
    steps through one call of ``cbo.harness.run``, the name the benchmark's
    ``spans.particle_steps`` wraps to count N x steps particle steps a run."""
    run = cbo.harness.run
    taken = []

    def counted(*args, **kwargs):
        result = run(*args, **kwargs)
        positions = result.ensemble.positions
        taken.append(result.n_steps * (positions.size // positions.shape[-1]))
        return result

    monkeypatch.setattr(cbo.harness, "run", counted)
    small = {
        "objective": {"kind": "sphere", "dimension": 2},
        "params": {"dt": 0.1},
        "experiment": {"n_particles": 5, "horizon_T": 0.5, "trials": 3},
    }
    config = tmp_path / "small.yaml"
    config.write_text(yaml.safe_dump(small))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run.json")]) == EXIT_OK
    assert taken == [5 * 5]
    cbo.harness.run_trials(resolve(small).build_experiment())
    assert taken[1:] == [3 * 5 * 5]
    params = CboParams(lambda1=4.0, lambda2=1.0, theta=1.0, kappa=2.0, dt=0.001)
    cbo.harness.decay_experiment(
        Sphere(2), np.zeros(2), params, AssumptionConstants(eta=1.0, nu=0.5, R0=1.0, E_inf=100.0),
        n_particles=10, horizon=0.01, vartheta=0.25,
    )
    assert taken[2:] == [10 * 10]
