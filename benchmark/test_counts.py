"""Self-test of the benchmark's hooks: exact span counts and restoration.

    python3 -m pytest benchmark -q

The counts repeat exactly across two traced bodies and match closed forms
in the trials per cell M, the steps per run and the particles N.  Those
forms hold for the one-trial-at-a-time dynamics; a change to how steps,
draws or evaluations are grouped changes them on purpose.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def traced_counts(name):
    workload = workloads.WORKLOADS[name]
    body = workload.setup(ROOT)
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            result = body(workload.input_seed(0, 0))
        assert not tracer.missing
        assert not result.problems
        runs.append({g: (s.calls, s.rows) for g, s in tracer.stats.items()})
    assert runs[0] == runs[1]
    return runs[0], result.trials


def test_rastrigin_cell_counts():
    counts, m = traced_counts("rastrigin-cell")
    assert counts["dynamics.step"][0] == 2000 * m
    assert counts["objectives.values"][1] == 100 * 2001 * m
    assert counts["rng"][0] == 2001 * m


def test_cs_cell_counts():
    counts, m = traced_counts("cs-l12-cell")
    assert counts["objectives.gradients"][1] == 100 * 2000 * m
    assert counts["rng"][0] == 2 * m


def test_sphere_decay_counts():
    counts, m = traced_counts("sphere-decay")
    assert m == 1
    assert counts["objectives.values"][1] == 1000 * 8001
    assert counts["dynamics.consensus"][0] == 8002


def test_hooks_are_restored():
    targets = [(owner, attr) for group in spans.HOOKS.values()
               for target in group for owner, attr in spans._resolve(target)]
    before = [vars(owner)[attr] for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert all(vars(o)[a] is not f for (o, a), f in zip(targets, before))
            raise RuntimeError("leave the block early")
    assert [vars(owner)[attr] for owner, attr in targets] == before
