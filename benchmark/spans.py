"""Hooks that time the public functions of each ``cbo`` module from outside.

A hook replaces a function under the name its caller looks it up by, so
``harness`` functions imported with ``from ... import`` are wrapped in the
``cbo.harness`` namespace, and module globals of ``cbo.dynamics`` in that
module.  Every wrapper is restored when the ``with`` block ends.

Spans are aggregated on the fly on one stack (the workloads run in a single
thread): per group, the outermost calls, their inclusive time and the rows
they evaluated, plus the self time of every span, which is its duration minus
the time its traced children took.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from dataclasses import dataclass

# group -> targets "module:attribute"; "module:*.method" means that method on
# every class of the module that defines it itself.
HOOKS = {
    "rng": ["cbo.rng:RngStream.generator", "cbo.rng:RngStream.gaussians"],
    "objectives.values": ["cbo.objectives:*.values"],
    "objectives.gradients": ["cbo.objectives:*.gradients"],
    "dynamics.consensus": ["cbo.dynamics:consensus_point"],
    "dynamics.memory": ["cbo.dynamics:exact_memory_update", "cbo.dynamics:memory_switch"],
    "dynamics.step": ["cbo.dynamics:step"],
    "dynamics.run": ["cbo.harness:run"],
    "dynamics.init": ["cbo.harness:init_ensemble"],
    "harness.instance": ["cbo.harness:generate_cs_instance"],
    "harness.score": ["cbo.harness:recover_support"],
    "harness.trial": ["cbo.harness:run_single_trial"],
    "harness.cell": ["cbo.harness:run_trials"],
    "theory": ["cbo.harness:chi_rates", "cbo.harness:fit_exponential_rate"],
    "config.load": ["cbo.config:load_config"],
}

# groups whose first argument after ``self`` is an array of points
ROW_GROUPS = {"objectives.values", "objectives.gradients"}


@dataclass
class GroupStats:
    calls: int = 0  # outermost calls: a call nested in the same group is not counted
    rows: int = 0  # points evaluated by the outermost calls
    incl_s: float = 0.0  # inclusive time of the outermost calls
    self_s: float = 0.0  # time not spent in traced children, over all calls


def _resolve(target: str) -> list[tuple[object, str]]:
    """(owner, attribute) pairs a target names; empty if it no longer exists."""
    module_name, path = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if path.startswith("*."):
        method = path[2:]
        return [
            (cls, method)
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module_name and method in vars(cls)
        ]
    *owners, attr = path.split(".")
    owner = module
    for name in owners:
        owner = getattr(owner, name, None)
    if owner is None or not callable(vars(owner).get(attr)):
        return []
    return [(owner, attr)]


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Set each owner.attribute to its replacement; restore all on exit."""
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class Tracer:
    """Span-stack aggregation over the hooks in :data:`HOOKS`."""

    def __init__(self):
        self.stats = {group: GroupStats() for group in HOOKS}
        self.missing = [t for targets in HOOKS.values() for t in targets if not _resolve(t)]
        self._stack: list[list] = []

    def absent(self, group: str) -> bool:
        return all(t in self.missing for t in HOOKS[group])

    def _wrap(self, group: str, fn):
        stats = self.stats[group]
        stack = self._stack
        count_rows = group in ROW_GROUPS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != group
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if outer:
                    stats.calls += 1
                    stats.incl_s += elapsed
                    if count_rows:
                        points = args[1] if len(args) > 1 else kwargs["points"]
                        stats.rows += points.size // points.shape[-1]

        return traced

    @contextlib.contextmanager
    def installed(self):
        replacements = [
            (owner, attr, self._wrap(group, vars(owner)[attr]))
            for group, targets in HOOKS.items()
            for target in targets
            for owner, attr in _resolve(target)
        ]
        with patched(replacements):
            yield self


@contextlib.contextmanager
def particle_steps():
    """Count particle steps actually taken, from every ``RunResult`` that
    ``cbo.harness.run`` returns: steps times the particles of its ensemble.
    Yields a one-element list holding the running total, or None when
    ``cbo.harness.run`` no longer exists."""
    import cbo.harness

    original = vars(cbo.harness).get("run")
    if original is None:
        yield None
        return
    total = [0]

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        positions = result.ensemble.positions
        total[0] += result.n_steps * (positions.size // positions.shape[-1])
        return result

    with patched([(cbo.harness, "run", counted)]):
        yield total
