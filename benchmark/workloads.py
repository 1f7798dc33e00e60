"""The benchmark's workloads, built through the public entry points.

``setup(root)`` is the set-up a user pays once (import, config load, build);
it returns the workload body, which takes one generated input seed and
returns a :class:`BodyResult`.  The library sees only those seeds: the
benchmark seed picks them through :meth:`Workload.input_seed`.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable

import cbo.config
import cbo.harness
from cbo.dynamics import DivergedError
from cbo.rng import RngStream

import spans

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

# Input seeds: benchmark seed times SEED_SPACING plus repeat times
# REPEAT_SPACING.  Trial t of a cell runs on input seed + t, so with fewer
# than REPEAT_SPACING trials per cell and SEED_SPACING / REPEAT_SPACING
# repeats per run no two bodies share a trial seed.
SEED_SPACING = 1_000_000
REPEAT_SPACING = 1_000


@dataclasses.dataclass
class BodyResult:
    fingerprint: tuple  # every output of the body, compared bit for bit
    trials: int
    failed: int  # diverged trials
    successes: int  # successful trials; for a decay run, 1 if its rate is in the bracket
    particle_steps: int | None  # counted from the RunResults; None if uncountable
    expected_particle_steps: int
    problems: list[str]  # checks this body failed on its own


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path], Callable[[int], BodyResult]]

    @staticmethod
    def input_seed(seed: int, repeat: int) -> int:
        return seed * SEED_SPACING + repeat * REPEAT_SPACING

    def pooled_problems(self, results: list[BodyResult]) -> list[str]:
        """Checks over all bodies of a run: the pooled success fraction must
        lie in the reference band, if the workload has one."""
        band = REFERENCE.get(self.name, {}).get("success_band")
        if band is None:
            return []
        trials = sum(r.trials for r in results)
        frac = sum(r.successes for r in results) / trials
        if band[0] <= frac <= band[1]:
            return []
        return [f"success fraction {frac:.3f} over {trials} trials outside {band}"]


def _common_problems(failed: int, steps: int | None, expected: int) -> list[str]:
    problems = []
    if failed:
        problems.append(f"{failed} trials failed or diverged")
    if steps is not None and steps != expected:
        problems.append(f"{steps} particle steps taken, {expected} configured")
    return problems


def _cell_setup(config_file: str, sparse_recovery: bool):
    """A ``run_trials`` cell from a YAML file in this directory; sparse
    recovery draws a fresh instance per trial, as ``cbo sweep-cs`` does."""

    def setup(root: Path):
        cfg = cbo.config.load_config(str(HERE / config_file))
        exp = cfg.build_experiment()
        if sparse_recovery:
            cs = cfg["cs"]
            exp = cbo.harness.cs_experiment_config(
                cs["d"], cs["m"], cs["s"], cs["mu"], cs["p"], exp
            )
        expected = exp.n_particles * exp.n_steps * exp.trials

        def body(seed: int) -> BodyResult:
            with spans.particle_steps() as steps:
                summary = cbo.harness.run_trials(dataclasses.replace(exp, seed=seed))
            taken = None if steps is None else steps[0]
            fingerprint = (summary.probability, summary.ci_low, summary.ci_high,
                           summary.failures) + tuple(
                (o.trial, o.success, o.diverged, o.reason,
                 None if o.consensus is None else o.consensus.tobytes())
                for o in summary.outcomes
            )
            return BodyResult(
                fingerprint, summary.trials, summary.failures,
                sum(o.success for o in summary.outcomes), taken, expected,
                _common_problems(summary.failures, taken, expected),
            )

        return body

    return setup


def _decay_setup(root: Path):
    """``configs/decay.yaml`` through ``decay_experiment``, as ``cbo decay``
    builds it."""
    cfg = cbo.config.load_config(str(root / "configs" / "decay.yaml"))
    exp = cfg.build_experiment()
    constants = cfg.build_constants()
    theory = cfg["theory"]
    problem = exp.objective_factory(RngStream(exp.seed))
    expected = exp.n_particles * exp.n_steps

    def body(seed: int) -> BodyResult:
        with spans.particle_steps() as steps:
            try:
                rep = cbo.harness.decay_experiment(
                    problem.objective, problem.x_star, exp.params, constants,
                    exp.n_particles, exp.horizon_T, theory["vartheta"],
                    seed=seed, eps=theory["eps"], init=exp.init,
                )
            except DivergedError as err:
                return BodyResult((str(err),), 1, 1, 0, None, expected, [str(err)])
        taken = None if steps is None else steps[0]
        fit = rep.fit
        fingerprint = (fit.rate, fit.intercept, fit.r_squared, rep.chi1, rep.chi2,
                       rep.times.tobytes(), rep.values.tobytes())
        lower, upper = rep.bracket
        inside = lower <= fit.rate <= upper
        problems = _common_problems(0, taken, expected)
        if not inside:
            problems.append(f"fitted rate {fit.rate:.4f} outside [{lower:.4f}, {upper:.4f}]")
        return BodyResult(fingerprint, 1, 0, int(inside), taken, expected, problems)

    return body


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rastrigin-cell", _cell_setup("rastrigin_cell.yaml", False)),
        Workload("cs-l12-cell", _cell_setup("cs_l12_cell.yaml", True)),
        Workload("sphere-decay", _decay_setup),
    )
}
