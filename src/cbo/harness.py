"""Experiment orchestration: repeated seeded trials, success probabilities,
phase-diagram sweeps, sparse-recovery post-processing and Lyapunov-decay
experiments."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    CboParams,
    DivergedError,
    InitSpec,
    Schedule,
    StoppingRule,
    init_ensemble,
    run,
)
from .objectives import CsInstance, CsObjective, Objective, generate_cs_instance
from .rng import RngStream
from .theory import AssumptionConstants, DecayFit, chi_rates, fit_exponential_rate

WILSON_Z = 1.959963984540054  # 95% two-sided


@dataclass(frozen=True)
class SuccessRule:
    """Trial pass condition.

    kind "consensus_near_minimizer": final consensus within ``threshold`` of
    x* in the given norm ("inf" or "2").  kind "exact_sparse_recovery":
    thresholded support recovery followed by least squares, see
    :func:`recover_support`.
    """

    kind: str = "consensus_near_minimizer"
    threshold: float = 0.25
    norm: str = "inf"
    support_threshold: float = 0.01
    residual_tol: float = 1e-4

    def __post_init__(self):
        if self.kind not in ("consensus_near_minimizer", "exact_sparse_recovery"):
            raise ValueError(f"unknown success rule {self.kind!r}")
        if self.threshold < 0 or self.support_threshold <= 0 or self.residual_tol <= 0:
            raise ValueError("success thresholds must be positive")
        if self.norm not in ("inf", "2"):
            raise ValueError(f"unknown norm {self.norm!r}")


@dataclass
class TrialProblem:
    objective: Objective
    x_star: np.ndarray | None = None
    instance: CsInstance | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a repeated-trial experiment.

    ``objective_factory`` receives the RngStream of one trial and returns the
    trial's problem; a fixed objective is simply a factory ignoring the rng.
    The objectives of the trials of a cell are combined by
    :meth:`Objective.stack`.
    """

    objective_factory: Callable[[RngStream], TrialProblem]
    params: CboParams
    n_particles: int
    horizon_T: float
    trials: int
    seed: int
    success: SuccessRule
    schedule: Schedule = Schedule()
    init: InitSpec = InitSpec()
    n_consensus: int | None = None

    def __post_init__(self):
        steps = self.horizon_T / self.params.dt
        if not math.isclose(steps, round(steps), abs_tol=1e-9) or round(steps) <= 0:
            raise ValueError("horizon_T must be a positive integer multiple of dt")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    @property
    def n_steps(self) -> int:
        return round(self.horizon_T / self.params.dt)


@dataclass
class TrialOutcome:
    trial: int
    success: bool
    diverged: bool = False
    reason: str | None = None
    consensus: np.ndarray | None = None


@dataclass
class TrialSummary:
    probability: float
    ci_low: float
    ci_high: float
    trials: int
    failures: int  # diverged trials, counted as unsuccessful
    outcomes: list[TrialOutcome] = field(default_factory=list)

    @classmethod
    def from_outcomes(cls, outcomes: list[TrialOutcome]) -> "TrialSummary":
        n_success = sum(o.success for o in outcomes)
        lo, hi = wilson_interval(n_success, len(outcomes))
        return cls(
            probability=n_success / len(outcomes),
            ci_low=lo,
            ci_high=hi,
            trials=len(outcomes),
            failures=sum(o.diverged for o in outcomes),
            outcomes=outcomes,
        )

    def to_csv(self, x_param: str = "", x_value="", y_param: str = "", y_value="") -> str:
        return _to_csv(
            [[x_param, x_value, y_param, y_value, self.probability, self.ci_low,
              self.ci_high, self.trials, self.failures]]
        )


CSV_HEADER = [
    "x_param", "x_value", "y_param", "y_value",
    "success_prob", "ci_low", "ci_high", "trials", "failures",
]


def _to_csv(rows) -> str:
    """CSV text of ``rows`` under :data:`CSV_HEADER`, one row per cell."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(CSV_HEADER)
    w.writerows(rows)
    return buf.getvalue()


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    # clamp against rounding so the interval always contains the estimate
    return max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat))


@dataclass
class RecoveryResult:
    success: bool
    support: np.ndarray
    x_hat: np.ndarray | None = None
    reason: str | None = None


def recover_support(inst: CsInstance, consensus: np.ndarray, rule: SuccessRule) -> RecoveryResult:
    """Post-processing: threshold the consensus entries at
    rule.support_threshold, solve least squares on the restricted columns and
    compare against the ground truth."""
    support = np.flatnonzero(np.abs(consensus) >= rule.support_threshold)
    if support.size == 0:
        return RecoveryResult(False, support, reason="empty support")
    a_s = inst.A[:, support]
    if np.linalg.matrix_rank(a_s) < support.size:
        return RecoveryResult(False, support, reason="singular support system")
    z, *_ = np.linalg.lstsq(a_s, inst.b, rcond=None)
    x_hat = np.zeros(inst.d)
    x_hat[support] = z
    if inst.ground_truth is None:
        return RecoveryResult(False, support, x_hat, reason="no ground truth")
    true_support = np.flatnonzero(inst.ground_truth)
    covers = np.isin(true_support, support).all()
    matches = np.max(np.abs(x_hat - inst.ground_truth)) <= rule.residual_tol
    return RecoveryResult(bool(covers and matches), support, x_hat)


def _score(problem: TrialProblem, consensus: np.ndarray, rule: SuccessRule) -> tuple[bool, str | None]:
    if rule.kind == "consensus_near_minimizer":
        if problem.x_star is None:
            raise ValueError("success rule needs a known minimizer")
        diff = consensus - problem.x_star
        dist = np.max(np.abs(diff)) if rule.norm == "inf" else np.linalg.norm(diff)
        return bool(dist < rule.threshold), None
    if problem.instance is None:
        raise ValueError("exact_sparse_recovery needs a CsInstance")
    res = recover_support(problem.instance, consensus, rule)
    return res.success, res.reason


def _final_consensus(
    config: ExperimentConfig, trials: int | Sequence[int]
) -> tuple[RngStream, list[TrialProblem], np.ndarray, np.ndarray]:
    """Run one trial (``trials`` an int) or a batch of trials as one array
    program.  Returns the run's stream, each trial's problem, the step at
    which it diverged (-1: it did not) and its final consensus, one row per
    trial; each trial draws only from its own streams, so its row is the
    same in any batch."""
    rng = RngStream(config.seed, trials)
    problems = [config.objective_factory(rng.for_trial(t)) for t in rng.trials]
    objective = problems[0].objective
    if rng.batch_shape:
        objective = type(objective).stack([p.objective for p in problems])
    ens = init_ensemble(
        config.n_particles, objective.dimension, config.init, rng, objective,
        config.params.dt,
    )
    try:
        result = run(
            ens, config.params, config.schedule, objective,
            StoppingRule(max_steps=config.n_steps), rng,
            n_consensus=config.n_consensus,
        )
    except DivergedError as err:  # raised for a single trial only
        return rng, problems, np.array([err.step_index]), np.full((1, objective.dimension), np.nan)
    return (
        rng, problems, result.ensemble.diverged_at.reshape(-1),
        result.consensus.reshape(-1, objective.dimension),
    )


def _run_outcomes(config: ExperimentConfig, trials: int | Sequence[int]) -> list[TrialOutcome]:
    """Scored outcomes of :func:`_final_consensus`."""
    rng, problems, diverged_at, consensus = _final_consensus(config, trials)
    outcomes = []
    for trial, problem, k, point in zip(rng.trials, problems, diverged_at, consensus):
        if k >= 0:
            reason = str(DivergedError(int(k)))
            outcomes.append(TrialOutcome(trial, success=False, diverged=True, reason=reason))
        else:
            success, reason = _score(problem, point, config.success)
            outcomes.append(TrialOutcome(trial, success=success, consensus=point, reason=reason))
    return outcomes


def run_single_trial(config: ExperimentConfig, trial: int) -> TrialOutcome:
    """Trial ``trial`` alone, on the streams of (config.seed, trial)."""
    return _run_outcomes(config, trial)[0]


def run_trials(config: ExperimentConfig) -> TrialSummary:
    """The M trials of a cell as one batch; trial t runs on the streams of
    (config.seed, t).  Only divergence is a trial outcome: any other error
    propagates."""
    return TrialSummary.from_outcomes(_run_outcomes(config, range(config.trials)))


@dataclass
class PhaseDiagram:
    x_param: str
    x_grid: list
    y_param: str
    y_grid: list
    cells: np.ndarray  # success probability, shape (len(y_grid), len(x_grid))
    ci_low: np.ndarray
    ci_high: np.ndarray
    failures: np.ndarray
    trials_per_cell: int
    provenance: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        return _to_csv(
            [self.x_param, xv, self.y_param, yv, self.cells[j, i], self.ci_low[j, i],
             self.ci_high[j, i], self.trials_per_cell, int(self.failures[j, i])]
            for j, yv in enumerate(self.y_grid)
            for i, xv in enumerate(self.x_grid)
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "x_param": self.x_param,
                "x_grid": list(self.x_grid),
                "y_param": self.y_param,
                "y_grid": list(self.y_grid),
                "trials_per_cell": self.trials_per_cell,
                "cells": self.cells.tolist(),
                "ci_low": self.ci_low.tolist(),
                "ci_high": self.ci_high.tolist(),
                "failures": self.failures.astype(int).tolist(),
                "config": self.provenance,
            },
            indent=2,
        )


def _sweep(
    x_param: str,
    x_grid,
    y_param: str,
    y_grid,
    config_for_cell: Callable[[object, object], ExperimentConfig],
    provenance: dict,
) -> PhaseDiagram:
    if len(x_grid) == 0 or len(y_grid) == 0:
        raise ValueError("sweep grids must be nonempty")
    shape = (len(y_grid), len(x_grid))
    cells = np.zeros(shape)
    lo = np.zeros(shape)
    hi = np.zeros(shape)
    failures = np.zeros(shape)
    for j, yv in enumerate(y_grid):
        for i, xv in enumerate(x_grid):
            summary = run_trials(config_for_cell(xv, yv))
            cells[j, i] = summary.probability
            lo[j, i] = summary.ci_low
            hi[j, i] = summary.ci_high
            failures[j, i] = summary.failures
    return PhaseDiagram(
        x_param, list(x_grid), y_param, list(y_grid), cells, lo, hi, failures,
        trials_per_cell=config_for_cell(x_grid[0], y_grid[0]).trials,
        provenance=provenance,
    )


def rastrigin_phase_diagram(
    lambda2_grid,
    n_grid,
    base_config: ExperimentConfig,
    sigma2_coupling: str = "zero",
) -> PhaseDiagram:
    """Success probability over (memory-drift strength, particle count).

    sigma2_coupling picks the memory-noise convention: "zero" (no memory
    noise), "lambda2_sigma1" (sigma2 = lambda2 * sigma1) or "lambda1_sigma1"
    (sigma2 = lambda1 * sigma1)."""
    if sigma2_coupling not in ("zero", "lambda2_sigma1", "lambda1_sigma1"):
        raise ValueError(f"unknown sigma2 coupling {sigma2_coupling!r}")

    def cell(lambda2, n):
        base = base_config.params
        if sigma2_coupling == "zero":
            sigma2 = 0.0
        elif sigma2_coupling == "lambda2_sigma1":
            sigma2 = lambda2 * base.sigma1
        else:
            sigma2 = base.lambda1 * base.sigma1
        params = replace(base, lambda2=float(lambda2), sigma2=sigma2)
        return replace(base_config, params=params, n_particles=int(n))

    return _sweep(
        "lambda2", lambda2_grid, "n_particles", n_grid, cell,
        provenance={"experiment": "rastrigin", "sigma2_coupling": sigma2_coupling,
                    **_config_provenance(base_config)},
    )


def cs_instance_factory(
    d: int, m: int, s: int, mu: float, p: float
) -> Callable[[RngStream], TrialProblem]:
    """Sparse-recovery problems with a fresh random instance per trial, drawn
    from the trial's instance channel, averaging over measurement
    randomness."""

    def factory(rng: RngStream) -> TrialProblem:
        inst = generate_cs_instance(d, m, s, mu, p, rng)
        return TrialProblem(CsObjective(inst), x_star=inst.ground_truth, instance=inst)

    return factory


def cs_experiment_config(
    d: int,
    m: int,
    s: int,
    mu: float,
    p: float,
    base_config: ExperimentConfig,
) -> ExperimentConfig:
    """``base_config`` with a fresh random instance per trial."""
    return replace(base_config, objective_factory=cs_instance_factory(d, m, s, mu, p))


def cs_phase_diagram(
    lambda3_grid,
    m_grid,
    instance_spec: dict,
    base_config: ExperimentConfig,
) -> PhaseDiagram:
    """Recovery probability over (gradient-drift strength, measurement
    count).  instance_spec holds d, s, mu and p."""

    def cell(lambda3, m):
        params = replace(base_config.params, lambda3=float(lambda3))
        cfg = replace(base_config, params=params)
        return cs_experiment_config(
            instance_spec["d"], int(m), instance_spec["s"],
            instance_spec.get("mu", 0.01), instance_spec.get("p", 1.0), cfg,
        )

    return _sweep(
        "lambda3", lambda3_grid, "m", m_grid, cell,
        provenance={"experiment": "compressed_sensing", "instance": dict(instance_spec),
                    **_config_provenance(base_config)},
    )


def cs_recover(inst: CsInstance, config: ExperimentConfig) -> RecoveryResult:
    """Run the dynamics on one fixed instance and post-process the final
    consensus into a sparse solution, once: the trial is not scored by
    ``config.success`` first."""
    cfg = replace(
        config,
        objective_factory=lambda rng: TrialProblem(
            CsObjective(inst), x_star=inst.ground_truth, instance=inst
        ),
    )
    _, _, diverged_at, consensus = _final_consensus(cfg, 0)
    if diverged_at[0] >= 0:
        reason = str(DivergedError(int(diverged_at[0])))
        return RecoveryResult(False, np.array([], dtype=int), reason=reason)
    return recover_support(inst, consensus[0], config.success)


@dataclass
class DecayReport:
    fit: DecayFit
    chi1: float
    chi2: float
    bracket: tuple[float, float]
    rate_above_lower: bool
    times: np.ndarray
    values: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                **asdict(self.fit),
                "chi1": self.chi1,
                "chi2": self.chi2,
                "bracket": list(self.bracket),
                "rate_above_lower": self.rate_above_lower,
            }
        )


def decay_experiment(
    objective: Objective,
    x_star: np.ndarray,
    params: CboParams,
    constants: AssumptionConstants,
    n_particles: int,
    horizon: float,
    vartheta: float,
    seed: int = 0,
    eps: float = 1e-4,
    init: InitSpec = InitSpec(),
) -> DecayReport:
    """Fit the exponential decay rate of the empirical Lyapunov functional V
    along one run, on the window where it exceeds eps.

    The run is given ``x_star``, so it records V (and W2, which this fit
    does not read) at the initial state and after every step; the report
    keeps the ``time`` and ``lyapunov`` tracks up to the first value at or
    below eps."""
    rates = chi_rates(params, constants)
    if rates.chi1 <= 0:
        raise ValueError("no guarantee regime: chi1 must be positive")
    rng = RngStream(seed)
    ens = init_ensemble(n_particles, objective.dimension, init, rng, objective, params.dt)
    steps = round(horizon / params.dt)
    result = run(
        ens, params, Schedule(), objective, StoppingRule(max_steps=steps), rng,
        x_star=x_star,
    )
    times = result.diagnostics["time"]
    values = result.diagnostics["lyapunov"]
    window = values > eps
    # decay is only guaranteed until V reaches eps; cut at the first crossing
    if np.any(~window):
        cut = int(np.argmax(~window))
        times, values = times[:cut], values[:cut]
    if values.size < 3 or np.any(values <= 0):
        fit = DecayFit(rate=0.0, intercept=0.0, r_squared=0.0)
    else:
        fit = fit_exponential_rate(times, values)
    lower = (1.0 - vartheta) * rates.chi1
    upper = (1.0 + vartheta / 2.0) * rates.chi2
    return DecayReport(
        fit=fit,
        chi1=rates.chi1,
        chi2=rates.chi2,
        bracket=(lower, upper),
        rate_above_lower=fit.rate >= lower,
        times=times,
        values=values,
    )


def _config_provenance(config: ExperimentConfig) -> dict:
    p = config.params
    return {
        "params": {
            **asdict(p),
            "beta": p.beta if math.isfinite(p.beta) else "inf",
            "diffusion": p.diffusion.value,
        },
        "n_particles": config.n_particles,
        "horizon_T": config.horizon_T,
        "trials": config.trials,
        "seed": config.seed,
        "success": asdict(config.success),
    }
