"""Experiment orchestration: repeated seeded trials, success probabilities,
phase-diagram sweeps, sparse-recovery post-processing and Lyapunov-decay
experiments."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dynamics import CboParams, Ensemble, InitSpec, RunResult, Schedule, init_ensemble, run
from .errors import ConfigError, DivergedError
from .objectives import (
    CsObjective, Objective, check_cs_regularizer, check_cs_sizes, generate_cs_instance,
)
from .rng import RngStream
from .theory import (
    AssumptionConstants, DecayFit, chi_rates, fit_exponential_rate, lyapunov_V,
    time_horizon_star,
)


@dataclass(frozen=True)
class SuccessRule:
    """Trial pass condition.

    kind "consensus_near_minimizer": final consensus within ``threshold`` of
    x* in the given norm ("inf" or "2").  kind "exact_sparse_recovery":
    thresholded support recovery followed by least squares on a
    ``CsObjective``, see :func:`recover_support`.
    """

    kind: str = "consensus_near_minimizer"
    threshold: float = 0.25
    norm: str = "inf"
    support_threshold: float = 0.01
    residual_tol: float = 1e-4

    def __post_init__(self):
        if self.kind not in ("consensus_near_minimizer", "exact_sparse_recovery"):
            raise ConfigError(f"unknown success rule {self.kind!r}")
        # every check fails on NaN
        if not (
            0 <= self.threshold < math.inf
            and 0 < self.support_threshold < math.inf
            and 0 < self.residual_tol < math.inf
        ):
            raise ConfigError("success thresholds must be positive and finite")
        if self.norm not in ("inf", "2"):
            raise ConfigError(f"unknown norm {self.norm!r}")


@dataclass
class TrialProblem:
    objective: Objective
    x_star: np.ndarray | None = None


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
    n_particles: int = 100
    horizon_T: float = 20.0
    trials: int = 100
    seed: int = 0
    success: SuccessRule = SuccessRule()
    schedule: Schedule = Schedule()
    init: InitSpec = InitSpec()
    n_consensus: int | None = None

    def __post_init__(self):
        # the last step has the largest alpha a doubling schedule reaches
        self.schedule.params_at(self.params, horizon_steps(self.horizon_T, self.params.dt) - 1)
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.n_particles < 1:
            raise ConfigError("n_particles must be at least 1")
        if self.n_consensus is not None and self.n_consensus < 1:
            raise ConfigError("n_consensus must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    @property
    def n_steps(self) -> int:
        return horizon_steps(self.horizon_T, self.params.dt)

    def problem(self, trial: int = 0) -> TrialProblem:
        """The problem of trial ``trial``, drawn from its own streams."""
        return self.objective_factory(RngStream(self.seed, trial))


def horizon_steps(horizon: float, dt: float) -> int:
    """The number of steps of size ``dt`` that reach ``horizon``, which must
    be a positive integer multiple of ``dt``."""
    steps = horizon / dt
    whole = round(steps) if math.isfinite(steps) else 0
    if whole <= 0 or not math.isclose(steps, whole, abs_tol=1e-9):
        raise ConfigError("horizon_T must be a positive integer multiple of dt")
    return whole


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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = 1.959963984540054  # 95% two-sided
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


def recover_support(problem: TrialProblem, consensus: np.ndarray, rule: SuccessRule) -> RecoveryResult:
    """Post-processing: threshold the consensus entries at
    rule.support_threshold, solve least squares on the restricted columns of
    the problem's ``CsObjective`` and compare against its ``x_star``."""
    A, b, x_star = problem.objective.A, problem.objective.b, problem.x_star
    support = np.flatnonzero(np.abs(consensus) >= rule.support_threshold)
    if support.size == 0:
        return RecoveryResult(False, support, reason="empty support")
    z, _, rank, _ = np.linalg.lstsq(A[:, support], b, rcond=None)
    if rank < support.size:
        return RecoveryResult(False, support, reason="singular support system")
    x_hat = np.zeros_like(x_star)
    x_hat[support] = z
    covers = np.isin(np.flatnonzero(x_star), support).all()
    matches = np.max(np.abs(x_hat - x_star)) <= rule.residual_tol
    return RecoveryResult(bool(covers and matches), support, x_hat)


def _score(problem: TrialProblem, consensus: np.ndarray, rule: SuccessRule) -> tuple[bool, str | None]:
    if rule.kind == "consensus_near_minimizer":
        diff = consensus - problem.x_star
        dist = np.max(np.abs(diff)) if rule.norm == "inf" else np.linalg.norm(diff)
        return bool(dist < rule.threshold), None
    res = recover_support(problem, consensus, rule)
    return res.success, res.reason


def _run_batch(
    config: ExperimentConfig, trials: Sequence[int], rule: SuccessRule | None = None
) -> tuple[list[TrialProblem], RunResult]:
    """Trials ``trials`` of ``config`` as one array program: their problems
    and the run.  Each trial draws only from its own streams, so its result
    is the same in any batch.  Before the run starts, the problems are
    checked to carry what ``rule``, if given, scores against."""
    rng = RngStream(config.seed, trials)
    problems = [config.problem(t) for t in rng.trials]
    if rule is not None and any(p.x_star is None for p in problems):
        raise ValueError("success rule needs a known minimizer")
    if rule is not None and rule.kind == "exact_sparse_recovery" and not all(
        isinstance(p.objective, CsObjective) for p in problems
    ):
        raise ConfigError("exact_sparse_recovery needs a CsObjective")
    objective = type(problems[0].objective).stack([p.objective for p in problems])
    ens = init_ensemble(config.n_particles, objective.dimension, config.init, rng, objective)
    return problems, run(ens, config.params, config.schedule, objective, config.n_steps, rng,
                         n_consensus=config.n_consensus)


def _raise_if_diverged(result: RunResult) -> None:
    """Raise DivergedError if the trial of a batch of one diverged."""
    if (k := int(result.ensemble.diverged_at[0])) >= 0:
        raise DivergedError(k)


def _run_outcomes(config: ExperimentConfig, trials: Sequence[int]) -> list[TrialOutcome]:
    """Run a batch of trials and score each trial's final consensus."""
    problems, result = _run_batch(config, trials, config.success)
    outcomes = []
    for trial, problem, k, point in zip(trials, problems, result.ensemble.diverged_at,
                                        result.consensus):
        if k >= 0:
            outcomes.append(TrialOutcome(trial, False, True, str(DivergedError(int(k)))))
        else:
            success, reason = _score(problem, point, config.success)
            outcomes.append(TrialOutcome(trial, success, reason=reason, consensus=point))
    return outcomes


def run_report(config: ExperimentConfig) -> dict:
    """What ``cbo run`` reports of trial 0 of ``config``, run as a batch of
    one: the final consensus, the steps, the best memory energy and the
    distance to x*.  Raises DivergedError if the trial diverged."""
    (problem,), result = _run_batch(config, [0])
    _raise_if_diverged(result)
    consensus = result.consensus[0]
    return {"consensus": consensus.tolist(), "steps": result.n_steps,
            "best_memory_energy": float(result.ensemble.memory_energies[0].min()),
            "distance_to_minimizer": float(np.linalg.norm(consensus - problem.x_star))}


def run_single_trial(config: ExperimentConfig, trial: int) -> TrialOutcome:
    """Trial ``trial`` alone, as a batch of one, on the streams of
    (config.seed, trial)."""
    return _run_outcomes(config, [trial])[0]


def run_trials(config: ExperimentConfig) -> TrialSummary:
    """The M trials of a cell as one batch; trial t runs on the streams of
    (config.seed, t).  Only divergence is a trial outcome: any other error
    propagates."""
    return TrialSummary.from_outcomes(_run_outcomes(config, range(config.trials)))


@dataclass
class PhaseDiagram:
    """Success probabilities over a grid: ``cells[j][i]`` is the summary of
    cell (x_grid[i], y_grid[j])."""

    x_param: str
    x_grid: list
    y_param: str
    y_grid: list
    cells: list[list[TrialSummary]]
    provenance: dict = field(default_factory=dict)

    def _grid(self, name: str) -> list[list]:
        return [[getattr(s, name) for s in row] for row in self.cells]

    def to_csv(self) -> str:
        """One row per cell, y-major."""
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["x_param", "x_value", "y_param", "y_value",
                    "success_prob", "ci_low", "ci_high", "trials", "failures"])
        w.writerows(
            [self.x_param, xv, self.y_param, yv, s.probability, s.ci_low, s.ci_high,
             s.trials, s.failures]
            for yv, row in zip(self.y_grid, self.cells)
            for xv, s in zip(self.x_grid, row)
        )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "x_param": self.x_param,
                "x_grid": list(self.x_grid),
                "y_param": self.y_param,
                "y_grid": list(self.y_grid),
                "trials_per_cell": self.cells[0][0].trials,
                "cells": self._grid("probability"),
                "ci_low": self._grid("ci_low"),
                "ci_high": self._grid("ci_high"),
                "failures": self._grid("failures"),
                "config": self.provenance,
            },
            indent=2,
        )


def _sweep(
    x_param: str, x_grid, y_param: str, y_grid,
    config_for_cell: Callable[[object, object], ExperimentConfig], provenance: dict,
) -> PhaseDiagram:
    if len(x_grid) == 0 or len(y_grid) == 0:
        raise ConfigError("sweep grids must be nonempty")
    # every cell's settings are checked before the first cell runs
    configs = [[config_for_cell(xv, yv) for xv in x_grid] for yv in y_grid]
    cells = [[run_trials(config) for config in row] for row in configs]
    return PhaseDiagram(x_param, list(x_grid), y_param, list(y_grid), cells, provenance)


def rastrigin_phase_diagram(
    lambda2_grid,
    n_grid,
    base_config: ExperimentConfig,
    sigma2_coupling: str = "zero",
) -> PhaseDiagram:
    """Success probability over (memory-drift strength, particle count).

    sigma2_coupling picks the memory-noise convention: "zero" (no memory
    noise), "lambda2_sigma1" (sigma2 = lambda2 * sigma1) or "lambda1_sigma1"
    (sigma2 = lambda1 * sigma1); the base parameters' sigma2 must be 0."""
    if sigma2_coupling not in ("zero", "lambda2_sigma1", "lambda1_sigma1"):
        raise ConfigError(f"unknown sigma2 coupling {sigma2_coupling!r}")
    if base_config.params.sigma2 != 0.0:
        raise ConfigError("the sigma2 coupling sets sigma2 in every cell: params.sigma2 must be 0")

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


@dataclass(frozen=True)
class CsSpec:
    """A sparse-recovery problem size and regularizer: d unknowns, m
    measurements, sparsity s and the l_p penalty mu |x|_p^p.

    Called with a trial's RngStream, it is the trial factory of an
    experiment: a fresh random instance per trial, drawn from the trial's
    instance channel, averaging over measurement randomness."""

    d: int = 50
    m: int = 25
    s: int = 2
    mu: float = 0.01
    p: float = 1.0

    def __post_init__(self):
        check_cs_sizes(self.d, self.m, self.s)
        check_cs_regularizer(self.mu, self.p)

    def __call__(self, rng: RngStream) -> TrialProblem:
        return TrialProblem(*generate_cs_instance(self.d, self.m, self.s, self.mu, self.p, rng))


def cs_experiment_config(
    d: int, m: int, s: int, mu: float, p: float, base_config: ExperimentConfig
) -> ExperimentConfig:
    """``base_config`` with a fresh random instance per trial."""
    return replace(base_config, objective_factory=CsSpec(d, m, s, mu, p))


def cs_phase_diagram(
    lambda3_grid,
    m_grid,
    spec: CsSpec,
    base_config: ExperimentConfig,
) -> PhaseDiagram:
    """Recovery probability over (gradient-drift strength, measurement
    count); ``spec`` gives the other sizes and the regularizer."""

    def cell(lambda3, m):
        params = replace(base_config.params, lambda3=float(lambda3))
        return replace(base_config, params=params, objective_factory=replace(spec, m=int(m)))

    instance = asdict(spec)
    del instance["m"]
    return _sweep(
        "lambda3", lambda3_grid, "m", m_grid, cell,
        provenance={"experiment": "compressed_sensing", "instance": instance,
                    **_config_provenance(base_config)},
    )


@dataclass
class DecayReport:
    """The fitted decay rate against its bracket [(1 - vartheta) chi1,
    (1 + vartheta/2) chi2], and the time V first reached eps against the
    bracket [t_lower, t_star] of ``time_horizon_star`` at the run's V0.

    ``t_eps`` is None when V stays above eps over the horizon; ``t_star``
    and ``t_lower`` are None when V0 is not above eps, and
    ``eps_time_in_bracket`` is None when either side is missing."""

    fit: DecayFit
    chi1: float
    chi2: float
    bracket: tuple[float, float]
    rate_above_lower: bool
    times: np.ndarray
    values: np.ndarray
    t_eps: float | None = None
    t_star: float | None = None
    t_lower: float | None = None
    eps_time_in_bracket: bool | None = None

    def to_json(self) -> str:
        """The report without its V track, the fit's fields first."""
        payload = asdict(self)
        del payload["times"], payload["values"]
        return json.dumps({**payload.pop("fit"), **payload})


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
    along one run, a batch of one trial, on the window where it exceeds
    eps.  Raises DivergedError if the run diverged.

    The run's observer evaluates V at the initial state and after every
    step until V first reaches eps (or is NaN): decay is only guaranteed
    until then, so later values are never computed.  The report keeps the
    times and values above eps, and the time of the crossing as ``t_eps``."""
    rates = chi_rates(params, constants)
    if rates.chi1 <= 0:
        raise ConfigError("no guarantee regime: chi1 must be positive")
    if not (0 <= vartheta < 1 and eps > 0):
        raise ConfigError("decay needs vartheta in [0, 1) and a positive eps")
    steps = horizon_steps(horizon, params.dt)
    rng = RngStream(seed, [0])
    ens = init_ensemble(n_particles, objective.dimension, init, rng, objective)
    # x* laid out as the positions, so V's difference is one elementwise pass
    x_star = np.broadcast_to(np.asarray(x_star, dtype=float), ens.positions.shape).copy()
    times, values = [], []
    ended = False
    t_eps = None

    def observe(e: Ensemble) -> None:
        nonlocal ended, t_eps
        if ended:
            return
        v = lyapunov_V(e, x_star).total[0]
        t = e.step_index * params.dt
        if v > eps:
            times.append(t)
            values.append(v)
        else:  # at or below eps, or NaN
            ended = True
            t_eps = t if v <= eps else None

    _raise_if_diverged(run(ens, params, Schedule(), objective, steps, rng, observe=observe))
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    # every value kept is above eps > 0, so the log-linear fit applies
    if values.size < 3:
        fit = DecayFit(rate=0.0, intercept=0.0, r_squared=0.0)
    else:
        fit = fit_exponential_rate(times, values)
    lower = (1.0 - vartheta) * rates.chi1
    upper = (1.0 + vartheta / 2.0) * rates.chi2
    t_star = t_lower = in_bracket = None
    if values.size:
        t_star, t_lower = time_horizon_star(values[0], eps, vartheta, rates.chi1, rates.chi2)
        if t_eps is not None:
            in_bracket = t_lower <= t_eps <= t_star
    return DecayReport(
        fit=fit, chi1=rates.chi1, chi2=rates.chi2, bracket=(lower, upper),
        rate_above_lower=fit.rate >= lower, times=times, values=values, t_eps=t_eps,
        t_star=t_star, t_lower=t_lower, eps_time_in_bracket=in_bracket,
    )


def _config_provenance(config: ExperimentConfig) -> dict:
    """The fields of ``config`` but its trial factory, as JSON values."""
    out = {
        f.name: asdict(value) if is_dataclass(value := getattr(config, f.name)) else value
        for f in fields(config)
        if f.name != "objective_factory"
    }
    if math.isinf(config.params.beta):
        out["params"]["beta"] = "inf"
    return out
