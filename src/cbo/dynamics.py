"""Discretized consensus-based particle dynamics with memory effects and
gradient drift (Euler-Maruyama scheme)."""

from __future__ import annotations

import ctypes
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .objectives import Objective
from .rng import (
    CHANNEL_BATCH,
    CHANNEL_CONSENSUS,
    CHANNEL_GRADIENT,
    CHANNEL_INIT,
    CHANNEL_MEMORY,
    CHANNEL_SUBSET,
    RngStream,
)


def _keep_freed_heap() -> None:
    """Stop glibc from handing the heap top back to the OS after every step.

    A step allocates and frees several (..., N, d) temporaries.  At 64-128 KB
    each (a 3 x 100 x 50 sparse-recovery batch) they sit just under glibc's
    initial 128 KB mmap threshold, so whether a step trims the heap and the
    next one faults the pages back in depends on where unrelated long-lived
    allocations happen to lie: 0 or ~35-70 minor faults per step, up to 30%
    of such a cell's time.  The values set are the caps that glibc's own
    adaptive thresholds reach on 64-bit hosts."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # a C library without mallopt
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_keep_freed_heap()


class DivergedError(RuntimeError):
    """Raised when the ensemble develops non-finite coordinates."""

    def __init__(self, step_index: int):
        super().__init__(f"diverged ensemble at step {step_index}")
        self.step_index = step_index


class DiffusionType(Enum):
    ISOTROPIC = "isotropic"
    ANISOTROPIC = "anisotropic"


@dataclass(frozen=True)
class CboParams:
    """All dynamics parameters.

    beta = inf together with theta = 0 and kappa = 1/dt selects the exact
    historical-best memory rule, which reuses the objective values of the
    freshly moved particles and costs no extra evaluations.
    """

    lambda1: float = 1.0
    lambda2: float = 0.0
    lambda3: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0
    sigma3: float = 0.0
    alpha: float = 100.0
    beta: float = math.inf
    theta: float = 0.0
    kappa: float = 100.0
    dt: float = 0.01
    diffusion: DiffusionType = DiffusionType.ANISOTROPIC

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got dt={self.dt}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got alpha={self.alpha}")
        if self.lambda1 <= 0:
            raise ValueError(f"lambda1 must be positive, got lambda1={self.lambda1}")
        for name in ("lambda2", "lambda3", "sigma1", "sigma2", "sigma3", "theta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative (or inf)")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got kappa={self.kappa}")

    @property
    def uses_exact_memory(self) -> bool:
        return (
            math.isinf(self.beta)
            and self.theta == 0.0
            and abs(self.kappa * self.dt - 1.0) < 1e-12
        )


@dataclass
class Ensemble:
    """Positions X, historical-best memories Y and cached memory energies.

    Positions and memories have shape (..., N, d) and the energies (..., N):
    leading axes hold the independent trials of a batch, and an ensemble
    without them is a single trajectory.  Per trial, ``active`` marks the
    trials still advancing and ``diverged_at`` the step at which a trial
    turned non-finite (-1 while it has not).
    """

    positions: np.ndarray
    memories: np.ndarray
    memory_energies: np.ndarray
    step_index: int = 0
    dt: float = 0.0
    active: np.ndarray | None = None
    diverged_at: np.ndarray | None = None

    def __post_init__(self):
        if self.positions.ndim < 2 or self.positions.shape != self.memories.shape:
            raise ValueError("positions and memories must have identical (..., N, d) shape")
        if self.memory_energies.shape != self.positions.shape[:-1]:
            raise ValueError("memory_energies must have one entry per particle")
        if self.active is None:
            self.active = np.ones(self.batch_shape, dtype=bool)
        if self.diverged_at is None:
            self.diverged_at = np.full(self.batch_shape, -1)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.positions.shape[:-2]

    @property
    def n(self) -> int:
        return self.positions.shape[-2]

    @property
    def d(self) -> int:
        return self.positions.shape[-1]

    def copy(self) -> "Ensemble":
        return Ensemble(
            self.positions.copy(),
            self.memories.copy(),
            self.memory_energies.copy(),
            self.step_index,
            self.dt,
            self.active.copy(),
            self.diverged_at.copy(),
        )


@dataclass(frozen=True)
class Schedule:
    """Per-epoch parameter schedules: optional alpha doubling and log2
    noise cooling sigma_epoch = sigma_0 / log2(epoch + 2)."""

    alpha_rule: str = "constant"
    sigma_rule: str = "constant"
    epoch_length: int = 1

    def __post_init__(self):
        if self.alpha_rule not in ("constant", "double_per_epoch"):
            raise ValueError(f"unknown alpha_rule {self.alpha_rule!r}")
        if self.sigma_rule not in ("constant", "log2_cooling"):
            raise ValueError(f"unknown sigma_rule {self.sigma_rule!r}")
        if self.epoch_length <= 0:
            raise ValueError("epoch_length must be positive")

    def params_at(self, base: CboParams, step_index: int) -> CboParams:
        epoch = step_index // self.epoch_length
        if epoch == 0 or (self.alpha_rule == "constant" and self.sigma_rule == "constant"):
            return base
        out = base
        if self.alpha_rule == "double_per_epoch":
            out = replace(out, alpha=base.alpha * 2.0**epoch)
        if self.sigma_rule == "log2_cooling":
            scale = 1.0 / math.log2(epoch + 2)
            out = replace(
                out,
                sigma1=base.sigma1 * scale,
                sigma2=base.sigma2 * scale,
                sigma3=base.sigma3 * scale,
            )
        return out


@dataclass(frozen=True)
class StoppingRule:
    max_steps: int
    consensus_tol: float | None = None  # stop when the consensus point moves less

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")


@dataclass
class RunResult:
    ensemble: Ensemble
    consensus: np.ndarray
    n_steps: int
    diagnostics: dict = field(default_factory=dict)


class LyapunovValue(NamedTuple):
    """The Lyapunov functional of an empirical ensemble, one value per trial."""

    total: float | np.ndarray
    position_part: float | np.ndarray  # (1/2N) sum ||X_i - x*||^2
    memory_part: float | np.ndarray  # (1/2N) sum ||Y_i - X_i||^2


def _mean_sq(diff: np.ndarray) -> np.ndarray:
    """Mean over the particle axis of the squared norms of (..., N, d) rows.

    The sum over N divided by N is the arithmetic ``ndarray.mean`` does,
    bit for bit, without its Python-level dispatch."""
    return np.einsum("...ij,...ij->...i", diff, diff).sum(axis=-1) / diff.shape[-2]


def lyapunov_V(ens: Ensemble, x_star: np.ndarray) -> LyapunovValue:
    x_star = np.asarray(x_star, dtype=float)
    xp = 0.5 * _mean_sq(ens.positions - x_star)
    yp = 0.5 * _mean_sq(ens.memories - ens.positions)
    return LyapunovValue(xp + yp, xp, yp)


def wasserstein2_to_dirac(
    ens: Ensemble, x_star: np.ndarray, lyapunov: LyapunovValue | None = None
) -> float | np.ndarray:
    """Squared Wasserstein-2 distance of the empirical pair measure to the
    Dirac at (x*, x*), one value per trial.

    Its position term is twice the position part of V; passing the
    ensemble's ``lyapunov_V`` reuses it, with the same result, since doubling
    is exact."""
    x_star = np.asarray(x_star, dtype=float)
    if lyapunov is None:
        sq_x = _mean_sq(ens.positions - x_star)
    else:
        sq_x = 2.0 * lyapunov.position_part
    return sq_x + _mean_sq(ens.memories - x_star)


def consensus_point(points, energies, alpha, subset=None) -> np.ndarray:
    """Softmax-weighted average of points with weights exp(-alpha * energy),
    over the particle axis of points (..., N, d) and energies (..., N).

    The minimum energy is subtracted inside the exponential; this cancels in
    the normalized weights and keeps alpha up to 1e15 overflow-safe.  The
    optional ``subset`` holds particle indices, (k,) or one row per trial.
    """
    points = np.asarray(points, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if subset is not None:
        subset = np.asarray(subset, dtype=int)
        if subset.size == 0:
            raise ValueError("empty consensus set")
        points = np.take_along_axis(points, subset[..., None], axis=-2)
        energies = np.take_along_axis(energies, subset, axis=-1)
    if points.shape[-2] == 0:
        raise ValueError("empty consensus set")
    if not np.all(np.isfinite(energies)):
        raise ValueError("invalid energy")
    weights = np.exp(-alpha * (energies - energies.min(axis=-1, keepdims=True)))
    # a stacked (1, N) @ (N, d) product per trial: rows equal the unbatched result
    return (weights[..., None, :] @ points)[..., 0, :] / weights.sum(axis=-1, keepdims=True)


def memory_switch(e_x, e_y, beta, theta):
    """Smoothed Heaviside switch 1/2 (1 + theta + tanh(beta (E(y) - E(x)))).

    For beta = inf this is the sign limit with sign(0) = 0, so ties keep the
    old memory, matching the strict inequality of the exact rule.
    """
    e_x = np.asarray(e_x, dtype=float)
    e_y = np.asarray(e_y, dtype=float)
    if math.isinf(beta):
        return 0.5 * (1.0 + theta) + 0.5 * np.sign(e_y - e_x)
    return 0.5 * (1.0 + theta + np.tanh(beta * (e_y - e_x)))


def exact_memory_update(ens: Ensemble, new_positions, new_energies) -> Ensemble:
    """Replace memory rows on strict energy improvement (in place), in the
    active trials only.

    Reuses the supplied energies, so no extra objective evaluations happen;
    memory energies are non-increasing along any trajectory.
    """
    new_positions = np.asarray(new_positions, dtype=float)
    new_energies = np.asarray(new_energies, dtype=float)
    if new_positions.shape != ens.memories.shape:
        raise ValueError("shape mismatch between new positions and memories")
    if new_energies.shape != ens.memory_energies.shape:
        raise ValueError("shape mismatch between new energies and cache")
    improved = new_energies < ens.memory_energies
    if not ens.active.all():
        improved &= ens.active[..., None]
    np.copyto(ens.memories, new_positions, where=improved[..., None])
    np.copyto(ens.memory_energies, new_energies, where=improved)
    return ens


def _diffusion_noise(arg: np.ndarray, z: np.ndarray, diffusion: DiffusionType) -> np.ndarray:
    if diffusion is DiffusionType.ANISOTROPIC:
        return arg * z
    return np.linalg.norm(arg, axis=-1, keepdims=True) * z


def _unless_frozen(active: np.ndarray | None, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``new``, with the trials outside ``active`` (None: all are in) kept at
    ``old``."""
    if active is None:
        return new
    return np.where(active.reshape(active.shape + (1,) * (new.ndim - active.ndim)), new, old)


def step(
    ens: Ensemble,
    params: CboParams,
    objective: Objective,
    rng: RngStream,
    batch: int | np.ndarray | None = None,
    n_consensus: int | None = None,
) -> Ensemble:
    """One Euler-Maruyama update of positions followed by the memory update.

    The consensus point is computed from the memories Y, with optional random
    particle subset of size n_consensus.  With a mini-batch index (one per
    trial) the memory energies are first re-evaluated on that batch.

    A trial whose positions or energies turn non-finite in this step is
    frozen at its state before it, and the step is recorded in its
    ``diverged_at``; an ensemble without a trial axis raises DivergedError
    instead.  Frozen trials are never written again.  Mutates and returns
    ``ens``.
    """
    k = ens.step_index
    x = ens.positions
    y = ens.memories
    e_y = ens.memory_energies
    dt = params.dt

    # non-finite values are caught by the per-trial checks below
    with np.errstate(over="ignore", invalid="ignore"):
        ok = True
        if batch is not None:
            e_y = objective.values(y, batch)
            ok = np.isfinite(e_y).all(axis=-1)
            # a trial failing here keeps its finite energies for the consensus
            e_y = np.where(ok[..., None], e_y, ens.memory_energies)

        subset = None
        if n_consensus is not None and n_consensus < ens.n:
            subset = rng.draw(
                CHANNEL_SUBSET, lambda gen: gen.choice(ens.n, size=n_consensus, replace=False)
            )
        y_alpha = consensus_point(y, e_y, params.alpha, subset)[..., None, :]

        # each difference feeds a drift term and a noise term: computed once
        x_ya = x - y_alpha
        drift = params.lambda1 * x_ya
        x_y = x - y if params.lambda2 != 0.0 or params.sigma2 != 0.0 else None
        if params.lambda2 != 0.0:
            drift = drift + params.lambda2 * x_y
        grads = None
        if params.lambda3 != 0.0 or params.sigma3 != 0.0:
            grads = objective.gradients(x, batch)
            if params.lambda3 != 0.0:
                drift = drift + params.lambda3 * grads

        x_new = x - dt * drift
        sqrt_dt = math.sqrt(dt)
        if params.sigma1 != 0.0:
            z = rng.gaussians(CHANNEL_CONSENSUS, ens.n, ens.d)
            x_new = x_new + params.sigma1 * sqrt_dt * _diffusion_noise(x_ya, z, params.diffusion)
        if params.sigma2 != 0.0:
            z = rng.gaussians(CHANNEL_MEMORY, ens.n, ens.d)
            x_new = x_new + params.sigma2 * sqrt_dt * _diffusion_noise(x_y, z, params.diffusion)
        if params.sigma3 != 0.0:
            z = rng.gaussians(CHANNEL_GRADIENT, ens.n, ens.d)
            x_new = x_new + params.sigma3 * sqrt_dt * _diffusion_noise(grads, z, params.diffusion)

        e_new = objective.values(x_new, batch)
        ok = ok & np.isfinite(x_new).all(axis=(-2, -1)) & np.isfinite(e_new).all(axis=-1)
        if not params.uses_exact_memory:
            s = memory_switch(e_new, e_y, params.beta, params.theta)
            y_new = y + dt * params.kappa * (x_new - y) * s[..., None]
            # the smoothed rule moves the memory, so its energy is re-evaluated
            e_y_new = objective.values(y_new, batch)
            ok = ok & np.isfinite(e_y_new).all(axis=-1)

    if not ok.all():
        if not ens.batch_shape:
            raise DivergedError(k)
        ens.diverged_at[ens.active & ~ok] = k
        ens.active = ens.active & ok
    active = None if ens.active.all() else ens.active

    ens.positions = _unless_frozen(active, x_new, x)
    if params.uses_exact_memory:
        if batch is not None:
            ens.memory_energies = _unless_frozen(active, e_y, ens.memory_energies)
        exact_memory_update(ens, x_new, e_new)
    else:
        ens.memories = _unless_frozen(active, y_new, y)
        ens.memory_energies = _unless_frozen(active, e_y_new, ens.memory_energies)
    ens.step_index = k + 1
    ens.dt = dt
    return ens


@dataclass(frozen=True)
class InitSpec:
    """Initial distribution for the particle positions (memories start equal).

    kind "gaussian": mean plus per-coordinate std; kind "uniform": box
    [low, high]^d.
    """

    kind: str = "gaussian"
    mean: float = 0.0
    std: float = 1.0
    low: float = -1.0
    high: float = 1.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.std < 0:
                raise ValueError("std must be nonnegative")
        elif self.kind == "uniform":
            if not self.high > self.low:
                raise ValueError("empty box: high must exceed low")
        else:
            raise ValueError(f"unknown init kind {self.kind!r}")


def init_ensemble(
    n: int, d: int, init: InitSpec, rng: RngStream, objective: Objective, dt: float,
    batch: int | np.ndarray | None = None,
) -> Ensemble:
    """n particles in d dimensions drawn from ``init``, one ensemble per
    trial of ``rng`` (a trial axis when ``rng`` covers a batch).

    Raises ValueError, naming the trials, when the objective is not finite
    at some initial position: the consensus weights need finite energies."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if init.kind == "gaussian":
        x = init.mean + init.std * rng.gaussians(CHANNEL_INIT, n, d)
    else:
        x = rng.draw(CHANNEL_INIT, lambda gen: gen.uniform(init.low, init.high, size=(n, d)))
    energies = np.asarray(objective.values(x, batch), dtype=float)
    finite = np.isfinite(energies).all(axis=-1).reshape(-1)
    if not finite.all():
        bad = [t for t, ok in zip(rng.trials, finite) if not ok]
        raise ValueError(f"objective is not finite at the initial positions of trial(s) {bad}")
    return Ensemble(x, x.copy(), energies, 0, dt)


def run(
    initial: Ensemble,
    params: CboParams,
    schedule: Schedule,
    objective: Objective,
    stop: StoppingRule,
    rng: RngStream,
    x_star: np.ndarray | None = None,
    n_consensus: int | None = None,
) -> RunResult:
    """Iterate ``step`` up to stop.max_steps, applying the schedule at epoch
    boundaries.

    Trials end independently: a trial stops when its consensus point moves
    less than ``stop.consensus_tol`` in one step or when it diverges, and the
    run ends when no trial is active; ``n_steps`` counts the steps the batch
    took.  ``RunResult.consensus`` holds each trial's consensus point when it
    stopped, computed with the parameters of its last step and from the
    memory energies cached by that step, which under mini-batching are the
    energies on that step's batch; it is NaN for a diverged trial.

    Given the minimizer ``x_star``, the run records three tracks in
    ``diagnostics``, at the initial state and after every step: ``time``,
    ``lyapunov`` (the total of ``lyapunov_V``) and ``w2_to_dirac``, one value
    per trial.  Without it nothing is recorded and ``diagnostics`` is
    empty."""
    ens = initial
    diagnostics = defaultdict(list)

    def snapshot(e: Ensemble):
        v = lyapunov_V(e, x_star)
        diagnostics["time"].append(e.step_index * params.dt)
        diagnostics["lyapunov"].append(v.total)
        diagnostics["w2_to_dirac"].append(wasserstein2_to_dirac(e, x_star, v))

    record = x_star is not None
    if record:
        snapshot(ens)

    step_params = schedule.params_at(params, ens.step_index)
    consensus = np.full(ens.batch_shape + (ens.d,), np.nan)
    prev_consensus = None
    realized = 0
    batched = objective.n_batches > 1
    for _ in range(stop.max_steps):
        if not ens.active.any():
            break
        step_params = schedule.params_at(params, ens.step_index)
        batch = None
        if batched:
            batch = rng.draw(CHANNEL_BATCH, lambda gen: gen.integers(objective.n_batches))
        step(ens, step_params, objective, rng, batch=batch, n_consensus=n_consensus)
        realized += 1
        if record:
            snapshot(ens)
        if stop.consensus_tol is not None:
            cur = consensus_point(ens.memories, ens.memory_energies, step_params.alpha)
            if prev_consensus is not None:
                moved = np.linalg.norm(cur - prev_consensus, axis=-1)
                settled = ens.active & (moved < stop.consensus_tol)
                if settled.any():
                    consensus = np.where(settled[..., None], cur, consensus)
                    ens.active = ens.active & ~settled
            prev_consensus = cur

    if ens.active.any():
        last = consensus_point(ens.memories, ens.memory_energies, step_params.alpha)
        consensus = np.where(ens.active[..., None], last, consensus)
    diagnostics = {key: np.asarray(val) for key, val in diagnostics.items()}
    return RunResult(ens, consensus, realized, diagnostics)
