"""Discretized consensus-based particle dynamics with memory effects and
gradient drift (Euler-Maruyama scheme)."""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DivergedError
from .objectives import Objective
from .rng import (
    CHANNEL_BATCH,
    CHANNEL_CONSENSUS,
    CHANNEL_GRADIENT,
    CHANNEL_INIT,
    CHANNEL_MEMORY,
    CHANNEL_SUBSET,
    RngStream,
    _Child,
    second_cpu_pays,
)

_REEXPORTED = (DivergedError,)  # not raised here; benchmark/workloads.py imports it from here


def _keep_freed_heap() -> None:
    """Stop glibc from handing the heap top back to the OS after every step.

    A step allocates and frees several (..., N, d) temporaries.  At 64-128 KB
    each (a 3 x 100 x 50 sparse-recovery batch) they sit just under glibc's
    initial 128 KB mmap threshold, so whether a step trims the heap and the
    next one faults the pages back in depends on where unrelated long-lived
    allocations happen to lie.  With the in-place sparse-recovery step, a
    plain script running that cell took 0.1 minor faults per step without
    this call, but the benchmark process took about 35 (0.9-1.1 million per
    20 s run, against 60 thousand with it) and its wall time per cell was
    0.77-0.87 s against 0.66-0.73 s with it, in five interleaved pairs on a
    2-vCPU Xeon VM.  Pinned to one CPU (``taskset -c 0``), the cell read
    0.53-0.55 s with it and 0.81-0.82 s without (three pairs); on two CPUs,
    where ``run`` splits the batch into (2, 100, 50) and (1, 100, 50) parts,
    20 pairs did not resolve a difference.  The values set are the caps
    that glibc's own adaptive thresholds reach on 64-bit hosts."""
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


@dataclass(frozen=True)
class CboParams:
    """All dynamics parameters.

    beta = inf together with theta = 0 and kappa = 1/dt selects the exact
    historical-best memory rule, which reuses the objective values of the
    freshly moved particles and costs no extra evaluations.  The defaults
    are that baseline: kappa left unset is 1/dt.  It is resolved once, so
    ``dataclasses.replace(params, dt=...)`` keeps the resolved kappa.
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
    kappa: float | None = None
    dt: float = 0.01
    diffusion: str = "anisotropic"

    def __post_init__(self):
        # kappa unset is 1/dt; a bad dt is left for the loop to refuse first
        if self.kappa is None and 0 < self.dt < math.inf:
            object.__setattr__(self, "kappa", 1.0 / self.dt)
        # every check fails on NaN; beta alone may be inf
        for name in ("dt", "alpha", "lambda1", "kappa"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {name}={value}")
        for name in ("lambda2", "lambda3", "sigma1", "sigma2", "sigma3", "theta"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be nonnegative and finite, got {name}={value}")
        if not self.beta >= 0:
            raise ConfigError(f"beta must be nonnegative (or inf), got beta={self.beta}")
        if self.diffusion not in ("anisotropic", "isotropic"):
            raise ConfigError(f"unknown diffusion {self.diffusion!r}")

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
    without them is a single trajectory.  Positions and memories are held as
    C-contiguous float64, a copy only of arrays laid out otherwise, so that
    a particle's row is one block of memory.  Per trial, ``active`` marks
    the trials still advancing and ``diverged_at`` the step at which a trial
    turned non-finite (-1 while it has not).
    """

    positions: np.ndarray
    memories: np.ndarray
    memory_energies: np.ndarray
    step_index: int = 0
    active: np.ndarray | None = None
    diverged_at: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=float)
        self.memories = np.ascontiguousarray(self.memories, dtype=float)
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


@dataclass(frozen=True)
class Schedule:
    """Per-epoch parameter schedules: optional alpha doubling and log2
    noise cooling sigma_epoch = sigma_0 / log2(epoch + 2)."""

    alpha_rule: str = "constant"
    sigma_rule: str = "constant"
    epoch_length: int = 100

    def __post_init__(self):
        if self.alpha_rule not in ("constant", "double_per_epoch"):
            raise ConfigError(f"unknown alpha_rule {self.alpha_rule!r}")
        if self.sigma_rule not in ("constant", "log2_cooling"):
            raise ConfigError(f"unknown sigma_rule {self.sigma_rule!r}")
        if self.epoch_length <= 0:
            raise ConfigError("epoch_length must be positive")

    def sigma_scale(self, step_index: int) -> float:
        """The factor the schedule applies to every sigma at step
        ``step_index``, non-increasing in it."""
        epoch = step_index // self.epoch_length
        if epoch == 0 or self.sigma_rule == "constant":
            return 1.0
        return 1.0 / math.log2(epoch + 2)

    def params_at(self, base: CboParams, step_index: int) -> CboParams:
        """The parameters of step ``step_index``.  Raises ConfigError when
        alpha doubling leaves the floats there: an infinite alpha would turn
        the consensus NaN and read as divergence."""
        epoch = step_index // self.epoch_length
        if epoch == 0 or (self.alpha_rule == "constant" and self.sigma_rule == "constant"):
            return base
        out = base
        if self.alpha_rule == "double_per_epoch":
            try:
                alpha = math.ldexp(base.alpha, epoch)  # exactly alpha * 2**epoch
            except OverflowError:
                raise ConfigError(
                    f"alpha doubling overflows at step {step_index} (epoch {epoch})"
                ) from None
            out = replace(out, alpha=alpha)
        if self.sigma_rule == "log2_cooling":
            scale = self.sigma_scale(step_index)
            out = replace(
                out,
                sigma1=base.sigma1 * scale,
                sigma2=base.sigma2 * scale,
                sigma3=base.sigma3 * scale,
            )
        return out


@dataclass
class RunResult:
    ensemble: Ensemble
    consensus: np.ndarray
    n_steps: int


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
        points = np.take_along_axis(points, subset[..., None], axis=-2)
        energies = np.take_along_axis(energies, subset, axis=-1)
    if points.shape[-2] == 0:
        raise ValueError("empty consensus set")
    if not np.isfinite(energies).all():
        raise ValueError("invalid energy")
    weights = np.exp(-alpha * (energies - energies.min(axis=-1, keepdims=True)))
    # a stacked (1, N) @ (N, d) product per trial: rows equal the unbatched result
    return (weights[..., None, :] @ points)[..., 0, :] / weights.sum(axis=-1, keepdims=True)


def memory_switch(e_x, e_y, beta, theta):
    """Smoothed Heaviside switch 1/2 (1 + theta + tanh(beta (E(y) - E(x)))).

    For beta = inf this is the sign limit with sign(0) = 0, so a tie gives
    S = (1 + theta) / 2 and moves the memory by half a step at theta = 0;
    only the exact rule, with its strict inequality, keeps the old memory
    on a tie.
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
    memory energies are non-increasing along any trajectory.  A row is copied
    as one item of d * 8 bytes, through a view of the C-contiguous rows.
    """
    new_positions = np.ascontiguousarray(new_positions, dtype=float)
    new_energies = np.asarray(new_energies, dtype=float)
    if new_positions.shape != ens.memories.shape:
        raise ValueError("shape mismatch between new positions and memories")
    if new_energies.shape != ens.memory_energies.shape:
        raise ValueError("shape mismatch between new energies and cache")
    improved = new_energies < ens.memory_energies
    if not ens.active.all():
        improved &= ens.active[..., None]
    # memories reassigned since the ensemble was built may be laid out otherwise
    ens.memories = np.ascontiguousarray(ens.memories, dtype=float)
    row = np.dtype((np.void, ens.d * new_positions.itemsize))
    np.copyto(ens.memories.view(row)[..., 0], new_positions.view(row)[..., 0], where=improved)
    np.copyto(ens.memory_energies, new_energies, where=improved)
    return ens


def _scaled_noise(
    arg: np.ndarray, z: np.ndarray, diffusion: str, scale: float
) -> np.ndarray:
    """``scale * D(arg) * z`` for the diffusion matrix D, written into ``z``:
    D(arg) = diag(arg) (anisotropic) or ||arg|| Id (isotropic) per particle."""
    if diffusion == "anisotropic":
        z *= arg
    else:
        z *= np.linalg.norm(arg, axis=-1, keepdims=True)
    z *= scale
    return z


def _unless_frozen(active: np.ndarray | None, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``new``, with the trials outside ``active`` (None: all are in) kept at
    ``old``."""
    if active is None:
        return new
    return np.where(active.reshape(active.shape + (1,) * (new.ndim - active.ndim)), new, old)


def _draw_batch(rng: RngStream, n_batches: int) -> np.ndarray:
    return rng.draw(CHANNEL_BATCH, lambda gen: gen.integers(n_batches))


def _draw_subset(rng: RngStream, n: int, k: int) -> np.ndarray:
    return rng.draw(CHANNEL_SUBSET, lambda gen: gen.choice(n, size=k, replace=False))


def step(
    ens: Ensemble,
    params: CboParams,
    objective: Objective,
    rng: RngStream,
    batch: int | np.ndarray | None = None,
    n_consensus: int | None = None,
    residual: np.ndarray | None = None,
) -> np.ndarray | None:
    """One Euler-Maruyama update of positions followed by the memory update.

    The consensus point is computed from the memories Y, with optional random
    particle subset of size n_consensus.  With a mini-batch index (one per
    trial) the memory energies are first re-evaluated on that batch.

    A trial whose positions or energies turn non-finite in this step is
    frozen at its state before it, and the step is recorded in its
    ``diverged_at``, with or without a trial axis.  Frozen trials are never
    written again.  Mutates ``ens``.

    The gradients reuse ``residual``, the residual of ``objective`` at
    ``ens.positions`` (see ``Objective``), unless there is a mini-batch.
    Returns the residual of the new positions when the next step may reuse
    it (gradients needed, no mini-batch, no trial frozen), else None.
    """
    k = ens.step_index
    x = ens.positions
    y = ens.memories
    e_y = ens.memory_energies
    dt = params.dt
    exact = params.uses_exact_memory
    needs_grads = params.lambda3 != 0.0 or params.sigma3 != 0.0

    # non-finite values are caught by the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        ok = True
        if batch is not None:
            e_y = objective.values(y, batch)
            ok = np.isfinite(e_y).all(axis=-1)
            # a trial failing here keeps its finite energies for the consensus
            e_y = np.where(ok[..., None], e_y, ens.memory_energies)

        subset = None
        if n_consensus is not None and n_consensus < ens.n:
            subset = _draw_subset(rng, ens.n, n_consensus)
        y_alpha = consensus_point(y, e_y, params.alpha, subset)

        # each difference feeds a drift term and a noise term: computed once;
        # the consensus laid out as the particles makes x - y_alpha one pass
        x_ya = x - np.repeat(y_alpha[..., None, :], ens.n, axis=-2)
        drift = params.lambda1 * x_ya
        x_y = x - y if params.lambda2 != 0.0 or params.sigma2 != 0.0 else None
        if params.lambda2 != 0.0:
            drift += params.lambda2 * x_y
        grads = None
        if needs_grads:
            if residual is None or batch is not None:
                grads = objective.gradients(x, batch)
            else:
                grads = objective.gradients(x, batch, residual)
            if params.lambda3 != 0.0:
                drift += params.lambda3 * grads

        drift *= dt
        x_new = np.subtract(x, drift, out=drift)
        sqrt_dt = math.sqrt(dt)
        if params.sigma1 != 0.0:
            z = rng.gaussians(CHANNEL_CONSENSUS, ens.n, ens.d)
            x_new += _scaled_noise(x_ya, z, params.diffusion, params.sigma1 * sqrt_dt)
        if params.sigma2 != 0.0:
            z = rng.gaussians(CHANNEL_MEMORY, ens.n, ens.d)
            x_new += _scaled_noise(x_y, z, params.diffusion, params.sigma2 * sqrt_dt)
        if params.sigma3 != 0.0:
            z = rng.gaussians(CHANNEL_GRADIENT, ens.n, ens.d)
            x_new += _scaled_noise(grads, z, params.diffusion, params.sigma3 * sqrt_dt)

        if needs_grads and batch is None:
            e_new, new_residual = objective.values_and_residual(x_new, batch)
        else:
            e_new, new_residual = objective.values(x_new, batch), None
        new = (x_new, e_new)
        if not exact:
            s = memory_switch(e_new, e_y, params.beta, params.theta)
            y_new = y + dt * params.kappa * (x_new - y) * s[..., None]
            # the smoothed rule moves the memory, so its energy is re-evaluated
            e_y_new = objective.values(y_new, batch)
            new += (e_y_new,)

    # per-trial masks only under a mini-batch or when some new value is not finite
    if batch is not None or not all(np.isfinite(a).all() for a in new):
        ok = ok & np.isfinite(x_new).all(axis=(-2, -1))
        for a in new[1:]:
            ok = ok & np.isfinite(a).all(axis=-1)
        if not ok.all():
            ens.diverged_at[ens.active & ~ok] = k
            ens.active = ens.active & ok
    active = None if ens.active.all() else ens.active

    ens.positions = _unless_frozen(active, x_new, x)
    if exact:
        if batch is not None:
            ens.memory_energies = _unless_frozen(active, e_y, ens.memory_energies)
        exact_memory_update(ens, x_new, e_new)
    else:
        ens.memories = _unless_frozen(active, y_new, y)
        ens.memory_energies = _unless_frozen(active, e_y_new, ens.memory_energies)
    ens.step_index = k + 1
    # a frozen trial keeps its old positions, which new_residual does not describe
    return new_residual if active is None else None


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
            if not (math.isfinite(self.mean) and 0 <= self.std < math.inf):
                raise ConfigError("gaussian init needs a finite mean and a finite nonnegative std")
        elif self.kind == "uniform":
            if not (math.isfinite(self.low) and math.isfinite(self.high)):
                raise ConfigError("uniform init needs a finite box")
            if not self.high > self.low:
                raise ConfigError("empty box: high must exceed low")
        else:
            raise ConfigError(f"unknown init kind {self.kind!r}")


def init_ensemble(
    n: int, d: int, init: InitSpec, rng: RngStream, objective: Objective
) -> Ensemble:
    """n particles in d dimensions drawn from ``init``, one ensemble per
    trial of ``rng`` (a trial axis when ``rng`` covers a batch), at step 0.
    The memories start at the positions, with their energies at
    ``batch=None``, which a mini-batched objective evaluates on batch 0.

    Raises ValueError, naming the trials, when the objective is not finite
    at some initial position: the consensus weights need finite energies."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if init.kind == "gaussian":
        x = init.mean + init.std * rng.gaussians(CHANNEL_INIT, n, d)
    else:
        x = rng.draw(CHANNEL_INIT, lambda gen: gen.uniform(init.low, init.high, size=(n, d)))
    energies = np.asarray(objective.values(x), dtype=float)
    finite = np.isfinite(energies).all(axis=-1).reshape(-1)
    if not finite.all():
        bad = [t for t, ok in zip(rng.trials, finite) if not ok]
        raise ValueError(f"objective is not finite at the initial positions of trial(s) {bad}")
    return Ensemble(x, x.copy(), energies)


def _noise_channels(params: CboParams, schedule: Schedule, last_step: int) -> tuple[int, ...]:
    """The Gaussian channels that ``step`` draws on every step up to
    ``last_step``: those whose sigma the schedule keeps nonzero at its
    smallest, at ``last_step``."""
    scale = schedule.sigma_scale(last_step)
    sigmas = {CHANNEL_CONSENSUS: params.sigma1, CHANNEL_MEMORY: params.sigma2,
              CHANNEL_GRADIENT: params.sigma3}
    return tuple(c for c, sigma in sigmas.items() if sigma * scale != 0.0)


# the per-trial state of an ensemble, the part a split run hands back
_TRIAL_FIELDS = tuple(f.name for f in fields(Ensemble) if f.name != "step_index")


def _steps(
    ens: Ensemble,
    params: CboParams,
    schedule: Schedule,
    objective: Objective,
    max_steps: int,
    rng: RngStream,
    n_consensus: int | None,
    observe: Callable[[Ensemble], object] | None = None,
) -> None:
    """The step loop of ``run``: up to ``max_steps`` steps, until every
    trial has diverged, with ``observe`` called after each."""
    residual = None
    for _ in range(max_steps):
        if not ens.active.any():
            break
        step_params = schedule.params_at(params, ens.step_index)
        batch = None
        if objective.n_batches > 1:
            batch = _draw_batch(rng, objective.n_batches)
        residual = step(ens, step_params, objective, rng, batch, n_consensus, residual)
        if observe is not None:
            observe(ens)


def _splits(ens: Ensemble, params: CboParams, objective: Objective, rng: RngStream,
            max_steps: int) -> bool:
    """Whether ``run`` steps the trials of ``ens`` in two processes: a batch
    of two or more trials without noise, whose objective splits as it
    stacks, with enough work for a second CPU."""
    batch = ens.batch_shape
    return (
        len(batch) == 1
        and batch[0] >= 2
        and rng.batch_shape == batch
        and params.sigma1 == params.sigma2 == params.sigma3 == 0.0
        and all("part" in vars(c) for c in type(objective).__mro__ if "stack" in vars(c))
        and second_cpu_pays(batch[0] * ens.n * ens.d * max_steps)
    )


def _split_steps(
    ens: Ensemble,
    params: CboParams,
    schedule: Schedule,
    objective: Objective,
    max_steps: int,
    rng: RngStream,
    n_consensus: int | None,
) -> None:
    """``_steps`` over the leading ceil(M/2) trials here and the others in a
    forked child, each part on its own sub-ensemble, sub-objective and
    sub-stream, merged back into ``ens`` and ``rng`` as if stepped together.
    When no child starts or it fails, its trials are stepped here."""
    m = ens.batch_shape[0]
    halves = (slice(0, m - m // 2), slice(m - m // 2, m))
    ensembles = [Ensemble(**{name: getattr(ens, name)[s] for name in _TRIAL_FIELDS},
                          step_index=ens.step_index) for s in halves]
    objectives = [objective.part(s) for s in halves]
    streams = [rng.part(s) for s in halves]

    def advance(i, observe=None):
        _steps(ensembles[i], params, schedule, objectives[i], max_steps, streams[i],
               n_consensus, observe)

    # what every step draws besides noise; a part that stops early, its
    # trials all diverged, draws it for the steps the other part went on
    draws = []
    if objective.n_batches > 1:
        draws.append((CHANNEL_BATCH, lambda r: _draw_batch(r, objective.n_batches)))
    if n_consensus is not None and n_consensus < ens.n:
        draws.append((CHANNEL_SUBSET, lambda r: _draw_subset(r, ens.n, n_consensus)))
    channels = tuple(c for c, _ in draws)

    theirs = ensembles[1]

    def stepped_in_child(shared, orphaned):
        advance(1, lambda _: orphaned())
        shared["steps"] = theirs.step_index - ens.step_index
        for name in _TRIAL_FIELDS:
            shared[name] = getattr(theirs, name)

    layout = [(name, a.dtype, a.shape) for name, a in vars(theirs).items() if name in _TRIAL_FIELDS]
    try:
        child = _Child(layout + [("steps", np.int64)], stepped_in_child, streams[1], channels)
    except OSError:  # no memory or process to spare
        child = None
    try:
        advance(0)
    except BaseException:  # the child's work is not needed: it is killed
        if child is not None:
            child.reap(kill=True)
            child.close()
        raise
    if child is not None and child.reap(kill=False) == 0:
        for name in _TRIAL_FIELDS:
            setattr(theirs, name, child.shared[name].copy())
        theirs.step_index += int(child.shared["steps"])
        if theirs.step_index > ens.step_index:  # the child built and drew them
            child.hand_back()
    else:  # its trials are stepped here
        advance(1)
    if child is not None:
        child.close()

    last = max(part.step_index for part in ensembles)
    for part, stream in zip(ensembles, streams):
        for _ in range(last - part.step_index):
            for _, draw in draws:
                draw(stream)
    rng.join(streams)
    for name in _TRIAL_FIELDS:
        setattr(ens, name, np.concatenate([getattr(part, name) for part in ensembles]))
    ens.step_index = last


def run(
    initial: Ensemble,
    params: CboParams,
    schedule: Schedule,
    objective: Objective,
    max_steps: int,
    rng: RngStream,
    observe: Callable[[Ensemble], None] | None = None,
    n_consensus: int | None = None,
) -> RunResult:
    """Iterate ``step`` ``max_steps`` times, applying the schedule at epoch
    boundaries.

    A trial ends early only by diverging, which ``step`` records, and the
    run ends early when every trial has; ``n_steps`` counts the batch's steps.
    ``RunResult.consensus`` holds each trial's final consensus point,
    computed with the parameters of the last step and from the memory
    energies cached by that step, which under mini-batching are the energies
    on that step's batch; it is NaN for a diverged trial.

    ``observe``, if given, is called with the ensemble at the initial state
    and after every step, and computes and keeps whatever it reads, such as
    :func:`cbo.theory.lyapunov_V`; it must not change the ensemble.

    The second CPU, when :func:`cbo.rng.second_cpu_pays`, takes one of two
    jobs.  The noise the run's steps draw is drawn ahead through
    :meth:`RngStream.producing`.  A batch of two or more trials without
    noise or observer, whose objective defines ``Objective.part`` wherever
    it overrides ``stack``, has its trailing floor(M/2) trials stepped in a
    forked child.  Both jobs run in the one child class of ``cbo.rng``, with
    its one hand-back of generator states.  Either way every number, and
    every generator's state after a run that returns, are as if computed
    here in order."""
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    ens = initial
    if observe is not None:
        observe(ens)

    start = ens.step_index
    noise = _noise_channels(params, schedule, start + max_steps - 1) if max_steps else ()
    if observe is None and _splits(ens, params, objective, rng, max_steps):
        _split_steps(ens, params, schedule, objective, max_steps, rng, n_consensus)
    else:
        with rng.producing(noise, ens.n, ens.d, max_steps):
            _steps(ens, params, schedule, objective, max_steps, rng, n_consensus, observe)

    step_params = schedule.params_at(params, max(start, ens.step_index - 1))
    consensus = np.full(ens.batch_shape + (ens.d,), np.nan)
    if ens.active.any():
        last = consensus_point(ens.memories, ens.memory_energies, step_params.alpha)
        consensus = np.where(ens.active[..., None], last, consensus)
    return RunResult(ens, consensus, ens.step_index - start)
