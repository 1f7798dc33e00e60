"""The analysis of the scheme: the Lyapunov functional V and the squared
W2 distance to the Dirac at (x*, x*), their decay rates and the time
horizon, the quantitative Laplace bound, the mollifier and the
probability-mass decay rate.  All quantities are evaluated on empirical
ensembles standing in for the mean-field law; a run's observer evaluates
the functionals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import CboParams, Ensemble, consensus_point
from .errors import ConfigError
from .objectives import squared_norms


class LyapunovValue(NamedTuple):
    """The Lyapunov functional of an empirical ensemble, one value per trial."""

    total: float | np.ndarray
    position_part: float | np.ndarray  # (1/2N) sum ||X_i - x*||^2
    memory_part: float | np.ndarray  # (1/2N) sum ||Y_i - X_i||^2


def _mean_sq(diff: np.ndarray) -> np.ndarray:
    """Mean over the particle axis of the squared norms of (..., N, d) rows.

    The sum over N divided by N is the arithmetic ``ndarray.mean`` does,
    bit for bit, without its Python-level dispatch."""
    return squared_norms(diff).sum(axis=-1) / diff.shape[-2]


def lyapunov_V(ens: Ensemble, x_star: np.ndarray) -> LyapunovValue:
    x_star = np.asarray(x_star, dtype=float)
    # one difference buffer serves both parts
    diff = ens.positions - x_star
    xp = 0.5 * _mean_sq(diff)
    yp = 0.5 * _mean_sq(np.subtract(ens.memories, ens.positions, out=diff))
    return LyapunovValue(xp + yp, xp, yp)


def wasserstein2_to_dirac(ens: Ensemble, x_star: np.ndarray) -> float | np.ndarray:
    """Squared Wasserstein-2 distance of the empirical pair measure to the
    Dirac at (x*, x*), one value per trial."""
    x_star = np.asarray(x_star, dtype=float)
    return _mean_sq(ens.positions - x_star) + _mean_sq(ens.memories - x_star)


@dataclass(frozen=True)
class AssumptionConstants:
    """Problem constants of the inverse-continuity and gradient-growth
    assumptions.  For the sphere E(x)=||x||^2 with x*=0 one can take
    eta=1, nu=1/2 on B_R0 with R0 <= 1 and C_grad=2."""

    eta: float
    nu: float
    R0: float
    E_inf: float
    C_grad: float | None = None
    E_min: float = 0.0

    def __post_init__(self):
        # every check fails on NaN
        for name in ("eta", "nu", "R0", "E_inf"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if self.C_grad is not None and not 0 <= self.C_grad < math.inf:
            raise ConfigError("C_grad must be nonnegative and finite")


@dataclass(frozen=True)
class Rates:
    chi1: float
    chi2: float


@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    holds: bool


def _grad_constant(params: CboParams, constants: AssumptionConstants) -> float:
    if params.lambda3 > 0 or params.sigma3 > 0:
        if constants.C_grad is None:
            raise ConfigError("C_grad required when lambda3 > 0 or sigma3 > 0")
        return constants.C_grad
    return constants.C_grad if constants.C_grad is not None else 0.0


def chi_rates(params: CboParams, constants: AssumptionConstants) -> Rates:
    """Lower/upper exponential decay rates of the Lyapunov functional for the
    dynamics with memory."""
    c = _grad_constant(params, constants)
    l1, l2, l3 = params.lambda1, params.lambda2, params.lambda3
    s1, s2, s3 = params.sigma1, params.sigma2, params.sigma3
    kt = 2.0 * params.kappa * params.theta
    chi1 = min(
        l1 - l2 - 3.0 * l3 * c - 2.0 * s1**2 - 2.0 * s3**2 * c**2,
        kt + l2 - l1 - l3 * c - 2.0 * s2**2,
    )
    chi2 = max(
        3.0 * l1 + l2 + 3.0 * l3 * c - 2.0 * s1**2 + 2.0 * s3**2 * c**2,
        kt + 3.0 * l2 + l1 + l3 * c - 2.0 * s2**2,
    )
    return Rates(chi1, chi2)


def chi_rates_memoryless(params: CboParams, constants: AssumptionConstants) -> Rates:
    """Rates for the instantaneous dynamics without memory."""
    c = _grad_constant(params, constants)
    l1, l3 = params.lambda1, params.lambda3
    s1, s3 = params.sigma1, params.sigma3
    chi1 = 2.0 * l1 - 2.0 * l3 * c - s1**2 - s3**2 * c**2
    chi2 = 2.0 * l1 + 2.0 * l3 * c - s1**2 + s3**2 * c**2
    return Rates(chi1, chi2)


class TimeHorizon(NamedTuple):
    t_star: float
    t_lower: float | None


def time_horizon_star(
    V0: float, eps: float, vartheta: float, chi1: float, chi2: float | None = None
) -> TimeHorizon:
    """Maximal time T* = log(V0/eps) / ((1-vartheta) chi1) until the target
    accuracy eps is guaranteed, with the lower end of the bracket when chi2
    is supplied."""
    if chi1 <= 0:
        raise ConfigError("no convergence guarantee: chi1 must be positive")
    if not (0 <= vartheta < 1):
        raise ConfigError("vartheta must lie in [0, 1)")
    if not (0 < eps < V0):
        raise ValueError(f"need 0 < eps < V0, got eps={eps}, V0={V0}")
    t_star = math.log(V0 / eps) / ((1.0 - vartheta) * chi1)
    t_lower = None
    if chi2 is not None:
        t_lower = (1.0 - vartheta) * chi1 / ((1.0 + vartheta / 2.0) * chi2) * t_star
    return TimeHorizon(t_star, t_lower)


def laplace_bound(
    memories: np.ndarray,
    energies: np.ndarray,
    x_star: np.ndarray,
    alpha: float,
    q: float,
    r: float,
    constants: AssumptionConstants,
) -> BoundReport:
    """Quantitative Laplace principle on the empirical measure of memories:
    compares ||y_alpha - x*||_2 against
    sqrt(d) (q + E_r)^nu / eta + sqrt(d) exp(-alpha q) mean||y - x*|| / mass(B_r).

    E_r is the max energy over the sampled memories inside the inf-ball
    B_r(x*) (an empirical surrogate for the supremum of the objective)."""
    memories = np.asarray(memories, dtype=float)
    energies = np.asarray(energies, dtype=float) - constants.E_min
    x_star = np.asarray(x_star, dtype=float)
    if not (0 < r <= constants.R0):
        raise ValueError(f"need 0 < r <= R0, got r={r}")
    if q <= 0:
        raise ValueError("q must be positive")
    d = memories.shape[1]
    dist_inf = np.max(np.abs(memories - x_star), axis=1)
    in_ball = dist_inf <= r
    if not np.any(in_ball):
        raise ValueError("mass zero in B_r")
    e_r = float(energies[in_ball].max())
    if q + e_r > constants.E_inf:
        raise ValueError(
            f"precondition violated: q + E_r = {q + e_r} exceeds E_inf = {constants.E_inf}"
        )
    y_alpha = consensus_point(memories, energies, alpha)
    lhs = float(np.linalg.norm(y_alpha - x_star))
    mass = float(in_ball.mean())
    mean_dist = float(np.linalg.norm(memories - x_star, axis=1).mean())
    rhs = (
        math.sqrt(d) * (q + e_r) ** constants.nu / constants.eta
        + math.sqrt(d) * math.exp(-alpha * q) * mean_dist / mass
    )
    return BoundReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


def check_bounds(params: CboParams, constants: AssumptionConstants, objective,
                 x_star: np.ndarray, vartheta: float, eps: float, cases: int, seed: int) -> dict:
    """What ``cbo check-bounds`` reports: the rates with and without memory,
    T* from V0 = 1 when chi1 > 0, and how many of ``cases`` point clouds
    drawn by ``PCG64(seed)`` around x* satisfy :func:`laplace_bound` on
    ``objective``; a cloud failing the precondition E_r < E_inf is skipped."""
    if constants.R0 < 0.1:
        raise ConfigError("check-bounds draws radii from [0.1, R0]: theory.R0 must be at least 0.1")
    rates, memoryless = chi_rates(params, constants), chi_rates_memoryless(params, constants)
    out = {"chi1": rates.chi1, "chi2": rates.chi2, "chi1_memoryless": memoryless.chi1,
           "chi2_memoryless": memoryless.chi2}
    if rates.chi1 > 0:
        out["t_star_from_V0_1"], out["t_lower_from_V0_1"] = time_horizon_star(
            1.0, eps, vartheta, rates.chi1, rates.chi2)
    gen = np.random.Generator(np.random.PCG64(seed))
    out["laplace_cases"] = out["laplace_holds"] = 0
    for _ in range(cases):
        n = int(gen.integers(5, 200))
        pts = x_star + gen.uniform(-1.5, 1.5, size=(n, objective.dimension))
        pts[gen.integers(n)] = x_star + gen.uniform(-0.05, 0.05, size=objective.dimension)
        energies = objective.values(pts)
        r = float(gen.uniform(0.1, constants.R0))
        e_r = float(energies[np.max(np.abs(pts - x_star), axis=1) <= r].max())
        if e_r >= constants.E_inf:
            continue
        q = float(gen.uniform(0, constants.E_inf - e_r)) or (constants.E_inf - e_r) / 2
        alpha = float(gen.uniform(1.0, 1e3))
        out["laplace_cases"] += 1
        out["laplace_holds"] += laplace_bound(pts, energies, x_star, alpha, q, r, constants).holds
    return out


def mollifier_phi_r(x, y, x_star, r: float) -> float:
    """Compactly supported bump on Omega_r = {max(||x-x*||_inf, ||x-y||_inf)
    < r/2}, the product of per-coordinate classical mollifiers; 0 outside."""
    if r <= 0:
        raise ValueError("r must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    h = r / 2.0
    a = x - x_star
    b = x - y
    if max(np.max(np.abs(a)), np.max(np.abs(b))) >= h:
        return 0.0
    val = np.exp(1.0 - h**2 / (h**2 - a**2)) * np.exp(1.0 - h**2 / (h**2 - b**2))
    return float(np.prod(val))


def upsilon_constant(r: float, B: float, d: int, c_grad: float) -> float:
    """C = max{r/2 + B, C_grad * d * r/2}, the uniform bound on the drift
    arguments over the mollifier support."""
    return max(r / 2.0 + B, c_grad * d * r / 2.0)


def mass_decay_rate_p(
    params: CboParams,
    r: float,
    B: float,
    c: float,
    d: int,
    constants: AssumptionConstants,
) -> float:
    """Exponential decay rate p of the lower bound on the probability mass
    near (x*, x*).  Requires c in (1/2, 1) with (1-c)^2 <= (2c-1)c and a
    positive diffusion for every active drift term."""
    if not (0.5 < c < 1.0) or (1.0 - c) ** 2 > (2.0 * c - 1.0) * c:
        raise ValueError(f"c={c} outside the admissible set")
    if r <= 0:
        raise ValueError("r must be positive")
    if B < 0:
        raise ValueError("B must be nonnegative")
    lambdas = (params.lambda1, params.lambda2, params.lambda3)
    sigmas = (params.sigma1, params.sigma2, params.sigma3)
    for i, (lam, sig) in enumerate(zip(lambdas, sigmas), start=1):
        if i == 1:
            if lam <= 0 or sig <= 0:
                raise ValueError("hypothesis violated: lambda1 and sigma1 must be positive")
        elif (lam > 0) != (sig > 0):
            raise ValueError(
                f"hypothesis violated: sigma{i} > 0 iff lambda{i} != 0 is required"
            )
    c_ups = upsilon_constant(r, B, d, _grad_constant(params, constants))
    c_tilde = 2.0 * c - 1.0
    half_r = r / 2.0
    total = 0.0
    for i, (lam, sig) in enumerate(zip(lambdas, sigmas), start=1):
        if lam <= 0:
            continue
        term = (
            2.0 * lam * c_ups * math.sqrt(c) / ((1.0 - c) ** 2 * half_r)
            + sig**2 * c_ups**2 / ((1.0 - c) ** 4 * half_r**2)
            + 4.0 * lam**2 / (c_tilde * sig**2)
        )
        # the consensus and gradient terms count twice, the memory term has
        # one more diffusion part
        total += 2.0 * term if i in (1, 3) else term + sig**2 * c / (1.0 - c) ** 4
    return d * total


def fit_exponential_rate(times, values) -> DecayFit:
    """Least-squares fit of log(values) against times; rate is the negated
    slope."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 3:
        raise ValueError("need at least 3 samples")
    if np.any(values <= 0):
        raise ValueError("values must be positive for a log-linear fit")
    logs = np.log(values)
    slope, intercept = np.polyfit(times, logs, 1)
    predicted = slope * times + intercept
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return DecayFit(rate=-float(slope), intercept=float(intercept), r_squared=r2)
