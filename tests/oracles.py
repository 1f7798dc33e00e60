"""Reference forms that the tests compare the package against.

The objectives are written for one point x of shape (d,), independently of
the batched ``Objective`` classes in ``cbo.objectives``; ``rastrigin_rows``
is the one batched form, reduced by numpy's own ``sum``.  ``unbatched_run``
runs one trajectory without a trial axis, independently of the harness's
batch construction.
"""

import numpy as np

from cbo.dynamics import init_ensemble, run
from cbo.objectives import CsObjective
from cbo.rng import RngStream


def rastrigin(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(x**2 + 2.5 * (1.0 - np.cos(2.0 * np.pi * x))))


def rastrigin_rows(points: np.ndarray) -> np.ndarray:
    """Rastrigin energies of points (..., d): the per-coordinate terms in
    the operand order ``Rastrigin.values`` uses (the cosine part first,
    which decides the payload when both parts are NaN), reduced by
    ``sum(axis=-1)``."""
    x = np.asarray(points, dtype=float)
    return (2.5 * (1.0 - np.cos(2.0 * np.pi * x)) + np.square(x)).sum(axis=-1)


def rastrigin_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 2.0 * x + 5.0 * np.pi * np.sin(2.0 * np.pi * x)


def cs_eval(inst: CsObjective, x: np.ndarray) -> float:
    """E(x) = 1/2 ||Ax - b||^2 + mu ||x||_p^p."""
    x = np.asarray(x, dtype=float)
    residual = inst.A @ x - inst.b
    return float(0.5 * residual @ residual + inst.mu * np.sum(np.abs(x) ** inst.p))


def cs_grad(inst: CsObjective, x: np.ndarray, smoothing_eps: float = 1e-8) -> np.ndarray:
    """Gradient (subgradient for p=1, smoothed for p=1/2) of cs_eval.

    sign(0) = 0 for p=1; for p<1 the singular factor |x|^(p-1) is capped by
    adding smoothing_eps inside, with gradient 0 at exactly 0 when eps=0.
    """
    x = np.asarray(x, dtype=float)
    g = inst.A.T @ (inst.A @ x - inst.b)
    if inst.mu != 0:
        if inst.p == 1.0:
            g = g + inst.mu * np.sign(x)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                reg = np.sign(x) * inst.p * (np.abs(x) + smoothing_eps) ** (inst.p - 1.0)
            if smoothing_eps == 0.0:
                reg = np.where(x == 0.0, 0.0, reg)
            g = g + inst.mu * reg
    return g


def unbatched_run(config, observe=None):
    """Trial 0 of the ``ExperimentConfig`` ``config`` as a single trajectory
    without a trial axis: its problem and ensemble built on the one stream
    ``RngStream(config.seed)``, and run with ``observe``.  Returns that
    stream and the ``RunResult``."""
    rng = RngStream(config.seed)
    obj = config.objective_factory(rng).objective
    ens = init_ensemble(config.n_particles, obj.dimension, config.init, rng, obj)
    result = run(ens, config.params, config.schedule, obj, config.n_steps, rng,
                 observe=observe, n_consensus=config.n_consensus)
    return rng, result
