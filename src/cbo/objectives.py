"""Objective functions: benchmark functions, regularized least squares for
sparse recovery, and gradient-verification helpers."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .rng import CHANNEL_INSTANCE, RngStream


class Objective:
    """Evaluation interface for the particle dynamics.

    Subclasses set ``dimension`` (or take it through this constructor) and
    implement ``values``, which maps points of shape (..., N, d) to energies
    of shape (..., N); leading axes are the trials of a batch.  A batched objective exposes ``n_batches > 1``
    and interprets the ``batch`` argument, one mini-batch index per trial;
    non-batched objectives ignore it.  ``gradients`` is optional and only
    required when a gradient drift or gradient noise term is active.
    """

    dimension: int
    n_batches: int = 1
    has_gradient: bool = False

    def __init__(self, dimension: int):
        self.dimension = dimension

    @classmethod
    def stack(cls, objectives: list["Objective"]) -> "Objective":
        """One objective for a batch of trials whose trial t is
        ``objectives[t]``.  Objectives without per-trial data must all
        describe the same function, and the first one serves the batch."""
        first = objectives[0]
        for other in objectives[1:]:
            if other is not first and not (
                type(other) is type(first)
                and vars(other).keys() == vars(first).keys()
                and all(np.array_equal(v, vars(first)[k]) for k, v in vars(other).items())
            ):
                raise ValueError(f"trials of one batch need equal {cls.__name__} objectives")
        return first

    def values(self, points: np.ndarray, batch: int | np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, batch: int | None = None) -> float:
        return float(self.values(np.atleast_2d(np.asarray(x, dtype=float)), batch)[0])

    def gradients(self, points: np.ndarray, batch: int | np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} provides no gradient")

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.gradients(np.atleast_2d(np.asarray(x, dtype=float)))[0]


class FunctionObjective(Objective):
    """Wrap plain callables mapping points (..., d) to values (...)."""

    def __init__(self, fn, dimension, grad_fn=None):
        self.fn = fn
        self.dimension = dimension
        self.grad_fn = grad_fn
        self.has_gradient = grad_fn is not None

    def values(self, points, batch=None):
        return np.asarray(self.fn(points), dtype=float)

    def gradients(self, points, batch=None):
        if self.grad_fn is None:
            raise NotImplementedError("no gradient supplied")
        return np.asarray(self.grad_fn(points), dtype=float)


class Sphere(Objective):
    """E(x) = ||x||^2, minimizer at the origin."""

    has_gradient = True

    def values(self, points, batch=None):
        return np.einsum("...j,...j->...", points, points)

    def gradients(self, points, batch=None):
        return 2.0 * points


class Rastrigin(Objective):
    """E(x) = sum x_k^2 + 5/2 (1 - cos(2 pi x_k)), global minimum 0 at 0."""

    has_gradient = True

    def values(self, points, batch=None):
        return np.sum(points**2 + 2.5 * (1.0 - np.cos(2.0 * np.pi * points)), axis=-1)

    def gradients(self, points, batch=None):
        return 2.0 * points + 5.0 * np.pi * np.sin(2.0 * np.pi * points)


@dataclass
class CsInstance:
    """Sparse-recovery problem instance: recover x* with b = A x*."""

    A: np.ndarray
    b: np.ndarray
    mu: float
    p: float
    ground_truth: np.ndarray | None = None
    sparsity: int | None = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.p not in (1.0, 0.5):
            raise ValueError(f"unsupported exponent p={self.p}")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def save(self, path) -> None:
        """Plain-text format: header "d m s mu p", then A row-major, b, x*."""
        tokens = [f"{self.d} {self.m} {self.sparsity or 0} {self.mu!r} {self.p!r}"]
        tokens += [repr(float(v)) for v in self.A.ravel()]
        tokens += [repr(float(v)) for v in self.b]
        if self.ground_truth is not None:
            tokens += [repr(float(v)) for v in self.ground_truth]
        with open(path, "w") as f:
            f.write("\n".join(tokens) + "\n")

    @classmethod
    def load(cls, path) -> "CsInstance":
        with open(path) as f:
            header = f.readline().split()
            d, m, s = int(header[0]), int(header[1]), int(header[2])
            mu, p = float(header[3]), float(header[4])
            vals = np.array([float(tok) for tok in f.read().split()])
        A = vals[: m * d].reshape(m, d)
        b = vals[m * d : m * d + m]
        rest = vals[m * d + m :]
        gt = rest if rest.size == d else None
        return cls(A=A, b=b, mu=mu, p=p, ground_truth=gt, sparsity=s or None)


class CsObjective(Objective):
    """E(x) = 1/2 ||Ax - b||^2 + mu ||x||_p^p of a CsInstance, for the
    particle dynamics.  Stacked over a batch of trials, ``A`` has shape
    (M, m, d) and ``b`` (M, m).

    The gradient is a subgradient for p=1, with sign(0) = 0; for p=1/2 the
    singular factor |x|^(p-1) is capped by adding ``smoothing_eps`` inside,
    with gradient 0 at exactly 0 when ``smoothing_eps`` is 0.
    """

    has_gradient = True

    def __init__(self, inst: CsInstance, smoothing_eps: float = 1e-8):
        self.A = inst.A
        self.b = inst.b
        self.mu = inst.mu
        self.p = inst.p
        self.dimension = inst.d
        self.smoothing_eps = smoothing_eps

    @classmethod
    def stack(cls, objectives: list["CsObjective"]) -> "CsObjective":
        first = objectives[0]
        if any((o.mu, o.p, o.smoothing_eps) != (first.mu, first.p, first.smoothing_eps)
               for o in objectives):
            raise ValueError("trials of one batch need equal mu, p and smoothing")
        out = copy.copy(first)
        out.A = np.stack([o.A for o in objectives])
        out.b = np.stack([o.b for o in objectives])
        return out

    def _residual(self, points):
        return points @ self.A.mT - self.b[..., None, :]

    def values(self, points, batch=None):
        residual = self._residual(points)
        return 0.5 * np.einsum("...j,...j->...", residual, residual) + self.mu * np.sum(
            np.abs(points) ** self.p, axis=-1
        )

    def gradients(self, points, batch=None):
        g = self._residual(points) @ self.A
        if self.mu != 0:
            p = self.p
            if p == 1.0:
                g = g + self.mu * np.sign(points)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    reg = np.sign(points) * p * (np.abs(points) + self.smoothing_eps) ** (p - 1.0)
                if self.smoothing_eps == 0.0:
                    reg = np.where(points == 0.0, 0.0, reg)
                g = g + self.mu * reg
        return g


def generate_cs_instance(
    d: int, m: int, s: int, mu: float, p: float, rng: RngStream
) -> CsInstance:
    """Random Gaussian instance: A ~ N(0, 1/m) entrywise, x* s-sparse with
    nonzero magnitudes floored at 0.1, and exact measurements b = A x*."""
    if not (1 <= s <= d):
        raise ValueError(f"sparsity s={s} must be in [1, {d}]")
    if not (1 <= m <= d):
        raise ValueError(f"measurement count m={m} must be in [1, {d}]")
    gen = rng.generator(CHANNEL_INSTANCE)
    A = gen.standard_normal((m, d)) / np.sqrt(m)
    support = gen.choice(d, size=s, replace=False)
    raw = gen.standard_normal(s)
    vals = np.sign(raw) * np.maximum(np.abs(raw), 0.1)
    vals[vals == 0.0] = 0.1
    x_star = np.zeros(d)
    x_star[support] = vals
    return CsInstance(A=A, b=A @ x_star, mu=mu, p=p, ground_truth=x_star, sparsity=s)


def finite_diff_grad(obj: Objective, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, the verification oracle for analytic ones."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (obj(x + e) - obj(x - e)) / (2.0 * h)
    return g


class ToyStochasticObjective(Objective):
    """Mini-batched quadratic: E_batch(x) = ||x - c_batch||^2 with batch
    centers summing to zero, so the full-data minimizer is the origin."""

    has_gradient = True

    def __init__(self, dimension: int, n_batches: int, center_scale: float = 0.5, seed: int = 0):
        if n_batches < 1:
            raise ValueError("n_batches must be at least 1")
        self.dimension = dimension
        self.n_batches = n_batches
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        if n_batches == 1:
            self.centers = np.zeros((1, dimension))
        else:
            c = gen.standard_normal((n_batches, dimension)) * center_scale
            self.centers = c - c.mean(axis=0)

    def _offsets(self, points, batch):
        # one batch index per trial; its center applies to all its particles
        return points - self.centers[0 if batch is None else batch][..., None, :]

    def values(self, points, batch=None):
        diff = self._offsets(points, batch)
        return np.einsum("...j,...j->...", diff, diff)

    def gradients(self, points, batch=None):
        return 2.0 * self._offsets(points, batch)

