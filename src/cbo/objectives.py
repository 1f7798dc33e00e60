"""Objective functions: benchmark functions, regularized least squares for
sparse recovery, and gradient-verification helpers."""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import ConfigError
from .rng import CHANNEL_INSTANCE, RngStream


def squared_norms(points: np.ndarray) -> np.ndarray:
    """||x||^2 over the last axis of ``points``, a fresh array of shape
    ``points.shape[:-1]``, C-contiguous for C-contiguous input: the
    package's one squared norm, byte for byte
    ``np.einsum("...j,...j->...", points, points)``.

    Rows of two coordinates square once and add the columns, which skips
    einsum's per-row loop: two rounded squares add to the same float in
    either order.  Rows of any other length go through einsum, which sums
    longer rows in its own SIMD lane order; adding columns differs from
    that for d >= 3.  On the two-column path a finite coordinate whose
    square overflows (|x| > ~1.3e154) gives inf with numpy's overflow
    RuntimeWarning, as any ufunc does; einsum gives the same inf silently.
    ``step`` ignores overflow; elsewhere, as for V, the warning shows."""
    if points.shape[-1] == 2:
        sq = np.square(points)
        return np.add(sq[..., 0], sq[..., 1])
    return np.einsum("...j,...j->...", points, points)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=-1)``, byte for byte, for terms that are never -0.0.

    Rows of 2 to 7 coordinates add the columns in order, one pass over the
    whole array per column, where ``sum`` runs one inner loop per row.
    numpy adds a row of fewer than 8 elements in sequence from +0.0, which
    differs from adding the columns only on a row made entirely of -0.0;
    from 8 elements on it sums pairwise, which rounds differently."""
    d = terms.shape[-1]
    if not 2 <= d < 8:
        return terms.sum(axis=-1)
    out = np.add(terms[..., 0], terms[..., 1])
    for k in range(2, d):
        out += terms[..., k]
    return out


class Objective:
    """Evaluation interface for the particle dynamics: two methods.

    ``values(points, batch=None)`` maps points of shape (..., N, d) to
    energies of shape (..., N); leading axes are the trials of a batch.
    ``gradients(points, batch=None)`` maps them to gradients of shape
    (..., N, d); it is needed only when a gradient drift or gradient noise
    term is active.  Subclasses set ``dimension`` (or take it through this
    constructor).  A batched objective exposes ``n_batches > 1`` and
    interprets the ``batch`` argument, one mini-batch index per trial, with
    ``batch=None`` meaning batch 0, not the mean over batches; non-batched
    objectives ignore it.

    An objective whose gradients recompute part of its values may also
    override ``values_and_residual``, which returns the energies together
    with that part, its *residual*, and take the residual as a third
    argument of ``gradients`` at the same points and batch (see
    ``CsObjective``).  By default there is no residual.
    """

    dimension: int
    n_batches: int = 1

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

    def part(self, trials: slice) -> "Objective":
        """The objective of the trials ``trials`` of the batch this one
        serves, the inverse of ``stack``: without per-trial data, itself.
        A subclass that overrides ``stack`` overrides this with it."""
        return self

    def values(self, points: np.ndarray, batch: int | np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def values_and_residual(
        self, points: np.ndarray, batch: int | np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The energies at ``points`` and the residual that ``gradients`` at
        the same points and batch may reuse; None when there is none."""
        return self.values(points, batch), None

    def gradients(self, points: np.ndarray, batch: int | np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} provides no gradient")


class Sphere(Objective):
    """E(x) = ||x||^2, minimizer at the origin."""

    def values(self, points, batch=None):
        return squared_norms(points)

    def gradients(self, points, batch=None):
        return 2.0 * points


class Rastrigin(Objective):
    """E(x) = sum x_k^2 + 5/2 (1 - cos(2 pi x_k)), global minimum 0 at 0."""

    def values(self, points, batch=None):
        # in place, in the order of x**2 + 2.5 * (1 - cos(2 pi x)): bit-identical
        out = np.multiply(2.0 * np.pi, points)
        np.cos(out, out=out)
        np.subtract(1.0, out, out=out)
        out *= 2.5
        out += np.square(points)
        return _row_sums(out)

    def gradients(self, points, batch=None):
        return 2.0 * points + 5.0 * np.pi * np.sin(2.0 * np.pi * points)


CS_SMOOTHING_EPS = 1e-8


class CsObjective(Objective):
    """Sparse-recovery problem instance, recovering x* from b = A x*: the
    energy E(x) = 1/2 ||Ax - b||^2 + mu ||x||_p^p for the particle dynamics.
    ``A`` has shape (m, d) and ``b`` (m,); stacked over a batch of trials,
    (M, m, d) and (M, m).  ``At`` is a C-contiguous copy of A^T, of shape
    (d, m) or (M, d, m), that ``stack`` and ``part`` keep next to ``A``.

    The gradient is a subgradient for p=1, with sign(0) = 0; for p=1/2 the
    singular factor |x|^(-1/2) is capped by adding eps = ``CS_SMOOTHING_EPS``
    inside, and sign(0) = 0 again gives gradient 0 at exactly 0.

    ``values_and_residual`` computes the energies with their residual ``x
    A^T - b`` (..., N, m), ``values`` returns its energies, and
    ``gradients(points, batch, residual)`` reuses the residual.  Both work
    in place on their own temporaries, in the order of operations of the
    expressions ``r = x @ At - b``, ``0.5 * r.r + mu * sum(|x|**p)`` and
    ``r @ A + mu * sign(x)`` (p=1) or ``r @ A + sign(x) * ((p * mu) /
    sqrt(|x| + eps))`` (p=1/2), so they are bit-identical to them.  The p=1/2 form needs one ``sqrt`` where
    ``(|x| + eps)**(p - 1)`` needs the general ``pow``; the two differ by at
    most 2 ulp.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, mu: float, p: float):
        check_cs_regularizer(mu, p)
        self.A = np.asarray(A, dtype=float)
        self.At = np.ascontiguousarray(self.A.mT)
        self.b = np.asarray(b, dtype=float)
        self.mu = mu
        self.p = p
        self.dimension = self.A.shape[-1]

    @classmethod
    def stack(cls, objectives: list["CsObjective"]) -> "CsObjective":
        """A copy of the first objective holding every trial's ``A``, ``At``
        and ``b``; any further state of a subclass is the first one's."""
        first = objectives[0]
        if any((o.mu, o.p) != (first.mu, first.p) for o in objectives):
            raise ValueError("trials of one batch need equal mu and p")
        out = copy.copy(first)
        out.A = np.stack([o.A for o in objectives])
        out.At = np.stack([o.At for o in objectives])
        out.b = np.stack([o.b for o in objectives])
        return out

    def part(self, trials: slice) -> "CsObjective":
        """A copy holding the ``A``, ``At`` and ``b`` of the trials
        ``trials`` of a stacked batch; an unstacked objective serves every
        trial."""
        if self.A.ndim < 3:
            return self
        out = copy.copy(self)
        out.A = self.A[trials]
        out.At = self.At[trials]
        out.b = self.b[trials]
        return out

    def _residual(self, points):
        r = points @ self.At
        r -= self.b[..., None, :]
        return r

    def values(self, points, batch=None):
        return self.values_and_residual(points, batch)[0]

    def values_and_residual(self, points, batch=None):
        points = np.asarray(points, dtype=float)
        residual = self._residual(points)
        e = squared_norms(residual)
        e *= 0.5
        a = np.abs(points)
        a **= self.p
        e += self.mu * a.sum(axis=-1)
        return e, residual

    def gradients(self, points, batch=None, residual=None):
        points = np.asarray(points, dtype=float)
        if residual is None:
            residual = self._residual(points)
        g = residual @ self.A
        if self.mu != 0:
            reg = np.sign(points)
            if self.p == 1.0:
                reg *= self.mu
            else:
                scale = np.abs(points)
                scale += CS_SMOOTHING_EPS
                np.sqrt(scale, out=scale)
                np.divide(self.p * self.mu, scale, out=scale)
                reg *= scale
            g += reg
        return g


def check_cs_regularizer(mu: float, p: float) -> None:
    if p not in (1.0, 0.5):
        raise ConfigError(f"unsupported exponent p={p}")
    if not 0 <= mu < math.inf:  # fails on NaN
        raise ConfigError("mu must be nonnegative and finite")


def check_cs_sizes(d: int, m: int, s: int) -> None:
    for name, value in (("sparsity s", s), ("measurement count m", m)):
        if not 1 <= value <= d:
            raise ConfigError(f"{name}={value} must be in [1, {d}]")


def generate_cs_instance(
    d: int, m: int, s: int, mu: float, p: float, rng: RngStream
) -> tuple[CsObjective, np.ndarray]:
    """Random Gaussian instance and its ground truth x*: A ~ N(0, 1/m)
    entrywise, x* s-sparse with nonzero magnitudes floored at 0.1, and exact
    measurements b = A x*."""
    check_cs_sizes(d, m, s)
    gen = rng.generator(CHANNEL_INSTANCE)
    A = gen.standard_normal((m, d)) / np.sqrt(m)
    support = gen.choice(d, size=s, replace=False)
    raw = gen.standard_normal(s)
    vals = np.sign(raw) * np.maximum(np.abs(raw), 0.1)
    vals[vals == 0.0] = 0.1
    x_star = np.zeros(d)
    x_star[support] = vals
    return CsObjective(A, A @ x_star, mu, p), x_star


def finite_diff_grad(obj: Objective, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, the verification oracle for analytic ones."""
    if h <= 0:
        raise ConfigError("h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        # one point per call, since a multi-row matrix product may round
        # differently; Python floats, whose inf - inf is a silent NaN
        up = float(obj.values(np.atleast_2d(x + e))[0])
        down = float(obj.values(np.atleast_2d(x - e))[0])
        g[k] = (up - down) / (2.0 * h)
    return g


def gradcheck(obj: Objective, points: int, h: float, rel_tol: float, seed: int) -> dict:
    """What ``cbo gradcheck`` reports: the largest relative error of the
    analytic gradient against :func:`finite_diff_grad` over ``points``
    points drawn uniformly from [-2, 2]^d by ``PCG64(seed)``, and whether it
    is below ``rel_tol``; a NaN error fails."""
    if not (points >= 1 and 0 < h < math.inf and 0 < rel_tol < math.inf):
        raise ConfigError("gradcheck needs points >= 1 and positive finite h and rel_tol")
    gen = np.random.Generator(np.random.PCG64(seed))
    errors = []
    for _ in range(points):
        x = gen.uniform(-2, 2, size=obj.dimension)
        analytic = obj.gradients(x[None])[0]
        numeric = finite_diff_grad(obj, x, h)
        scale = max(np.linalg.norm(numeric), 1e-12)
        errors.append(float(np.linalg.norm(analytic - numeric)) / scale)
    worst = float(np.max(errors))  # NaN if any error is
    return {"points": points, "max_rel_error": worst, "tolerance": rel_tol,
            "passed": bool(worst < rel_tol)}


class ToyStochasticObjective(Objective):
    """Mini-batched quadratic: E_batch(x) = ||x - c_batch||^2 with batch
    centers drawn from N(0, 0.25 I) and shifted to sum to zero, so the
    full-data minimizer is the origin."""

    def __init__(self, dimension: int, n_batches: int, seed: int = 0):
        if n_batches < 1:
            raise ConfigError("n_batches must be at least 1")
        self.dimension = dimension
        self.n_batches = n_batches
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        c = gen.standard_normal((n_batches, dimension)) * 0.5
        self.centers = c - c.mean(axis=0)

    def _offsets(self, points, batch):
        # one batch index per trial; its center applies to all its particles
        return points - self.centers[0 if batch is None else batch][..., None, :]

    def values(self, points, batch=None):
        return squared_norms(self._offsets(points, batch))

    def gradients(self, points, batch=None):
        return 2.0 * self._offsets(points, batch)

