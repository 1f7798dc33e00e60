import copy
import errno
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbo.dynamics
import cbo.rng
from cbo.config import load_config
from cbo.dynamics import (
    CboParams,
    Ensemble,
    InitSpec,
    Schedule,
    consensus_point,
    exact_memory_update,
    init_ensemble,
    memory_switch,
    run,
    step,
)
from cbo.objectives import (
    CsObjective,
    Objective,
    Rastrigin,
    Sphere,
    ToyStochasticObjective,
    generate_cs_instance,
)
from cbo.rng import CHANNEL_CONSENSUS, CHANNEL_INIT, RngStream
from helpers import FunctionObjective, generator_states

ROOT = Path(__file__).resolve().parent.parent


def brute_force_consensus(points, energies, alpha):
    """High-precision weighted sum, the independent oracle."""
    import mpmath

    mpmath.mp.dps = 60
    weights = [mpmath.exp(-mpmath.mpf(alpha) * mpmath.mpf(float(e))) for e in energies]
    total = sum(weights, mpmath.mpf(0))
    d = len(points[0])
    out = []
    for k in range(d):
        acc = mpmath.mpf(0)
        for w, p in zip(weights, points):
            acc += w * mpmath.mpf(float(p[k]))
        out.append(float(acc / total))
    return np.array(out)


class TestConsensusPoint:
    def test_single_point(self):
        y = np.array([[1.5, -2.0]])
        out = consensus_point(y, np.array([3.0]), alpha=7.0)
        np.testing.assert_array_equal(out, y[0])

    def test_equal_energies_midpoint(self):
        pts = np.array([[0.0, 0.0], [2.0, 4.0]])
        out = consensus_point(pts, np.array([5.0, 5.0]), alpha=10.0)
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_high_alpha_matches_extended_precision(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        energies = np.array([0.0, 1.0, 2.0])
        out = consensus_point(pts, energies, alpha=100.0)
        expected = brute_force_consensus(pts, energies, 100.0)
        assert abs(expected[0]) < 1e-40  # approx 3.7e-44
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-55)

    def test_energy_shift_invariance(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        a = consensus_point(pts, np.array([1.0, 2.0, 3.0]), alpha=4.0)
        b = consensus_point(pts, np.array([11.0, 12.0, 13.0]), alpha=4.0)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_matches_naive_formula_on_random_cases(self):
        gen = np.random.Generator(np.random.PCG64(42))
        for _ in range(200):
            n = int(gen.integers(1, 21))
            d = int(gen.integers(1, 6))
            pts = gen.standard_normal((n, d))
            energies = gen.uniform(0, 3, n)
            alpha = float(gen.uniform(0.1, 100))
            naive = (np.exp(-alpha * energies) @ pts) / np.exp(-alpha * energies).sum()
            out = consensus_point(pts, energies, alpha)
            np.testing.assert_allclose(out, naive, rtol=1e-12)

    def test_convex_hull_property(self):
        gen = np.random.Generator(np.random.PCG64(1))
        for _ in range(100):
            pts = gen.standard_normal((7, 3))
            energies = gen.uniform(0, 5, 7)
            out = consensus_point(pts, energies, float(gen.uniform(0.1, 1e3)))
            assert np.all(out >= pts.min(axis=0) - 1e-12)
            assert np.all(out <= pts.max(axis=0) + 1e-12)

    def test_subset(self):
        pts = np.array([[0.0], [1.0], [100.0]])
        energies = np.array([0.0, 0.0, -50.0])
        out = consensus_point(pts, energies, 1.0, subset=[0, 1])
        np.testing.assert_allclose(out, [0.5])

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty consensus set"):
            consensus_point(np.zeros((2, 1)), np.zeros(2), 1.0, subset=[])

    def test_nonfinite_energy_rejected(self):
        with pytest.raises(ValueError, match="invalid energy"):
            consensus_point(np.zeros((2, 1)), np.array([0.0, np.nan]), 1.0)

    def test_huge_alpha_no_overflow(self):
        pts = np.array([[5.0], [7.0]])
        out = consensus_point(pts, np.array([1.0, 2.0]), alpha=1e15)
        np.testing.assert_allclose(out, [5.0])


class TestMemorySwitch:
    def test_equal_energies(self):
        for beta in (0.0, 1.0, 57.0, math.inf):
            assert memory_switch(2.0, 2.0, beta, 0.3) == pytest.approx((1 + 0.3) / 2)

    def test_heaviside_limit(self):
        assert memory_switch(0.0, 1.0, math.inf, 0.0) == 1.0
        assert memory_switch(1.0, 0.0, math.inf, 0.0) == 0.0

    def test_tanh_closed_form(self):
        # tanh(ln 3) = 4/5
        assert memory_switch(0.0, math.log(3.0), 1.0, 0.0) == pytest.approx(0.9, abs=1e-14)

    @given(
        e_x=st.floats(-50, 50),
        e_y=st.floats(-50, 50),
        beta=st.floats(0, 100),
        theta=st.floats(0, 3),
    )
    def test_range_finite_beta(self, e_x, e_y, beta, theta):
        s = float(memory_switch(e_x, e_y, beta, theta))
        assert theta / 2 - 1e-12 <= s <= 1 + theta / 2 + 1e-12

    @given(e_x=st.floats(-50, 50), e_y=st.floats(-50, 50), theta=st.floats(0, 3))
    def test_range_infinite_beta(self, e_x, e_y, theta):
        s = float(memory_switch(e_x, e_y, math.inf, theta))
        assert s in (
            pytest.approx(theta / 2),
            pytest.approx((1 + theta) / 2),
            pytest.approx(1 + theta / 2),
        )


def make_ensemble(positions, objective):
    positions = np.asarray(positions, dtype=float)
    return Ensemble(positions.copy(), positions.copy(), objective.values(positions))


def box_objective(d, half_width):
    """Sphere energy inside the box |x|_inf < half_width, +inf outside it."""
    return FunctionObjective(
        lambda x: np.where(
            np.abs(x).max(axis=-1) < half_width, np.einsum("...j,...j->...", x, x), np.inf
        ),
        d,
    )


class TestStep:
    def test_single_particle_fixed_point(self):
        obj = Sphere(2)
        params = CboParams(lambda1=1.0, dt=0.1, kappa=10.0)
        ens = make_ensemble([[3.0, -1.0]], obj)
        step(ens, params, obj, RngStream(0))
        np.testing.assert_array_equal(ens.positions, [[3.0, -1.0]])
        np.testing.assert_array_equal(ens.memories, [[3.0, -1.0]])

    def test_one_deterministic_step_oracle(self):
        # E(x) = x^2, X = Y = (-1, 2), consensus ~ argmin = -1,
        # dt=0.5, lambda1=1: X1 = (-1, 0.5), memories improve to X1.
        obj = Sphere(1)
        params = CboParams(lambda1=1.0, dt=0.5, alpha=1e15, kappa=2.0)
        assert params.uses_exact_memory
        ens = make_ensemble([[-1.0], [2.0]], obj)
        step(ens, params, obj, RngStream(0))
        np.testing.assert_allclose(ens.positions, [[-1.0], [0.5]])
        np.testing.assert_allclose(ens.memories, [[-1.0], [0.5]])
        np.testing.assert_allclose(ens.memory_energies, [1.0, 0.25])

    def test_anisotropic_noise_vanishes_componentwise(self):
        # both particles share coordinate 0 with the consensus point
        obj = FunctionObjective(lambda X: np.zeros(len(X)), 2)
        params = CboParams(
            lambda1=1e-12, sigma1=5.0, dt=0.1, kappa=10.0,
            diffusion="anisotropic",
        )
        pts = np.array([[1.0, -2.0], [1.0, 4.0]])
        ens = make_ensemble(pts, obj)
        step(ens, params, obj, RngStream(3))
        # equal energies: consensus = midpoint (1, 1); coordinate 0 drift args are 0
        np.testing.assert_allclose(ens.positions[:, 0], [1.0, 1.0], atol=1e-10)
        assert not np.allclose(ens.positions[:, 1], pts[:, 1])

    def test_divergence_guard(self):
        """A trajectory without a trial axis that turns non-finite is frozen
        at its state before that step, which ``diverged_at`` records, and a
        run from there takes no step and reports a NaN consensus."""
        obj = Sphere(1)
        params = CboParams(lambda1=1.0, lambda3=1.0, dt=1e6, alpha=1e15, kappa=1e-6)
        ens = make_ensemble([[1.0], [2.0]], obj)
        for k in range(1000):
            before = copy.deepcopy(ens)
            step(ens, params, obj, RngStream(0))
            if not ens.active:
                break
        assert ens.diverged_at == k >= 1
        for name in ("positions", "memories", "memory_energies"):
            assert getattr(ens, name).tobytes() == getattr(before, name).tobytes()
        result = run(ens, params, Schedule(), obj, 5, RngStream(0))
        assert result.n_steps == 0
        assert np.isnan(result.consensus).all()

    def test_smoothed_memory_rule(self):
        obj = Sphere(1)
        params = CboParams(lambda1=1.0, dt=0.5, alpha=1e15, beta=2.0, theta=0.1, kappa=0.4)
        assert not params.uses_exact_memory
        ens = make_ensemble([[-1.0], [2.0]], obj)
        step(ens, params, obj, RngStream(0))
        # positions as in the exact-rule oracle
        np.testing.assert_allclose(ens.positions, [[-1.0], [0.5]])
        # memory moves by dt*kappa*(x_new - y)*S(e_new, e_old)
        s0 = 0.5 * (1 + 0.1 + math.tanh(2.0 * (1.0 - 1.0)))
        s1 = 0.5 * (1 + 0.1 + math.tanh(2.0 * (4.0 - 0.25)))
        expected = [
            [-1.0 + 0.5 * 0.4 * 0.0 * s0],
            [2.0 + 0.5 * 0.4 * (0.5 - 2.0) * s1],
        ]
        np.testing.assert_allclose(ens.memories, expected, rtol=1e-12)
        np.testing.assert_allclose(
            ens.memory_energies, obj.values(np.asarray(expected)), rtol=1e-12
        )


    def test_smoothed_memory_divergence(self):
        # dt * kappa = 5: the memory of the particle at 2 overshoots its moved
        # position 0.5 and leaves the box where the energy is finite
        obj = box_objective(1, 3.0)
        params = CboParams(lambda1=1.0, dt=0.5, alpha=1e15, beta=2.0, theta=0.1, kappa=10.0)
        ens = make_ensemble([[-1.0], [2.0]], obj)
        before = copy.deepcopy(ens)
        step(ens, params, obj, RngStream(0))
        assert ens.diverged_at == 0 and not ens.active
        for name in ("positions", "memories", "memory_energies"):
            np.testing.assert_array_equal(getattr(ens, name), getattr(before, name))
        assert np.isnan(run(ens, params, Schedule(), obj, 1, RngStream(0)).consensus).all()
        # in a batch only that trial is frozen, at its state before the step
        batch = make_ensemble([[[-1.0], [2.0]], [[-1.0], [0.5]]], obj)
        before = copy.deepcopy(batch)
        step(batch, params, obj, RngStream(0, [0, 1]))
        assert batch.diverged_at.tolist() == [0, -1]
        assert batch.active.tolist() == [False, True]
        for name in ("positions", "memories", "memory_energies"):
            np.testing.assert_array_equal(getattr(batch, name)[0], getattr(before, name)[0])
        assert np.all(np.isfinite(batch.memory_energies))
        assert not np.array_equal(batch.memories[1], before.memories[1])


BATCH_PARAMS = {
    "exact": CboParams(lambda1=1.0, lambda2=0.5, sigma1=0.8, sigma2=0.3, alpha=30.0,
                       dt=0.05, kappa=20.0),
    "smoothed": CboParams(lambda1=1.0, lambda3=0.2, sigma1=0.8, sigma3=0.1, alpha=30.0,
                          beta=3.0, theta=0.2, kappa=4.0, dt=0.05,
                          diffusion="isotropic"),
}


class TestBatchedStep:
    """Properties of the dynamics with a leading trial axis."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        trial=st.integers(0, 1000),
        n=st.integers(2, 7),
        d=st.integers(1, 4),
        rule=st.sampled_from(sorted(BATCH_PARAMS)),
        subset=st.booleans(),
        minibatch=st.booleans(),
    )
    def test_batch_of_one_equals_unbatched_run(self, seed, trial, n, d, rule, subset, minibatch):
        obj = ToyStochasticObjective(d, 4) if minibatch else Rastrigin(d)
        params = BATCH_PARAMS[rule]
        n_consensus = n - 1 if subset else None
        runs = []
        for rng in (RngStream(seed, trial), RngStream(seed, [trial])):
            ens = init_ensemble(n, d, InitSpec(std=2.0), rng, obj)
            runs.append(run(ens, params, Schedule(), obj, 4, rng,
                            n_consensus=n_consensus))
        single, batch = runs
        assert batch.ensemble.batch_shape == (1,)
        assert batch.consensus[0].tobytes() == single.consensus.tobytes()
        for name in ("positions", "memories", "memory_energies"):
            got = getattr(batch.ensemble, name)[0]
            assert got.tobytes() == getattr(single.ensemble, name).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.permutations(range(4)),
        rule=st.sampled_from(sorted(BATCH_PARAMS)),
    )
    def test_permuting_trials_permutes_results(self, seed, order, rule):
        obj = Rastrigin(3)
        params = BATCH_PARAMS[rule]
        runs = []
        for trials in (range(4), order):
            rng = RngStream(seed, trials)
            ens = init_ensemble(6, 3, InitSpec(std=2.0), rng, obj)
            for _ in range(4):
                step(ens, params, obj, rng)
            runs.append(ens)
        plain, permuted = runs
        for name in ("positions", "memories", "memory_energies"):
            assert getattr(plain, name)[list(order)].tobytes() == getattr(permuted, name).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5))
    def test_memory_energies_never_increase_under_exact_rule(self, seed, m):
        obj = Rastrigin(2)
        params = BATCH_PARAMS["exact"]
        assert params.uses_exact_memory
        rng = RngStream(seed, range(m))
        ens = init_ensemble(8, 2, InitSpec(std=2.0), rng, obj)
        for _ in range(30):
            prev = ens.memory_energies.copy()
            step(ens, params, obj, rng)
            assert np.all(ens.memory_energies <= prev)


def _fortran(a):
    return np.asfortranarray(a)


def _coordinate_slice(a):
    """``a`` as every other coordinate of a wider array: a view whose rows
    are not contiguous."""
    wide = np.full(a.shape[:-1] + (2 * a.shape[-1],), np.nan)
    wide[..., ::2] = a
    return wide[..., ::2]


class Poisoned(Objective):
    """``objective``, except that the ``call``-th call of ``method``
    ("values" or "gradients"), counted over the object's life, returns inf
    in the rows of trial ``trial``."""

    def __init__(self, objective, method, call, trial):
        super().__init__(objective.dimension)
        self.objective, self.n_batches = objective, objective.n_batches
        self.method, self.call, self.trial, self.calls = method, call, trial, 0

    def _poisoned(self, method, out):
        if method == self.method:
            self.calls += 1
            if self.calls == self.call:
                out = out.copy()
                out[self.trial] = np.inf
        return out

    def values(self, points, batch=None):
        return self._poisoned("values", self.objective.values(points, batch))

    def gradients(self, points, batch=None):
        return self._poisoned("gradients", self.objective.gradients(points, batch))


_EXACT_WITH_GRADIENTS = CboParams(lambda1=1.0, lambda3=0.1, sigma1=0.5, alpha=30.0, dt=0.05,
                                  kappa=20.0)
_EXACT = CboParams(lambda1=1.0, sigma1=0.5, alpha=30.0, dt=0.05, kappa=20.0)

# what turns non-finite in step k -> (params, mini-batches, method poisoned, its call)
DIVERGING_AT = {
    "positions": (_EXACT_WITH_GRADIENTS, 1, "gradients", lambda k: k + 1),
    "energies": (_EXACT, 1, "values", lambda k: k + 1),
    # the smoothed rule evaluates the new positions and then the new memories
    "memory_energies": (CboParams(lambda1=1.0, sigma1=0.5, alpha=30.0, beta=3.0, theta=0.2,
                                  kappa=4.0, dt=0.05), 1, "values", lambda k: 2 * k + 2),
    # under a mini-batch a step re-evaluates the memories, then the new positions
    "minibatch-memory_energies": (_EXACT, 3, "values", lambda k: 2 * k + 1),
    "minibatch-positions": (_EXACT_WITH_GRADIENTS, 3, "gradients", lambda k: k + 1),
}


class TestShortRows:
    """``step`` forms x - y_alpha against the consensus repeated along the
    particles, copies improved memory rows through a row view and checks the
    whole batch for finiteness before any trial: the same bytes as the
    per-row forms, for any input layout and any divergence."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        trials=st.sampled_from([None, 1, 3]),
        n=st.integers(2, 9),
        d=st.integers(1, 6),
        rule=st.sampled_from(sorted(BATCH_PARAMS)),
        layout=st.sampled_from([_fortran, _coordinate_slice]),
    )
    def test_any_layout_steps_to_the_bytes_of_c_copies(self, seed, trials, n, d, rule, layout):
        """Positions and memories given Fortran-ordered or as strided views,
        with or without a trial axis, step as their C-contiguous copies."""
        obj = Rastrigin(d)
        gen = np.random.Generator(np.random.PCG64(seed))
        x = gen.normal(0.5, 2.0, (() if trials is None else (trials,)) + (n, d))
        y = x + gen.normal(0.0, 0.5, x.shape)
        outcomes = []
        for make in (np.copy, layout):
            ens = Ensemble(make(x), make(y), obj.values(y))
            assert ens.positions.flags.c_contiguous and ens.memories.flags.c_contiguous
            rng = RngStream(seed, 0 if trials is None else range(trials))
            result = run(ens, BATCH_PARAMS[rule], Schedule(), obj, 8, rng)
            outcomes.append([getattr(ens, name).tobytes() for name in
                             ("positions", "memories", "memory_energies", "diverged_at")]
                            + [result.consensus.tobytes()])
        assert outcomes[0] == outcomes[1]

    def test_c_contiguous_state_is_held_without_a_copy(self):
        x = np.zeros((2, 5, 3))
        y = np.ones((2, 5, 3))
        ens = Ensemble(x, y, np.zeros((2, 5)))
        assert ens.positions is x and ens.memories is y

    @pytest.mark.parametrize("layout", [_fortran, _coordinate_slice], ids=["fortran", "sliced"])
    def test_row_copy_equals_the_masked_copy(self, layout):
        """The exact rule copies whole rows, signed zeros and NaN payloads
        included, into reassigned memories of any layout."""
        gen = np.random.Generator(np.random.PCG64(4))
        memories = gen.normal(size=(3, 6, 4))
        new = gen.normal(size=(3, 6, 4))
        new[0, 0] = [-0.0, float(np.uint64(0x7FF8000000000ABC).view(np.float64)), 5e-324, 0.0]
        energies = gen.normal(size=(3, 6))
        new_energies = energies + gen.normal(size=(3, 6))
        new_energies[0, 0] = energies[0, 0] - 1.0
        ens = Ensemble(np.zeros_like(memories), np.zeros_like(memories), energies.copy())
        ens.memories = layout(memories)
        exact_memory_update(ens, layout(new), new_energies)
        improved = new_energies < energies
        want = np.where(improved[..., None], new, memories)
        assert ens.memories.tobytes() == want.tobytes()
        assert ens.memory_energies.tobytes() == np.where(improved, new_energies,
                                                         energies).tobytes()

    @pytest.mark.parametrize("where", sorted(DIVERGING_AT))
    @pytest.mark.parametrize("d", [2, 4])
    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), k=st.integers(0, 6), data=st.data())
    def test_one_trial_diverging_at_step_k(self, where, d, seed, m, k, data):
        """The trial that turns non-finite in step k records k and is frozen
        at its state before that step, also when later steps re-evaluate its
        memories on other mini-batches; the other trials of the batch step
        on as they do alone."""
        params, n_batches, method, call = DIVERGING_AT[where]
        plain = Rastrigin(d) if n_batches == 1 else ToyStochasticObjective(d, n_batches)

        def advance(ens, obj, rng):
            batch = None if n_batches == 1 else cbo.dynamics._draw_batch(rng, n_batches)
            step(ens, params, obj, rng, batch)

        bad = data.draw(st.integers(0, m - 1), label="bad")
        steps = k + 3
        gen = np.random.Generator(np.random.PCG64(seed))
        x = gen.normal(0.5, 2.0, (m, 8, d))
        y = x + gen.normal(0.0, 0.5, x.shape)
        energies = plain.values(y)
        ens = Ensemble(x.copy(), y.copy(), energies.copy())
        obj = Poisoned(plain, method, call(k), bad)
        rng = RngStream(seed, range(m))
        for i in range(steps):
            if i == k:
                before = copy.deepcopy(ens)
            advance(ens, obj, rng)
        assert ens.diverged_at.tolist() == [k if t == bad else -1 for t in range(m)]
        assert ens.active.tolist() == [t != bad for t in range(m)]
        names = ("positions", "memories", "memory_energies")
        for name in names:
            assert getattr(ens, name)[bad].tobytes() == getattr(before, name)[bad].tobytes()
        for t in set(range(m)) - {bad}:
            alone = Ensemble(x[t].copy(), y[t].copy(), energies[t].copy())
            alone_rng = RngStream(seed, t)
            for _ in range(steps):
                advance(alone, plain, alone_rng)
            assert alone.diverged_at == -1
            for name in names:
                assert getattr(ens, name)[t].tobytes() == getattr(alone, name).tobytes()


class TestExactMemoryUpdate:
    def test_improvement_replaces(self):
        obj = Sphere(1)
        ens = make_ensemble([[2.0]], obj)
        exact_memory_update(ens, np.array([[1.0]]), np.array([1.0]))
        np.testing.assert_array_equal(ens.memories, [[1.0]])
        np.testing.assert_array_equal(ens.memory_energies, [1.0])

    def test_tie_keeps_old_memory(self):
        obj = Sphere(1)
        ens = make_ensemble([[2.0]], obj)
        exact_memory_update(ens, np.array([[-2.0]]), np.array([4.0]))
        np.testing.assert_array_equal(ens.memories, [[2.0]])

    def test_shape_mismatch(self):
        obj = Sphere(1)
        ens = make_ensemble([[2.0]], obj)
        with pytest.raises(ValueError):
            exact_memory_update(ens, np.zeros((2, 1)), np.zeros(2))

    def test_memory_energies_nonincreasing_along_noisy_run(self):
        obj = Sphere(3)
        params = CboParams(lambda1=1.0, sigma1=1.0, dt=0.05, alpha=50.0, kappa=20.0)
        rng = RngStream(5)
        ens = init_ensemble(12, 3, InitSpec(), rng, obj)
        prev = ens.memory_energies.copy()
        for _ in range(300):
            step(ens, params, obj, rng)
            assert np.all(ens.memory_energies <= prev + 1e-15)
            prev = ens.memory_energies.copy()


class TestInitEnsemble:
    def test_degenerate_gaussian(self):
        obj = Sphere(2)
        ens = init_ensemble(5, 2, InitSpec("gaussian", mean=1.5, std=0.0), RngStream(0), obj)
        np.testing.assert_array_equal(ens.positions, np.full((5, 2), 1.5))
        np.testing.assert_array_equal(ens.memories, ens.positions)
        np.testing.assert_allclose(ens.memory_energies, 4.5)

    def test_uniform_box(self):
        obj = Sphere(4)
        ens = init_ensemble(50, 4, InitSpec("uniform", low=-1, high=1), RngStream(1), obj)
        assert np.all(ens.positions >= -1) and np.all(ens.positions <= 1)

    def test_reproducible(self):
        obj = Sphere(3)
        a = init_ensemble(7, 3, InitSpec(), RngStream(9), obj)
        b = init_ensemble(7, 3, InitSpec(), RngStream(9), obj)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            InitSpec("gaussian", std=-1.0)
        with pytest.raises(ValueError):
            InitSpec("uniform", low=1.0, high=1.0)
        with pytest.raises(ValueError):
            init_ensemble(0, 2, InitSpec(), RngStream(0), Sphere(2))


class TestRun:
    def test_zero_steps_returns_initial(self):
        obj = Sphere(2)
        params = CboParams(dt=0.1, kappa=10.0)
        rng = RngStream(0)
        ens = init_ensemble(4, 2, InitSpec(), rng, obj)
        before = ens.positions.copy()
        res = run(ens, params, Schedule(), obj, 0, rng)
        assert res.n_steps == 0
        np.testing.assert_array_equal(res.ensemble.positions, before)

    def test_sphere_deterministic_contraction(self):
        obj = Sphere(2)
        params = CboParams(lambda1=1.0, dt=0.1, alpha=1e15, kappa=10.0)
        rng = RngStream(2)
        ens = init_ensemble(50, 2, InitSpec(), rng, obj)
        res = run(ens, params, Schedule(), obj, 200, rng)
        assert np.linalg.norm(res.consensus) < 1e-6
        # geometric decay oracle: the best memory energy never increases and the
        # ensemble spread contracts by (1 - dt*lambda1) per step
        assert res.ensemble.memory_energies.min() <= ens.memory_energies.min()

    def test_bit_identical_reruns(self):
        obj = Sphere(3)
        params = CboParams(lambda1=1.0, sigma1=0.7, dt=0.05, alpha=30.0, kappa=20.0)

        def once():
            rng = RngStream(77)
            ens = init_ensemble(15, 3, InitSpec(), rng, obj)
            return run(ens, params, Schedule(), obj, 100, rng)

        a, b = once(), once()
        np.testing.assert_array_equal(a.ensemble.positions, b.ensemble.positions)
        np.testing.assert_array_equal(a.consensus, b.consensus)

    def test_observer_sees_every_state_without_perturbing_the_run(self, monkeypatch):
        """An observer is called at the start and after each step, with the
        ensemble at that step; a run computes one consensus point per step
        plus the one it reports, and ends on the same bytes without an
        observer."""
        obj = Sphere(2)
        params = CboParams(
            lambda1=4.0, lambda2=1.0, sigma1=0.5, sigma2=0.2, theta=1.0, kappa=2.0,
            alpha=1e6, dt=0.01,
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return consensus_point(*args, **kwargs)

        monkeypatch.setattr(cbo.dynamics, "consensus_point", counting)
        steps = 25

        def once(**kwargs):
            rng = RngStream(0)
            ens = init_ensemble(30, 2, InitSpec(), rng, obj)
            return run(ens, params, Schedule(), obj, steps, rng, **kwargs)

        seen = []
        observed = once(observe=lambda e: seen.append((e.step_index, e.positions.tobytes())))
        assert [k for k, _ in seen] == list(range(steps + 1))
        assert seen[-1][1] == observed.ensemble.positions.tobytes()
        assert len(calls) == steps + 1
        plain = once()
        assert plain.ensemble.positions.tobytes() == observed.ensemble.positions.tobytes()
        assert plain.consensus.tobytes() == observed.consensus.tobytes()

    def test_reported_consensus_uses_last_step_params(self):
        obj = Sphere(2)
        params = CboParams(lambda1=1.0, dt=0.1, alpha=1.0, kappa=10.0)
        sched = Schedule(alpha_rule="double_per_epoch", epoch_length=1)
        rng = RngStream(6)
        ens = init_ensemble(10, 2, InitSpec(), rng, obj)
        res = run(ens, params, sched, obj, 3, rng)
        last = sched.params_at(params, 2)
        assert last.alpha == 4.0
        e = res.ensemble
        np.testing.assert_array_equal(
            res.consensus, consensus_point(e.memories, e.memory_energies, last.alpha)
        )
        assert not np.allclose(
            res.consensus, consensus_point(e.memories, e.memory_energies, params.alpha)
        )

    def test_batch_split_invariance_with_early_stops(self):
        """Each trial of a batch ends as it does alone: a divergence freezes
        only its own trial."""
        obj = box_objective(2, 1.0)
        params = CboParams(lambda1=1.0, sigma1=1.0, alpha=30.0, dt=0.05, kappa=20.0)
        init = InitSpec("uniform", low=-0.5, high=0.5)
        rng = RngStream(3, range(8))
        ens = init_ensemble(20, 2, init, rng, obj)
        batch = run(ens, params, Schedule(), obj, 400, rng)
        diverged = 0
        for t in range(8):
            rng = RngStream(3, t)
            ens = init_ensemble(20, 2, init, rng, obj)
            alone = run(ens, params, Schedule(), obj, 400, rng)
            k = batch.ensemble.diverged_at[t]
            assert k == alone.ensemble.diverged_at
            assert np.isnan(batch.consensus[t]).all() == (k >= 0)
            assert batch.consensus[t].tobytes() == alone.consensus.tobytes()
            for name in ("positions", "memories", "memory_energies"):
                got = getattr(batch.ensemble, name)[t]
                assert got.tobytes() == getattr(alone.ensemble, name).tobytes()
            diverged += k >= 0
        assert 0 < diverged < 8


class BoxedCs(CsObjective):
    """Sparse-recovery energy, +inf outside the box |x|_inf < ``bound``.
    Records for each ``gradients`` call whether a residual was handed over."""

    def __init__(self, A, b, mu, p, bound=np.inf):
        super().__init__(A, b, mu, p)
        self.bound = bound
        self.handed = []

    def values_and_residual(self, points, batch=None):
        energies, residual = super().values_and_residual(points, batch)
        energies[np.abs(points).max(axis=-1) >= self.bound] = np.inf
        return energies, residual

    def gradients(self, points, batch=None, residual=None):
        self.handed.append(residual is not None)
        return super().gradients(points, batch, residual)


class RecomputingCs(BoxedCs):
    """Drops a handed-over residual, so ``A x - b`` is computed again."""

    def gradients(self, points, batch=None, residual=None):
        return super().gradients(points, batch)


def _recording_steps(monkeypatch):
    """Make ``monkeypatch`` record what each ``step`` of ``run`` returns."""
    returned, real_step = [], cbo.dynamics.step

    def recorded(*args, **kwargs):
        returned.append(real_step(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(cbo.dynamics, "step", recorded)
    return returned


class TestResidualHandover:
    """``step`` returns the residual of the new positions, which ``run``
    hands to the next step's gradients, with the same results as
    recomputing it."""

    STEPS = 60
    PARAMS = CboParams(lambda1=1.0, lambda3=0.5, sigma1=0.7, alpha=30.0, dt=0.05, kappa=20.0)

    def cs_run(self, cls, trials, n_consensus=None, bound=np.inf):
        rng = RngStream(0, trials)
        objs = []
        for t in rng.trials:
            cs, _ = generate_cs_instance(10, 5, 2, 0.05, 0.5, RngStream(0, t))
            objs.append(cls(cs.A, cs.b, cs.mu, cs.p, bound))
        # stacking keeps the subclass and its bound
        obj = cls.stack(objs) if rng.batch_shape else objs[0]
        assert type(obj) is cls and obj.bound == bound
        ens = init_ensemble(12, 10, InitSpec("uniform", low=-0.5, high=0.5), rng, obj)
        res = run(ens, self.PARAMS, Schedule(), obj, self.STEPS, rng, n_consensus=n_consensus)
        return res, obj

    @pytest.mark.parametrize(
        "trials, n_consensus, bound",
        [(0, None, np.inf), (range(4), 5, np.inf), (range(6), None, 1.5)],
        ids=["single", "subset", "diverging"],
    )
    def test_handed_over_equals_recomputed(self, trials, n_consensus, bound, monkeypatch):
        returned = _recording_steps(monkeypatch)
        handed, obj = self.cs_run(BoxedCs, trials, n_consensus, bound)
        returned = returned[:]
        recomputed, _ = self.cs_run(RecomputingCs, trials, n_consensus, bound)
        for name in ("positions", "memories", "memory_energies", "diverged_at"):
            got, want = getattr(handed.ensemble, name), getattr(recomputed.ensemble, name)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()
        assert handed.consensus.tobytes() == recomputed.consensus.tobytes()

        # step 0 has no residual yet; each later step is handed what the one
        # before returned, which is None from the first frozen trial on
        diverged = handed.ensemble.diverged_at
        first = diverged[diverged >= 0].min() if np.any(diverged >= 0) else self.STEPS - 1
        assert obj.handed == [False] + [True] * first + [False] * (self.STEPS - 1 - first)
        assert obj.handed == [False] + [r is not None for r in returned[:-1]]
        if bound < np.inf:
            assert 0 < first < self.STEPS - 1 and np.any(diverged < 0)
            assert returned[-1] is None
        else:
            assert returned[-1].tobytes() == obj._residual(handed.ensemble.positions).tobytes()

    def test_no_handover_without_gradients_or_with_a_mini_batch(self):
        cs, _ = generate_cs_instance(10, 5, 2, 0.05, 0.5, RngStream(1))
        obj = BoxedCs(cs.A, cs.b, cs.mu, cs.p)
        ens = init_ensemble(12, 10, InitSpec(), RngStream(1), obj)
        no_grads = replace(self.PARAMS, lambda3=0.0)
        assert step(ens, no_grads, obj, RngStream(1), residual=obj._residual(ens.positions)) is None
        residual = obj._residual(ens.positions)
        assert step(ens, self.PARAMS, obj, RngStream(1), batch=0, residual=residual) is None
        assert obj.handed == [False]

    def cs_batch(self, seed, params, schedule, steps):
        """A three-trial sparse-recovery batch run ``steps`` steps: its
        ensemble, objective and stream."""
        rng = RngStream(seed, range(3))
        obj = CsObjective.stack(
            [generate_cs_instance(10, 5, 2, 0.05, 0.5, RngStream(seed, t))[0] for t in rng.trials]
        )
        ens = init_ensemble(12, 10, InitSpec("uniform", low=-0.5, high=0.5), rng, obj)
        run(ens, params, schedule, obj, steps, rng)
        return ens, obj, rng

    def test_reassigned_state_steps_as_a_fresh_ensemble(self):
        """An ensemble whose positions, memories and memory energies are
        reassigned between two ``run`` calls steps on as a new ``Ensemble``
        built from those arrays: nothing of the old positions is reused."""
        moved, obj, rng = self.cs_batch(2, self.PARAMS, Schedule(), 5)
        assert moved.active.all()
        moved.positions += 0.5
        moved.memories = moved.positions.copy()
        moved.memory_energies = obj.values(moved.memories)
        _, twin_obj, twin_rng = self.cs_batch(2, self.PARAMS, Schedule(), 5)
        fresh = Ensemble(moved.positions.copy(), moved.memories.copy(),
                         moved.memory_energies.copy(), step_index=moved.step_index)
        got = run(moved, self.PARAMS, Schedule(), obj, 5, rng)
        want = run(fresh, self.PARAMS, Schedule(), twin_obj, 5, twin_rng)
        assert _outcome(rng, got) == _outcome(twin_rng, want)

    @pytest.mark.parametrize("sigma1", [0.7, 0.0], ids=["noise-producer", "split"])
    def test_two_runs_continue_as_one(self, sigma1, monkeypatch):
        """``run`` for k steps and then for T - k more equals one ``run`` of
        T steps, across epochs of a schedule.  With the fork threshold at 0,
        each run on two CPUs forks a noise producer or splits the batch."""
        monkeypatch.setattr(cbo.rng, "FORK_MIN_WORK", 0)
        params = replace(self.PARAMS, sigma1=sigma1)
        schedule = Schedule("double_per_epoch", "log2_cooling", epoch_length=7)
        whole, _, whole_rng = self.cs_batch(3, params, schedule, self.STEPS)
        parts, obj, parts_rng = self.cs_batch(3, params, schedule, 23)
        last = run(parts, params, schedule, obj, self.STEPS - 23, parts_rng)
        assert last.n_steps == self.STEPS - 23 and parts.step_index == whole.step_index
        for name in ("positions", "memories", "memory_energies", "diverged_at"):
            assert getattr(parts, name).tobytes() == getattr(whole, name).tobytes()
        assert generator_states(parts_rng) == generator_states(whole_rng)


class TwoMethodSphere(Objective):
    """A user objective written to the two-method interface, with Sphere's
    formulas."""

    def values(self, points, batch=None):
        return np.einsum("...j,...j->...", points, points)

    def gradients(self, points, batch=None):
        return 2.0 * points


class TestUserObjective:
    """Gradient drift and gradient noise run on an objective that defines
    only ``values`` and ``gradients``, exactly as on the built-in one."""

    @pytest.mark.parametrize("trials", [0, range(3)], ids=["single", "batch"])
    @pytest.mark.parametrize(
        "memory",
        [dict(kappa=20.0), dict(beta=30.0, theta=0.5, kappa=5.0)],
        ids=["exact", "smoothed"],
    )
    def test_equals_sphere_bit_for_bit(self, trials, memory, monkeypatch):
        params = CboParams(
            lambda1=1.0, lambda3=0.3, sigma1=0.4, sigma3=0.2, alpha=30.0, dt=0.05, **memory
        )
        assert params.uses_exact_memory == ("beta" not in memory)
        returned, results = _recording_steps(monkeypatch), []
        for obj in (TwoMethodSphere(3), Sphere(3)):
            rng = RngStream(5, trials)
            ens = init_ensemble(15, 3, InitSpec(mean=1.0), rng, obj)
            results.append(run(ens, params, Schedule(), obj, 40, rng))
        user, sphere = results
        for name in ("positions", "memories", "memory_energies"):
            got, want = getattr(user.ensemble, name), getattr(sphere.ensemble, name)
            assert got.tobytes() == want.tobytes()
        assert user.consensus.tobytes() == sphere.consensus.tobytes()
        assert len(returned) == 80 and all(r is None for r in returned)


class TestSchedule:
    def test_log2_cooling_values(self):
        base = CboParams(sigma1=2.0, sigma2=1.0, dt=0.1, kappa=10.0)
        sched = Schedule(sigma_rule="log2_cooling", epoch_length=10)
        # epoch 0: unchanged
        assert sched.params_at(base, 5).sigma1 == 2.0
        # epoch 3: divide by log2(5)
        p3 = sched.params_at(base, 35)
        assert p3.sigma1 == pytest.approx(2.0 / math.log2(5))
        assert p3.sigma2 == pytest.approx(1.0 / math.log2(5))

    def test_alpha_doubling(self):
        base = CboParams(alpha=50.0, dt=0.1, kappa=10.0)
        sched = Schedule(alpha_rule="double_per_epoch", epoch_length=100)
        assert sched.params_at(base, 0).alpha == 50.0
        assert sched.params_at(base, 250).alpha == 200.0

    def test_alpha_doubling_past_the_floats_is_a_value_error(self):
        base = CboParams(alpha=100.0, dt=0.1, kappa=10.0)
        sched = Schedule(alpha_rule="double_per_epoch", epoch_length=1)
        assert sched.params_at(base, 1017).alpha == 100.0 * 2.0**1017
        # 100 * 2**1018 is inf, and 2.0**1024 itself overflows
        for k in (1018, 1024, 5000):
            with pytest.raises(ValueError, match=f"overflows at step {k}"):
                sched.params_at(base, k)
        # a small alpha doubles past 2**1024 and stays finite
        tiny = replace(base, alpha=1e-300)
        assert sched.params_at(tiny, 1049).alpha == 1e-300 * 2.0**1000 * 2.0**49

    def test_invalid_rules(self):
        with pytest.raises(ValueError):
            Schedule(alpha_rule="triple")
        with pytest.raises(ValueError):
            Schedule(epoch_length=0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            CboParams(dt=-0.1)
        with pytest.raises(ValueError, match="alpha"):
            CboParams(alpha=0.0)
        with pytest.raises(ValueError, match="lambda1"):
            CboParams(lambda1=0.0)
        with pytest.raises(ValueError, match="diffusion"):
            CboParams(diffusion="radial")

    def test_exact_memory_detection(self):
        assert CboParams(dt=0.01, kappa=100.0).uses_exact_memory
        assert not CboParams(dt=0.01, kappa=50.0).uses_exact_memory
        assert not CboParams(dt=0.01, kappa=100.0, theta=0.5).uses_exact_memory
        assert not CboParams(dt=0.01, kappa=100.0, beta=10.0).uses_exact_memory

    def test_unset_kappa_is_one_over_dt(self):
        params = CboParams(dt=0.001)
        assert params.kappa == 1000.0
        # resolved once: a new dt keeps it
        assert replace(params, dt=0.01).kappa == 1000.0
        # a dt so small that 1/dt overflows
        with pytest.raises(ValueError, match="kappa=inf"):
            CboParams(dt=1e-320)


def _decay_yaml_case(seed, m, steps):
    """configs/decay.yaml's settings on one trajectory: two noise channels,
    smoothed memory."""
    exp = load_config(str(ROOT / "configs" / "decay.yaml")).build_experiment()
    obj = exp.objective_factory(RngStream(exp.seed)).objective
    rng = RngStream(seed)
    ens = init_ensemble(30, obj.dimension, exp.init, rng, obj)
    return rng, lambda: run(ens, exp.params, exp.schedule, obj, steps, rng)


def _exact_memory_case(seed, m, steps):
    obj = Rastrigin(3)
    params = CboParams(lambda1=1.0, sigma1=1.2, alpha=100.0, dt=0.01)
    rng = RngStream(seed, range(m))
    ens = init_ensemble(20, 3, InitSpec(mean=1.5), rng, obj)
    return rng, lambda: run(ens, params, Schedule(), obj, steps, rng)


def _gradient_noise_case(seed, m, steps):
    objs = [generate_cs_instance(8, 5, 2, 0.01, 1.0, RngStream(seed, t))[0] for t in range(m)]
    obj = CsObjective.stack(objs)
    params = CboParams(lambda1=1.0, lambda3=0.5, sigma1=0.2, sigma3=0.3, alpha=100.0, dt=0.01)
    rng = RngStream(seed, range(m))
    ens = init_ensemble(15, 8, InitSpec(), rng, obj)
    return rng, lambda: run(ens, params, Schedule(), obj, steps, rng)


def _minibatch_case(seed, m, steps):
    obj = ToyStochasticObjective(2, 4)
    params = CboParams(lambda1=1.0, sigma1=0.5, alpha=50.0, dt=0.05)
    rng = RngStream(seed, range(m))
    ens = init_ensemble(20, 2, InitSpec(), rng, obj)
    return rng, lambda: run(ens, params, Schedule(), obj, steps, rng)


def _subset_case(seed, m, steps):
    obj = Sphere(2)
    params = CboParams(lambda1=1.0, lambda2=0.5, sigma1=0.5, sigma2=0.2, alpha=50.0, dt=0.05)
    rng = RngStream(seed, range(m))
    ens = init_ensemble(20, 2, InitSpec(), rng, obj)
    return rng, lambda: run(ens, params, Schedule(), obj, steps, rng, n_consensus=5)


def _all_diverge_case(seed, m, steps):
    obj = box_objective(2, 1.0)
    params = CboParams(lambda1=1.0, sigma1=20.0, alpha=30.0, dt=0.05)
    rng = RngStream(seed, range(m))
    ens = init_ensemble(20, 2, InitSpec("uniform", low=-0.5, high=0.5), rng, obj)
    return rng, lambda: run(ens, params, Schedule(), obj, steps, rng)


PRODUCER_CASES = {
    "decay-yaml": _decay_yaml_case,
    "batched-exact-memory": _exact_memory_case,
    "cs-gradient-noise": _gradient_noise_case,
    "toy-minibatch": _minibatch_case,
    "consensus-subsets": _subset_case,
    "all-diverge": _all_diverge_case,
}


def _outcome(rng, result):
    ens = result.ensemble
    arrays = (ens.positions, ens.memories, ens.memory_energies, ens.diverged_at, result.consensus)
    return [a.tobytes() for a in arrays], result.n_steps, generator_states(rng)


def _count_children(mp):
    """Make ``mp`` record each child process that ``cbo.rng._Child`` starts,
    by the names of the arrays it shares: ``slots`` for a noise producer,
    ``positions`` and the other per-trial fields for a split part."""
    started = []
    start = cbo.rng._Child.__init__

    def counted(self, *args, **kwargs):
        start(self, *args, **kwargs)  # returns in the parent only
        started.append(self.shared.dtype.names)

    mp.setattr(cbo.rng._Child, "__init__", counted)
    return started


def _run_with_threshold(threshold, make, *args):
    """``make(*args)``'s run with the fork threshold at ``threshold``: its
    outcome or the exception it raised, the generator states, and the number
    of child processes it started, noise producers and split parts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cbo.rng, "FORK_MIN_WORK", threshold)
        started = _count_children(mp)
        rng, go = make(*args)
        try:
            out = _outcome(rng, go())
        except Exception as err:  # compared with the serial run's
            out = (type(err), str(err), generator_states(rng))
    return out, len(started)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _python(script):
    """``script`` run by a fresh interpreter that imports this ``cbo``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)


def _wait_gone(pid):
    """Wait until process ``pid`` is neither running nor a zombie waiting
    for its new parent; fail after 10 s."""
    stat = Path(f"/proc/{pid}/stat")

    def running():
        try:
            return stat.read_text().rsplit(")", 1)[-1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 10.0
    while running():
        assert time.monotonic() < deadline, f"process {pid} outlived its parent"
        time.sleep(0.01)


TWO_CPUS = sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2


class TestNoiseProducer:
    """A run's noise drawn ahead in a forked child equals drawing it in
    order: the same final state, and every generator left where serial
    drawing leaves it."""

    @pytest.mark.parametrize("case", sorted(PRODUCER_CASES))
    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), steps=st.integers(1, 60))
    def test_equals_serial_draws(self, case, seed, m, steps):
        serial, none = _run_with_threshold(math.inf, PRODUCER_CASES[case], seed, m, steps)
        produced, forks = _run_with_threshold(0, PRODUCER_CASES[case], seed, m, steps)
        assert produced == serial
        assert none == 0
        assert forks == (1 if TWO_CPUS else 0)
        _assert_no_child()

    def test_all_trials_diverge_before_the_quota(self):
        serial, _ = _run_with_threshold(math.inf, _all_diverge_case, 3, 4, 400)
        produced, _ = _run_with_threshold(0, _all_diverge_case, 3, 4, 400)
        assert produced == serial
        assert serial[1] < 400
        _assert_no_child()

    def test_channel_cooled_to_zero_stays_serial(self, monkeypatch):
        """log2 cooling takes a subnormal sigma1 to 0 from epoch 2 on, so only
        the memory noise is drawn on every step, and only it is produced."""
        monkeypatch.setattr(cbo.rng, "RING_BYTES", 0)  # two slots
        params = CboParams(lambda1=1.0, lambda2=0.5, sigma1=5e-324, sigma2=0.3, dt=0.05)
        sched = Schedule(sigma_rule="log2_cooling", epoch_length=2)
        assert sched.params_at(params, 3).sigma1 > 0.0 == sched.params_at(params, 4).sigma1

        def make(seed, m, steps):
            obj = Sphere(2)
            rng = RngStream(seed, range(m))
            ens = init_ensemble(10, 2, InitSpec(), rng, obj)
            return rng, lambda: run(ens, params, sched, obj, steps, rng)

        serial, _ = _run_with_threshold(math.inf, make, 1, 3, 30)
        produced, forks = _run_with_threshold(0, make, 1, 3, 30)
        assert produced == serial
        assert forks == (1 if TWO_CPUS else 0)

    def test_objective_error_leaves_serial_states(self):
        class Failing(Sphere):
            calls = 0

            def values(self, points, batch=None):
                self.calls += 1
                if self.calls > 12:
                    raise ZeroDivisionError("objective failed")
                return super().values(points, batch)

        def make(seed, m, steps):
            obj = Failing(2)
            params = CboParams(lambda1=1.0, sigma1=0.5, sigma2=0.3, lambda2=0.5, alpha=50.0)
            rng = RngStream(seed, range(m))
            ens = init_ensemble(10, 2, InitSpec(), rng, obj)
            return rng, lambda: run(ens, params, Schedule(), obj, steps, rng)

        serial, _ = _run_with_threshold(math.inf, make, 4, 2, 100)
        produced, forks = _run_with_threshold(0, make, 4, 2, 100)
        assert serial[0] is ZeroDivisionError
        assert produced == serial
        assert forks == (1 if TWO_CPUS else 0)
        _assert_no_child()

    def test_diverged_trajectory_leaves_serial_states(self):
        def make(seed, m, steps):
            obj = box_objective(2, 1.0)
            params = CboParams(lambda1=1.0, sigma1=20.0, alpha=30.0, dt=0.05)
            rng = RngStream(seed)
            ens = init_ensemble(20, 2, InitSpec("uniform", low=-0.5, high=0.5), rng, obj)
            return rng, lambda: run(ens, params, Schedule(), obj, steps, rng)

        serial, _ = _run_with_threshold(math.inf, make, 2, 1, 200)
        produced, forks = _run_with_threshold(0, make, 2, 1, 200)
        # recorded at step k, frozen at the state after k steps, NaN consensus
        (*state, diverged_at, consensus), n_steps, _ = serial
        k = int(np.frombuffer(diverged_at, dtype=np.int64)[0])
        assert 0 <= k == n_steps - 1
        assert np.isnan(np.frombuffer(consensus)).all()
        assert _run_with_threshold(math.inf, make, 2, 1, k)[0][0][:3] == state
        assert produced == serial
        assert forks == (1 if TWO_CPUS else 0)
        _assert_no_child()

    def test_normal_return_leaves_no_child(self, monkeypatch):
        monkeypatch.setattr(cbo.rng, "FORK_MIN_WORK", 0)
        rng, go = _exact_memory_case(0, 3, 50)
        assert go().n_steps == 50
        _assert_no_child()

    @pytest.mark.skipif(not TWO_CPUS, reason="the producer needs Linux and two CPUs")
    def test_produced_channel_has_no_generator_here(self, monkeypatch):
        """While the child draws a channel, the generator here is stale and
        asking for it raises; the other channels are served here."""
        monkeypatch.setattr(cbo.rng, "FORK_MIN_WORK", 0)
        obj = Sphere(2)
        params = CboParams(lambda1=1.0, sigma1=0.5)
        rng = RngStream(0)
        ens = init_ensemble(10, 2, InitSpec(), rng, obj)

        def observe(e):
            if e.step_index == 3:
                rng.generator(CHANNEL_INIT)
                rng.generator(CHANNEL_CONSENSUS)

        with pytest.raises(RuntimeError, match="channel 1 is being drawn by a producer"):
            run(ens, params, Schedule(), obj, 20, rng, observe=observe)
        _assert_no_child()
        rng.generator(CHANNEL_CONSENSUS)

    @pytest.mark.skipif(not TWO_CPUS, reason="the producer needs Linux and two CPUs")
    def test_draws_beyond_the_quota_or_of_another_shape_raise(self, monkeypatch):
        monkeypatch.setattr(cbo.rng, "FORK_MIN_WORK", 0)
        rng = RngStream(0, range(2))
        with pytest.raises(RuntimeError, match="more often than the run has steps"):
            with rng.producing([CHANNEL_CONSENSUS], 3, 2, 2):
                with pytest.raises(ValueError, match="blocks of"):
                    rng.gaussians(CHANNEL_CONSENSUS, 4, 2)
                for _ in range(3):
                    rng.gaussians(CHANNEL_CONSENSUS, 3, 2)
        _assert_no_child()
        serial = RngStream(0, range(2))
        for _ in range(2):
            serial.gaussians(CHANNEL_CONSENSUS, 3, 2)
        assert generator_states(rng) == generator_states(serial)

    @pytest.mark.skipif(not TWO_CPUS, reason="the producer needs Linux and two CPUs")
    def test_a_failing_child_is_an_error_not_a_hang(self, monkeypatch, capfd):
        here, fill = os.getpid(), cbo.rng._fill

        def fill_here_only(gens, out):
            if os.getpid() != here:
                raise MemoryError
            fill(gens, out)

        monkeypatch.setattr(cbo.rng, "FORK_MIN_WORK", 0)
        monkeypatch.setattr(cbo.rng, "_fill", fill_here_only)
        rng, go = _exact_memory_case(0, 2, 10)
        with pytest.raises(RuntimeError, match="noise producer exited early with status 1"):
            go()
        _assert_no_child()
        err = capfd.readouterr().err
        assert "Traceback (most recent call last)" in err and "MemoryError" in err

    @pytest.mark.skipif(not TWO_CPUS, reason="the producer needs Linux and two CPUs")
    def test_a_failed_start_leaks_no_descriptor(self, monkeypatch):
        """When the second eventfd cannot be made, the first is closed and
        the block draws here."""
        eventfd, calls = os.eventfd, []

        def every_second_fails(*args):
            calls.append(args)
            if len(calls) % 2 == 0:
                raise OSError(errno.EMFILE, "too many open files")
            return eventfd(*args)

        monkeypatch.setattr(cbo.rng, "FORK_MIN_WORK", 0)
        monkeypatch.setattr(os, "eventfd", every_second_fails)
        fds = len(os.listdir("/proc/self/fd"))
        rng, serial = RngStream(0, range(2)), RngStream(0, range(2))
        for _ in range(5):
            with rng.producing([CHANNEL_CONSENSUS], 3, 2, 4):
                for _ in range(4):
                    drawn = rng.gaussians(CHANNEL_CONSENSUS, 3, 2)
                    assert drawn.tobytes() == serial.gaussians(CHANNEL_CONSENSUS, 3, 2).tobytes()
        assert len(calls) == 10
        assert len(os.listdir("/proc/self/fd")) == fds
        assert generator_states(rng) == generator_states(serial)
        _assert_no_child()

    @pytest.mark.skipif(not TWO_CPUS, reason="the producer needs Linux and two CPUs")
    def test_child_exits_when_its_parent_dies(self):
        script = (
            "import os, signal\n"
            "import cbo.rng\n"
            "from cbo.dynamics import CboParams, InitSpec, Schedule, init_ensemble, run\n"
            "from cbo.objectives import Sphere\n"
            "cbo.rng.FORK_MIN_WORK = 0\n"
            "rng = cbo.rng.RngStream(0)\n"
            "obj = Sphere(2)\n"
            "ens = init_ensemble(10, 2, InitSpec(), rng, obj)\n"
            "def observe(e):\n"
            "    if e.step_index == 1:\n"
            "        print(rng._producer.child.pid, flush=True)\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "run(ens, CboParams(sigma1=0.5), Schedule(), obj, 10**6, rng, observe=observe)\n"
        )
        proc = _python(script)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        _wait_gone(int(proc.stdout))



def _stacked_cs(seed, m, p=0.5, scaled=()):
    """A stacked batch of m sparse-recovery instances (d=8, m=5); the
    trials in ``scaled`` have A and b times 1e20, so they diverge within a
    few gradient steps."""
    objs = []
    for t in range(m):
        cs, _ = generate_cs_instance(8, 5, 2, 0.01, p, RngStream(seed, t))
        if t in scaled:
            cs = CsObjective(1e20 * cs.A, 1e20 * cs.b, cs.mu, cs.p)
        objs.append(cs)
    return CsObjective.stack(objs)


def _split_case(objective, params, n=15, n_consensus=None, init=InitSpec()):
    def make(seed, m, steps):
        obj = objective(seed, m)
        rng = RngStream(seed, range(m))
        ens = init_ensemble(n, obj.dimension, init, rng, obj)
        return rng, lambda: run(ens, params, Schedule(), obj, steps, rng, n_consensus=n_consensus)

    return make


def _diverging_part_case(part):
    """Every trial of one part (the leading ceil(m/2) trials run here, or the
    others, run in the child) diverges; consensus subsets are drawn, so the
    generators of the part that stops early must catch up."""

    def objective(seed, m):
        here = m - m // 2
        return _stacked_cs(seed, m, scaled=range(here) if part == "here" else range(here, m))

    return _split_case(objective, CboParams(lambda1=1.0, lambda3=0.5, dt=0.01), n_consensus=5)


SPLIT_CASES = {
    "cs-exact-memory": _split_case(
        _stacked_cs, CboParams(lambda1=1.0, lambda3=0.5, alpha=100.0, dt=0.01)
    ),
    "smoothed-memory": _split_case(
        lambda seed, m: Rastrigin(3),
        CboParams(lambda1=1.0, lambda2=0.5, beta=10.0, kappa=20.0, dt=0.05),
        init=InitSpec(mean=1.5),
    ),
    "toy-minibatch": _split_case(
        lambda seed, m: ToyStochasticObjective(2, 4), CboParams(lambda1=1.0, alpha=50.0, dt=0.05)
    ),
    "consensus-subsets": _split_case(
        lambda seed, m: _stacked_cs(seed, m, p=1.0),
        CboParams(lambda1=1.0, lambda3=1.0, alpha=100.0, dt=0.01), n_consensus=6,
    ),
    "diverging-here": _diverging_part_case("here"),
    "diverging-in-child": _diverging_part_case("child"),
}


class TestSplitRun:
    """A noise-free batch stepped as two parts, the trailing floor(M/2)
    trials in a forked child, equals stepping it here: the same final state,
    and every generator left where serial drawing leaves it."""

    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), steps=st.integers(1, 60))
    def test_equals_serial_steps(self, case, seed, m, steps):
        serial, none = _run_with_threshold(math.inf, SPLIT_CASES[case], seed, m, steps)
        split, forks = _run_with_threshold(0, SPLIT_CASES[case], seed, m, steps)
        assert split == serial
        assert none == 0
        assert forks == (1 if TWO_CPUS else 0)
        _assert_no_child()

    @pytest.mark.parametrize("part", ["here", "child"])
    @pytest.mark.parametrize("m", [2, 5])
    def test_a_part_whose_trials_all_diverge_catches_up(self, part, m):
        make = SPLIT_CASES[f"diverging-{'here' if part == 'here' else 'in-child'}"]
        serial, _ = _run_with_threshold(math.inf, make, 7, m, 80)
        split, forks = _run_with_threshold(0, make, 7, m, 80)
        assert split == serial
        assert forks == (1 if TWO_CPUS else 0)
        # the whole part diverged early, and the other part ran every step
        diverged_at = np.frombuffer(serial[0][3], dtype=np.int64)
        here = m - m // 2
        dead, alive = (diverged_at[:here], diverged_at[here:])
        if part == "child":
            dead, alive = alive, dead
        assert np.all((0 <= dead) & (dead < 10)) and np.all(alive == -1)
        assert serial[1] == 80
        _assert_no_child()

    def test_noise_keeps_the_producer_and_one_trial_stays_here(self):
        noisy = _split_case(_stacked_cs, CboParams(lambda1=1.0, lambda3=0.5, sigma1=0.3))
        quiet = SPLIT_CASES["cs-exact-memory"]
        started = {}
        for name, make, m in (("noisy", noisy, 3), ("one trial", quiet, 1)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cbo.rng, "FORK_MIN_WORK", 0)
                started[name] = _count_children(mp)
                make(0, m, 20)[1]()
        # the noisy batch starts a noise producer and no split part
        assert started == {"noisy": [("slots", "states")] if TWO_CPUS else [], "one trial": []}
        _assert_no_child()

    def test_objective_that_stacks_without_its_own_part_is_not_split(self):
        class OwnStack(CsObjective):
            @classmethod
            def stack(cls, objectives):
                return super().stack(objectives)

        def objective(seed, m):
            cs = _stacked_cs(seed, m)
            return OwnStack(cs.A, cs.b, cs.mu, cs.p)

        make = _split_case(objective, CboParams(lambda1=1.0, lambda3=0.5))
        serial, _ = _run_with_threshold(math.inf, make, 1, 4, 30)
        unsplit, forks = _run_with_threshold(0, make, 1, 4, 30)
        assert unsplit == serial and forks == 0

    def test_objective_error_in_each_part_is_the_serial_error(self):
        class Failing(Sphere):
            calls = 0

            def values(self, points, batch=None):
                self.calls += 1
                if self.calls > 12:
                    raise ZeroDivisionError("objective failed")
                return super().values(points, batch)

        make = _split_case(lambda seed, m: Failing(2), CboParams(lambda1=1.0, alpha=50.0))
        serial, _ = _run_with_threshold(math.inf, make, 4, 3, 100)
        split, forks = _run_with_threshold(0, make, 4, 3, 100)
        assert serial[:2] == (ZeroDivisionError, "objective failed")
        assert split[:2] == serial[:2]
        assert forks == (1 if TWO_CPUS else 0)
        _assert_no_child()

    @pytest.mark.skipif(not TWO_CPUS, reason="the split needs Linux and two CPUs")
    def test_an_error_here_kills_the_child(self, monkeypatch):
        """The child of a run that raises here is killed, not waited for
        through its million steps."""
        here, waitpid, statuses = os.getpid(), os.waitpid, []

        class FailingHere(Sphere):
            calls = 0

            def values(self, points, batch=None):
                self.calls += 1
                if self.calls > 12 and os.getpid() == here:
                    raise ZeroDivisionError("objective failed")
                return super().values(points, batch)

        def recorded(pid, options):
            reaped = waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(os, "waitpid", recorded)
        monkeypatch.setattr(cbo.rng, "FORK_MIN_WORK", 0)
        make = _split_case(lambda seed, m: FailingHere(2), CboParams(lambda1=1.0))
        with pytest.raises(ZeroDivisionError, match="objective failed"):
            make(0, 2, 10**6)[1]()
        assert len(statuses) == 1
        assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL
        _assert_no_child()

    def test_error_in_the_childs_trials_surfaces_here(self):
        """An objective that fails only on the last trial fails the child,
        and stepping its trials here raises the error itself."""

        class Poisoned(CsObjective):
            calls = 0

            def values_and_residual(self, points, batch=None):
                self.calls += 1
                if self.calls > 5 and np.any(self.A[..., 0, 0] == 0.0):
                    raise FloatingPointError("poisoned trial")
                return super().values_and_residual(points, batch)

        def objective(seed, m):
            cs = _stacked_cs(seed, m)
            cs.A[-1, 0, 0] = 0.0
            return Poisoned(cs.A, cs.b, cs.mu, cs.p)

        make = _split_case(objective, CboParams(lambda1=1.0, lambda3=0.5))
        serial, _ = _run_with_threshold(math.inf, make, 2, 3, 40)
        split, forks = _run_with_threshold(0, make, 2, 3, 40)
        assert serial[:2] == (FloatingPointError, "poisoned trial")
        assert split[:2] == serial[:2]
        assert forks == (1 if TWO_CPUS else 0)
        _assert_no_child()

    @pytest.mark.skipif(not TWO_CPUS, reason="the split needs Linux and two CPUs")
    def test_a_failing_child_falls_back_to_stepping_here(self, monkeypatch):
        here, real_step = os.getpid(), cbo.dynamics.step

        def step_here_only(*args, **kwargs):
            if os.getpid() != here:
                raise MemoryError
            return real_step(*args, **kwargs)

        monkeypatch.setattr(cbo.dynamics, "step", step_here_only)
        make = SPLIT_CASES["consensus-subsets"]
        serial, _ = _run_with_threshold(math.inf, make, 5, 3, 50)
        split, forks = _run_with_threshold(0, make, 5, 3, 50)
        assert split == serial and forks == 1
        _assert_no_child()

    @pytest.mark.skipif(not TWO_CPUS, reason="the split needs Linux and two CPUs")
    def test_a_failed_fork_steps_every_trial_here(self, monkeypatch):
        """With no process to spare, a split run steps every trial here and
        a noisy run draws its noise here."""

        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        for make in (SPLIT_CASES["toy-minibatch"], PRODUCER_CASES["batched-exact-memory"]):
            serial, _ = _run_with_threshold(math.inf, make, 6, 4, 30)
            unforked, forks = _run_with_threshold(0, make, 6, 4, 30)
            assert unforked == serial and forks == 0
        _assert_no_child()

    @pytest.mark.skipif(not TWO_CPUS, reason="the split needs Linux and two CPUs")
    def test_child_exits_when_its_parent_dies(self):
        """The child's trials reach their third objective call, hand its pid
        over, and the parent kills itself at the same point."""
        script = (
            "import os, signal\n"
            "import cbo.rng\n"
            "from cbo.dynamics import CboParams, InitSpec, Schedule, init_ensemble, run\n"
            "from cbo.objectives import Sphere\n"
            "cbo.rng.FORK_MIN_WORK = 0\n"
            "parent = os.getpid()\n"
            "r, w = os.pipe()\n"
            "class Handing(Sphere):\n"
            "    calls = 0\n"
            "    def values(self, points, batch=None):\n"
            "        self.calls += 1\n"
            "        if self.calls == 3 and os.getpid() != parent:\n"
            "            os.write(w, str(os.getpid()).encode())\n"
            "        elif self.calls == 3:\n"
            "            print(os.read(r, 32).decode(), flush=True)\n"
            "            os.kill(parent, signal.SIGKILL)\n"
            "        return super().values(points, batch)\n"
            "rng = cbo.rng.RngStream(0, range(2))\n"
            "obj = Handing(2)\n"
            "ens = init_ensemble(10, 2, InitSpec(), rng, obj)\n"
            "run(ens, CboParams(), Schedule(), obj, 10**7, rng)\n"
        )
        proc = _python(script)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        _wait_gone(int(proc.stdout))
