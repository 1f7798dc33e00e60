import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbo.dynamics
from cbo.dynamics import (
    CboParams,
    DiffusionType,
    DivergedError,
    Ensemble,
    InitSpec,
    Schedule,
    StoppingRule,
    consensus_point,
    exact_memory_update,
    init_ensemble,
    memory_switch,
    run,
    step,
)
from cbo.objectives import FunctionObjective, Rastrigin, Sphere, ToyStochasticObjective
from cbo.rng import RngStream


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


def make_ensemble(positions, objective, dt):
    positions = np.asarray(positions, dtype=float)
    return Ensemble(
        positions.copy(), positions.copy(), objective.values(positions), 0, dt
    )


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
        ens = make_ensemble([[3.0, -1.0]], obj, params.dt)
        step(ens, params, obj, RngStream(0))
        np.testing.assert_array_equal(ens.positions, [[3.0, -1.0]])
        np.testing.assert_array_equal(ens.memories, [[3.0, -1.0]])

    def test_one_deterministic_step_oracle(self):
        # E(x) = x^2, X = Y = (-1, 2), consensus ~ argmin = -1,
        # dt=0.5, lambda1=1: X1 = (-1, 0.5), memories improve to X1.
        obj = Sphere(1)
        params = CboParams(lambda1=1.0, dt=0.5, alpha=1e15, kappa=2.0)
        assert params.uses_exact_memory
        ens = make_ensemble([[-1.0], [2.0]], obj, params.dt)
        step(ens, params, obj, RngStream(0))
        np.testing.assert_allclose(ens.positions, [[-1.0], [0.5]])
        np.testing.assert_allclose(ens.memories, [[-1.0], [0.5]])
        np.testing.assert_allclose(ens.memory_energies, [1.0, 0.25])

    def test_anisotropic_noise_vanishes_componentwise(self):
        # both particles share coordinate 0 with the consensus point
        obj = FunctionObjective(lambda X: np.zeros(len(X)), 2)
        params = CboParams(
            lambda1=1e-12, sigma1=5.0, dt=0.1, kappa=10.0,
            diffusion=DiffusionType.ANISOTROPIC,
        )
        pts = np.array([[1.0, -2.0], [1.0, 4.0]])
        ens = make_ensemble(pts, obj, params.dt)
        step(ens, params, obj, RngStream(3))
        # equal energies: consensus = midpoint (1, 1); coordinate 0 drift args are 0
        np.testing.assert_allclose(ens.positions[:, 0], [1.0, 1.0], atol=1e-10)
        assert not np.allclose(ens.positions[:, 1], pts[:, 1])

    def test_divergence_guard(self):
        obj = Sphere(1)
        params = CboParams(lambda1=1.0, lambda3=1.0, dt=1e6, alpha=1e15, kappa=1e-6)
        ens = make_ensemble([[1.0], [2.0]], obj, params.dt)
        with pytest.raises(DivergedError) as err:
            for _ in range(1000):
                step(ens, params, obj, RngStream(0))
        assert err.value.step_index >= 0

    def test_smoothed_memory_rule(self):
        obj = Sphere(1)
        params = CboParams(lambda1=1.0, dt=0.5, alpha=1e15, beta=2.0, theta=0.1, kappa=0.4)
        assert not params.uses_exact_memory
        ens = make_ensemble([[-1.0], [2.0]], obj, params.dt)
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
        ens = make_ensemble([[-1.0], [2.0]], obj, params.dt)
        with pytest.raises(DivergedError) as err:
            step(ens, params, obj, RngStream(0))
        assert err.value.step_index == 0
        # in a batch only that trial is frozen, at its state before the step
        batch = make_ensemble([[[-1.0], [2.0]], [[-1.0], [0.5]]], obj, params.dt)
        before = batch.copy()
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
                          diffusion=DiffusionType.ISOTROPIC),
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
            ens = init_ensemble(n, d, InitSpec(std=2.0), rng, obj, params.dt)
            runs.append(run(ens, params, Schedule(), obj, StoppingRule(max_steps=4), rng,
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
            ens = init_ensemble(6, 3, InitSpec(std=2.0), rng, obj, params.dt)
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
        ens = init_ensemble(8, 2, InitSpec(std=2.0), rng, obj, params.dt)
        for _ in range(30):
            prev = ens.memory_energies.copy()
            step(ens, params, obj, rng)
            assert np.all(ens.memory_energies <= prev)


class TestExactMemoryUpdate:
    def test_improvement_replaces(self):
        obj = Sphere(1)
        ens = make_ensemble([[2.0]], obj, 0.1)
        exact_memory_update(ens, np.array([[1.0]]), np.array([1.0]))
        np.testing.assert_array_equal(ens.memories, [[1.0]])
        np.testing.assert_array_equal(ens.memory_energies, [1.0])

    def test_tie_keeps_old_memory(self):
        obj = Sphere(1)
        ens = make_ensemble([[2.0]], obj, 0.1)
        exact_memory_update(ens, np.array([[-2.0]]), np.array([4.0]))
        np.testing.assert_array_equal(ens.memories, [[2.0]])

    def test_shape_mismatch(self):
        obj = Sphere(1)
        ens = make_ensemble([[2.0]], obj, 0.1)
        with pytest.raises(ValueError):
            exact_memory_update(ens, np.zeros((2, 1)), np.zeros(2))

    def test_memory_energies_nonincreasing_along_noisy_run(self):
        obj = Sphere(3)
        params = CboParams(lambda1=1.0, sigma1=1.0, dt=0.05, alpha=50.0, kappa=20.0)
        rng = RngStream(5)
        ens = init_ensemble(12, 3, InitSpec(), rng, obj, params.dt)
        prev = ens.memory_energies.copy()
        for _ in range(300):
            step(ens, params, obj, rng)
            assert np.all(ens.memory_energies <= prev + 1e-15)
            prev = ens.memory_energies.copy()


class TestInitEnsemble:
    def test_degenerate_gaussian(self):
        obj = Sphere(2)
        ens = init_ensemble(5, 2, InitSpec("gaussian", mean=1.5, std=0.0), RngStream(0), obj, 0.1)
        np.testing.assert_array_equal(ens.positions, np.full((5, 2), 1.5))
        np.testing.assert_array_equal(ens.memories, ens.positions)
        np.testing.assert_allclose(ens.memory_energies, 4.5)

    def test_uniform_box(self):
        obj = Sphere(4)
        ens = init_ensemble(50, 4, InitSpec("uniform", low=-1, high=1), RngStream(1), obj, 0.1)
        assert np.all(ens.positions >= -1) and np.all(ens.positions <= 1)

    def test_reproducible(self):
        obj = Sphere(3)
        a = init_ensemble(7, 3, InitSpec(), RngStream(9), obj, 0.1)
        b = init_ensemble(7, 3, InitSpec(), RngStream(9), obj, 0.1)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            InitSpec("gaussian", std=-1.0)
        with pytest.raises(ValueError):
            InitSpec("uniform", low=1.0, high=1.0)
        with pytest.raises(ValueError):
            init_ensemble(0, 2, InitSpec(), RngStream(0), Sphere(2), 0.1)


class TestRun:
    def test_zero_steps_returns_initial(self):
        obj = Sphere(2)
        params = CboParams(dt=0.1, kappa=10.0)
        rng = RngStream(0)
        ens = init_ensemble(4, 2, InitSpec(), rng, obj, params.dt)
        before = ens.positions.copy()
        res = run(ens, params, Schedule(), obj, StoppingRule(max_steps=0), rng)
        assert res.n_steps == 0
        np.testing.assert_array_equal(res.ensemble.positions, before)

    def test_sphere_deterministic_contraction(self):
        obj = Sphere(2)
        params = CboParams(lambda1=1.0, dt=0.1, alpha=1e15, kappa=10.0)
        rng = RngStream(2)
        ens = init_ensemble(50, 2, InitSpec(), rng, obj, params.dt)
        res = run(ens, params, Schedule(), obj, StoppingRule(max_steps=200), rng)
        assert np.linalg.norm(res.consensus) < 1e-6
        # geometric decay oracle: the best memory energy never increases and the
        # ensemble spread contracts by (1 - dt*lambda1) per step
        assert res.ensemble.memory_energies.min() <= ens.memory_energies.min()

    def test_bit_identical_reruns(self):
        obj = Sphere(3)
        params = CboParams(lambda1=1.0, sigma1=0.7, dt=0.05, alpha=30.0, kappa=20.0)

        def once():
            rng = RngStream(77)
            ens = init_ensemble(15, 3, InitSpec(), rng, obj, params.dt)
            return run(ens, params, Schedule(), obj, StoppingRule(max_steps=100), rng)

        a, b = once(), once()
        np.testing.assert_array_equal(a.ensemble.positions, b.ensemble.positions)
        np.testing.assert_array_equal(a.consensus, b.consensus)

    def test_consensus_tol_stops_early(self):
        obj = Sphere(2)
        params = CboParams(lambda1=1.0, dt=0.1, alpha=1e15, kappa=10.0)
        rng = RngStream(4)
        ens = init_ensemble(10, 2, InitSpec(), rng, obj, params.dt)
        res = run(
            ens, params, Schedule(), obj,
            StoppingRule(max_steps=10_000, consensus_tol=1e-12), rng,
        )
        assert res.n_steps < 10_000

    def test_recorded_run_holds_three_tracks(self, monkeypatch):
        """Given x_star, a run records time, V and W2 at the start and after
        each step, and computes one consensus point per step plus the one it
        reports; without x_star it records nothing, on the same trajectory."""
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
            ens = init_ensemble(30, 2, InitSpec(), rng, obj, params.dt)
            return run(ens, params, Schedule(), obj, StoppingRule(max_steps=steps), rng, **kwargs)

        recorded = once(x_star=np.zeros(2))
        assert set(recorded.diagnostics) == {"time", "lyapunov", "w2_to_dirac"}
        assert all(track.shape == (steps + 1,) for track in recorded.diagnostics.values())
        assert len(calls) == steps + 1
        plain = once()
        assert plain.diagnostics == {}
        assert plain.ensemble.positions.tobytes() == recorded.ensemble.positions.tobytes()
        assert plain.consensus.tobytes() == recorded.consensus.tobytes()


    def test_reported_consensus_uses_last_step_params(self):
        obj = Sphere(2)
        params = CboParams(lambda1=1.0, dt=0.1, alpha=1.0, kappa=10.0)
        sched = Schedule(alpha_rule="double_per_epoch", epoch_length=1)
        rng = RngStream(6)
        ens = init_ensemble(10, 2, InitSpec(), rng, obj, params.dt)
        res = run(ens, params, sched, obj, StoppingRule(max_steps=3), rng)
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
        """Each trial of a batch ends as it does alone: a consensus_tol stop
        or a divergence freezes only its own trial."""
        obj = box_objective(2, 1.0)
        params = CboParams(lambda1=1.0, sigma1=1.0, alpha=30.0, dt=0.05, kappa=20.0)
        stop = StoppingRule(max_steps=400, consensus_tol=1e-3)
        init = InitSpec("uniform", low=-0.5, high=0.5)
        rng = RngStream(3, range(8))
        ens = init_ensemble(20, 2, init, rng, obj, params.dt)
        batch = run(ens, params, Schedule(), obj, stop, rng)
        diverged = stopped_early = 0
        for t in range(8):
            rng = RngStream(3, t)
            ens = init_ensemble(20, 2, init, rng, obj, params.dt)
            try:
                alone = run(ens, params, Schedule(), obj, stop, rng)
            except DivergedError as err:
                assert batch.ensemble.diverged_at[t] == err.step_index
                assert np.all(np.isnan(batch.consensus[t]))
                diverged += 1
                continue
            assert batch.ensemble.diverged_at[t] == -1
            assert batch.consensus[t].tobytes() == alone.consensus.tobytes()
            for name in ("positions", "memories", "memory_energies"):
                got = getattr(batch.ensemble, name)[t]
                assert got.tobytes() == getattr(alone.ensemble, name).tobytes()
            stopped_early += alone.n_steps < batch.n_steps
        assert diverged and stopped_early


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

    def test_exact_memory_detection(self):
        assert CboParams(dt=0.01, kappa=100.0).uses_exact_memory
        assert not CboParams(dt=0.01, kappa=50.0).uses_exact_memory
        assert not CboParams(dt=0.01, kappa=100.0, theta=0.5).uses_exact_memory
        assert not CboParams(dt=0.01, kappa=100.0, beta=10.0).uses_exact_memory
