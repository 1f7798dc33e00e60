import math

import numpy as np
import pytest

from cbo.dynamics import CboParams, Ensemble
from cbo.theory import (
    AssumptionConstants,
    chi_rates,
    chi_rates_memoryless,
    fit_exponential_rate,
    laplace_bound,
    lyapunov_V,
    mass_decay_rate_p,
    mollifier_phi_r,
    time_horizon_star,
    upsilon_constant,
    wasserstein2_to_dirac,
)

SPHERE = AssumptionConstants(eta=1.0, nu=0.5, R0=1.0, E_inf=100.0, C_grad=2.0)


def ensemble_from(positions, memories):
    positions = np.asarray(positions, dtype=float)
    memories = np.asarray(memories, dtype=float)
    return Ensemble(positions, memories, np.zeros(len(positions)))


class TestChiRates:
    def test_reference_parameter_set(self):
        params = CboParams(
            lambda1=4.0, lambda2=1.0, sigma1=0.5, sigma2=0.2,
            theta=1.0, kappa=2.0, dt=0.01,
        )
        rates = chi_rates(params, SPHERE)
        assert rates.chi1 == pytest.approx(0.92, abs=1e-12)
        assert rates.chi2 == pytest.approx(12.5, abs=1e-12)

    def test_independent_reimplementation(self):
        gen = np.random.Generator(np.random.PCG64(0))
        for _ in range(300):
            l1, l2, l3 = gen.uniform(0.1, 5), gen.uniform(0, 3), gen.uniform(0, 2)
            s1, s2, s3 = gen.uniform(0, 2, 3)
            th, ka = gen.uniform(0, 2), gen.uniform(0.1, 5)
            params = CboParams(
                lambda1=l1, lambda2=l2, lambda3=l3, sigma1=s1, sigma2=s2,
                sigma3=s3, theta=th, kappa=ka, dt=0.01,
            )
            C = SPHERE.C_grad
            first = l1 - l2 - 3 * l3 * C - 2 * s1**2 - 2 * s3**2 * C**2
            second = 2 * ka * th + l2 - l1 - l3 * C - 2 * s2**2
            third = 3 * l1 + l2 + 3 * l3 * C - 2 * s1**2 + 2 * s3**2 * C**2
            fourth = 2 * ka * th + 3 * l2 + l1 + l3 * C - 2 * s2**2
            rates = chi_rates(params, SPHERE)
            assert rates.chi1 == pytest.approx(min(first, second), rel=1e-14)
            assert rates.chi2 == pytest.approx(max(third, fourth), rel=1e-14)
            assert rates.chi2 >= rates.chi1

    def test_noise_shrinks_chi1(self):
        quiet = CboParams(lambda1=2.0, dt=0.01, kappa=100.0, theta=1.0)
        noisy = CboParams(lambda1=2.0, sigma1=0.5, dt=0.01, kappa=100.0, theta=1.0)
        assert chi_rates(noisy, SPHERE).chi1 < chi_rates(quiet, SPHERE).chi1

    def test_gradient_constant_required(self):
        params = CboParams(lambda1=1.0, lambda3=0.5, dt=0.01, kappa=100.0)
        bare = AssumptionConstants(eta=1.0, nu=0.5, R0=1.0, E_inf=10.0)
        with pytest.raises(ValueError, match="C_grad"):
            chi_rates(params, bare)


class TestChiRatesMemoryless:
    def test_closed_form(self):
        params = CboParams(lambda1=1.0, lambda3=0.25, sigma1=0.4, sigma3=0.1, dt=0.01, kappa=100.0)
        rates = chi_rates_memoryless(params, SPHERE)
        # 2*1 - 2*0.25*2 - 0.16 - 0.01*4 and 2*1 + 2*0.25*2 - 0.16 + 0.01*4
        assert rates.chi1 == pytest.approx(2 - 1 - 0.16 - 0.04)
        assert rates.chi2 == pytest.approx(2 + 1 - 0.16 + 0.04)

    def test_pure_drift_symmetric(self):
        params = CboParams(lambda1=3.0, dt=0.01, kappa=100.0)
        rates = chi_rates_memoryless(params, SPHERE)
        assert rates.chi1 == rates.chi2 == pytest.approx(6.0)


class TestTimeHorizon:
    def test_closed_form(self):
        th = time_horizon_star(V0=1.0, eps=1e-4, vartheta=0.25, chi1=0.92)
        assert th.t_star == pytest.approx(math.log(1e4) / (0.75 * 0.92))
        assert th.t_lower is None

    def test_bracket_lower_end(self):
        th = time_horizon_star(V0=2.0, eps=0.5, vartheta=0.25, chi1=0.92, chi2=12.5)
        ratio = (0.75 * 0.92) / (1.125 * 12.5)
        assert th.t_lower == pytest.approx(ratio * th.t_star)
        assert th.t_lower < th.t_star

    def test_monotone_in_accuracy(self):
        a = time_horizon_star(1.0, 1e-2, 0.1, 1.0).t_star
        b = time_horizon_star(1.0, 1e-6, 0.1, 1.0).t_star
        assert b > a

    def test_errors(self):
        with pytest.raises(ValueError, match="chi1"):
            time_horizon_star(1.0, 0.1, 0.25, chi1=-0.5)
        with pytest.raises(ValueError, match="vartheta"):
            time_horizon_star(1.0, 0.1, 1.0, chi1=1.0)
        with pytest.raises(ValueError, match="eps"):
            time_horizon_star(1.0, 2.0, 0.25, chi1=1.0)


class TestLyapunov:
    def test_hand_computed(self):
        ens = ensemble_from([[2.0, 0.0]], [[2.0, 2.0]])
        v = lyapunov_V(ens, np.zeros(2))
        assert v.position_part == pytest.approx(2.0)
        assert v.memory_part == pytest.approx(2.0)
        assert v.total == pytest.approx(4.0)

    def test_naive_double_loop_oracle(self):
        gen = np.random.Generator(np.random.PCG64(1))
        for _ in range(50):
            n, d = int(gen.integers(1, 10)), int(gen.integers(1, 5))
            X = gen.standard_normal((n, d))
            Y = gen.standard_normal((n, d))
            xs = gen.standard_normal(d)
            naive = sum(
                np.dot(X[i] - xs, X[i] - xs) + np.dot(Y[i] - X[i], Y[i] - X[i])
                for i in range(n)
            ) / (2 * n)
            assert lyapunov_V(ensemble_from(X, Y), xs).total == pytest.approx(
                naive, rel=1e-12
            )

    def test_zero_at_dirac(self):
        ens = ensemble_from(np.ones((5, 3)), np.ones((5, 3)))
        assert lyapunov_V(ens, np.ones(3)).total == 0.0

    def test_overflowing_square_warns_and_gives_inf(self):
        # squared_norms adds the columns of two-coordinate rows, and a square
        # past the float range reports overflow there as any ufunc does
        ens = ensemble_from([[1e200, 0.0]], [[1e200, 0.0]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            v = lyapunov_V(ens, np.zeros(2))
        assert v.position_part == math.inf
        assert v.memory_part == 0.0
        # rows of three coordinates go through einsum, which gives inf silently
        ens = ensemble_from([[1e200, 0.0, 0.0]], [[1e200, 0.0, 0.0]])
        assert lyapunov_V(ens, np.zeros(3)).total == math.inf


class TestWasserstein:
    def test_hand_computed(self):
        ens = ensemble_from([[1.0, 0.0]], [[0.0, 2.0]])
        assert wasserstein2_to_dirac(ens, np.zeros(2)) == pytest.approx(5.0)

    def test_dominated_by_six_v(self):
        gen = np.random.Generator(np.random.PCG64(2))
        for _ in range(1000):
            n, d = int(gen.integers(1, 12)), int(gen.integers(1, 6))
            ens = ensemble_from(
                gen.standard_normal((n, d)) * gen.uniform(0.1, 10),
                gen.standard_normal((n, d)) * gen.uniform(0.1, 10),
            )
            xs = gen.standard_normal(d)
            w2 = wasserstein2_to_dirac(ens, xs)
            assert w2 <= 6.0 * lyapunov_V(ens, xs).total + 1e-12


class TestBatchedFunctionals:
    def test_per_trial_naive_double_loop_oracle(self):
        gen = np.random.Generator(np.random.PCG64(3))
        m, n, d = 4, 7, 3
        X = gen.standard_normal((m, n, d))
        Y = gen.standard_normal((m, n, d))
        xs = gen.standard_normal(d)
        ens = Ensemble(X, Y, np.zeros((m, n)))
        v = lyapunov_V(ens, xs)
        w2 = wasserstein2_to_dirac(ens, xs)
        assert v.total.shape == v.position_part.shape == w2.shape == (m,)
        for t in range(m):
            pos = sum(np.dot(X[t, i] - xs, X[t, i] - xs) for i in range(n)) / (2 * n)
            mem = sum(np.dot(Y[t, i] - X[t, i], Y[t, i] - X[t, i]) for i in range(n)) / (2 * n)
            dirac = sum(
                np.dot(X[t, i] - xs, X[t, i] - xs) + np.dot(Y[t, i] - xs, Y[t, i] - xs)
                for i in range(n)
            ) / n
            assert v.position_part[t] == pytest.approx(pos, rel=1e-12)
            assert v.memory_part[t] == pytest.approx(mem, rel=1e-12)
            assert v.total[t] == pytest.approx(pos + mem, rel=1e-12)
            assert w2[t] == pytest.approx(dirac, rel=1e-12)


def sphere_laplace_case(gen):
    """A random admissible empirical measure for the squared-norm objective."""
    d = int(gen.integers(1, 6))
    r = float(gen.uniform(0.05, 1.0))
    n_in = int(gen.integers(1, 30))
    n_out = int(gen.integers(0, 30))
    inside = gen.uniform(-r, r, (n_in, d))
    outside = gen.standard_normal((n_out, d)) * gen.uniform(1.0, 5.0)
    # keep outliers genuinely outside the inf-ball
    if n_out:
        bump = np.sign(outside)
        bump[bump == 0] = 1.0
        outside = outside + bump * r
    memories = np.vstack([inside, outside])
    energies = np.einsum("ij,ij->i", memories, memories)
    alpha = float(gen.uniform(1.0, 1e4))
    q = float(gen.uniform(1e-3, 5.0))
    return memories, energies, np.zeros(d), alpha, q, r


class TestLaplaceBound:
    def test_point_mass_at_minimizer(self):
        memories = np.zeros((4, 3))
        report = laplace_bound(
            memories, np.zeros(4), np.zeros(3), alpha=10.0, q=0.5, r=0.5,
            constants=SPHERE,
        )
        assert report.lhs == 0.0
        assert report.holds

    def test_randomized_admissible_suite(self):
        gen = np.random.Generator(np.random.PCG64(3))
        checked = 0
        while checked < 300:
            memories, energies, xs, alpha, q, r = sphere_laplace_case(gen)
            if q + energies[np.max(np.abs(memories), axis=1) <= r].max() > SPHERE.E_inf:
                continue
            report = laplace_bound(memories, energies, xs, alpha, q, r, SPHERE)
            assert report.holds, (report.lhs, report.rhs)
            checked += 1

    def test_energy_offset_invariance(self):
        memories = np.array([[0.1], [0.2], [2.0]])
        energies = memories[:, 0] ** 2
        base = laplace_bound(memories, energies, np.zeros(1), 50.0, 0.3, 0.5, SPHERE)
        shifted_constants = AssumptionConstants(
            eta=1.0, nu=0.5, R0=1.0, E_inf=100.0, C_grad=2.0, E_min=7.0
        )
        shifted = laplace_bound(
            memories, energies + 7.0, np.zeros(1), 50.0, 0.3, 0.5, shifted_constants
        )
        assert shifted.lhs == pytest.approx(base.lhs, rel=1e-12)
        assert shifted.rhs == pytest.approx(base.rhs, rel=1e-12)

    def test_empty_ball_rejected(self):
        memories = np.full((3, 2), 5.0)
        with pytest.raises(ValueError, match="mass zero"):
            laplace_bound(
                memories, np.full(3, 50.0), np.zeros(2), 10.0, 0.1, 0.5, SPHERE
            )

    def test_precondition_violation_rejected(self):
        constants = AssumptionConstants(eta=1.0, nu=0.5, R0=1.0, E_inf=0.1)
        with pytest.raises(ValueError, match="precondition"):
            laplace_bound(
                np.array([[0.4]]), np.array([0.16]), np.zeros(1), 10.0, 0.2, 0.5,
                constants,
            )

    def test_invalid_radius(self):
        with pytest.raises(ValueError, match="R0"):
            laplace_bound(
                np.zeros((2, 1)), np.zeros(2), np.zeros(1), 10.0, 0.1, 2.0, SPHERE
            )


class TestMollifier:
    def test_peak_value_one(self):
        xs = np.array([0.3, -0.1])
        assert mollifier_phi_r(xs, xs, xs, r=1.0) == pytest.approx(1.0)

    def test_zero_outside_support(self):
        xs = np.zeros(2)
        assert mollifier_phi_r(np.array([0.5, 0.0]), xs, xs, r=1.0) == 0.0
        assert mollifier_phi_r(np.array([0.1, 0.0]), np.array([0.8, 0.0]), xs, r=1.0) == 0.0

    def test_range_and_continuity_near_edge(self):
        xs = np.zeros(1)
        vals = [
            mollifier_phi_r(np.array([t]), np.array([0.0]), xs, r=1.0)
            for t in np.linspace(0.0, 0.499, 40)
        ]
        assert all(0 <= v <= 1 for v in vals)
        assert vals[-1] < 1e-50  # decays smoothly to zero at the boundary

    def test_coordinate_permutation_symmetry(self):
        x = np.array([0.1, -0.2])
        y = np.array([0.05, 0.1])
        xs = np.zeros(2)
        a = mollifier_phi_r(x, y, xs, r=1.0)
        b = mollifier_phi_r(x[::-1], y[::-1], xs, r=1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_product_structure(self):
        x = np.array([0.1, -0.2])
        y = np.array([0.05, 0.1])
        xs = np.zeros(2)
        joint = mollifier_phi_r(x, y, xs, r=1.0)
        per_coord = [
            mollifier_phi_r(x[k : k + 1], y[k : k + 1], xs[k : k + 1], r=1.0)
            for k in range(2)
        ]
        assert joint == pytest.approx(per_coord[0] * per_coord[1], rel=1e-12)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            mollifier_phi_r(np.zeros(1), np.zeros(1), np.zeros(1), r=0.0)


class TestMassDecayRate:
    def test_upsilon_constant(self):
        assert upsilon_constant(r=1.0, B=2.0, d=4, c_grad=2.0) == pytest.approx(4.0)
        assert upsilon_constant(r=1.0, B=2.0, d=1, c_grad=1.0) == pytest.approx(2.5)

    def test_duplicate_formula_primary_drift_only(self):
        params = CboParams(lambda1=1.5, sigma1=0.8, dt=0.01, kappa=100.0)
        r, B, c, d = 0.5, 1.0, 0.8, 3
        got = mass_decay_rate_p(params, r, B, c, d, SPHERE)
        c_ups = max(r / 2 + B, SPHERE.C_grad * d * r / 2)
        hr = r / 2
        expected = d * 2 * (
            2 * 1.5 * c_ups * math.sqrt(c) / ((1 - c) ** 2 * hr)
            + 0.8**2 * c_ups**2 / ((1 - c) ** 4 * hr**2)
            + 4 * 1.5**2 / ((2 * c - 1) * 0.8**2)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_memory_drift_term_included(self):
        base = CboParams(lambda1=1.0, sigma1=0.5, dt=0.01, kappa=100.0)
        with_memory = CboParams(
            lambda1=1.0, sigma1=0.5, lambda2=0.5, sigma2=0.5, dt=0.01, kappa=100.0
        )
        assert mass_decay_rate_p(with_memory, 0.5, 1.0, 0.75, 2, SPHERE) > mass_decay_rate_p(
            base, 0.5, 1.0, 0.75, 2, SPHERE
        )

    def test_admissibility_of_c(self):
        params = CboParams(lambda1=1.0, sigma1=0.5, dt=0.01, kappa=100.0)
        for bad_c in (0.5, 1.0, 0.51, 0.3):
            if bad_c == 0.51 and (1 - 0.51) ** 2 <= (2 * 0.51 - 1) * 0.51:
                continue
            with pytest.raises(ValueError, match="admissible"):
                mass_decay_rate_p(params, 0.5, 1.0, bad_c, 2, SPHERE)
        # c = 0.8 satisfies (1-c)^2 = 0.04 <= (2c-1)c = 0.48
        mass_decay_rate_p(params, 0.5, 1.0, 0.8, 2, SPHERE)

    def test_drift_without_diffusion_rejected(self):
        params = CboParams(lambda1=1.0, sigma1=0.5, lambda2=1.0, sigma2=0.0, dt=0.01, kappa=100.0)
        with pytest.raises(ValueError, match="sigma2"):
            mass_decay_rate_p(params, 0.5, 1.0, 0.8, 2, SPHERE)

    def test_primary_diffusion_required(self):
        params = CboParams(lambda1=1.0, sigma1=0.0, dt=0.01, kappa=100.0)
        with pytest.raises(ValueError, match="sigma1"):
            mass_decay_rate_p(params, 0.5, 1.0, 0.8, 2, SPHERE)


class TestFitExponentialRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 50)
        fit = fit_exponential_rate(t, 3.0 * np.exp(-2.0 * t))
        assert fit.rate == pytest.approx(2.0, rel=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_signal(self):
        fit = fit_exponential_rate([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        assert fit.rate == pytest.approx(0.0, abs=1e-14)

    def test_noisy_recovery(self):
        gen = np.random.Generator(np.random.PCG64(4))
        t = np.linspace(0, 10, 500)
        noisy = np.exp(-3.0 * t) * np.exp(gen.normal(0, 0.05, t.size))
        fit = fit_exponential_rate(t, noisy)
        assert 2.8 <= fit.rate <= 3.2
        assert fit.r_squared > 0.99

    def test_errors(self):
        with pytest.raises(ValueError, match="3 samples"):
            fit_exponential_rate([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError, match="positive"):
            fit_exponential_rate([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])
