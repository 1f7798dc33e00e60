"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion (visible with
``pytest -s``); the test outcome itself carries the same information.  The
expensive repeated-trial experiments are computed once per session and
shared across criteria.
"""

import math

import mpmath
import numpy as np
import pytest

from cbo.dynamics import (
    CboParams,
    Ensemble,
    InitSpec,
    Schedule,
    StoppingRule,
    consensus_point,
    init_ensemble,
    run,
    step,
)
from cbo.harness import (
    ExperimentConfig,
    SuccessRule,
    TrialProblem,
    TrialSummary,
    cs_experiment_config,
    decay_experiment,
    run_single_trial,
    run_trials,
)
from cbo.objectives import (
    CsObjective,
    Rastrigin,
    Sphere,
    ToyStochasticObjective,
    finite_diff_grad,
    generate_cs_instance,
)
from cbo.rng import RngStream
from cbo.theory import AssumptionConstants, laplace_bound, lyapunov_V, wasserstein2_to_dirac

SPHERE_CONSTANTS = AssumptionConstants(eta=1.0, nu=0.5, R0=1.0, E_inf=100.0, C_grad=2.0)

# the empirical-decay parameter set: chi1 = 0.92, chi2 = 12.5
DECAY_PARAMS = CboParams(
    lambda1=4.0, lambda2=1.0, sigma1=0.5, sigma2=0.2,
    theta=1.0, kappa=2.0, alpha=1e6, dt=0.001,
)

RASTRIGIN_PARAMS = dict(
    lambda1=1.0, sigma1=math.sqrt(1.6), sigma2=0.0, alpha=100.0, dt=0.01, kappa=100.0
)

CS_PARAMS = dict(
    lambda1=1.0, lambda2=0.0, sigma1=0.0, sigma2=0.0, sigma3=0.0,
    alpha=100.0, dt=0.01, kappa=100.0,
)


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if passed else 'FAIL'}: {detail}")


def rastrigin_experiment(lambda2: float) -> ExperimentConfig:
    d = 4
    return ExperimentConfig(
        objective_factory=lambda rng: TrialProblem(Rastrigin(d), x_star=np.zeros(d)),
        params=CboParams(lambda2=lambda2, **RASTRIGIN_PARAMS),
        n_particles=100,
        horizon_T=20.0,
        trials=100,
        seed=0,
        success=SuccessRule(threshold=0.25, norm="inf"),
        init=InitSpec("gaussian", mean=1.5, std=1.0),
    )


def cs_experiment(lambda3: float, n_particles: int, p: float, mu: float) -> ExperimentConfig:
    base = ExperimentConfig(
        objective_factory=lambda rng: TrialProblem(None),
        params=CboParams(lambda3=lambda3, **CS_PARAMS),
        n_particles=n_particles,
        horizon_T=20.0,
        trials=100,
        seed=0,
        success=SuccessRule(kind="exact_sparse_recovery"),
        init=InitSpec("gaussian", mean=0.0, std=1.0),
    )
    return cs_experiment_config(50, 25, 2, mu, p, base)


@pytest.fixture(scope="session")
def cs_convex_summaries():
    return {
        lam3: run_trials(cs_experiment(lam3, 10, p=1.0, mu=0.03))
        for lam3 in (0.0, 1.0)
    }


@pytest.fixture(scope="session")
def rastrigin_summaries():
    return {
        lam2: run_trials(rastrigin_experiment(lam2))
        for lam2 in (0.0, 2.0)
    }


@pytest.fixture(scope="session")
def cs_nonconvex_summaries():
    return {
        n: run_trials(cs_experiment(0.5, n, p=0.5, mu=0.01))
        for n in (10, 100)
    }


@pytest.fixture(scope="session")
def recorded_runs():
    """One instrumented run per experimental regime, with per-step
    diagnostics retained for the pointwise functional inequalities."""
    runs = {}

    rng = RngStream(0)
    obj = Rastrigin(4)
    params = CboParams(lambda2=2.0, **RASTRIGIN_PARAMS)
    ens = init_ensemble(100, 4, InitSpec("gaussian", mean=1.5, std=1.0), rng, obj, params.dt)
    runs["rastrigin"] = (
        run(
            ens, params, Schedule(), obj, StoppingRule(max_steps=2000), rng,
            x_star=np.zeros(4),
        ),
        np.zeros(4),
    )

    rng = RngStream(0)
    inst = generate_cs_instance(50, 25, 2, 0.03, 1.0, rng)
    obj = CsObjective(inst)
    params = CboParams(lambda3=1.0, **CS_PARAMS)
    ens = init_ensemble(10, 50, InitSpec("gaussian", mean=0.0, std=1.0), rng, obj, params.dt)
    runs["sparse_recovery"] = (
        run(
            ens, params, Schedule(), obj, StoppingRule(max_steps=2000), rng,
            x_star=inst.ground_truth,
        ),
        inst.ground_truth,
    )

    rng = RngStream(0)
    obj = Sphere(2)
    ens = init_ensemble(1000, 2, InitSpec(), rng, obj, DECAY_PARAMS.dt)
    runs["decay"] = (
        run(
            ens, DECAY_PARAMS, Schedule(), obj, StoppingRule(max_steps=4000), rng,
            x_star=np.zeros(2),
        ),
        np.zeros(2),
    )
    return runs


def test_gradient_benefit_in_sparse_recovery(cs_convex_summaries):
    """l1-regularized recovery (d=50, s=2, m=25, N=10): the gradient drift
    lifts the success probability by at least 0.5."""
    p0 = cs_convex_summaries[0.0].probability
    p1 = cs_convex_summaries[1.0].probability
    gap = p1 - p0
    passed = gap >= 0.5
    report(
        "gradient benefit", passed,
        f"success(lambda3=1)={p1:.4g}, success(lambda3=0)={p0:.4g}, gap={gap:.4g} (need >= 0.5)",
    )
    assert passed


def test_memory_benefit_on_rastrigin(rastrigin_summaries):
    """Rastrigin d=4, N=100, sigma2=0: the memory drift lifts the success
    probability by at least 0.1."""
    p0 = rastrigin_summaries[0.0].probability
    p2 = rastrigin_summaries[2.0].probability
    passed = p2 >= p0 + 0.1
    report(
        "memory benefit", passed,
        f"success(lambda2=2)={p2:.4g}, success(lambda2=0)={p0:.4g}, gap={p2 - p0:.4g} "
        f"(need >= 0.1)",
    )
    assert passed


def test_lyapunov_decay_rate_in_theoretical_bracket():
    """Sphere, N=1000, d=2: the fitted exponential decay rate of the
    empirical functional lies in [(1-vt) chi1, (1+vt/2) chi2 * 1.2] with
    vt=0.25, for 5 seeds."""
    vartheta = 0.25
    rates = []
    ok = True
    for seed in range(5):
        rep = decay_experiment(
            Sphere(2), np.zeros(2), DECAY_PARAMS, SPHERE_CONSTANTS,
            n_particles=1000, horizon=4.0, vartheta=vartheta, seed=seed, eps=1e-4,
        )
        lower = (1 - vartheta) * rep.chi1
        upper = (1 + vartheta / 2) * rep.chi2 * 1.2
        rates.append(rep.fit.rate)
        ok = ok and lower <= rep.fit.rate <= upper
    report(
        "decay bracket", ok,
        f"fitted rates {[f'{r:.4g}' for r in rates]} vs bracket "
        f"[{0.75 * 0.92:.4g}, {1.125 * 12.5 * 1.2:.4g}], 5 seeds",
    )
    assert ok


def test_wasserstein_dominated_by_lyapunov_pointwise(recorded_runs):
    """W2^2 to the Dirac at the minimizer never exceeds 6V at any recorded
    step of any instrumented run (tolerance 1e-12)."""
    worst = -np.inf
    steps = 0
    for result, _ in recorded_runs.values():
        w2 = result.diagnostics["w2_to_dirac"]
        v = result.diagnostics["lyapunov"]
        worst = max(worst, float(np.max(w2 - 6.0 * v)))
        steps += len(w2)
    passed = worst <= 1e-12
    report(
        "W2 <= 6V", passed,
        f"max(W2 - 6V) = {worst:.4g} over {steps} recorded steps of "
        f"{len(recorded_runs)} runs (need <= 1e-12)",
    )
    assert passed


def test_laplace_bound_randomized_suite():
    """1000 randomized admissible empirical measures on the squared-norm
    objective: the consensus-distance bound holds in 100% of cases."""
    gen = np.random.Generator(np.random.PCG64(2024))
    holds = 0
    cases = 0
    while cases < 1000:
        d = int(gen.integers(1, 6))
        r = float(gen.uniform(0.05, 1.0))
        n_in = int(gen.integers(1, 30))
        n_out = int(gen.integers(0, 30))
        inside = gen.uniform(-r, r, (n_in, d))
        outside = gen.standard_normal((n_out, d)) * gen.uniform(1.0, 5.0)
        if n_out:
            bump = np.sign(outside)
            bump[bump == 0] = 1.0
            outside = outside + bump * r
        memories = np.vstack([inside, outside])
        energies = np.einsum("ij,ij->i", memories, memories)
        alpha = float(gen.uniform(1.0, 1e4))
        q = float(gen.uniform(1e-3, 5.0))
        e_r = energies[np.max(np.abs(memories), axis=1) <= r].max()
        if q + e_r > SPHERE_CONSTANTS.E_inf:
            continue
        rep = laplace_bound(memories, energies, np.zeros(d), alpha, q, r, SPHERE_CONSTANTS)
        holds += rep.holds
        cases += 1
    passed = holds == cases
    report("Laplace bound", passed, f"bound held in {holds}/{cases} randomized cases (need 1000/1000)")
    assert passed


def test_consensus_point_matches_extended_precision():
    """500 random ensembles (N <= 20, d <= 5, alpha <= 1e3): the consensus
    point matches a 60-digit brute-force evaluation to relative 1e-12."""
    mpmath.mp.dps = 60
    gen = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    for _ in range(500):
        n = int(gen.integers(1, 21))
        d = int(gen.integers(1, 6))
        pts = gen.standard_normal((n, d)) * gen.uniform(0.1, 3.0)
        energies = gen.uniform(0.0, 10.0, n)
        alpha = float(gen.uniform(0.01, 1e3))
        got = consensus_point(pts, energies, alpha)
        weights = [mpmath.exp(-alpha * mpmath.mpf(float(e))) for e in energies]
        total = sum(weights, mpmath.mpf(0))
        exact = np.array(
            [
                float(sum(w * mpmath.mpf(float(pts[i, k])) for i, w in enumerate(weights)) / total)
                for k in range(d)
            ]
        )
        scale = max(float(np.linalg.norm(exact)), 1e-300)
        worst = max(worst, float(np.linalg.norm(got - exact)) / scale)
    passed = worst < 1e-12
    report(
        "consensus oracle", passed,
        f"max relative deviation {worst:.4g} over 500 cases (need < 1e-12)",
    )
    assert passed


def test_analytic_gradients_match_finite_differences():
    """Rastrigin and both regularized least-squares gradients (p=1 away from
    kinks, p=1/2 smoothed) match central differences to relative 1e-5 at 100
    random points each."""
    gen = np.random.Generator(np.random.PCG64(17))
    worst = 0.0

    def rel_err(analytic, numeric):
        return float(np.linalg.norm(analytic - numeric)) / max(
            float(np.linalg.norm(numeric)), 1e-12
        )

    obj = Rastrigin(5)
    for _ in range(100):
        x = gen.uniform(-4, 4, 5)
        worst = max(worst, rel_err(obj.grad(x), finite_diff_grad(obj, x)))

    for p in (1.0, 0.5):
        inst = generate_cs_instance(10, 6, 2, 0.4, p, RngStream(int(p * 10)))
        obj = CsObjective(inst)
        for _ in range(100):
            x = gen.standard_normal(10)
            x[np.abs(x) < 0.05] = 0.1  # keep clear of the non-smooth set
            worst = max(worst, rel_err(obj.grad(x), finite_diff_grad(obj, x)))

    passed = worst < 1e-5
    report(
        "gradient check", passed,
        f"max relative error {worst:.4g} over 3 x 100 points (need < 1e-5)",
    )
    assert passed


def test_memory_energies_never_increase(recorded_runs):
    """With the historical-best update rule every particle's memory energy
    is non-increasing, step by step, in each non-batched instrumented run."""
    violations = 0
    checked = 0
    for name in ("rastrigin", "sparse_recovery"):  # exact-rule regimes
        rng = RngStream(0)
        if name == "rastrigin":
            obj = Rastrigin(4)
            params = CboParams(lambda2=2.0, **RASTRIGIN_PARAMS)
            ens = init_ensemble(100, 4, InitSpec("gaussian", mean=1.5, std=1.0), rng, obj, params.dt)
        else:
            inst = generate_cs_instance(50, 25, 2, 0.03, 1.0, rng)
            obj = CsObjective(inst)
            params = CboParams(lambda3=1.0, **CS_PARAMS)
            ens = init_ensemble(10, 50, InitSpec("gaussian", mean=0.0, std=1.0), rng, obj, params.dt)
        assert params.uses_exact_memory
        prev = ens.memory_energies.copy()
        for _ in range(2000):
            step(ens, params, obj, rng)
            violations += int(np.sum(ens.memory_energies > prev))
            checked += prev.size
            prev = ens.memory_energies.copy()
    passed = violations == 0
    report(
        "memory monotonicity", passed,
        f"{violations} increases of the per-particle memory energy over "
        f"{checked} particle-steps (need 0, exact)",
    )
    assert passed


def test_repeated_runs_give_bit_identical_output_files(tmp_path, cs_convex_summaries):
    """The sparse-recovery experiment repeated with the same seed, once as
    the batched cell and once trial at a time, writes byte-identical result
    files."""
    config = cs_experiment(1.0, 10, p=1.0, mu=0.03)
    alone = TrialSummary.from_outcomes(
        [run_single_trial(config, t) for t in range(config.trials)]
    )
    files = {}
    for split, summary in (("batched", cs_convex_summaries[1.0]), ("alone", alone)):
        path = tmp_path / f"summary_{split}.csv"
        path.write_text(summary.to_csv("lambda3", 1.0, "m", 25))
        files[split] = path.read_bytes()
    # the per-trial states, not just aggregates, must coincide
    for a, b in zip(alone.outcomes, cs_convex_summaries[1.0].outcomes):
        assert (a.success, a.diverged, a.reason) == (b.success, b.diverged, b.reason)
        if a.consensus is not None:
            np.testing.assert_array_equal(a.consensus, b.consensus)
    passed = files["batched"] == files["alone"]
    report(
        "determinism", passed,
        "result files of the batched cell and of trial-at-a-time runs are "
        + ("byte-identical" if passed else "DIFFERENT"),
    )
    assert passed


def test_nonconvex_recovery_benefits_from_more_particles(cs_nonconvex_summaries):
    """l_1/2-regularized recovery (p=1/2, lambda3=0.5, m=25): N=100 beats
    N=10 by at least 0.05; and mini-batched optimization with cooling lands
    within 0.1 of the full-data minimizer for 10 seeds."""
    p_small = cs_nonconvex_summaries[10].probability
    p_large = cs_nonconvex_summaries[100].probability
    particles_ok = p_large - p_small >= 0.05

    obj = ToyStochasticObjective(3, 8, seed=0)
    params = CboParams(lambda1=1.0, lambda3=0.5, sigma1=1.0, alpha=100.0, dt=0.01, kappa=100.0)
    sched = Schedule(alpha_rule="double_per_epoch", sigma_rule="log2_cooling", epoch_length=100)
    dists = []
    for seed in range(10):
        rng = RngStream(seed)
        ens = init_ensemble(50, 3, InitSpec("gaussian", mean=0.0, std=2.0), rng, obj, params.dt)
        res = run(ens, params, sched, obj, StoppingRule(max_steps=2000), rng)
        dists.append(float(np.linalg.norm(res.consensus)))
    minibatch_ok = max(dists) < 0.1

    passed = particles_ok and minibatch_ok
    report(
        "nonconvex recovery", passed,
        f"success(N=100)={p_large:.4g} vs success(N=10)={p_small:.4g}, gap={p_large - p_small:.4g} "
        f"(need >= 0.05); mini-batch max distance {max(dists):.4g} (need < 0.1)",
    )
    assert passed


def test_recorded_diagnostics_are_consistent(recorded_runs):
    """The per-step diagnostics agree with the standalone functional
    evaluations at the final state."""
    for result, x_star in recorded_runs.values():
        assert len(result.diagnostics["time"]) == result.n_steps + 1
        final_v = lyapunov_V(result.ensemble, x_star).total
        final_w2 = wasserstein2_to_dirac(result.ensemble, x_star)
        assert result.diagnostics["lyapunov"][-1] == pytest.approx(final_v, rel=1e-12)
        assert result.diagnostics["w2_to_dirac"][-1] == pytest.approx(final_w2, rel=1e-12)
