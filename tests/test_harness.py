import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cbo.config import load_config
from cbo.dynamics import CboParams, InitSpec, Schedule, init_ensemble, run, step
from cbo.errors import ConfigError
from cbo.harness import (
    CsSpec,
    ExperimentConfig,
    PhaseDiagram,
    SuccessRule,
    TrialOutcome,
    TrialProblem,
    TrialSummary,
    cs_experiment_config,
    cs_phase_diagram,
    decay_experiment,
    rastrigin_phase_diagram,
    recover_support,
    run_single_trial,
    run_trials,
    wilson_interval,
)
import cbo.harness
from cbo.objectives import (
    CsObjective,
    Sphere,
    generate_cs_instance,
)
from cbo.rng import CHANNEL_INIT, RngStream
from cbo.theory import AssumptionConstants, lyapunov_V
from helpers import FunctionObjective, generator_states
from oracles import unbatched_run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SPHERE_CONSTANTS = AssumptionConstants(eta=1.0, nu=0.5, R0=1.0, E_inf=100.0, C_grad=2.0)


def sphere_config(**overrides):
    defaults = dict(
        objective_factory=lambda rng: TrialProblem(Sphere(2), x_star=np.zeros(2)),
        params=CboParams(lambda1=1.0, sigma1=0.3, alpha=1e6, dt=0.05, kappa=20.0),
        n_particles=20,
        horizon_T=5.0,
        trials=10,
        seed=0,
        success=SuccessRule(threshold=0.25, norm="2"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def trial_at_a_time(config):
    """The cell summary of ``run_trials``, one trial per run."""
    return TrialSummary.from_outcomes(
        [run_single_trial(config, t) for t in range(config.trials)]
    )


class TestWilsonInterval:
    def test_brackets_point_estimate(self):
        for k, n in [(0, 10), (5, 10), (10, 10), (73, 100)]:
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_known_value(self):
        # 50/100 at 95%: standard Wilson interval
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.40383, abs=1e-4)
        assert hi == pytest.approx(0.59617, abs=1e-4)

    def test_shrinks_with_more_trials(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestRunTrials:
    def test_easy_problem_all_succeed(self):
        summary = run_trials(sphere_config())
        assert summary.probability == 1.0
        assert summary.failures == 0
        assert len(summary.outcomes) == 10

    def test_impossible_threshold_all_fail(self):
        summary = run_trials(sphere_config(success=SuccessRule(threshold=0.0, norm="2")))
        assert summary.probability == 0.0

    def test_ci_brackets_probability(self):
        summary = run_trials(sphere_config())
        assert summary.ci_low <= summary.probability <= summary.ci_high

    def test_diverged_trials_count_as_failures(self):
        # dt far above the gradient-flow stability limit: positions overflow
        cfg = sphere_config(
            params=CboParams(lambda1=1.0, lambda3=10.0, dt=5.0, kappa=0.2, alpha=1e6),
            trials=3,
            horizon_T=5000.0,
        )
        summary = run_trials(cfg)
        assert summary.failures == 3
        assert summary.probability == 0.0

    def test_worker_counts_agree(self):
        """Batch-split invariance: each trial of the batched cell has the
        outcome it has when run alone, bit for bit, diverged trials included."""
        # energies blow up outside the box |x| < 1, which noisy trials may leave
        box = FunctionObjective(
            lambda x: np.where(
                np.abs(x).max(axis=-1) < 1.0, np.einsum("...j,...j->...", x, x), np.inf
            ),
            2,
        )
        cfg = sphere_config(
            objective_factory=lambda rng: TrialProblem(box, x_star=np.zeros(2)),
            params=CboParams(lambda1=1.0, sigma1=1.0, alpha=1e6, dt=0.05, kappa=20.0),
            trials=8,
            init=InitSpec("uniform", low=-0.5, high=0.5),
        )
        summary = run_trials(cfg)
        assert 0 < summary.failures < cfg.trials
        for t, batched in enumerate(summary.outcomes):
            alone = run_single_trial(cfg, t)
            assert (batched.trial, batched.success, batched.diverged, batched.reason) == (
                alone.trial, alone.success, alone.diverged, alone.reason
            )
            if alone.consensus is None:
                assert batched.consensus is None
            else:
                assert batched.consensus.tobytes() == alone.consensus.tobytes()

    def test_nonfinite_initial_energies_name_the_trials(self):
        # +inf outside the box |x| < 2.5, which Gaussian initial positions may leave
        box = FunctionObjective(
            lambda x: np.where(np.abs(x).max(axis=-1) < 2.5, 0.0, np.inf), 2
        )
        cfg = sphere_config(
            objective_factory=lambda rng: TrialProblem(box, x_star=np.zeros(2)), trials=8
        )
        outside = [
            t for t in range(cfg.trials)
            if np.abs(RngStream(cfg.seed, t).gaussians(CHANNEL_INIT, 20, 2)).max() >= 2.5
        ]
        assert 0 < len(outside) < cfg.trials
        with pytest.raises(ValueError) as err:
            run_trials(cfg)
        assert str(err.value) == (
            f"objective is not finite at the initial positions of trial(s) {outside}"
        )

    def test_programming_errors_propagate(self):
        # an objective reducing over an axis the points do not have
        bad = FunctionObjective(lambda x: np.sum(x**2, axis=3), 2)
        cfg = sphere_config(objective_factory=lambda rng: TrialProblem(bad, x_star=np.zeros(2)))
        with pytest.raises(np.exceptions.AxisError):
            run_trials(cfg)

    @pytest.mark.parametrize(
        "success, problem, message",
        [
            (SuccessRule(kind="exact_sparse_recovery"), TrialProblem(Sphere(2), np.zeros(2)),
             "exact_sparse_recovery needs a CsObjective"),
            (SuccessRule(), TrialProblem(Sphere(2)), "success rule needs a known minimizer"),
            (SuccessRule(kind="exact_sparse_recovery"),
             TrialProblem(CsObjective(np.eye(2), np.zeros(2), 0.01, 1.0)),
             "success rule needs a known minimizer"),
        ],
        ids=["recovery-without-instance", "distance-without-minimizer",
             "recovery-without-minimizer"],
    )
    def test_mismatched_success_rule_raises_before_the_run(
        self, monkeypatch, success, problem, message
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("the trials started")

        monkeypatch.setattr(cbo.harness, "init_ensemble", not_reached)
        monkeypatch.setattr(cbo.harness, "run", not_reached)
        cfg = sphere_config(success=success, objective_factory=lambda rng: problem)
        with pytest.raises(ValueError, match=message):
            run_trials(cfg)

    def test_adjacent_seeds_share_no_trial_stream(self):
        cfg = sphere_config(trials=5)
        draws = {
            (seed, t): outcome.consensus.tobytes()
            for seed in (0, 1)
            for t, outcome in enumerate(run_trials(replace(cfg, seed=seed)).outcomes)
        }
        assert len(set(draws.values())) == len(draws)

    def test_trials_use_distinct_seeds(self):
        cfg = sphere_config(trials=4)
        finals = [run_single_trial(cfg, t).consensus for t in range(4)]
        for i in range(3):
            assert not np.array_equal(finals[i], finals[i + 1])

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="horizon"):
            sphere_config(horizon_T=0.07)
        with pytest.raises(ValueError, match="trials"):
            sphere_config(trials=0)


class TestRecoverSupport:
    def make_identity_instance(self):
        x_star = np.array([0.0, 1.5, 0.0, -0.7])
        A = np.eye(4)
        return TrialProblem(CsObjective(A, A @ x_star, 0.01, 1.0), x_star)

    def test_exact_recovery(self):
        problem = self.make_identity_instance()
        res = recover_support(problem, np.array([0.001, 1.4, 0.005, -0.6]), SuccessRule(kind="exact_sparse_recovery"))
        assert res.success
        np.testing.assert_array_equal(res.support, [1, 3])
        np.testing.assert_allclose(res.x_hat, problem.x_star, atol=1e-12)

    def test_missing_support_entry_fails(self):
        problem = self.make_identity_instance()
        res = recover_support(problem, np.array([0.0, 1.4, 0.0, 0.001]), SuccessRule(kind="exact_sparse_recovery"))
        assert not res.success

    def test_empty_support(self):
        problem = self.make_identity_instance()
        res = recover_support(problem, np.zeros(4), SuccessRule(kind="exact_sparse_recovery"))
        assert not res.success
        assert res.reason == "empty support"

    def test_superset_support_still_recovers(self):
        # extra support entries are fine as long as least squares returns x*
        problem = TrialProblem(*generate_cs_instance(12, 8, 2, 0.01, 1.0, RngStream(1)))
        noisy = problem.x_star.copy()
        extras = [k for k in range(12) if problem.x_star[k] == 0.0][:3]
        noisy[extras] = 0.02
        res = recover_support(problem, noisy, SuccessRule(kind="exact_sparse_recovery"))
        assert res.success

    def test_underdetermined_support_fails(self):
        problem = TrialProblem(*generate_cs_instance(12, 4, 2, 0.01, 1.0, RngStream(2)))
        res = recover_support(problem, np.ones(12), SuccessRule(kind="exact_sparse_recovery"))
        assert not res.success
        assert res.reason == "singular support system"

    def test_rank_deficient_square_support_fails(self):
        # two equal columns: as many columns as rows, but rank 2 of 3
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [2.0, 2.0, 1.0]])
        x_star = np.array([1.0, 0.0, 0.5])
        problem = TrialProblem(CsObjective(A, A @ x_star, 0.01, 1.0), x_star)
        res = recover_support(problem, np.ones(3), SuccessRule(kind="exact_sparse_recovery"))
        assert (res.success, res.reason, res.x_hat) == (False, "singular support system", None)


def fixed_instance_config(problem, **overrides):
    """``sphere_config`` on the one sparse-recovery problem ``problem``,
    scored by exact support recovery."""
    return sphere_config(
        objective_factory=lambda rng: problem,
        success=SuccessRule(kind="exact_sparse_recovery"),
        **overrides,
    )


class TestCsRecover:
    GRADIENT_RUN = dict(
        params=CboParams(lambda1=1.0, lambda3=1.0, sigma1=0.0, alpha=100.0, dt=0.01, kappa=100.0),
        n_particles=10,
        init=InitSpec("gaussian", mean=0.0, std=1.0),
    )

    def test_gradient_run_recovers_instance(self):
        problem = TrialProblem(*generate_cs_instance(20, 12, 2, 0.03, 1.0, RngStream(3)))
        cfg = fixed_instance_config(problem, horizon_T=20.0, trials=1, **self.GRADIENT_RUN)
        outcome = run_single_trial(cfg, 0)
        assert outcome.success
        res = recover_support(problem, outcome.consensus, cfg.success)
        np.testing.assert_allclose(res.x_hat, problem.x_star, atol=1e-4)

    def test_consensus_post_processed_once(self, monkeypatch):
        returned = []

        def counting(*args):
            returned.append(recover_support(*args))
            return returned[-1]

        monkeypatch.setattr(cbo.harness, "recover_support", counting)
        problem = TrialProblem(*generate_cs_instance(20, 12, 2, 0.03, 1.0, RngStream(3)))
        cfg = fixed_instance_config(problem, horizon_T=1.0, trials=3, **self.GRADIENT_RUN)
        summary = run_trials(cfg)
        assert len(returned) == cfg.trials
        for outcome, res in zip(summary.outcomes, returned):
            assert (outcome.success, outcome.reason) == (res.success, res.reason)

    def test_divergence_reports_step(self):
        """A diverged trial is reported with the step that the single
        trajectory of the same trial records in its ``diverged_at``."""
        obj, x_star = generate_cs_instance(20, 12, 2, 0.03, 1.0, RngStream(3))
        # dt far above the gradient-flow stability limit: positions overflow
        cfg = fixed_instance_config(
            TrialProblem(obj, x_star),
            params=CboParams(lambda1=1.0, lambda3=10.0, dt=5.0, kappa=0.2, alpha=1e6),
            horizon_T=5000.0,
            trials=1,
        )
        outcome = run_single_trial(cfg, 0)
        rng = RngStream(cfg.seed, 0)
        ens = init_ensemble(cfg.n_particles, obj.dimension, cfg.init, rng, obj)
        alone = run(ens, cfg.params, cfg.schedule, obj, cfg.n_steps, rng)
        k = int(alone.ensemble.diverged_at)
        assert 0 <= k == alone.n_steps - 1
        assert np.isnan(alone.consensus).all()
        # frozen at its state after k steps
        rng = RngStream(cfg.seed, 0)
        ens = init_ensemble(cfg.n_particles, obj.dimension, cfg.init, rng, obj)
        before = run(ens, cfg.params, cfg.schedule, obj, k, rng).ensemble
        assert before.positions.tobytes() == alone.ensemble.positions.tobytes()
        assert before.memories.tobytes() == alone.ensemble.memories.tobytes()
        assert outcome.diverged
        assert not outcome.success
        assert outcome.consensus is None
        assert outcome.reason == f"diverged ensemble at step {k}"

    def test_fresh_instances_per_trial(self):
        cfg = sphere_config(trials=3, success=SuccessRule(kind="exact_sparse_recovery"))
        cfg = cs_experiment_config(8, 5, 2, 0.01, 1.0, cfg)
        instances = [cfg.objective_factory(RngStream(cfg.seed, t)).objective for t in range(3)]
        assert not np.array_equal(instances[0].A, instances[1].A)
        assert not np.array_equal(instances[1].A, instances[2].A)
        # but deterministic for a fixed (seed, trial)
        again = cfg.objective_factory(RngStream(cfg.seed, 0)).objective
        np.testing.assert_array_equal(instances[0].A, again.A)
        # and the next seed's trial 0 gets another instance
        other = cfg.objective_factory(RngStream(cfg.seed + 1, 0)).objective
        assert not np.array_equal(instances[0].A, other.A)


class TestPhaseDiagrams:
    def make_diagram(self):
        return rastrigin_phase_diagram(
            [0.0, 1.0],
            [5, 10],
            sphere_config(
                params=CboParams(lambda1=1.0, sigma1=0.5, alpha=1e4, dt=0.1, kappa=10.0),
                horizon_T=3.0,
                trials=4,
            ),
        )

    def test_shape_and_range(self):
        diagram = self.make_diagram()
        assert [len(row) for row in diagram.cells] == [2, 2]
        for row in diagram.cells:
            for cell in row:
                assert 0 <= cell.ci_low <= cell.probability <= cell.ci_high <= 1
                assert cell.trials == len(cell.outcomes) == 4

    def test_csv_round_trip(self):
        diagram = self.make_diagram()
        rows = list(csv.DictReader(io.StringIO(diagram.to_csv())))
        assert len(rows) == 4
        assert rows[0]["x_param"] == "lambda2"
        assert rows[0]["y_param"] == "n_particles"
        got = {
            (float(r["x_value"]), int(r["y_value"])): float(r["success_prob"])
            for r in rows
        }
        for j, n in enumerate(diagram.y_grid):
            for i, l2 in enumerate(diagram.x_grid):
                assert got[(l2, n)] == diagram.cells[j][i].probability

    def test_json_contains_provenance(self):
        payload = json.loads(self.make_diagram().to_json())
        assert payload["config"]["experiment"] == "rastrigin"
        assert payload["config"]["params"]["lambda1"] == 1.0
        assert np.asarray(payload["cells"]).shape == (2, 2)

    def test_worker_counts_bit_identical(self, monkeypatch):
        """Batch-split invariance: the diagram of batched cells equals the one
        built from trial-at-a-time runs."""
        batched = self.make_diagram()
        monkeypatch.setattr(cbo.harness, "run_trials", trial_at_a_time)
        alone = self.make_diagram()
        assert [[c.probability for c in row] for row in batched.cells] == [
            [c.probability for c in row] for row in alone.cells
        ]
        assert batched.to_csv() == alone.to_csv()

    def test_sigma2_couplings(self):
        base = sphere_config(
            params=CboParams(lambda1=1.0, sigma1=0.5, alpha=1e4, dt=0.1, kappa=10.0),
            horizon_T=1.0,
            trials=2,
        )
        for coupling in ("zero", "lambda2_sigma1", "lambda1_sigma1"):
            d = rastrigin_phase_diagram([0.5], [5], base, sigma2_coupling=coupling)
            assert [len(row) for row in d.cells] == [1]
        with pytest.raises(ValueError, match="coupling"):
            rastrigin_phase_diagram([0.5], [5], base, sigma2_coupling="other")
        # every coupling sets sigma2 itself, so a base sigma2 would be ignored
        noisy = replace(base, params=replace(base.params, sigma2=0.5))
        for coupling in ("zero", "lambda2_sigma1", "lambda1_sigma1"):
            with pytest.raises(ConfigError, match="sigma2"):
                rastrigin_phase_diagram([0.5], [5], noisy, sigma2_coupling=coupling)

    def test_cs_sweep_smoke(self):
        base = sphere_config(
            params=CboParams(lambda1=1.0, sigma1=0.0, alpha=100.0, dt=0.1, kappa=10.0),
            n_particles=5,
            horizon_T=2.0,
            trials=2,
            success=SuccessRule(kind="exact_sparse_recovery"),
        )
        d = cs_phase_diagram([0.0, 1.0], [6, 8], CsSpec(d=10, m=6, s=2, mu=0.03), base)
        assert [len(row) for row in d.cells] == [2, 2]
        assert json.loads(d.to_json())["config"]["experiment"] == "compressed_sensing"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            rastrigin_phase_diagram([], [5], sphere_config())

    def test_every_cell_checked_before_the_first_runs(self, monkeypatch):
        """The second cell's sigma2 = lambda2 * sigma1 overflows to inf: the
        sweep fails before it runs any cell."""
        calls = []
        monkeypatch.setattr(cbo.harness, "run_trials", lambda config: calls.append(config))
        base = sphere_config(params=CboParams(sigma1=2.0))
        with pytest.raises(ConfigError, match="sigma2"):
            rastrigin_phase_diagram([0.0, 1.0e308], [5], base, sigma2_coupling="lambda2_sigma1")
        assert calls == []


class TestDecayExperiment:
    PARAMS = CboParams(
        lambda1=4.0, lambda2=1.0, sigma1=0.5, sigma2=0.2,
        theta=1.0, kappa=2.0, alpha=1e6, dt=0.001,
    )

    def test_rate_in_theoretical_bracket(self):
        report = decay_experiment(
            Sphere(2), np.zeros(2), self.PARAMS, SPHERE_CONSTANTS,
            n_particles=500, horizon=4.0, vartheta=0.25, seed=0,
        )
        assert report.chi1 == pytest.approx(0.92)
        assert report.chi2 == pytest.approx(12.5)
        lower, upper = report.bracket
        assert lower == pytest.approx(0.75 * 0.92)
        assert report.rate_above_lower
        assert lower <= report.fit.rate <= upper

    def test_window_excludes_tiny_values(self):
        report = decay_experiment(
            Sphere(2), np.zeros(2), self.PARAMS, SPHERE_CONSTANTS,
            n_particles=100, horizon=8.0, vartheta=0.25, seed=1, eps=1e-4,
        )
        assert np.all(report.values > 1e-4)

    def test_no_guarantee_regime_rejected(self):
        bad = CboParams(lambda1=1.0, sigma1=5.0, dt=0.01, kappa=100.0)
        with pytest.raises(ValueError, match="chi1"):
            decay_experiment(
                Sphere(2), np.zeros(2), bad, SPHERE_CONSTANTS,
                n_particles=10, horizon=1.0, vartheta=0.25,
            )

    @pytest.mark.parametrize("horizon", [0.0015, 0.0004, 0.0105])
    def test_horizon_off_the_step_grid_rejected(self, horizon):
        # at dt = 0.001 these would run 2, 0 and 10 steps if rounded
        with pytest.raises(ValueError, match="positive integer multiple of dt"):
            decay_experiment(
                Sphere(2), np.zeros(2), self.PARAMS, SPHERE_CONSTANTS,
                n_particles=10, horizon=horizon, vartheta=0.25,
            )

    def test_report_serializes(self):
        report = decay_experiment(
            Sphere(2), np.zeros(2), self.PARAMS, SPHERE_CONSTANTS,
            n_particles=50, horizon=1.0, vartheta=0.25, seed=2,
        )
        payload = json.loads(report.to_json())
        # the fit's fields first, then the report's without the V track, in order
        assert list(payload) == [
            "rate", "intercept", "r_squared", "chi1", "chi2", "bracket", "rate_above_lower",
            "t_eps", "t_star", "t_lower", "eps_time_in_bracket",
        ]

    def full_v_track(self, n, steps, seed):
        """Time and V at the start and after every step of a plain ``step``
        loop on the streams ``decay_experiment`` draws from."""
        obj, x_star = Sphere(2), np.zeros(2)
        rng = RngStream(seed)
        ens = init_ensemble(n, 2, InitSpec(), rng, obj)
        times, values = [0.0], [lyapunov_V(ens, x_star).total]
        for _ in range(steps):
            step(ens, self.PARAMS, obj, rng)
            times.append(ens.step_index * self.PARAMS.dt)
            values.append(lyapunov_V(ens, x_star).total)
        return np.asarray(times), np.asarray(values)

    @pytest.mark.parametrize("eps, crosses", [(0.05, True), (1e-6, False)])
    def test_window_is_the_full_track_cut_at_eps(self, eps, crosses):
        """The observed window equals, bit for bit, the full V track cut at
        its first value at or below eps, or all of it when there is none."""
        times, values = self.full_v_track(50, 1000, seed=3)
        cut = int(np.argmax(values <= eps)) if np.any(values <= eps) else values.size
        assert (cut < values.size) == crosses
        report = decay_experiment(
            Sphere(2), np.zeros(2), self.PARAMS, SPHERE_CONSTANTS,
            n_particles=50, horizon=1.0, vartheta=0.25, seed=3, eps=eps,
        )
        assert report.times.tobytes() == times[:cut].tobytes()
        assert report.values.tobytes() == values[:cut].tobytes()
        assert report.t_eps == (times[cut] if crosses else None)
        assert report.eps_time_in_bracket is (
            (report.t_lower <= report.t_eps <= report.t_star) if crosses else None
        )

    @pytest.mark.parametrize("setting", [dict(eps=0.0), dict(vartheta=1.0)])
    def test_out_of_range_theory_settings_rejected(self, setting):
        with pytest.raises(ValueError, match="vartheta in"):
            decay_experiment(
                Sphere(2), np.zeros(2), self.PARAMS, SPHERE_CONSTANTS,
                **{"n_particles": 10, "horizon": 1.0, "vartheta": 0.25, **setting},
            )


@pytest.mark.parametrize("name", ["sphere_run", "toy_minibatch", "decay"])
def test_batch_of_one_equals_the_unbatched_oracle(monkeypatch, name):
    """``cbo run``'s report (and for the decay config, ``decay_experiment``)
    runs trial 0 as a batch of one, bit for bit the trajectory without a
    trial axis: final state, consensus, steps, V track and every
    generator's state after the run."""
    cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
    exp = cfg.build_experiment()
    runs = []

    def recorded(*args, **kwargs):
        runs.append((args[5], run(*args, **kwargs)))  # the stream, the result
        return runs[-1][1]

    monkeypatch.setattr(cbo.harness, "run", recorded)
    if name == "decay":
        problem = exp.problem()
        theory = cfg["theory"]
        report = decay_experiment(
            problem.objective, problem.x_star, exp.params, cfg.build_constants(),
            exp.n_particles, exp.horizon_T, theory["vartheta"],
            seed=exp.seed, eps=theory["eps"], init=exp.init,
        )
        track = []
        rng, alone = unbatched_run(
            exp, observe=lambda e: track.append(lyapunov_V(e, problem.x_star).total))
        track = np.asarray(track)
        cut = int(np.argmax(track <= theory["eps"]))
        assert 0 < cut and report.values.tobytes() == track[:cut].tobytes()
    else:
        report = cbo.harness.run_report(exp)
        rng, alone = unbatched_run(exp)
        assert report["consensus"] == alone.consensus.tolist()
    (batch_rng, batch), = runs
    assert batch.ensemble.batch_shape == (1,)
    for field in ("positions", "memories", "memory_energies"):
        got = getattr(batch.ensemble, field)[0]
        assert got.tobytes() == getattr(alone.ensemble, field).tobytes()
    assert batch.consensus[0].tobytes() == alone.consensus.tobytes()
    assert batch.n_steps == alone.n_steps == exp.n_steps
    assert generator_states(batch_rng) == generator_states(rng)


def test_alpha_doubling_past_the_floats_rejected_before_running():
    """A doubling schedule whose alpha is not finite at the last step is a
    configuration error, not a cell of diverged trials."""
    sched = Schedule(alpha_rule="double_per_epoch", epoch_length=1)
    with pytest.raises(ValueError, match="alpha doubling overflows at step 1999"):
        sphere_config(schedule=sched, horizon_T=20.0, params=CboParams(dt=0.01))
    # the last of 1018 steps still has a finite alpha
    sphere_config(schedule=sched, horizon_T=10.18, params=CboParams(dt=0.01))


class TestTrialSummarySerialization:
    def test_to_csv_single_row(self):
        summary = run_trials(sphere_config(trials=4))
        diagram = PhaseDiagram("lambda2", [2.0], "n", [20], [[summary]])
        rows = list(csv.DictReader(io.StringIO(diagram.to_csv())))
        assert len(rows) == 1
        assert float(rows[0]["success_prob"]) == summary.probability
        assert int(rows[0]["trials"]) == 4

    def test_phase_diagram_file_formats(self):
        """The CSV and JSON of a 1x2 diagram, byte for byte."""
        mixed = TrialSummary.from_outcomes([
            TrialOutcome(0, success=True, consensus=np.zeros(2)),
            TrialOutcome(1, success=False, consensus=np.ones(2)),
            TrialOutcome(2, success=False, diverged=True, reason="diverged ensemble at step 7"),
        ])
        solved = TrialSummary.from_outcomes(
            [TrialOutcome(t, success=True, consensus=np.zeros(2)) for t in range(3)]
        )
        diagram = PhaseDiagram(
            "lambda2", [0.5, 2.0], "n_particles", [10], [[mixed, solved]],
            provenance={"experiment": "rastrigin", "seed": 0},
        )
        assert diagram.to_csv() == (
            "x_param,x_value,y_param,y_value,success_prob,ci_low,ci_high,trials,failures\r\n"
            "lambda2,0.5,n_particles,10,0.3333333333333333,0.06149194472039621,"
            "0.7923403991979522,3,1\r\n"
            "lambda2,2.0,n_particles,10,1.0,0.4385029682449546,1.0,3,0\r\n"
        )
        assert diagram.to_json() == EXPECTED_DIAGRAM_JSON


EXPECTED_DIAGRAM_JSON = """\
{
  "x_param": "lambda2",
  "x_grid": [
    0.5,
    2.0
  ],
  "y_param": "n_particles",
  "y_grid": [
    10
  ],
  "trials_per_cell": 3,
  "cells": [
    [
      0.3333333333333333,
      1.0
    ]
  ],
  "ci_low": [
    [
      0.06149194472039621,
      0.4385029682449546
    ]
  ],
  "ci_high": [
    [
      0.7923403991979522,
      1.0
    ]
  ],
  "failures": [
    [
      1,
      0
    ]
  ],
  "config": {
    "experiment": "rastrigin",
    "seed": 0
  }
}"""
