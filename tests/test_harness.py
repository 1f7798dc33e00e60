import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cbo.dynamics import CboParams, InitSpec, Schedule
from cbo.harness import (
    ExperimentConfig,
    PhaseDiagram,
    SuccessRule,
    TrialProblem,
    TrialSummary,
    cs_experiment_config,
    cs_phase_diagram,
    cs_recover,
    decay_experiment,
    rastrigin_phase_diagram,
    recover_support,
    run_single_trial,
    run_trials,
    wilson_interval,
)
import cbo.harness
from cbo.objectives import CsInstance, FunctionObjective, Sphere, generate_cs_instance
from cbo.rng import CHANNEL_INIT, RngStream
from cbo.theory import AssumptionConstants

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
        return CsInstance(A=A, b=A @ x_star, mu=0.01, p=1.0, ground_truth=x_star, sparsity=2)

    def test_exact_recovery(self):
        inst = self.make_identity_instance()
        res = recover_support(inst, np.array([0.001, 1.4, 0.005, -0.6]), SuccessRule(kind="exact_sparse_recovery"))
        assert res.success
        np.testing.assert_array_equal(res.support, [1, 3])
        np.testing.assert_allclose(res.x_hat, inst.ground_truth, atol=1e-12)

    def test_missing_support_entry_fails(self):
        inst = self.make_identity_instance()
        res = recover_support(inst, np.array([0.0, 1.4, 0.0, 0.001]), SuccessRule(kind="exact_sparse_recovery"))
        assert not res.success

    def test_empty_support(self):
        inst = self.make_identity_instance()
        res = recover_support(inst, np.zeros(4), SuccessRule(kind="exact_sparse_recovery"))
        assert not res.success
        assert res.reason == "empty support"

    def test_superset_support_still_recovers(self):
        # extra support entries are fine as long as least squares returns x*
        inst = generate_cs_instance(12, 8, 2, 0.01, 1.0, RngStream(1))
        noisy = inst.ground_truth.copy()
        extras = [k for k in range(12) if inst.ground_truth[k] == 0.0][:3]
        noisy[extras] = 0.02
        res = recover_support(inst, noisy, SuccessRule(kind="exact_sparse_recovery"))
        assert res.success

    def test_underdetermined_support_fails(self):
        inst = generate_cs_instance(12, 4, 2, 0.01, 1.0, RngStream(2))
        res = recover_support(inst, np.ones(12), SuccessRule(kind="exact_sparse_recovery"))
        assert not res.success
        assert res.reason == "singular support system"


class TestCsRecover:
    def test_gradient_run_recovers_instance(self):
        inst = generate_cs_instance(20, 12, 2, 0.03, 1.0, RngStream(3))
        cfg = sphere_config(
            params=CboParams(lambda1=1.0, lambda3=1.0, sigma1=0.0, alpha=100.0, dt=0.01, kappa=100.0),
            n_particles=10,
            horizon_T=20.0,
            trials=1,
            success=SuccessRule(kind="exact_sparse_recovery"),
            init=InitSpec("gaussian", mean=0.0, std=1.0),
        )
        res = cs_recover(inst, cfg)
        assert res.success
        np.testing.assert_allclose(res.x_hat, inst.ground_truth, atol=1e-4)

    def test_consensus_post_processed_once(self, monkeypatch):
        returned = []

        def counting(*args):
            returned.append(recover_support(*args))
            return returned[-1]

        monkeypatch.setattr(cbo.harness, "recover_support", counting)
        inst = generate_cs_instance(20, 12, 2, 0.03, 1.0, RngStream(3))
        cfg = sphere_config(
            params=CboParams(lambda1=1.0, lambda3=1.0, sigma1=0.0, alpha=100.0, dt=0.01, kappa=100.0),
            n_particles=10,
            horizon_T=1.0,
            trials=1,
            success=SuccessRule(kind="exact_sparse_recovery"),
            init=InitSpec("gaussian", mean=0.0, std=1.0),
        )
        res = cs_recover(inst, cfg)
        assert len(returned) == 1
        assert res is returned[0]

    def test_fresh_instances_per_trial(self):
        cfg = sphere_config(trials=3, success=SuccessRule(kind="exact_sparse_recovery"))
        cfg = cs_experiment_config(8, 5, 2, 0.01, 1.0, cfg)
        instances = [cfg.objective_factory(RngStream(cfg.seed, t)).instance for t in range(3)]
        assert not np.array_equal(instances[0].A, instances[1].A)
        assert not np.array_equal(instances[1].A, instances[2].A)
        # but deterministic for a fixed (seed, trial)
        again = cfg.objective_factory(RngStream(cfg.seed, 0)).instance
        np.testing.assert_array_equal(instances[0].A, again.A)
        # and the next seed's trial 0 gets another instance
        other = cfg.objective_factory(RngStream(cfg.seed + 1, 0)).instance
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
        assert diagram.cells.shape == (2, 2)
        assert np.all((diagram.cells >= 0) & (diagram.cells <= 1))
        assert np.all(diagram.ci_low <= diagram.cells)
        assert np.all(diagram.cells <= diagram.ci_high)

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
                assert got[(l2, n)] == diagram.cells[j, i]

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
        np.testing.assert_array_equal(batched.cells, alone.cells)
        assert batched.to_csv() == alone.to_csv()

    def test_sigma2_couplings(self):
        base = sphere_config(
            params=CboParams(lambda1=1.0, sigma1=0.5, alpha=1e4, dt=0.1, kappa=10.0),
            horizon_T=1.0,
            trials=2,
        )
        for coupling in ("zero", "lambda2_sigma1", "lambda1_sigma1"):
            d = rastrigin_phase_diagram([0.5], [5], base, sigma2_coupling=coupling)
            assert d.cells.shape == (1, 1)
        with pytest.raises(ValueError, match="coupling"):
            rastrigin_phase_diagram([0.5], [5], base, sigma2_coupling="other")

    def test_cs_sweep_smoke(self):
        base = sphere_config(
            params=CboParams(lambda1=1.0, sigma1=0.0, alpha=100.0, dt=0.1, kappa=10.0),
            n_particles=5,
            horizon_T=2.0,
            trials=2,
            success=SuccessRule(kind="exact_sparse_recovery"),
        )
        d = cs_phase_diagram([0.0, 1.0], [6, 8], {"d": 10, "s": 2, "mu": 0.03, "p": 1.0}, base)
        assert d.cells.shape == (2, 2)
        assert json.loads(d.to_json())["config"]["experiment"] == "compressed_sensing"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            rastrigin_phase_diagram([], [5], sphere_config())


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

    def test_report_serializes(self):
        report = decay_experiment(
            Sphere(2), np.zeros(2), self.PARAMS, SPHERE_CONSTANTS,
            n_particles=50, horizon=1.0, vartheta=0.25, seed=2,
        )
        payload = json.loads(report.to_json())
        assert set(payload) >= {"rate", "chi1", "chi2", "bracket", "r_squared"}


class TestTrialSummarySerialization:
    def test_to_csv_single_row(self):
        summary = run_trials(sphere_config(trials=4))
        rows = list(csv.DictReader(io.StringIO(summary.to_csv("lambda2", 2.0, "n", 20))))
        assert len(rows) == 1
        assert float(rows[0]["success_prob"]) == summary.probability
        assert int(rows[0]["trials"]) == 4
