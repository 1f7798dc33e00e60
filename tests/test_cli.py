import csv
import io
import json
import math
import os
from pathlib import Path

import pytest
import yaml

import numpy as np

from cbo import harness
from cbo.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from cbo.config import ConfigError, load_config, resolve
from cbo.dynamics import CboParams, InitSpec, Schedule
from cbo.harness import SuccessRule
from cbo.objectives import Rastrigin, Sphere

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def quick_run_config(tmp_path, **extra):
    payload = {
        "objective": {"kind": "sphere", "dimension": 2},
        "params": {"lambda1": 1.0, "alpha": 1.0e15, "dt": 0.1},
        "experiment": {"n_particles": 20, "horizon_T": 200.0, "trials": 1, "seed": 3},
    }
    payload.update(extra)
    return write_config(tmp_path, payload)


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve({})
        assert cfg["params"]["dt"] == 0.01
        assert cfg["params"]["alpha"] == 100.0
        assert math.isinf(cfg["params"]["beta"])
        assert cfg["params"]["theta"] == 0.0
        assert cfg["experiment"]["horizon_T"] == 20.0
        # kappa defaults to 1/dt at build time
        assert cfg.build_params().kappa == pytest.approx(100.0)

    def test_build_experiment_defaults(self):
        exp = resolve({}).build_experiment()
        assert exp.params == CboParams()
        assert exp.init == InitSpec()
        assert exp.success == SuccessRule()
        assert exp.schedule == Schedule(epoch_length=100)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            resolve({"particles": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="lamda2"):
            resolve({"params": {"lamda2": 1.0}})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="params.dt"):
            resolve({"params": {"dt": "fast"}})
        with pytest.raises(ConfigError, match="experiment.trials"):
            resolve({"experiment": {"trials": 2.5}})

    def test_invalid_values_rejected_at_build(self):
        cfg = resolve({"params": {"dt": -0.1}})
        with pytest.raises(ConfigError, match="dt"):
            cfg.build_params()

    def test_beta_inf_parses(self):
        cfg = resolve({"params": {"beta": "inf"}})
        assert math.isinf(cfg["params"]["beta"])

    def test_yaml_round_trip(self):
        cfg = resolve({"params": {"lambda2": 2.0, "beta": "inf"}})
        again = resolve(yaml.safe_load(cfg.to_yaml()))
        assert again.sections == cfg.sections

    def test_file_overrides_default_dt(self, tmp_path):
        path = write_config(tmp_path, {"params": {"dt": 0.5}})
        assert load_config(path)["params"]["dt"] == 0.5
        assert load_config(None)["params"]["dt"] == 0.01


class TestSeedPrecedence:
    def test_default(self):
        assert load_config(None)["experiment"]["seed"] == 0

    def test_file_beats_default(self, tmp_path):
        path = write_config(tmp_path, {"experiment": {"seed": 7}})
        assert load_config(path)["experiment"]["seed"] == 7

    def test_env_beats_file(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, {"experiment": {"seed": 7}})
        monkeypatch.setenv("CBO_SEED", "11")
        assert load_config(path)["experiment"]["seed"] == 11

    def test_flag_beats_env_and_file(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, {"experiment": {"seed": 7}})
        monkeypatch.setenv("CBO_SEED", "11")
        assert load_config(path, seed_override=13)["experiment"]["seed"] == 13

    def test_malformed_env_seed(self, monkeypatch):
        monkeypatch.setenv("CBO_SEED", "eleven")
        with pytest.raises(ConfigError, match="CBO_SEED"):
            load_config(None)


class TestRunCommand:
    def test_converges_and_reports(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(["run", "--config", quick_run_config(tmp_path), "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["distance_to_minimizer"] < 1e-6
        assert payload["steps"] == 2000

    def test_seed_flag_changes_outcome(self, tmp_path):
        cfg = quick_run_config(tmp_path)
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"r{seed}.json"
            assert main(["run", "--config", cfg, "--seed", seed, "--out", str(out)]) == EXIT_OK
            outs.append(json.loads(out.read_text())["consensus"])
        assert outs[0] != outs[1]

    def test_same_seed_bit_identical_output_files(self, tmp_path):
        cfg = quick_run_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--config", cfg, "--out", str(a)])
        main(["run", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG

    def test_malformed_config(self, tmp_path):
        path = write_config(tmp_path, {"params": {"dt": -1.0}})
        assert main(["run", "--config", path]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, {"params": {"lamda2": 1.0}})
        assert main(["run", "--config", path]) == EXIT_CONFIG

    def test_divergent_run_exits_runtime(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "objective": {"kind": "sphere", "dimension": 2},
                "params": {"lambda1": 1.0, "lambda3": 10.0, "dt": 5.0, "kappa": 0.2},
                "experiment": {"n_particles": 5, "horizon_T": 5000.0, "trials": 1, "seed": 0},
            },
        )
        assert main(["run", "--config", path]) == EXIT_RUNTIME

    def test_nonfinite_initial_energies_exit_runtime(self, tmp_path, monkeypatch, caplog):
        # +inf outside the box |x| < 1, which Gaussian initial positions leave
        monkeypatch.setattr(
            Sphere, "values",
            lambda self, points, batch=None: np.where(
                np.abs(points).max(axis=-1) < 1.0, 0.0, np.inf
            ),
        )
        out = tmp_path / "result.json"
        code = main(["run", "--config", quick_run_config(tmp_path), "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert "not finite at the initial positions of trial(s) [0]" in caplog.text
        assert not out.exists()


class TestSweepCommands:
    def sweep_config(self, tmp_path):
        return write_config(
            tmp_path,
            {
                "objective": {"kind": "rastrigin", "dimension": 2},
                "params": {"lambda1": 1.0, "sigma1": 0.5, "alpha": 1.0e4, "dt": 0.1},
                "experiment": {"n_particles": 10, "horizon_T": 2.0, "trials": 3, "seed": 0},
                "sweep": {"x_grid": [0.0, 1.0], "y_grid": [5, 10]},
            },
        )

    def test_rastrigin_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep-rastrigin", "--config", self.sweep_config(tmp_path),
            "--format", "csv", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 4
        assert all(0.0 <= float(r["success_prob"]) <= 1.0 for r in rows)

    def test_rastrigin_sweep_worker_counts_identical_files(self, tmp_path, monkeypatch):
        """Batch-split invariance: the sweep file of batched cells equals the
        one written from trial-at-a-time runs."""
        cfg = self.sweep_config(tmp_path)
        files = []
        for split in ("batched", "alone"):
            if split == "alone":
                monkeypatch.setattr(
                    harness, "run_trials",
                    lambda config: harness.TrialSummary.from_outcomes(
                        [harness.run_single_trial(config, t) for t in range(config.trials)]
                    ),
                )
            out = tmp_path / f"sweep_{split}.csv"
            assert main(["sweep-rastrigin", "--config", cfg, "--format", "csv",
                         "--out", str(out)]) == EXIT_OK
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_sweep_json_config_block(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep-rastrigin", "--config", self.sweep_config(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        expected = {
            "experiment": "rastrigin",
            "sigma2_coupling": "zero",
            "params": {
                "lambda1": 1.0, "lambda2": 0.0, "lambda3": 0.0,
                "sigma1": 0.5, "sigma2": 0.0, "sigma3": 0.0,
                "alpha": 1.0e4, "beta": "inf", "theta": 0.0, "kappa": 10.0, "dt": 0.1,
                "diffusion": "anisotropic",
            },
            "n_particles": 10,
            "horizon_T": 2.0,
            "trials": 3,
            "seed": 0,
            "success": {
                "kind": "consensus_near_minimizer", "threshold": 0.25, "norm": "inf",
                "support_threshold": 0.01, "residual_tol": 1e-4,
            },
        }
        # key order included
        assert json.dumps(json.loads(out.read_text())["config"]) == json.dumps(expected)

    def test_programming_error_exits_runtime(self, tmp_path, monkeypatch):
        def broken(self, points, batch=None):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(Rastrigin, "values", broken)
        out = tmp_path / "sweep.csv"
        code = main(["sweep-rastrigin", "--config", self.sweep_config(tmp_path),
                     "--format", "csv", "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert not out.exists()

    def test_cs_sweep_json(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "objective": {"kind": "cs"},
                "params": {"lambda1": 1.0, "alpha": 100.0, "dt": 0.1},
                "experiment": {"n_particles": 5, "horizon_T": 2.0, "trials": 2, "seed": 0},
                "success": {"kind": "exact_sparse_recovery"},
                "cs": {"d": 10, "m": 6, "s": 2, "mu": 0.03, "p": 1.0},
                "sweep": {"x_grid": [0.0, 1.0], "y_grid": [6]},
            },
        )
        out = tmp_path / "cs.json"
        assert main(["sweep-cs", "--config", path, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["x_param"] == "lambda3"
        assert payload["y_param"] == "m"
        assert payload["config"]["instance"]["d"] == 10


class TestTheoryCommands:
    def test_check_bounds(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = main([
            "check-bounds", "--config", str(CONFIG_DIR / "decay.yaml"), "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["chi1"] == pytest.approx(0.92)
        assert payload["chi2"] == pytest.approx(12.5)
        assert payload["laplace_holds"] == payload["laplace_cases"]

    def test_decay_bracket(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "objective": {"kind": "sphere", "dimension": 2},
                "params": {
                    "lambda1": 4.0, "lambda2": 1.0, "sigma1": 0.5, "sigma2": 0.2,
                    "theta": 1.0, "kappa": 2.0, "alpha": 1.0e6, "dt": 0.001,
                },
                "experiment": {"n_particles": 300, "horizon_T": 3.0, "trials": 1, "seed": 0},
                "theory": {"C_grad": 2.0, "E_inf": 100.0},
            },
        )
        out = tmp_path / "decay.json"
        assert main(["decay", "--config", path, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["bracket"][0] <= payload["rate"] <= payload["bracket"][1]

    def test_gradcheck_pass_and_fail_exit_codes(self, tmp_path):
        assert main(["gradcheck", "--config", str(CONFIG_DIR / "gradcheck.yaml")]) == EXIT_OK
        strict = write_config(
            tmp_path,
            {
                "objective": {"kind": "rastrigin", "dimension": 5},
                "gradcheck": {"points": 10, "h": 0.25, "rel_tol": 1.0e-12},
            },
        )
        assert main(["gradcheck", "--config", strict]) == EXIT_RUNTIME


class TestBundledConfigs:
    @pytest.mark.parametrize(
        "name", ["sphere_run", "rastrigin_sweep", "cs_sweep", "decay", "toy_minibatch", "gradcheck"]
    )
    def test_all_bundled_configs_resolve(self, name):
        cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
        cfg.build_params()
        cfg.build_experiment()

    def test_sphere_run_reaches_high_accuracy(self, tmp_path):
        out = tmp_path / "sphere.json"
        code = main(["run", "--config", str(CONFIG_DIR / "sphere_run.yaml"), "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["distance_to_minimizer"] < 1e-6
