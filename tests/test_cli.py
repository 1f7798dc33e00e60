import csv
import dataclasses
import io
import json
import math
import os
import re
from pathlib import Path

import pytest
import yaml

import numpy as np

import cbo.cli
import cbo.rng
from cbo import harness
from cbo.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, _parser, main
from cbo.config import _SCHEMA, ConfigError, _coerce, load_config, resolve
from cbo.dynamics import CboParams, InitSpec, Schedule
from cbo.harness import CsSpec, ExperimentConfig, SuccessRule
from cbo.objectives import Rastrigin, Sphere

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
README = CONFIG_DIR.parent / "README.md"


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


def _experiment_defaults(cfg):
    built = cfg.build_experiment()
    # the trial factory comes from the objective section and has no default
    return built, ExperimentConfig(built.objective_factory, CboParams())


# section -> the object resolve({}) builds from it and the dataclass default
SECTION_DEFAULTS = {
    "params": lambda cfg: (cfg.build_params(), CboParams()),
    "schedule": lambda cfg: (cfg.build_experiment().schedule, Schedule()),
    "init": lambda cfg: (cfg.build_experiment().init, InitSpec()),
    "success": lambda cfg: (cfg.build_experiment().success, SuccessRule()),
    "cs": lambda cfg: (cfg.build_cs_spec(), CsSpec()),
    "experiment": _experiment_defaults,
}


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve({})
        assert cfg["params"]["dt"] == 0.01
        assert cfg["params"]["alpha"] == 100.0
        assert math.isinf(cfg["params"]["beta"])
        assert cfg["params"]["theta"] == 0.0
        assert cfg["experiment"]["horizon_T"] == 20.0

    @pytest.mark.parametrize("section", sorted(SECTION_DEFAULTS))
    def test_section_builds_the_library_default(self, section):
        """A dataclass-backed section left empty builds the dataclass's own
        default: the config supplies no default of its own."""
        built, default = SECTION_DEFAULTS[section](resolve({}))
        assert built == default
        assert dataclasses.MISSING not in [d for _, d in _SCHEMA[section].values()]

    def test_unset_kappa_is_the_library_one(self):
        built = resolve({"params": {"dt": 0.001}}).build_params()
        assert built == CboParams(dt=0.001)
        assert built.uses_exact_memory and CboParams(dt=0.001).uses_exact_memory

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

    def test_number_strings(self):
        # YAML leaves a number without a dot, such as 1e-4, a string
        assert resolve({"theory": {"eps": "1e-4"}})["theory"]["eps"] == 1e-4
        with pytest.raises(ConfigError, match="theory.eps"):
            resolve({"theory": {"eps": "1e-4 or less"}})

    def test_integer_past_the_float_range(self):
        with pytest.raises(ConfigError, match="params.alpha: an integer of 1329 bits"):
            resolve({"params": {"alpha": 10**400}})
        with pytest.raises(ConfigError, match="sweep.x_grid"):
            _coerce("sweep", "x_grid", float, -(10**400))

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    def test_integer_keys_fit_in_64_bits(self, value):
        with pytest.raises(ConfigError, match="theory.cases: an integer of 64 bits does not fit"):
            resolve({"theory": {"cases": value}})
        assert resolve({"theory": {"cases": value - (1 if value > 0 else -1)}})

    def test_seed_of_any_size_resolves(self):
        cfg = resolve({"experiment": {"seed": 10**400}})
        assert cfg["experiment"]["seed"] == 10**400
        assert cfg.build_experiment().seed == 10**400

    def test_null_value_is_absent(self):
        assert resolve({"params": {"dt": None}})["params"]["dt"] == 0.01

    def test_yaml_round_trip(self):
        cfg = resolve({"params": {"lambda2": 2.0, "beta": "inf"}, "init": {"low": -math.inf}})
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

    def test_integer_past_the_float_range(self, tmp_path, caplog):
        out = tmp_path / "result.json"
        path = write_config(tmp_path, {"params": {"alpha": 10**400}})
        assert main(["run", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert "configuration error: params.alpha" in caplog.text
        assert not out.exists()

    def test_invalid_yaml_is_a_configuration_error(self, tmp_path, caplog, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("params: {dt: [1")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert f"configuration error: {path} is not valid YAML" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err

    def test_integer_past_64_bits(self, tmp_path, caplog):
        out = tmp_path / "result.json"
        path = write_config(tmp_path, {"experiment": {"n_particles": 10**400}})
        assert main(["run", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert ("configuration error: experiment.n_particles: an integer of 1329 bits "
                "does not fit in a signed 64-bit integer") in caplog.text
        assert not out.exists()

    def test_out_in_a_missing_directory_is_refused_before_running(
        self, tmp_path, monkeypatch, caplog
    ):
        ran = []
        monkeypatch.setattr(cbo.cli, "load_config", lambda *a, **k: ran.append("load"))
        monkeypatch.setitem(cbo.cli._COMMANDS, "run", lambda *a: ran.append("run"))
        out = tmp_path / "missing" / "result.json"
        code = main(["run", "--config", quick_run_config(tmp_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "configuration error" in caplog.text and str(out) in caplog.text
        assert ran == []
        assert not out.parent.exists()

    def test_malformed_config(self, tmp_path):
        path = write_config(tmp_path, {"params": {"dt": -1.0}})
        assert main(["run", "--config", path]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, {"params": {"lamda2": 1.0}})
        assert main(["run", "--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("experiment", "n_particles", 0),
            ("experiment", "n_consensus", 0),
            ("experiment", "n_consensus", -3),
            ("objective", "dimension", 0),
        ],
        ids=["n_particles=0", "n_consensus=0", "n_consensus=-3", "dimension=0"],
    )
    def test_empty_array_shapes_are_config_errors(self, tmp_path, caplog, section, key, value):
        path = write_config(tmp_path, {section: {key: value}})
        assert main(["run", "--config", path]) == EXIT_CONFIG
        assert "configuration error" in caplog.text
        assert f"{key} must be at least 1" in caplog.text

    def assert_divergence_logged(self, tmp_path, caplog, command, params):
        """``command`` exits 2 without output, logging the step the library
        records for trial 0 of the same config."""
        path = write_config(
            tmp_path,
            {
                "objective": {"kind": "sphere", "dimension": 2},
                "params": params,
                "experiment": {"n_particles": 5, "horizon_T": 5000.0, "trials": 1, "seed": 0},
            },
        )
        out = tmp_path / "result.json"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_RUNTIME
        outcome = harness.run_single_trial(load_config(path).build_experiment(), 0)
        assert outcome.diverged
        assert re.fullmatch(r"diverged ensemble at step \d+", outcome.reason)
        assert f"runtime failure: {outcome.reason}\n" in caplog.text
        assert not out.exists()

    def test_divergent_run_exits_runtime(self, tmp_path, caplog):
        self.assert_divergence_logged(
            tmp_path, caplog, "run", {"lambda1": 1.0, "lambda3": 10.0, "dt": 5.0, "kappa": 0.2})

    def test_divergent_decay_exits_runtime(self, tmp_path, caplog):
        # kappa * theta = 1 keeps chi1 positive, so the decay run starts
        self.assert_divergence_logged(
            tmp_path, caplog, "decay", {"lambda1": 1.0, "dt": 5.0, "kappa": 0.2, "theta": 5.0})

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


SMALL_CS = {
    "objective": {"kind": "cs"},
    "experiment": {"n_particles": 5, "horizon_T": 0.1, "trials": 2},
    "cs": {"d": 10, "m": 6, "s": 2},
}
DECAY = yaml.safe_load((CONFIG_DIR / "decay.yaml").read_text())
TOY = yaml.safe_load((CONFIG_DIR / "toy_minibatch.yaml").read_text())
SMALL_SPHERE = {
    "objective": {"kind": "sphere", "dimension": 2},
    "params": {"dt": 0.1},
    "experiment": {"n_particles": 5, "horizon_T": 0.5, "trials": 2},
}
SMALL_RASTRIGIN = {**SMALL_SPHERE, "objective": {"kind": "rastrigin", "dimension": 2}}


# a sweep of one cell, one trial of a single step
RASTRIGIN_CELL = {
    **SMALL_RASTRIGIN, "experiment": {"n_particles": 5, "horizon_T": 0.1, "trials": 1},
}
# the bundled decay run, shortened
DECAY_SHORT = {**DECAY, "experiment": {**DECAY["experiment"], "horizon_T": 0.5}}
# the bundled cs sweep, reduced to one cell of two short trials
CS_SWEEP = yaml.safe_load((CONFIG_DIR / "cs_sweep.yaml").read_text())
CS_SWEEP_CELL = {
    **CS_SWEEP,
    "experiment": {**CS_SWEEP["experiment"], "horizon_T": 0.1, "trials": 2},
    "sweep": {"x_grid": [0.0], "y_grid": [10]},
}


def setting(section, key, value, base=SMALL_SPHERE):
    """``base`` with ``section.key`` set to ``value``."""
    return {**base, section: {**base.get(section, {}), key: value}}


# settings that are NaN or infinite where the dynamics need finite values
NONFINITE = [
    *(("run", setting("params", key, value), f"params.{key}={value}")
      for key in ("alpha", "lambda1", "lambda2", "sigma1", "theta", "kappa", "dt")
      for value in (math.inf, math.nan)),
    ("run", setting("params", "beta", math.nan), "params.beta=nan"),
    ("run", setting("params", "dt", 0.0), "params.dt=0"),
    ("run", setting("init", "mean", math.inf), "init.mean=inf"),
    ("run", setting("init", "std", math.nan), "init.std=nan"),
    ("run", setting("init", "high", math.inf, {**SMALL_SPHERE, "init": {"kind": "uniform"}}),
     "init.high=inf"),
    ("run", setting("experiment", "horizon_T", math.inf), "experiment.horizon_T=inf"),
    ("run", setting("success", "threshold", math.nan), "success.threshold=nan"),
    ("run", setting("cs", "mu", math.nan, SMALL_CS), "cs.mu=nan"),
    ("check-bounds", setting("theory", "R0", math.inf), "theory.R0=inf"),
    ("gradcheck", setting("gradcheck", "h", math.inf), "gradcheck.h=inf"),
    ("gradcheck", setting("gradcheck", "rel_tol", math.inf), "gradcheck.rel_tol=inf"),
]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("run", {**SMALL_CS, "cs": {"d": 10, "m": 0, "s": 2}}),
        ("decay", {**SMALL_CS, "cs": {"d": 10, "m": 6, "s": 0}}),
        ("check-bounds", {**SMALL_CS, "cs": {"d": 10, "m": 11, "s": 2}}),
        ("sweep-rastrigin", {"objective": {"kind": "rastrigin", "dimension": 2},
                             "sweep": {"x_grid": [0.0], "y_grid": [0]}}),
        ("sweep-cs", {**SMALL_CS, "sweep": {"x_grid": [0.0], "y_grid": [0]}}),
        ("gradcheck", {"gradcheck": {"points": 0}}),
        ("gradcheck", {"gradcheck": {"h": 0.0}}),
        ("run", {**SMALL_CS, "cs": {"d": 10, "m": 6, "s": 2, "p": 0.7}}),
        ("sweep-cs", {**SMALL_CS, "cs": {"d": 10, "m": 6, "s": 2, "mu": -1.0}}),
        ("sweep-rastrigin", {"objective": {"kind": "rastrigin", "dimension": 2},
                             "sweep": {"sigma2_coupling": "other"}}),
        ("check-bounds", {**DECAY, "theory": {**DECAY["theory"], "vartheta": 1.5}}),
        ("check-bounds", {"theory": {"cases": 0}}),
        ("decay", {**DECAY, "theory": {**DECAY["theory"], "eps": 0.0}}),
        # alpha = 100 doubled every step is inf from step 1018 on
        ("run", {**TOY, "schedule": {**TOY["schedule"], "epoch_length": 1}}),
        ("sweep-rastrigin", {"objective": {"kind": "rastrigin", "dimension": 2},
                             "schedule": {"alpha_rule": "double_per_epoch", "epoch_length": 1},
                             "experiment": {"horizon_T": 20.0, "trials": 2},
                             "sweep": {"x_grid": [0.0], "y_grid": [5]}}),
        # the cs section is checked even when the base objective is not cs
        ("sweep-cs", setting("cs", "mu", -1.0)),
        # an empty grid is not an absent one
        ("sweep-rastrigin", setting("sweep", "x_grid", [], SMALL_RASTRIGIN)),
        ("sweep-cs", setting("sweep", "y_grid", [], SMALL_CS)),
        # checks that run inside a harness or theory call
        ("sweep-rastrigin", setting("success", "kind", "exact_sparse_recovery", RASTRIGIN_CELL)),
        ("decay", setting("params", "sigma1", 2.0)),
        ("decay", setting("params", "lambda3", 0.5)),
        ("check-bounds", setting("params", "lambda3", 0.5)),
        ("sweep-rastrigin", {**RASTRIGIN_CELL, "params": {"dt": 0.1, "sigma1": 2.0},
                             "sweep": {"sigma2_coupling": "lambda2_sigma1",
                                       "x_grid": [1.0e308], "y_grid": [5]}}),
        ("sweep-rastrigin", {**RASTRIGIN_CELL, "params": {"dt": 0.1, "sigma1": 2.0},
                             "sweep": {"sigma2_coupling": "lambda2_sigma1",
                                       "x_grid": [0.0, 1.0e308], "y_grid": [5]}}),
        # grid values are typed like scalar settings
        ("sweep-rastrigin", setting("sweep", "y_grid", [5.5], RASTRIGIN_CELL)),
        ("sweep-rastrigin", setting("sweep", "y_grid", [True], RASTRIGIN_CELL)),
        ("sweep-rastrigin", setting("sweep", "y_grid", [None], RASTRIGIN_CELL)),
        ("check-bounds", setting("theory", "R0", 0.05)),
        ("run", setting("experiment", "seed", -1)),
        # settings a command would ignore
        ("decay", setting("schedule", "alpha_rule", "double_per_epoch", DECAY_SHORT)),
        ("decay", setting("schedule", "sigma_rule", "log2_cooling", DECAY_SHORT)),
        ("decay", setting("experiment", "n_consensus", 5, DECAY_SHORT)),
        ("sweep-rastrigin", setting("params", "sigma2", 3.0, RASTRIGIN_CELL)),
        ("sweep-cs", setting("params", "sigma1", 0.5,
                             setting("sweep", "sigma2_coupling", "lambda1_sigma1", CS_SWEEP_CELL))),
        ("run", setting("objective", "n_batches", 8)),
        ("run", setting("objective", "n_batches", 8, SMALL_RASTRIGIN)),
        ("sweep-cs", setting("objective", "n_batches", 8, CS_SWEEP_CELL)),
        *((command, payload) for command, payload, _ in NONFINITE),
    ],
    ids=["cs.m=0", "cs.s=0", "cs.m>cs.d", "rastrigin-y_grid=0", "cs-y_grid=0",
         "gradcheck.points=0", "gradcheck.h=0", "cs.p=0.7", "cs.mu=-1",
         "sigma2_coupling=other", "theory.vartheta=1.5", "theory.cases=0", "theory.eps=0",
         "run-alpha-doubling-overflows", "sweep-alpha-doubling-overflows",
         "sphere-sweep-cs.mu=-1", "rastrigin-x_grid=[]", "cs-y_grid=[]",
         "rastrigin-exact_sparse_recovery", "decay-chi1<=0", "decay-no-C_grad",
         "check-bounds-no-C_grad", "sigma2=inf", "second-cell-sigma2=inf",
         "y_grid=[5.5]", "y_grid=[true]", "y_grid=[null]", "theory.R0=0.05",
         "experiment.seed=-1", "decay-schedule", "decay-sigma_rule", "decay-n_consensus",
         "sweep-rastrigin-params.sigma2", "sweep-cs-sigma2_coupling", "sphere-n_batches=8",
         "rastrigin-n_batches=8", "cs-n_batches=8",
         *(name for _, _, name in NONFINITE)],
)
def test_out_of_range_settings_are_config_errors(tmp_path, caplog, command, payload):
    """Out-of-range sizes, regularizer, sweep grids, grid values and coupling,
    theory and gradcheck settings, non-finite settings and settings the
    command would ignore exit 1 before anything runs, and no result file is
    written."""
    out = tmp_path / "result.txt"
    code = main([command, "--config", write_config(tmp_path, payload), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "configuration error" in caplog.text
    assert not out.exists()


class TestSweepCommands:
    def sweep_config(self, tmp_path, **sections):
        return write_config(
            tmp_path,
            {
                "objective": {"kind": "rastrigin", "dimension": 2},
                "params": {"lambda1": 1.0, "sigma1": 0.5, "alpha": 1.0e4, "dt": 0.1},
                "experiment": {"n_particles": 10, "horizon_T": 2.0, "trials": 3, "seed": 0},
                "sweep": {"x_grid": [0.0, 1.0], "y_grid": [5, 10]},
                **sections,
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
            "schedule": {"alpha_rule": "constant", "sigma_rule": "constant", "epoch_length": 100},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0, "low": -1.0, "high": 1.0},
            "n_consensus": None,
            "objective": {"kind": "rastrigin", "dimension": 2, "n_batches": 1},
        }
        # key order included
        assert json.dumps(json.loads(out.read_text())["config"]) == json.dumps(expected)

    def test_sweep_json_records_schedule_init_and_consensus_subset(self, tmp_path):
        path = self.sweep_config(
            tmp_path,
            schedule={"alpha_rule": "double_per_epoch", "epoch_length": 5},
            init={"mean": 1.5},
            experiment={"n_particles": 10, "horizon_T": 2.0, "trials": 3, "seed": 0,
                        "n_consensus": 4},
        )
        out = tmp_path / "sweep.json"
        assert main(["sweep-rastrigin", "--config", path, "--out", str(out)]) == EXIT_OK
        recorded = json.loads(out.read_text())["config"]
        assert recorded["schedule"] == {
            "alpha_rule": "double_per_epoch", "sigma_rule": "constant", "epoch_length": 5,
        }
        assert recorded["init"]["mean"] == 1.5
        assert recorded["n_consensus"] == 4

    def test_format_flag_only_on_sweeps(self):
        """Only the sweeps can write CSV; the other commands always write
        JSON and reject --format instead of ignoring it."""
        for command in ("run", "decay", "check-bounds", "gradcheck"):
            with pytest.raises(SystemExit):
                _parser().parse_args([command, "--format", "csv"])
        for command in ("sweep-rastrigin", "sweep-cs"):
            assert _parser().parse_args([command, "--format", "csv"]).format == "csv"

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
        # key order included
        assert json.dumps(payload["config"]["instance"]) == json.dumps(
            {"d": 10, "s": 2, "mu": 0.03, "p": 1.0}
        )


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

    def test_laplace_count_excludes_skipped_cases(self, tmp_path):
        """Cases whose precondition E_r < E_inf fails are not checked and not
        counted, so the bound holds on every case counted."""
        path = write_config(tmp_path, {"objective": {"kind": "sphere", "dimension": 4}})
        out = tmp_path / "bounds.json"
        assert main(["check-bounds", "--config", path, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert 0 < payload["laplace_cases"] < 1000
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

    def test_decay_reports_eps_time_in_its_bracket(self, tmp_path):
        """On the bundled decay config, V first reaches eps at t_eps inside
        [t_lower, t_star] from time_horizon_star at the run's V0."""
        out = tmp_path / "decay.json"
        assert main(["decay", "--config", str(CONFIG_DIR / "decay.yaml"), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["t_eps"] == pytest.approx(2.377)
        assert payload["t_lower"] == pytest.approx(0.654, abs=1e-3)
        assert payload["t_star"] == pytest.approx(13.34, abs=1e-2)
        assert payload["t_lower"] <= payload["t_eps"] <= payload["t_star"]
        assert payload["eps_time_in_bracket"] is True

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

    def test_gradcheck_nan_error_fails(self, tmp_path):
        """With h = 1e300, x +- h overflows and every finite difference is
        NaN; a NaN error fails the check instead of dropping out of the
        maximum."""
        out = tmp_path / "gradcheck.json"
        path = write_config(tmp_path, {"gradcheck": {"points": 3, "h": 1.0e300}})
        assert main(["gradcheck", "--config", path, "--out", str(out)]) == EXIT_RUNTIME
        payload = json.loads(out.read_text())
        assert math.isnan(payload["max_rel_error"])
        assert payload["passed"] is False


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


def _rastrigin_sweep_2x2(tmp_path):
    """configs/rastrigin_sweep.yaml on a 2 x 2 grid, 4 trials of 200 steps."""
    payload = yaml.safe_load((CONFIG_DIR / "rastrigin_sweep.yaml").read_text())
    payload["experiment"].update(trials=4, horizon_T=2.0)
    payload["sweep"].update(x_grid=[0.0, 2.0], y_grid=[10, 100])
    return write_config(tmp_path, payload)


def _cs_sweep_2x2(tmp_path):
    """configs/cs_sweep.yaml on a 2 x 2 grid, 4 trials of 200 steps."""
    payload = yaml.safe_load((CONFIG_DIR / "cs_sweep.yaml").read_text())
    payload["experiment"].update(trials=4, horizon_T=2.0)
    payload["sweep"].update(x_grid=[0.0, 1.0], y_grid=[10, 25])
    return write_config(tmp_path, payload)


@pytest.mark.parametrize(
    "command, config, options",
    [
        ("run", lambda tmp_path: str(CONFIG_DIR / "sphere_run.yaml"), []),
        ("decay", lambda tmp_path: str(CONFIG_DIR / "decay.yaml"), []),
        ("sweep-rastrigin", _rastrigin_sweep_2x2, []),
        ("sweep-cs", _cs_sweep_2x2, ["--format", "csv"]),
        ("sweep-cs", _cs_sweep_2x2, ["--format", "json"]),
    ],
    ids=["run", "decay", "sweep-rastrigin", "sweep-cs-csv", "sweep-cs-json"],
)
def test_noise_drawn_in_a_child_writes_the_same_files(
    tmp_path, monkeypatch, command, config, options
):
    """Each command writes the same bytes whether its runs use a forked
    child, to draw their noise or to step half of a noise-free batch
    (threshold 0), or run in order here (threshold inf)."""
    path = config(tmp_path)
    files = []
    for threshold in (0, math.inf):
        monkeypatch.setattr(cbo.rng, "FORK_MIN_WORK", threshold)
        out = tmp_path / f"out_{threshold}"
        assert main([command, "--config", path, "--out", str(out), *options]) == EXIT_OK
        files.append(out.read_bytes())
    assert files[0] == files[1]


class TestReadme:
    def test_library_example_runs(self, capsys):
        """The library example in README.md runs against the current API and
        prints the final consensus point."""
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
        assert len(blocks) == 1
        exec(compile(blocks[0], str(README), "exec"), {})
        printed = capsys.readouterr().out
        assert printed.startswith("[") and printed.rstrip().endswith("]")
