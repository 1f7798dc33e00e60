"""Structured config files for the CLI: YAML key-value text with strict
unknown-key rejection and documented defaults (the baseline run parameters
dt=0.01, T=20, alpha=100, beta=inf, theta=0, kappa=1/dt, lambda1=1)."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .dynamics import CboParams, DiffusionType, InitSpec, Schedule
from .harness import ExperimentConfig, SuccessRule, TrialProblem, cs_instance_factory
from .objectives import Rastrigin, Sphere, ToyStochasticObjective
from .theory import AssumptionConstants


class ConfigError(ValueError):
    pass


# config types of the dataclass field annotations; a diffusion type is
# given by its name
_FIELD_TYPES = {"float": float, "int": int, "str": str, "DiffusionType": str}


def _dataclass_section(cls, **config_defaults) -> dict:
    """Keys, types and defaults of the section mirroring dataclass ``cls``;
    ``config_defaults`` are the defaults where the config's differ."""
    return {
        f.name: (_FIELD_TYPES[f.type], config_defaults.get(f.name, f.default))
        for f in fields(cls)
    }


# section -> key -> (type, default); None default means "optional, absent"
_SCHEMA = {
    "objective": {
        "kind": (str, "sphere"),
        "dimension": (int, 4),
        "n_batches": (int, 1),
    },
    # kappa None means 1/dt
    "params": _dataclass_section(CboParams, kappa=None, diffusion="anisotropic"),
    "schedule": _dataclass_section(Schedule, epoch_length=100),
    # the ExperimentConfig fields of the same names
    "experiment": {
        "n_particles": (int, 100),
        "horizon_T": (float, 20.0),
        "trials": (int, 100),
        "seed": (int, 0),
        "n_consensus": (int, None),
    },
    "init": _dataclass_section(InitSpec),
    "success": _dataclass_section(SuccessRule),
    "sweep": {
        "x_grid": (list, None),
        "y_grid": (list, None),
        "sigma2_coupling": (str, "zero"),
    },
    "cs": {
        "d": (int, 50),
        "m": (int, 25),
        "s": (int, 2),
        "mu": (float, 0.01),
        "p": (float, 1.0),
    },
    "theory": {
        "eta": (float, 1.0),
        "nu": (float, 0.5),
        "R0": (float, 1.0),
        "E_inf": (float, 1.0),
        "C_grad": (float, None),
        "vartheta": (float, 0.25),
        "eps": (float, 1e-4),
        "cases": (int, 1000),
    },
    "gradcheck": {
        "points": (int, 100),
        "h": (float, 1e-6),
        "rel_tol": (float, 1e-5),
    },
}


def _coerce(section: str, key: str, typ, raw):
    if raw is None:
        return None
    if typ is float:
        if isinstance(raw, str):
            if raw.strip().lower() in ("inf", "+inf", ".inf", "infinity"):
                return math.inf
            try:
                return float(raw)
            except ValueError:
                raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}")
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}")
        return float(raw)
    if typ is int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}")
        return raw
    if typ is str:
        if not isinstance(raw, str):
            raise ConfigError(f"{section}.{key}: expected a string, got {raw!r}")
        return raw
    if typ is list:
        if not isinstance(raw, list):
            raise ConfigError(f"{section}.{key}: expected a list, got {raw!r}")
        return list(raw)
    raise AssertionError(typ)


@dataclass
class ResolvedConfig:
    sections: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def to_yaml(self) -> str:
        dump = {}
        for section, values in self.sections.items():
            out = {}
            for key, val in values.items():
                if isinstance(val, float) and math.isinf(val):
                    val = "inf"
                out[key] = val
            dump[section] = out
        return yaml.safe_dump(dump, sort_keys=True)

    # ---- builders -------------------------------------------------

    def build_params(self) -> CboParams:
        p = dict(self["params"])
        diffusion = p.pop("diffusion")
        try:
            diffusion = DiffusionType(diffusion)
        except ValueError:
            raise ConfigError(f"params.diffusion: unknown type {diffusion!r}")
        if p["kappa"] is None:
            p["kappa"] = 1.0 / p["dt"]
        try:
            return CboParams(diffusion=diffusion, **p)
        except ValueError as err:
            raise ConfigError(str(err))

    def build_constants(self) -> AssumptionConstants:
        t = self["theory"]
        try:
            return AssumptionConstants(
                eta=t["eta"], nu=t["nu"], R0=t["R0"], E_inf=t["E_inf"], C_grad=t["C_grad"]
            )
        except ValueError as err:
            raise ConfigError(str(err))

    def objective_factory(self):
        """Returns the per-trial problem factory. CS objectives generate a
        fresh instance per trial."""
        spec = self["objective"]
        kind = spec["kind"]
        d = spec["dimension"]
        if kind == "cs":
            cs = self["cs"]
            return cs_instance_factory(cs["d"], cs["m"], cs["s"], cs["mu"], cs["p"])
        if kind == "sphere":
            obj = Sphere(d)
        elif kind == "rastrigin":
            obj = Rastrigin(d)
        elif kind == "toy":
            obj = ToyStochasticObjective(d, spec["n_batches"], seed=self["experiment"]["seed"])
        else:
            raise ConfigError(f"objective.kind: unknown objective {kind!r}")
        origin = np.zeros(d)
        return lambda rng: TrialProblem(obj, x_star=origin)

    def build_experiment(self) -> ExperimentConfig:
        try:
            return ExperimentConfig(
                objective_factory=self.objective_factory(),
                params=self.build_params(),
                schedule=Schedule(**self["schedule"]),
                success=SuccessRule(**self["success"]),
                init=InitSpec(**self["init"]),
                **self["experiment"],
            )
        except ValueError as err:
            raise ConfigError(str(err))


def resolve(raw: dict | None) -> ResolvedConfig:
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    for section in raw:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if raw[section] is not None and not isinstance(raw[section], dict):
            raise ConfigError(f"section {section!r} must be a mapping")
    sections = {}
    for section, keys in _SCHEMA.items():
        given = raw.get(section) or {}
        for key in given:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
        resolved = {}
        for key, (typ, default) in keys.items():
            if key in given:
                resolved[key] = _coerce(section, key, typ, given[key])
            else:
                resolved[key] = default
        sections[section] = resolved
    return ResolvedConfig(sections)


def load_config(path: str | None, seed_override: int | None = None) -> ResolvedConfig:
    """Parse a YAML config file, fill defaults, and apply the seed precedence
    chain: CLI flag > CBO_SEED env var > file > default."""
    raw = {}
    if path is not None:
        with open(path) as f:
            raw = yaml.safe_load(f) or {}
    cfg = resolve(raw)
    env_seed = os.environ.get("CBO_SEED")
    if env_seed is not None:
        try:
            cfg["experiment"]["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"CBO_SEED: expected an integer, got {env_seed!r}")
    if seed_override is not None:
        cfg["experiment"]["seed"] = int(seed_override)
    return cfg
