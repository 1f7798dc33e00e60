"""Structured config files for the CLI: YAML key-value text with strict
unknown-key rejection.  A section that configures a settings dataclass takes
its keys and defaults from that dataclass, so a config and the library share
one baseline."""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .dynamics import CboParams, InitSpec, Schedule
from .errors import ConfigError
from .harness import CsSpec, ExperimentConfig, SuccessRule, TrialProblem
from .objectives import Rastrigin, Sphere, ToyStochasticObjective
from .theory import AssumptionConstants

# config types of the scalar dataclass field annotations
_FIELD_TYPES = {
    "float": float, "int": int, "str": str, "int | None": int, "float | None": float,
}


def _dataclass_section(cls) -> dict:
    """Keys, types and defaults of the section mirroring the scalar fields
    of dataclass ``cls``."""
    return {
        f.name: (_FIELD_TYPES[f.type], f.default) for f in fields(cls) if f.type in _FIELD_TYPES
    }


# section -> key -> (type, default); None default means "optional, absent"
_SCHEMA = {
    "objective": {
        "kind": (str, "sphere"),
        "dimension": (int, 4),
        "n_batches": (int, 1),
    },
    "params": _dataclass_section(CboParams),
    "schedule": _dataclass_section(Schedule),
    "experiment": _dataclass_section(ExperimentConfig),
    "init": _dataclass_section(InitSpec),
    "success": _dataclass_section(SuccessRule),
    "sweep": {
        "x_grid": (list, None),
        "y_grid": (list, None),
        "sigma2_coupling": (str, "zero"),
    },
    "cs": _dataclass_section(CsSpec),
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


# a number in a string, as YAML leaves one without a dot (1e-4)
_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")

# the one integer key that no array holds: SeedSequence entropy of any size
_UNBOUNDED_INTS = {("experiment", "seed")}


def _coerce(section: str, key: str, typ, raw):
    if typ is float:
        if isinstance(raw, str):
            if raw.strip().lower() in ("inf", "+inf", ".inf", "infinity"):
                return math.inf
            if _NUMBER.fullmatch(raw.strip()):
                return float(raw)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}")
        try:
            return float(raw)
        except OverflowError:
            # no repr: an integer this long may exceed Python's str conversion limit
            raise ConfigError(
                f"{section}.{key}: an integer of {raw.bit_length()} bits is too large for a float"
            ) from None
    if typ is int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}")
        if (section, key) not in _UNBOUNDED_INTS and not -(2**63) <= raw < 2**63:
            # no repr, as for a float: it may exceed Python's str conversion limit
            raise ConfigError(
                f"{section}.{key}: an integer of {raw.bit_length()} bits does not fit "
                "in a signed 64-bit integer"
            )
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
        return yaml.safe_dump(self.sections, sort_keys=True)

    # ---- builders -------------------------------------------------

    def build_params(self) -> CboParams:
        return CboParams(**self["params"])

    def build_cs_spec(self) -> CsSpec:
        return CsSpec(**self["cs"])

    def build_constants(self) -> AssumptionConstants:
        # the section's other keys (vartheta, eps, cases) configure the checks;
        # E_min is no key and keeps its default
        t = self["theory"]
        return AssumptionConstants(
            **{f.name: t[f.name] for f in fields(AssumptionConstants) if f.name in t}
        )

    def objective_factory(self):
        """Returns the per-trial problem factory. CS objectives generate a
        fresh instance per trial."""
        spec = self["objective"]
        kind = spec["kind"]
        d = spec["dimension"]
        if kind not in ("sphere", "rastrigin", "toy", "cs"):
            raise ConfigError(f"objective.kind: unknown objective {kind!r}")
        if kind != "toy" and spec["n_batches"] != 1:
            raise ConfigError(
                f"objective.n_batches is read only by kind toy: kind {kind} needs 1, "
                f"got {spec['n_batches']}"
            )
        if kind == "cs":
            return self.build_cs_spec()
        if d < 1:
            raise ConfigError(f"objective.dimension must be at least 1, got {d}")
        if kind == "sphere":
            obj = Sphere(d)
        elif kind == "rastrigin":
            obj = Rastrigin(d)
        else:
            obj = ToyStochasticObjective(d, spec["n_batches"], seed=self["experiment"]["seed"])
        origin = np.zeros(d)
        return lambda rng: TrialProblem(obj, x_star=origin)

    def build_experiment(self) -> ExperimentConfig:
        return ExperimentConfig(
            objective_factory=self.objective_factory(),
            params=self.build_params(),
            schedule=Schedule(**self["schedule"]),
            success=SuccessRule(**self["success"]),
            init=InitSpec(**self["init"]),
            **self["experiment"],
        )


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
            # a null value is an absent one
            value = given.get(key)
            resolved[key] = default if value is None else _coerce(section, key, typ, value)
        sections[section] = resolved
    return ResolvedConfig(sections)


def load_config(path: str | None, seed_override: int | None = None) -> ResolvedConfig:
    """Parse a YAML config file, fill defaults, and apply the seed precedence
    chain: CLI flag > CBO_SEED env var > file > default."""
    raw = {}
    if path is not None:
        with open(path) as f:
            try:
                raw = yaml.safe_load(f) or {}
            except yaml.YAMLError as err:
                raise ConfigError(f"{path} is not valid YAML: {err}") from None
    cfg = resolve(raw)
    env_seed = os.environ.get("CBO_SEED")
    if env_seed is not None:
        if not re.fullmatch(r"\s*[+-]?\d+\s*", env_seed):
            raise ConfigError(f"CBO_SEED: expected an integer, got {env_seed!r}")
        cfg["experiment"]["seed"] = int(env_seed)
    if seed_override is not None:
        cfg["experiment"]["seed"] = int(seed_override)
    return cfg
