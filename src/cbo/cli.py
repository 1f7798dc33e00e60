"""Command-line front end: optimization runs, sweeps, decay experiments,
bound checks and gradient verification, driven by YAML config files."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import harness
from .config import ResolvedConfig, _coerce, load_config
from .errors import ConfigError, DivergedError
from .objectives import gradcheck
from .theory import check_bounds

log = logging.getLogger("cbo")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbo")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="YAML config file")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
        cmd.add_argument("--out", default=None, help="output file (default stdout)")
        if name in ("sweep-rastrigin", "sweep-cs"):
            cmd.add_argument("--format", choices=("csv", "json"), default="json")
    return parser


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out_path, "w") as f:
            f.write(text)


def _cmd_run(cfg: ResolvedConfig, args) -> tuple[str, int]:
    return json.dumps(harness.run_report(cfg.build_experiment()), indent=2), EXIT_OK


def _grid(sweep: dict, key: str, typ, default: list) -> list:
    """The sweep grid ``key``, each value checked like a setting of type
    ``typ``; an absent grid, not an empty one, means ``default``."""
    values = sweep[key]
    return default if values is None else [_coerce("sweep", key, typ, v) for v in values]


def _cmd_sweep_rastrigin(cfg: ResolvedConfig, args) -> tuple[str, int]:
    sweep = cfg["sweep"]
    diagram = harness.rastrigin_phase_diagram(
        _grid(sweep, "x_grid", float, [0.0, 1.0, 2.0, 4.0]),
        _grid(sweep, "y_grid", int, [10, 100]),
        cfg.build_experiment(),
        sigma2_coupling=sweep["sigma2_coupling"],
    )
    diagram.provenance["objective"] = dict(cfg["objective"])
    return (diagram.to_csv() if args.format == "csv" else diagram.to_json()), EXIT_OK


def _cmd_sweep_cs(cfg: ResolvedConfig, args) -> tuple[str, int]:
    sweep = cfg["sweep"]
    if sweep["sigma2_coupling"] != "zero":
        raise ConfigError("sweep-cs couples no memory noise: sweep.sigma2_coupling must be zero")
    spec = cfg.build_cs_spec()
    diagram = harness.cs_phase_diagram(
        _grid(sweep, "x_grid", float, [0.0, 1.0]),
        _grid(sweep, "y_grid", int, [spec.m]),
        spec,
        cfg.build_experiment(),
    )
    return (diagram.to_csv() if args.format == "csv" else diagram.to_json()), EXIT_OK


def _theory(cfg: ResolvedConfig) -> dict:
    """The theory section, whose check settings must be in range."""
    t = cfg["theory"]
    if not (0 <= t["vartheta"] < 1 and 0 < t["eps"] < 1 and t["cases"] >= 1):
        raise ConfigError("theory needs vartheta in [0, 1), eps in (0, 1) and cases >= 1")
    return t


def _cmd_decay(cfg: ResolvedConfig, args) -> tuple[str, int]:
    exp = cfg.build_experiment()
    theory = _theory(cfg)
    # the decay run has constant parameters and a full consensus
    if exp.schedule.alpha_rule != "constant" or exp.schedule.sigma_rule != "constant":
        raise ConfigError("decay runs no schedule: alpha_rule and sigma_rule must be constant")
    if exp.n_consensus is not None:
        raise ConfigError("decay uses a full consensus: experiment.n_consensus must be unset")
    problem = exp.problem()
    report = harness.decay_experiment(
        problem.objective, problem.x_star, exp.params, cfg.build_constants(),
        exp.n_particles, exp.horizon_T, theory["vartheta"],
        seed=exp.seed, eps=theory["eps"], init=exp.init,
    )
    return report.to_json(), EXIT_OK


def _cmd_check_bounds(cfg: ResolvedConfig, args) -> tuple[str, int]:
    exp = cfg.build_experiment()
    theory = _theory(cfg)
    problem = exp.problem()
    return json.dumps(check_bounds(
        exp.params, cfg.build_constants(), problem.objective, problem.x_star,
        theory["vartheta"], theory["eps"], theory["cases"], exp.seed,
    ), indent=2), EXIT_OK


def _cmd_gradcheck(cfg: ResolvedConfig, args) -> tuple[str, int]:
    exp = cfg.build_experiment()
    gc = cfg["gradcheck"]
    payload = gradcheck(exp.problem().objective, gc["points"], gc["h"], gc["rel_tol"], exp.seed)
    return json.dumps(payload, indent=2), EXIT_OK if payload["passed"] else EXIT_RUNTIME


# command -> handler returning the output text and the exit code
_COMMANDS = {
    "run": _cmd_run,
    "sweep-rastrigin": _cmd_sweep_rastrigin,
    "sweep-cs": _cmd_sweep_cs,
    "decay": _cmd_decay,
    "check-bounds": _cmd_check_bounds,
    "gradcheck": _cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = _parser().parse_args(argv)
    # refused before the command runs, which may take minutes, not after
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
        log.error("configuration error: the directory of --out %s does not exist", args.out)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except (ConfigError, OSError) as err:
        log.error("configuration error: %s", err)
        return EXIT_CONFIG
    log.info("resolved configuration:\n%s", cfg.to_yaml())
    try:
        text, code = _COMMANDS[args.command](cfg, args)
    except ConfigError as err:
        log.error("configuration error: %s", err)
        return EXIT_CONFIG
    except (DivergedError, ValueError) as err:
        log.error("runtime failure: %s", err)
        return EXIT_RUNTIME
    except Exception:  # a programming error must not read as a configuration error
        log.exception("runtime failure")
        return EXIT_RUNTIME
    _write(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
