"""Command-line front end: optimization runs, sweeps, decay experiments,
bound checks and gradient verification, driven by YAML config files."""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import harness
from .config import ConfigError, ResolvedConfig, load_config
from .dynamics import DivergedError, StoppingRule, init_ensemble, run
from .objectives import finite_diff_grad
from .rng import RngStream
from .theory import chi_rates, chi_rates_memoryless, laplace_bound, time_horizon_star

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
        cmd.add_argument("--format", choices=("csv", "json"), default="json")
    return parser


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out_path, "w") as f:
            f.write(text)


def _cmd_run(cfg: ResolvedConfig, args) -> tuple[str, int]:
    exp = cfg.build_experiment()
    rng = RngStream(exp.seed)
    problem = exp.objective_factory(rng)
    ens = init_ensemble(
        exp.n_particles, problem.objective.dimension, exp.init, rng,
        problem.objective, exp.params.dt,
    )
    result = run(
        ens, exp.params, exp.schedule, problem.objective,
        StoppingRule(max_steps=exp.n_steps), rng, n_consensus=exp.n_consensus,
    )
    payload = {
        "consensus": result.consensus.tolist(),
        "steps": result.n_steps,
        "best_memory_energy": float(result.ensemble.memory_energies.min()),
    }
    if problem.x_star is not None:
        payload["distance_to_minimizer"] = float(
            np.linalg.norm(result.consensus - problem.x_star)
        )
    return json.dumps(payload, indent=2), EXIT_OK


def _cmd_sweep_rastrigin(cfg: ResolvedConfig, args) -> tuple[str, int]:
    sweep = cfg["sweep"]
    x_grid = sweep["x_grid"] or [0.0, 1.0, 2.0, 4.0]
    y_grid = sweep["y_grid"] or [10, 100]
    base = cfg.build_experiment()
    diagram = harness.rastrigin_phase_diagram(
        [float(v) for v in x_grid], [int(v) for v in y_grid], base,
        sigma2_coupling=sweep["sigma2_coupling"],
    )
    return (diagram.to_csv() if args.format == "csv" else diagram.to_json()), EXIT_OK


def _cmd_sweep_cs(cfg: ResolvedConfig, args) -> tuple[str, int]:
    sweep = cfg["sweep"]
    cs = cfg["cs"]
    x_grid = sweep["x_grid"] or [0.0, 1.0]
    y_grid = sweep["y_grid"] or [cs["m"]]
    base = cfg.build_experiment()
    diagram = harness.cs_phase_diagram(
        [float(v) for v in x_grid], [int(v) for v in y_grid],
        {"d": cs["d"], "s": cs["s"], "mu": cs["mu"], "p": cs["p"]},
        base,
    )
    return (diagram.to_csv() if args.format == "csv" else diagram.to_json()), EXIT_OK


def _cmd_decay(cfg: ResolvedConfig, args) -> tuple[str, int]:
    exp = cfg.build_experiment()
    theory = cfg["theory"]
    problem = exp.objective_factory(RngStream(exp.seed))
    if problem.x_star is None:
        raise ConfigError("decay experiment needs an objective with known minimizer")
    report = harness.decay_experiment(
        problem.objective, problem.x_star, exp.params, cfg.build_constants(),
        exp.n_particles, exp.horizon_T, theory["vartheta"],
        seed=exp.seed, eps=theory["eps"], init=exp.init,
    )
    return report.to_json(), EXIT_OK


def _cmd_check_bounds(cfg: ResolvedConfig, args) -> tuple[str, int]:
    exp = cfg.build_experiment()
    theory = cfg["theory"]
    constants = cfg.build_constants()
    rates = chi_rates(exp.params, constants)
    memoryless = chi_rates_memoryless(exp.params, constants)
    payload = {
        "chi1": rates.chi1,
        "chi2": rates.chi2,
        "chi1_memoryless": memoryless.chi1,
        "chi2_memoryless": memoryless.chi2,
    }
    if rates.chi1 > 0:
        horizon = time_horizon_star(1.0, theory["eps"], theory["vartheta"], rates.chi1, rates.chi2)
        payload["t_star_from_V0_1"] = horizon.t_star
        payload["t_lower_from_V0_1"] = horizon.t_lower
    # randomized empirical check of the Laplace bound on the configured objective
    problem = exp.objective_factory(RngStream(exp.seed))
    if problem.x_star is not None:
        gen = np.random.Generator(np.random.PCG64(exp.seed))
        d = problem.objective.dimension
        holds = 0
        cases = theory["cases"]
        for _ in range(cases):
            n = int(gen.integers(5, 200))
            pts = problem.x_star + gen.uniform(-1.5, 1.5, size=(n, d))
            pts[gen.integers(n)] = problem.x_star + gen.uniform(
                -0.05, 0.05, size=d
            )  # guarantee mass near x*
            energies = problem.objective.values(pts)
            r = float(gen.uniform(0.1, constants.R0))
            in_ball = np.max(np.abs(pts - problem.x_star), axis=1) <= r
            e_r = float(energies[in_ball].max())
            if e_r >= constants.E_inf:
                continue
            q = float(gen.uniform(0, constants.E_inf - e_r)) or (constants.E_inf - e_r) / 2
            alpha = float(gen.uniform(1.0, 1e3))
            report = laplace_bound(
                pts, energies, problem.x_star, alpha, q, r, constants
            )
            holds += report.holds
        payload["laplace_cases"] = cases
        payload["laplace_holds"] = holds
    return json.dumps(payload, indent=2), EXIT_OK


def _cmd_gradcheck(cfg: ResolvedConfig, args) -> tuple[str, int]:
    exp = cfg.build_experiment()
    gc = cfg["gradcheck"]
    problem = exp.objective_factory(RngStream(exp.seed))
    obj = problem.objective
    if not obj.has_gradient:
        raise ConfigError("objective provides no analytic gradient to check")
    gen = np.random.Generator(np.random.PCG64(exp.seed))
    worst = 0.0
    for _ in range(gc["points"]):
        x = gen.uniform(-2, 2, size=obj.dimension)
        analytic = obj.grad(x)
        numeric = finite_diff_grad(obj, x, gc["h"])
        scale = max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
    passed = bool(worst < gc["rel_tol"])
    payload = json.dumps(
        {"points": gc["points"], "max_rel_error": worst, "tolerance": gc["rel_tol"],
         "passed": passed},
        indent=2,
    )
    return payload, EXIT_OK if passed else EXIT_RUNTIME


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
