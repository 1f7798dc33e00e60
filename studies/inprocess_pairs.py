"""Interleaved timing of two source trees' workload bodies in one interpreter.

    python3 studies/inprocess_pairs.py --side parent=../parent --side change=. \
        --workload cs-l12-cell --pairs 20 --seed 7 [--same-output]

Each side's ``src/cbo`` is loaded under a package name of its own
(``cbo_parent``, ``cbo_change``), and a body of the benchmark workload is
built from each the way ``benchmark/workloads.py`` builds it: the cell
configs of that tree's ``benchmark/`` directory through ``run_trials``, or
``configs/decay.yaml`` through ``decay_experiment``.  After one untimed
warm-up body per side, pair k runs one body per side on the same input seed
(``seed * 1_000_000 + k * 1_000``, as the benchmark derives them), and the
side that goes first alternates from one pair to the next.  One process sees
the same heap, CPU and host drift for both sides, so this resolves changes
of a layer's size that separate benchmark runs cannot.

Prints each side's median body time, the median of the per-pair ratio of
the second side over the first, the pairs the second side won, and how
many pairs' outputs differ.  With ``--same-output`` a differing output
fingerprint makes the exit code 1.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CBO_SEED", None)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

CELLS = {"rastrigin-cell": ("rastrigin_cell.yaml", False),
         "cs-l12-cell": ("cs_l12_cell.yaml", True)}


def load_package(name: str, tree: Path):
    """The ``cbo`` package of ``tree`` as the top-level package ``name``
    (its modules import each other relatively)."""
    init = tree / "src" / "cbo" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("config", "harness", "rng"):
        importlib.import_module(f"{name}.{module}")
    return package


def cell_body(cbo, tree: Path, config_file: str, sparse_recovery: bool):
    cfg = cbo.config.load_config(str(tree / "benchmark" / config_file))
    exp = cfg.build_experiment()
    if sparse_recovery:
        cs = cfg["cs"]
        exp = cbo.harness.cs_experiment_config(cs["d"], cs["m"], cs["s"], cs["mu"], cs["p"], exp)

    def body(seed: int) -> tuple:
        summary = cbo.harness.run_trials(dataclasses.replace(exp, seed=seed))
        return (summary.probability, summary.failures) + tuple(
            (o.trial, o.success, o.diverged, o.reason,
             None if o.consensus is None else o.consensus.tobytes())
            for o in summary.outcomes
        )

    return body


def decay_body(cbo, tree: Path):
    cfg = cbo.config.load_config(str(tree / "configs" / "decay.yaml"))
    exp = cfg.build_experiment()
    constants = cfg.build_constants()
    theory = cfg["theory"]
    problem = exp.objective_factory(cbo.rng.RngStream(exp.seed))

    def body(seed: int) -> tuple:
        rep = cbo.harness.decay_experiment(
            problem.objective, problem.x_star, exp.params, constants, exp.n_particles,
            exp.horizon_T, theory["vartheta"], seed=seed, eps=theory["eps"], init=exp.init,
        )
        return (rep.fit.rate, rep.fit.intercept, rep.fit.r_squared,
                rep.times.tobytes(), rep.values.tobytes())

    return body


def build(workload: str, cbo, tree: Path):
    if workload == "sphere-decay":
        return decay_body(cbo, tree)
    return cell_body(cbo, tree, *CELLS[workload])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR")
    parser.add_argument("--workload", required=True, choices=[*CELLS, "sphere-decay"])
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-output", action="store_true")
    args = parser.parse_args(argv)
    sides = dict(side.split("=", 1) for side in args.side)
    if len(sides) != 2 or args.pairs < 1:
        parser.error("give exactly two sides and at least one pair")
    names = list(sides)
    bodies = {}
    for name in names:
        tree = Path(sides[name]).resolve()
        bodies[name] = build(args.workload, load_package(f"cbo_{name}", tree), tree)
        bodies[name](args.seed * 1_000_000 + args.pairs * 1_000)  # warm-up, a seed no pair uses
    times = {name: [] for name in names}
    differing = 0
    for k in range(args.pairs):
        seed = args.seed * 1_000_000 + k * 1_000
        outputs = {}
        for name in names if k % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            outputs[name] = bodies[name](seed)
            times[name].append(time.perf_counter() - start)
        differing += outputs[names[0]] != outputs[names[1]]
    base, other = names
    ratios = [b / a for a, b in zip(times[base], times[other])]
    wins = sum(r < 1.0 for r in ratios)
    for name in names:
        print(f"{args.workload} {name}: median {median(times[name]):.4f} s "
              f"over {args.pairs} bodies")
    print(f"{other}/{base}: median per-pair ratio {median(ratios):.4f}, "
          f"{other} faster in {wins}/{args.pairs} pairs")
    print(f"outputs differ in {differing}/{args.pairs} pairs")
    return 1 if args.same_output and differing else 0


if __name__ == "__main__":
    sys.exit(main())
