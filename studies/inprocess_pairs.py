"""Interleaved timing of two source trees' workload bodies in one interpreter.

    python3 studies/inprocess_pairs.py --side parent=../parent --side change=. \
        --workload cs-l12-cell --pairs 20 --seed 7 [--same-output]

Each side's body is the benchmark's own: its tree's ``benchmark/workloads.py``
builds it, loaded with the ``sys.modules`` entries ``cbo``, ``cbo.<module>``
and ``spans`` pointing at that tree's ``src/cbo`` and ``benchmark/spans.py``.
Those entries are put back to the side's before each of its bodies, since a
body imports ``cbo.harness`` when it counts particle steps.  After one
untimed warm-up body per side, pair k runs one body per side on the input
seed of repeat k (``Workload.input_seed``, as the benchmark derives them),
and the side that goes first alternates from one pair to the next.  One
process sees the same heap, CPU and host drift for both sides, so this
resolves changes of a layer's size that separate benchmark runs cannot.

Prints each side's median body time, the median of the per-pair ratio of
the second side over the first, the pairs the second side won, how many
pairs' output fingerprints differ, and any problem a body reports.  With
``--same-output`` a differing fingerprint makes the exit code 1.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CBO_SEED", None)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402


def _swapped(module: str) -> bool:
    return module in ("cbo", "spans") or module.startswith("cbo.")


def use_modules(entries: dict) -> None:
    """Make ``entries`` the ``sys.modules`` entries of ``cbo``, its modules
    and ``spans``, dropping any other side's."""
    for module in [m for m in sys.modules if _swapped(m)]:
        del sys.modules[module]
    sys.modules.update(entries)


def _load(name: str, path: Path, **kwargs):
    spec = importlib.util.spec_from_file_location(name, path, **kwargs)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def load_side(name: str, tree: Path):
    """``tree``'s ``benchmark/workloads.py`` as the module ``workloads_<name>``,
    importing ``tree``'s ``cbo`` and ``spans``, and the ``sys.modules``
    entries of those."""
    use_modules({})
    package = tree / "src" / "cbo"
    _load("cbo", package / "__init__.py", submodule_search_locations=[str(package)])
    _load("spans", tree / "benchmark" / "spans.py")
    workloads = _load(f"workloads_{name}", tree / "benchmark" / "workloads.py")
    return workloads, {m: module for m, module in sys.modules.items() if _swapped(m)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR")
    parser.add_argument("--workload", required=True, help="a name in WORKLOADS")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-output", action="store_true")
    args = parser.parse_args(argv)
    sides = dict(side.split("=", 1) for side in args.side)
    if len(sides) != 2 or args.pairs < 1:
        parser.error("give exactly two sides and at least one pair")
    sys.dont_write_bytecode = True  # nothing is written into the trees
    names = list(sides)
    bodies, modules = {}, {}
    for name in names:
        tree = Path(sides[name]).resolve()
        workloads, modules[name] = load_side(name, tree)
        workload = workloads.WORKLOADS.get(args.workload)
        if workload is None:
            parser.error(f"{name} has no workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
        bodies[name] = workload.setup(tree)
        bodies[name](workload.input_seed(args.seed, args.pairs))  # warm-up, a seed no pair uses
    times = {name: [] for name in names}
    differing = 0
    for k in range(args.pairs):
        seed = workload.input_seed(args.seed, k)
        results = {}
        for name in names if k % 2 == 0 else names[::-1]:
            use_modules(modules[name])
            start = time.perf_counter()
            results[name] = bodies[name](seed)
            times[name].append(time.perf_counter() - start)
            for problem in results[name].problems:
                print(f"{name}, pair {k}: {problem}")
        differing += results[names[0]].fingerprint != results[names[1]].fingerprint
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
