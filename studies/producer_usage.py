"""What a run's child processes cost: their peak RSS and CPU time.

    python3 studies/producer_usage.py --workload sphere-decay --bodies 5

A run forks one child on a second CPU: the noise producer of a run with
noise (``rastrigin-cell``, ``sphere-decay``), or the child that steps half
of a noise-free batch (``cs-l12-cell``).  This runs ``--bodies`` bodies of a
benchmark workload in this process, on the benchmark's inputs for
``--seed``, and prints one JSON object with the wall time of the bodies and
``getrusage`` of this process (``self``) and of its children reaped while
the bodies ran (``children``): peak RSS in MiB (for the children, that of
the largest one) and user and system CPU seconds, in total and per body.
The benchmark's own ``peak_rss_mb`` and ``process.cpu_s`` count only its
own process, and it starts other processes (its set-up probes), so it
cannot tell the children's share; here the runs' children are the only
children.
"""

from __future__ import annotations

import os

# as benchmark/run.py: one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CBO_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402  (imports cbo)


def usage(who: int, before: resource.struct_rusage | None = None) -> dict:
    """getrusage(who), CPU times less those of ``before``."""
    ru = resource.getrusage(who)
    user, system = ru.ru_utime, ru.ru_stime
    if before is not None:
        user, system = user - before.ru_utime, system - before.ru_stime
    # Linux reports ru_maxrss in KiB
    return {"peak_rss_mb": ru.ru_maxrss / 1024.0, "user_s": user, "sys_s": system}


def per_body(usage: dict, bodies: int) -> dict:
    return {"user_s": usage["user_s"] / bodies, "sys_s": usage["sys_s"] / bodies}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bodies", type=int, default=5)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    body = workload.setup(ROOT)
    # a launcher may have reaped children of its own before exec'ing Python
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    for repeat in range(args.bodies):
        body(workload.input_seed(args.seed, repeat))
    wall = time.perf_counter() - start
    own, children = usage(resource.RUSAGE_SELF), usage(resource.RUSAGE_CHILDREN, before)
    print(json.dumps({
        "workload": args.workload,
        "bodies": args.bodies,
        "wall_s": wall,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "self": own,
        "children": children,
        "per_body": {"wall_s": wall / args.bodies, "children": per_body(children, args.bodies)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
