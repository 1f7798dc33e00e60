"""Benchmark of the cbo package: one workload per invocation.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the untraced workload body and reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and traced
bodies on the same inputs and reports the per-layer metrics.  Both check
the outputs.  End-to-end times are scaled to a reference host speed by
calibration units run between the bodies; per-layer times are as measured.
Standard output holds a host record, one line per metric and, last, one
JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when every check passed, 1 when one failed.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: set before numpy is imported, inherited by
# the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the library's own seed override would replace the generated inputs
os.environ.pop("CBO_SEED", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402  (imports cbo only when hooks are installed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_BODIES = 5  # untraced bodies per run, and traced/untraced pairs, at least
SETUP_PROBES = 9  # fresh-process set-ups per untraced run, spread over the run
# The host's speed drifts by up to 1.8x over seconds to minutes.  After each
# body the run spends CALIB_SHARE of that body's time on calibration units,
# and scales its times to a host on which one unit takes CALIB_REF_S.
CALIB_SHARE = 0.05
CALIB_REF_S = 2.5e-3
_CALIB_X = np.linspace(0.0, 1.0, 400).reshape(100, 4)
_CALIB_W = np.ones(4)
_CALIB_ENSEMBLE = np.linspace(-1.0, 1.0, 2000).reshape(1000, 2)
_CALIB_RNG = np.random.default_rng(0)
CONFIG_LOADS = 5

# per-layer metric -> (span group, statistic), see spans.GroupStats
LAYER_SPANS = {
    "rng.calls": ("rng", "calls"),
    "rng.self_s": ("rng", "self_s"),
    "objectives.value_rows": ("objectives.values", "rows"),
    "objectives.value_s": ("objectives.values", "incl_s"),
    "objectives.grad_rows": ("objectives.gradients", "rows"),
    "objectives.grad_s": ("objectives.gradients", "incl_s"),
    "dynamics.consensus.calls": ("dynamics.consensus", "calls"),
    "dynamics.consensus.s": ("dynamics.consensus", "incl_s"),
    "dynamics.memory.s": ("dynamics.memory", "incl_s"),
    "dynamics.step.calls": ("dynamics.step", "calls"),
    "dynamics.step.self_s": ("dynamics.step", "self_s"),
    "dynamics.run.self_s": ("dynamics.run", "self_s"),
    "dynamics.init.s": ("dynamics.init", "incl_s"),
    "harness.instance_s": ("harness.instance", "incl_s"),
    "harness.score_s": ("harness.score", "incl_s"),
    "harness.cell_self_s": ("harness.cell", "self_s"),
    "theory.s": ("theory", "incl_s"),
}
# every per-layer metric read from a span group -> that group
METRIC_GROUPS = {
    **{name: group for name, (group, _) in LAYER_SPANS.items()},
    "dynamics.step.us_per_step": "dynamics.step",
    "config.load_s": "config.load",
}


def timed(body, seed):
    cpu = time.process_time()
    start = time.perf_counter()
    result = body(seed)
    wall = time.perf_counter() - start
    return result, wall, time.process_time() - cpu


def setup_seconds(workload: str) -> float:
    """Time from starting a fresh interpreter to a built workload."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1]) - start


def measuring(start, seconds, durations):
    """Whether to run another body: at least MIN_BODIES, then as long as one
    more of median length still ends within ``seconds`` of ``start``."""
    if len(durations) < MIN_BODIES:
        return True
    return time.perf_counter() - start + median(durations) <= seconds


def calibration_unit() -> float:
    """Wall time of one fixed machine-speed probe that does not touch cbo:
    small-array numpy calls, a Python loop and a few steps of a plain
    consensus update on 1000 particles, the mix of dispatch, arithmetic and
    noise draws of the workloads' steps."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(100):
        acc += float((np.exp(-_CALIB_X * (i % 7)) @ _CALIB_W).sum())
    acc += sum(i * i for i in range(5_000))
    x = _CALIB_ENSEMBLE.copy()
    for _ in range(20):
        f = (x * x).sum(axis=1)
        w = np.exp(-100.0 * (f - f.min()))
        x += 0.01 * (w @ x / w.sum() - x) + 0.1 * _CALIB_RNG.standard_normal(x.shape)
    return time.perf_counter() - start


def calibrate(seconds: float, samples: list) -> None:
    """Append calibration unit times to ``samples`` until they add up to
    ``seconds`` (at least one unit)."""
    spent = 0.0
    while True:
        samples.append(calibration_unit())
        spent += samples[-1]
        if spent >= seconds:
            return


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    """Digest of every file under src/, so a checkout without git history is
    still identified."""
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host_record(args, calib_s: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": blas_threads(),
        "host.calib_s": calib_s,
    }


def run_untraced(workload, body, seed, seconds):
    """Bodies on fresh inputs for ``seconds``, with the set-up probes and the
    calibration units spread between them, so that every median samples the
    whole run.  Returns host-scaled metrics, the raw ones, the mean
    calibration unit time and the body results."""
    results, walls, rates, durations, setups, calib = [], [], [], [], [], []
    start = time.perf_counter()
    while measuring(start, seconds, durations):
        began = time.perf_counter()
        if len(setups) < SETUP_PROBES * (began - start) / seconds + 1:
            setups.append(setup_seconds(workload.name))
        result, wall, _ = timed(body, workload.input_seed(seed, len(results)))
        steps = result.particle_steps
        if steps is None:
            print("benchmark: cbo.harness.run is gone; particle steps taken from the config",
                  file=sys.stderr)
            steps = result.expected_particle_steps
        results.append(result)
        walls.append(wall)
        rates.append(steps / wall)
        calibrate(CALIB_SHARE * wall, calib)
        durations.append(time.perf_counter() - began)
    calib_s = sum(calib) / len(calib)
    raw = {
        "wall_s": median(walls),
        "particle_steps_per_s": median(rates),
        "setup_s": median(setups),
    }
    scale = CALIB_REF_S / calib_s
    metrics = {
        "wall_s": raw["wall_s"] * scale,
        "particle_steps_per_s": raw["particle_steps_per_s"] / scale,
        "setup_s": raw["setup_s"] * scale,
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, raw, calib_s, results


def layer_metrics(tracer, result) -> dict:
    out = {name: getattr(tracer.stats[group], stat)
           for name, (group, stat) in LAYER_SPANS.items()}
    step = tracer.stats["dynamics.step"]
    out["dynamics.step.us_per_step"] = step.incl_s / step.calls * 1e6 if step.calls else 0.0
    out["harness.trials"] = result.trials
    out["harness.failed_trials"] = result.failed
    return out


def run_traced(workload, body, seed, seconds):
    loads = []
    for _ in range(CONFIG_LOADS):
        tracer = spans.Tracer()
        with tracer.installed():
            workload.setup(ROOT)
        loads.append(tracer.stats["config.load"].incl_s)

    results, per_body = [], []
    plain_walls, traced_walls, cpus, durations, calib = [], [], [], [], []
    start = time.perf_counter()
    while measuring(start, seconds, durations):
        began = time.perf_counter()
        input_seed = workload.input_seed(seed, len(per_body))
        plain, wall, cpu = timed(body, input_seed)
        tracer = spans.Tracer()
        with tracer.installed():
            traced, traced_wall, _ = timed(body, input_seed)
        if traced.fingerprint != plain.fingerprint:
            traced.problems.append(
                f"traced outputs differ from untraced ones on input seed {input_seed}")
        results += [plain, traced]
        plain_walls.append(wall)
        traced_walls.append(traced_wall)
        cpus.append(cpu)
        per_body.append(layer_metrics(tracer, traced))
        calibrate(CALIB_SHARE * (wall + traced_wall), calib)
        durations.append(time.perf_counter() - began)

    metrics = {name: median(b[name] for b in per_body) for name in per_body[0]}
    metrics["config.load_s"] = median(loads)
    metrics["process.cpu_s"] = median(cpus)
    metrics["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    metrics["host.calib_s"] = sum(calib) / len(calib)
    # metrics whose hooks no longer have a target are reported absent
    absent = {name: "hook target gone: " + ", ".join(spans.HOOKS[group])
              for name, group in METRIC_GROUPS.items() if tracer.absent(group)}
    for name in absent:
        metrics.pop(name)
    return metrics, results, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "cbo" / "__init__.py").is_file():
        print(f"benchmark: no cbo sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    body = workload.setup(ROOT)

    raw = {}
    if args.trace == 0:
        metrics, raw, calib_s, results = run_untraced(workload, body, args.seed, args.seconds)
        absent = {}
        distinct = results
        declared = spec["end_to_end"]
    else:
        metrics, results, absent = run_traced(workload, body, args.seed, args.seconds)
        calib_s = metrics["host.calib_s"]
        distinct = results[::2]  # untraced and traced bodies alternate on the same inputs
        declared = spec["per_layer"]

    problems = [p for r in results for p in r.problems]
    problems += workload.pooled_problems(distinct)

    units = {m["name"]: m["unit"] for m in declared}
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    for name, note in absent.items():
        print(f"benchmark: {name} absent: {note}", file=sys.stderr)
    for problem in dict.fromkeys(problems):
        print(f"benchmark: check failed: {problem}", file=sys.stderr)

    print(json.dumps({"host": host_record(args, calib_s)}))
    trials = sum(r.trials for r in distinct)
    print(f"outputs: {len(distinct)} bodies, success fraction "
          f"{sum(r.successes for r in distinct) / trials:.4f} over {trials} trials")
    for name in units:
        if name in metrics:
            value = metrics[name]
            line = f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}"
            if name in raw:
                line += f" (as measured: {raw[name]:.6g})"
            print(line)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.trials for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
