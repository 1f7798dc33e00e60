"""Interleaved benchmark runs of two or more copies of this repository.

    python3 studies/bench_pairs.py --side parent=../parent --side change=. \
        --workload cs-l12-cell --seeds 1001-1010 --seconds 40 --out pairs.json

For each seed and workload, runs ``benchmark/run.py --workload W --seed S
--seconds T --trace 0`` once in each side's directory, rotating which side
goes first from one seed to the next.  Every run's exit code, stderr and
final JSON object are kept, so a run that ends without output can be looked
at afterwards.  With ``--runpy`` each run is started through
``runpy.run_path`` from ``python3 -c`` instead of as a script, which lays out
the interpreter's heap differently.

``--out`` receives the runs and, per workload and end-to-end metric of
BENCHMARK.json, each side's quartiles and, against every side listed
before it, the median ratio, the number of seeds it won and that side's
quartile spread.  With ``--side parent=… --side copy=… --side change=…``,
where ``copy`` is a ``git archive`` of the parent, the change reads
against the parent and against the copy, and the copy against the parent:
the offset two identical trees show.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

RUNPY = ("import runpy, sys; sys.path.insert(0, 'benchmark'); "
         "sys.argv = ['benchmark/run.py'] + sys.argv[1:]; "
         "runpy.run_path('benchmark/run.py', run_name='__main__')")


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(directory: Path, workload: str, seed: int, seconds: float, runpy: bool) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    command = [sys.executable, "-c", RUNPY, *args] if runpy else [
        sys.executable, "benchmark/run.py", *args]
    proc = subprocess.run(command, cwd=directory, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit_code": proc.returncode, "stderr": proc.stderr, "result": result}


def summary(runs: list[dict], sides: list[str], metrics: list[dict]) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {"all_correct": all(r["result"] and r["result"]["correct"] for r in mine),
                 "metrics": {}}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: {r["seed"]: r["result"]["metrics"][name]["value"]
                             for r in mine if r["side"] == side and r["result"]}
                      for side in sides}
            stats = {}
            for side in sides:
                vals = sorted(values[side].values())
                if len(vals) >= 2:
                    q1, med, q3 = quantiles(vals, n=4, method="inclusive")
                    stats[side] = {"q1": q1, "median": med, "q3": q3, "runs": vals}
            for i, base in enumerate(sides):
                for side in sides[i + 1:]:
                    if side not in stats or base not in stats:
                        continue
                    common = values[base].keys() & values[side].keys()
                    wins = sum((values[side][s] < values[base][s]) == lower for s in common
                               if values[side][s] != values[base][s])
                    stats[side]["over_" + base] = stats[side]["median"] / stats[base]["median"]
                    stats[side]["wins_vs_" + base] = f"{wins}/{len(common)}"
                    stats[side][base + "_iqr"] = stats[base]["q3"] - stats[base]["q1"]
            entry["metrics"][name] = stats
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, metavar="FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--runpy", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = dict(side.split("=", 1) for side in args.side)
    names = list(sides)
    spec = json.loads((Path(sides[names[0]]) / "BENCHMARK.json").read_text())
    runs = []
    for i, seed in enumerate(args.seeds):
        order = names[i % len(names):] + names[:i % len(names)]
        for workload in args.workload:
            for side in order:
                run = one_run(Path(sides[side]), workload, seed, args.seconds, args.runpy)
                runs.append({"side": side, "workload": workload, "seed": seed, **run})
                value = run["result"]["metrics"]["wall_s"]["value"] if run["result"] else None
                print(f"{workload} seed {seed} {side}: exit {run['exit_code']}, wall_s {value}",
                      file=sys.stderr, flush=True)
                args.out.write_text(json.dumps({"runs": runs}, indent=1))
    args.out.write_text(json.dumps({
        "command": "python3 benchmark/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0" + (" (through runpy)" if args.runpy else ""),
        "sides": sides,
        "summary": summary(runs, names, spec["end_to_end"]),
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
