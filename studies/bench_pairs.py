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

When the first side is a git checkout and no side is named ``copy``, a
``git archive HEAD`` of it is extracted next to it, in the same parent
directory, and runs as side ``copy`` right after the first side; it is
removed at the end.  A first side with uncommitted or untracked changes
gets no copy, and a note says so, since the archive would miss them.  Two identical trees can read several percent apart, so
a claim is read against the copy as well as against the first side.  The
rotation covers every side, the copy included.

``--out`` receives the runs and, per workload and end-to-end metric of
BENCHMARK.json, each side's quartiles and, against every side listed
before it, the median ratio, the number of seeds it won and that side's
quartile spread: with ``--side parent=… --side change=…`` the change reads
against the parent and against the copy, and the copy against the parent.
One warning line names the workloads on which the copy's ``wall_s`` median
is more than 3 % off the first side's.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

COPY = "copy"
COPY_WARN = 0.03  # the copy's wall_s median may be this far off the first side's
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


def aa_copy(checkout: Path) -> Path | None:
    """A ``git archive HEAD`` of ``checkout``, extracted into a new directory
    next to it; None, with a note, when ``checkout`` has uncommitted or
    untracked changes, which the archive would leave out."""
    status = subprocess.run(["git", "status", "--porcelain"], cwd=checkout,
                            capture_output=True, text=True, check=True).stdout
    if status:
        print(f"note: {checkout} differs from its HEAD; no A/A copy is run", file=sys.stderr)
        return None
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=checkout, capture_output=True,
                             check=True).stdout
    target = Path(tempfile.mkdtemp(prefix=checkout.name + "-copy-", dir=checkout.parent))
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


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
    first = next(iter(sides))
    copy = None
    if COPY not in sides and (Path(sides[first]) / ".git").exists():
        copy = aa_copy(Path(sides[first]).resolve())
    if copy is not None:
        sides = {first: sides[first], COPY: str(copy),
                 **{k: v for k, v in sides.items() if k != first}}
    try:
        return measure(args, sides)
    finally:
        if copy is not None:
            shutil.rmtree(copy)


def measure(args, sides: dict) -> int:
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
    result = summary(runs, names, spec["end_to_end"])
    args.out.write_text(json.dumps({
        "command": "python3 benchmark/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0" + (" (through runpy)" if args.runpy else ""),
        "sides": sides,
        "summary": result,
        "runs": runs,
    }, indent=1))
    off = [f"{w} {r:.3f}" for w, entry in result.items()
           if (r := entry["metrics"]["wall_s"].get(COPY, {}).get("over_" + names[0]))
           and abs(r - 1) > COPY_WARN]
    if off:
        print(f"warning: the A/A copy's wall_s median is more than {COPY_WARN:.0%} off "
              f"{names[0]}'s: " + ", ".join(off), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
