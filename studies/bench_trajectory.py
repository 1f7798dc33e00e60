"""The parent -> change medians of every bench record, in commit order.

    python3 studies/bench_trajectory.py [--metric wall_s] [--workload W]

Reads every ``BENCH_*.json`` at the root of the checkout, in the three
layouts the records use:

- ``workloads/<w>/metrics/<m>/<side>/median``, which most records use;
- ``summary/<w>/metrics/<m>/<side>/median``, as ``studies/bench_pairs.py``
  writes it;
- ``sets``, a list of such summaries, one per seed range.

Records are ordered by the commit that added them (``git log``); a record
not committed yet comes last.  For each workload and end-to-end metric of
``BENCHMARK.json`` it prints one line per record that measured it: the
record, its commit, the medians of the sides ``parent`` and ``change``,
their ratio, and the median of the A/A side ``copy`` where there is one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE, CHANGE, COPY = "parent", "change", "copy"


def commit_order(root: Path) -> list[tuple[str, str]]:
    """(file name, commit that added it) of every bench record, oldest
    first; records not committed yet, or all of them outside a git
    checkout, come last, by name, under "uncommitted"."""
    log = subprocess.run(
        ["git", "log", "--reverse", "--diff-filter=A", "--format=@%h", "--name-only",
         "--", "BENCH_*.json"],
        cwd=root, capture_output=True, text=True).stdout
    order = {}
    commit = None
    for line in log.splitlines():
        if line.startswith("@"):
            commit = line[1:]
        elif line.strip():
            order.setdefault(line.strip(), commit)
    for path in sorted(root.glob("BENCH_*.json")):
        order.setdefault(path.name, "uncommitted")
    return [(name, commit) for name, commit in order.items() if (root / name).is_file()]


def medians(workloads: dict) -> dict:
    """workload -> metric -> side -> median of one summary."""
    return {
        workload: {
            metric: {side: stats["median"] for side, stats in sides.items()
                     if isinstance(stats, dict) and "median" in stats}
            for metric, sides in entry.get("metrics", {}).items()
        }
        for workload, entry in workloads.items() if isinstance(entry, dict)
    }


def summaries(record: dict) -> list[tuple[str, dict]]:
    """(label, medians) of each summary a record holds, in any layout."""
    if "sets" in record:
        return [(f"seeds {s.get('seeds', '?')}", medians(s["summary"])) for s in record["sets"]]
    for key in ("summary", "workloads"):
        if key in record:
            return [("", medians(record[key]))]
    return []


def trajectory(root: Path, metrics: list[str], workloads: list[str] | None) -> list[str]:
    records = []
    for name, commit in commit_order(root):
        for label, found in summaries(json.loads((root / name).read_text())):
            records.append((f"{name} {label}".strip(), commit, found))
    seen = list(dict.fromkeys(w for _, _, found in records for w in found))
    lines = []
    for workload in workloads or seen:
        for metric in metrics:
            rows = []
            for source, commit, found in records:
                sides = found.get(workload, {}).get(metric, {})
                if BASE not in sides or CHANGE not in sides:
                    continue
                base, change = sides[BASE], sides[CHANGE]
                row = (f"  {source:<42} {commit:<11} {base:12.6g} -> {change:12.6g}"
                       f"  x{change / base:.3f}")
                if COPY in sides:
                    row += f"  copy {sides[COPY]:.6g}"
                rows.append(row)
            if rows:
                lines += [f"{workload} {metric}", *rows]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metric", action="append",
                        help="an end-to-end metric (default: all of BENCHMARK.json)")
    parser.add_argument("--workload", action="append", help="a workload (default: all)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = args.metric or [m["name"] for m in spec["end_to_end"]]
    print("\n".join(trajectory(ROOT, metrics, args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
