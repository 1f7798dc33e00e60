"""Every CLI command on every bundled config, kept as files, and a byte
comparison of two such collections.

    python3 studies/cli_identity.py collect --repo ../parent parent-out
    python3 studies/cli_identity.py collect --repo . change-out
    python3 studies/cli_identity.py compare parent-out change-out

``collect`` runs ``cbo run``, ``decay``, ``check-bounds`` and ``gradcheck``
on each ``configs/*.yaml`` of the checkout ``--repo``, and both sweeps in
CSV and JSON on a reduced copy of each (``trials: 2``, ``x_grid: [0, 1]``,
``y_grid: [10]``, so a collection takes minutes).  Two more cases run a
config whose trajectory diverges through ``run`` and through ``decay``.
For each case it keeps the ``--out`` file (absent when the command wrote
none), the stderr log and the exit code, as ``<case>.out``, ``.err`` and
``.code``.  Commands run one at a time, with that checkout's ``src`` first
on ``PYTHONPATH`` and ``CBO_SEED`` unset.

``compare`` reports every file present on one side only or differing in
content, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import yaml

COMMANDS = ("run", "decay", "check-bounds", "gradcheck")
SWEEPS = ("sweep-rastrigin", "sweep-cs")
REDUCED = {"experiment": {"trials": 2}, "sweep": {"x_grid": [0, 1], "y_grid": [10]}}
# a step far above the stability limit of the explicit scheme; for decay,
# kappa * theta = 1 keeps chi1 positive, so the run starts and then overflows
DIVERGING = {
    "diverging-run": ("run", {
        "objective": {"kind": "sphere", "dimension": 2},
        "params": {"lambda1": 1.0, "lambda3": 10.0, "dt": 5.0, "kappa": 0.2},
        "experiment": {"n_particles": 5, "horizon_T": 5000.0, "seed": 0},
    }),
    "diverging-decay": ("decay", {
        "objective": {"kind": "sphere", "dimension": 2},
        "params": {"lambda1": 1.0, "dt": 5.0, "kappa": 0.2, "theta": 5.0},
        "experiment": {"n_particles": 5, "horizon_T": 5000.0, "seed": 0},
    }),
}


def _merged(raw: dict, extra: dict) -> dict:
    out = {section: dict(keys or {}) for section, keys in raw.items()}
    for section, keys in extra.items():
        out.setdefault(section, {}).update(keys)
    return out


def _run_case(repo: Path, out_dir: Path, name: str, args: list[str]) -> None:
    env = {k: v for k, v in os.environ.items() if k != "CBO_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = out_dir / f"{name}.out"
    proc = subprocess.run([sys.executable, "-m", "cbo.cli", *args, "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=repo)
    (out_dir / f"{name}.err").write_text(proc.stderr)
    (out_dir / f"{name}.code").write_text(f"{proc.returncode}\n")
    print(f"{name}: exit {proc.returncode}", flush=True)


def collect(repo: Path, out_dir: Path) -> None:
    repo = repo.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = out_dir / "inputs"  # reduced and diverging configs, not compared
    inputs.mkdir(exist_ok=True)
    for config in sorted((repo / "configs").glob("*.yaml")):
        for command in COMMANDS:
            _run_case(repo, out_dir, f"{command}.{config.stem}",
                      [command, "--config", str(config)])
        reduced = inputs / config.name
        reduced.write_text(yaml.safe_dump(_merged(yaml.safe_load(config.read_text()), REDUCED)))
        for command in SWEEPS:
            for fmt in ("csv", "json"):
                _run_case(repo, out_dir, f"{command}-{fmt}.{config.stem}",
                          [command, "--config", str(reduced), "--format", fmt])
    for name, (command, payload) in DIVERGING.items():
        config = inputs / f"{name}.yaml"
        config.write_text(yaml.safe_dump(payload))
        _run_case(repo, out_dir, name, [command, "--config", str(config)])


def compare(a: Path, b: Path) -> int:
    files = {side: {p.name: p for p in side.iterdir() if p.is_file()} for side in (a, b)}
    names = sorted(files[a].keys() | files[b].keys())
    bad = 0
    for name in names:
        left, right = files[a].get(name), files[b].get(name)
        if left is None or right is None:
            print(f"only in {a if right is None else b}: {name}")
            bad += 1
        elif left.read_bytes() != right.read_bytes():
            print(f"differs: {name}")
            bad += 1
    print(f"{len(names)} files, {bad} missing or different")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--repo", type=Path, default=Path("."), help="checkout to run")
    c.add_argument("out_dir", type=Path)
    m = sub.add_parser("compare")
    m.add_argument("a", type=Path)
    m.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.action == "collect":
        collect(args.repo, args.out_dir)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
