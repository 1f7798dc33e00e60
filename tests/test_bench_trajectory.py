import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "studies" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _metric(parent, change, copy=None):
    sides = {"parent": {"q1": 0.0, "median": parent}, "change": {"median": change}}
    if copy is not None:
        sides["copy"] = {"median": copy}
    return sides


# one record in each layout the committed BENCH_*.json files use
LAYOUTS = {
    "BENCH_a.json": {"workloads": {"cell": {"pairs": 10, "metrics": {
        "wall_s": {"better": "lower", **_metric(2.0, 1.0), "change_wins": "10/10"}}}}},
    "BENCH_b.json": {"summary": {"cell": {"all_correct": True, "metrics": {
        "wall_s": _metric(1.0, 0.5, copy=1.01)}}}},
    "BENCH_c.json": {"sets": [
        {"seeds": "1-6", "summary": {"cell": {"metrics": {"wall_s": _metric(0.5, 0.25)}}}},
        {"seeds": "7-9", "summary": {"other": {"metrics": {"wall_s": _metric(3.0, 3.0)}}}},
    ]},
}


def test_reads_every_layout_outside_a_git_checkout(tmp_path):
    for name, record in LAYOUTS.items():
        (tmp_path / name).write_text(json.dumps(record))
    lines = bench_trajectory.trajectory(tmp_path, ["wall_s", "setup_s"], None)
    assert [line.split()[:2] for line in lines] == [
        ["cell", "wall_s"], ["BENCH_a.json", "uncommitted"], ["BENCH_b.json", "uncommitted"],
        ["BENCH_c.json", "seeds"], ["other", "wall_s"], ["BENCH_c.json", "seeds"]]
    assert lines[1].endswith("x0.500")
    assert lines[2].endswith("x0.500  copy 1.01")
    assert "seeds 1-6" in lines[3] and "seeds 7-9" in lines[5]


def test_every_committed_record_is_read():
    records = [name for name, _ in bench_trajectory.commit_order(ROOT)]
    assert sorted(records) == sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    for name in records:
        found = bench_trajectory.summaries(json.loads((ROOT / name).read_text()))
        assert any("parent" in sides and "change" in sides
                   for _, workloads in found for metrics in workloads.values()
                   for sides in metrics.values()), name
