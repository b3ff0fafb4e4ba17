"""tools/bench_trajectory.py: one row per BENCH_<n>.json, in ascending n."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)


def _bench(seed: int, wall: float) -> dict:
    metrics = {"wall_s": {"unit": "s", "value": wall}, "setup_s": {"unit": "s", "value": 0.5}}
    result = {"correct": True, "metrics": metrics}
    return {"seed": seed, "workloads": {"query-mix": {"end_to_end": {"result": result}}}}


def test_files_print_in_numeric_order(tmp_path, capsys):
    for n, wall in ((10, 0.2), (9, 0.3), (100, 0.1)):
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps(_bench(11, wall)))
    (tmp_path / "BENCH_x.json").write_text("not a record")
    assert bench_trajectory.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "query-mix" and lines[1].split()[:4] == ["BENCH", "seed", "wall_s", "setup_s"]
    assert [line.split()[:3] for line in lines[2:5]] == [
        ["9", "11", "0.3"], ["10", "11", "0.2"], ["100", "11", "0.1"]]


def test_the_committed_files_print():
    runs = bench_trajectory.load(ROOT)
    assert runs and all(bench["seed"] == 11 for _, bench in runs)
    assert "query-mix" in bench_trajectory.tables(runs)
