"""tools/bench_trajectory.py: one row per BENCH_<n>.json, in ascending n."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)


def _bench(seed: int, wall: float, kernel_ms: list[float] | None = None) -> dict:
    metrics = {"wall_s": {"unit": "s", "value": wall}, "setup_s": {"unit": "s", "value": 0.5}}
    run = {"result": {"correct": True, "metrics": metrics}}
    if kernel_ms is not None:
        run["record"] = {"kernel_ms": {"quartiles": kernel_ms, "reference": 9.0, "runs": 40}}
    return {"seed": seed, "workloads": {"query-mix": {"end_to_end": run}}}


def test_files_print_in_numeric_order(tmp_path, capsys):
    for n, wall in ((10, 0.2), (9, 0.3), (100, 0.1)):
        (tmp_path / f"BENCH_{n}.json").write_text(json.dumps(_bench(11, wall)))
    (tmp_path / "BENCH_x.json").write_text("not a record")
    assert bench_trajectory.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "query-mix" and lines[1].split()[:4] == ["BENCH", "seed", "wall_s", "setup_s"]
    assert [line.split()[:3] for line in lines[2:5]] == [
        ["9", "11", "0.3"], ["10", "11", "0.2"], ["100", "11", "0.1"]]


def test_each_row_prints_its_speed_kernel_median(tmp_path, capsys):
    """The kernel_ms column is the middle quartile of the run's speed kernel,
    or - for a file recorded without one."""
    (tmp_path / "BENCH_1.json").write_text(json.dumps(_bench(11, 0.2, [3.5, 3.61, 3.9])))
    (tmp_path / "BENCH_2.json").write_text(json.dumps(_bench(11, 0.2)))
    assert bench_trajectory.main([str(tmp_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()[1:4]
    assert header.split()[-2:] == ["kernel_ms", "correct"]
    assert [row.split()[-2:] for row in rows] == [["3.61", "True"], ["-", "True"]]


def test_the_committed_files_print():
    runs = bench_trajectory.load(ROOT)
    assert runs and all(bench["seed"] == 11 for _, bench in runs)
    text = bench_trajectory.tables(runs)
    assert "query-mix" in text
    # the speed-kernel medians of finite-mub's committed runs, in ms
    mub = text.split("finite-mub\n")[1].split("\n\n")[0].splitlines()[1:]
    kernel = {row.split()[0]: row.split()[-2] for row in mub}
    assert {n: kernel[n] for n in ("15", "20", "22", "25", "29")} == {
        "15": "7.726", "20": "8.452", "22": "8.982", "25": "3.613", "29": "5.902"}
