"""Print each workload's end-to-end metrics from every BENCH_<n>.json, by n.

    python3 tools/bench_trajectory.py [DIR]

DIR (default: the repository root) holds the files written by
`perfbench/run.py --workload all --seed 11 --out BENCH_<n>.json`, n being the
number of the change that recorded it.  One table per workload, one row per
file (with its seed), one column per end-to-end metric, then the median of
the run's speed kernel (`kernel_ms`, its `end_to_end.record.kernel_ms`
quartiles[1]; `-` for a file with no record), which shows a change of host
next to the times it scales.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path


def load(directory: Path) -> list[tuple[int, dict]]:
    """(n, parsed file) for each BENCH_<n>.json, in ascending n."""
    runs = []
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            runs.append((int(match.group(1)), json.loads(path.read_text())))
    return sorted(runs, key=lambda run: run[0])


def tables(runs: list[tuple[int, dict]]) -> str:
    workloads = sorted({w for _, bench in runs for w in bench["workloads"]})
    out = []
    for workload in workloads:
        rows = [(n, bench["seed"], bench["workloads"][workload]["end_to_end"])
                for n, bench in runs if workload in bench["workloads"]]
        names = list(dict.fromkeys(m for *_, run in rows for m in run["result"]["metrics"]))
        out.append(workload)
        out.append("  ".join(["BENCH", "seed", *(f"{m:>12}" for m in [*names, "kernel_ms"]),
                              "correct"]))
        for n, seed, run in rows:
            metrics = run["result"]["metrics"]
            cells = [f"{metrics[m]['value']:12.4g}" if m in metrics else f"{'-':>12}"
                     for m in names]
            kernel = run.get("record", {}).get("kernel_ms")
            cells.append(f"{kernel['quartiles'][1]:12.4g}" if kernel else f"{'-':>12}")
            out.append("  ".join([f"{n:>5}", f"{seed:>4}", *cells, str(run["result"]["correct"])]))
        out.append("")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    runs = load(directory)
    if not runs:
        print(f"no BENCH_<n>.json in {directory}", file=sys.stderr)
        return 1
    print(tables(runs), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
