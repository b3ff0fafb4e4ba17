"""Benchmark of padic-mub: seeded verification jobs, timed closed loop.

    python3 perfbench/run.py --workload finite-mub --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs the workload's job list in-process, each job starting when
the previous one has been consumed, and repeats the list (a pass) while the
time allows.  Job times are rescaled to a reference host speed by a fixed
kernel timed between the jobs (speed.py), and each job's time is its median
over the passes.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced passes with passes that have every layer wrapped
(tracer.py), and reports the per-layer metrics.  ``--workload all`` runs
every workload in both modes, each in its own process, prints every metric
and writes them with the run records to ``--out``.

The last line of stdout is one JSON object: ``correct`` (every report was
byte-identical on every repeat, and under tracing), ``attempted`` (distinct
jobs in the list), ``failed`` (jobs whose exit code or verdict differs from
oracle.py in any pass) and ``metrics``.  The line before it holds the run
record: host, sample counts, kernel times, unscaled latencies, failed ratio
and the first failing jobs.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.bootstrap import (  # noqa: E402
    BLAS_THREAD_VARS, ROOT, MissingProgram, prepare, set_up,
)
from perfbench.workloads import WORKLOADS  # noqa: E402  (stdlib only, no numpy)

if TYPE_CHECKING:
    from perfbench.speed import Clock

SETUP_PROBES = 5  # fresh processes timed per run; setup_s is their median


# ---------------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def host_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '')})",
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def _probe_setups(workload: str, seed: int, clock: Clock) -> list[float]:
    """Fresh-process set-up times, each after a kernel run on the same host."""
    times = []
    for _ in range(SETUP_PROBES):
        clock.sample(force=True)
        t0 = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with one it polls
        # every 50 ms, which would round every sample to that step
        with subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "probe.py"),
                               "--workload", workload, "--seed", str(seed)],
                              stdout=subprocess.DEVNULL) as proc:
            code = proc.wait()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    clock.sample(force=True)
    return times


@dataclass
class Pass:
    wall: float  # raw seconds, kernel runs included
    outcomes: list  # harness.Outcome per job
    starts: list[float]  # perf_counter at each job's start


def _run_pass(jobs: list[dict], clock: Clock) -> Pass:
    """One pass over the job list, with kernel runs between jobs."""
    from perfbench.harness import run_job

    gc.collect()
    outcomes, starts = [], []
    t0 = time.perf_counter()
    for job in jobs:
        clock.sample()
        starts.append(time.perf_counter())
        outcomes.append(run_job(job))
    return Pass(time.perf_counter() - t0, outcomes, starts)


def _job_ms(passes: list[Pass], clock: Clock | None) -> list[float]:
    """Each job's median latency over the passes, in ms; rescaled to the
    reference host speed (speed.py) unless ``clock`` is None."""
    def ms(run: Pass, i: int) -> float:
        scale = clock.factor(run.starts[i]) if clock else 1.0
        return run.outcomes[i].seconds * scale * 1e3

    return [statistics.median(ms(run, i) for run in passes)
            for i in range(len(passes[0].outcomes))]


def _latency(job_ms: list[float]) -> dict:
    deciles = statistics.quantiles(job_ms, n=10, method="inclusive")
    return {"wall_s": sum(job_ms) / 1e3, "job_ms.p50": deciles[4], "job_ms.p90": deciles[8]}


def _skip_ratio(jobs: list[dict], outcomes) -> float:
    skipped = attempted = 0
    for job, out in zip(jobs, outcomes):
        if job["kind"] == "sweep" and job["argv"][1] == "thresholds" and out.code == 0:
            report = json.loads(out.report)
            skipped += report["skipped_over_cap"]
            attempted += report["checks"] + report["skipped_over_cap"]
    return skipped / attempted if attempted else 0.0


def _traced_pass(tracer, jobs: list[dict], clock: Clock):
    """One pass with the tracer installed: the pass and its per-layer figures."""
    from perfbench.tracer import LAYERS

    tracer.install()
    try:
        tracer.reset()
        cache0 = tracer.roots_cache.cache_info() if tracer.roots_cache else None
        run = _run_pass(jobs, clock)
        cache1 = tracer.roots_cache.cache_info() if tracer.roots_cache else None
    finally:
        tracer.uninstall()
    fig = {}
    for i, layer in enumerate(LAYERS):
        fig[f"{layer}.calls"] = tracer.calls[i]
        fig[f"{layer}.self_s"] = tracer.self_s[i]
        fig[f"{layer}.errors"] = tracer.errors[i]
    fig.update(tracer.counts)
    fig["cli.report_bytes"] = sum(o.report_bytes for o in run.outcomes)
    fig["sweeps.skip_ratio"] = _skip_ratio(jobs, run.outcomes)
    fig["roots_cache"] = (
        (cache1.hits - cache0.hits, cache1.misses - cache0.misses) if cache0 else (0, 0)
    )
    return run, fig


def _measure(jobs: list[dict], seconds: float, trace: bool, clock: Clock):
    """Passes until the next one would end after ``seconds``.

    Untraced, every pass is plain.  Traced, plain and traced passes
    alternate, at least one of each.  Returns the plain passes, the traced
    passes, the per-layer figures of each traced pass, and the tracer.
    """
    from perfbench.tracer import Tracer

    tracer = Tracer() if trace else None
    plain, traced, figures = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is None or len(plain) <= len(traced):
            plain.append(_run_pass(jobs, clock))
            last = plain[-1].wall
        else:
            run, fig = _traced_pass(tracer, jobs, clock)
            traced.append(run)
            figures.append(fig)
            last = run.wall
        done = tracer is None or traced
        if done and time.perf_counter() - start + last > seconds:
            clock.sample(force=True)  # so the last jobs have kernel runs on both sides
            return plain, traced, figures, tracer


def _layer_metrics(plain, traced, figures, clock: Clock) -> dict:
    from perfbench.tracer import LAYERS

    cache = [f.pop("roots_cache") for f in figures]
    hits, misses = sum(h for h, _ in cache), sum(m for _, m in cache)
    values = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    for layer in LAYERS:
        values[f"{layer}.self_share"] = values[f"{layer}.self_s"] / total if total else 0.0
    values["gauss.roots_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace.overhead_s"] = (sum(_job_ms(traced, clock)) - sum(_job_ms(plain, clock))) / 1e3
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result object, run record) of one run."""
    from perfbench import metrics as spec, speed

    clock = speed.Clock()
    setup_samples = [] if trace else _probe_setups(workload, seed, clock)
    jobs = set_up(workload, seed)
    plain, traced, figures, tracer = _measure(jobs, seconds, trace, clock)
    passes = plain + traced
    reference = [o.report for o in passes[0].outcomes]
    identical = all([o.report for o in run.outcomes] == reference for run in passes)
    # a job repeated in every pass is one operation: it fails if any repeat
    # disagrees with the oracle, so attempted and failed depend on the seed only
    failing = []
    for i, job in enumerate(jobs):
        wrong = [run.outcomes[i] for run in passes if not run.outcomes[i].matches(job["expect"])]
        if wrong:
            failing.append((job, wrong[0]))
    if trace:
        values, names = _layer_metrics(plain, traced, figures, clock), spec.PER_LAYER
    else:
        setup_scale = speed.REFERENCE_S / statistics.median(clock.took[:SETUP_PROBES + 1])
        values = {
            "setup_s": statistics.median(setup_samples) * setup_scale,
            **_latency(_job_ms(plain, clock)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = spec.END_TO_END
    result = {
        "correct": identical,
        "attempted": len(jobs),
        "failed": len(failing),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
    first_failures = {}
    for job, o in failing:
        key = " ".join(job.get("argv") or [job["kind"], json.dumps(job["args"])])
        first_failures.setdefault(
            key, {"expect": job["expect"], "got": o.code, "verdict": o.verdict})
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "latency_samples": len(jobs) * len(passes),
        "failed_ratio": len(failing) / len(jobs),
        "failing_jobs": dict(list(first_failures.items())[:10]),
        "reports_identical": identical,
        "setup_samples_s": setup_samples,
        "pass_walls_s": [run.wall for run in passes],
        "kernel_ms": {"runs": len(clock.took), "reference": speed.REFERENCE_S * 1e3,
                      "quartiles": statistics.quantiles([t * 1e3 for t in clock.took], n=4)},
        "unscaled": _latency(_job_ms(plain, None)),
        "host": host_info(),
    }
    if trace:
        record["tracer"] = {"wrapped": len(tracer.wrapped), "unwrapped": tracer.unwrapped}
        record["self_share"] = {k: v for k, v in values.items() if k.endswith(".self_share")}
    return result, record


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def _table(title: str, metrics: dict) -> str:
    lines = [title]
    for name, m in metrics.items():
        lines.append(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")
    return "\n".join(lines)


def run_all(seed: int, seconds: float, out: Path) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    saved = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"error: {workload} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            lines = proc.stdout.strip().splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
            print(_table(f"{workload} ({'per-layer' if trace else 'end-to-end'}), "
                         f"failed {result['failed']}/{result['attempted']}", result["metrics"]))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
            saved["workloads"].setdefault(workload, {})["per_layer" if trace else "end_to_end"] = {
                "result": result, "record": record}
    saved["host"] = record["host"]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(saved, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="where --workload all writes its results "
                             "(default perfbench/out/results-seed<seed>.json)")
    args = parser.parse_args(argv)
    try:
        prepare()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        out = args.out or ROOT / "perfbench" / "out" / f"results-seed{args.seed}.json"
        return run_all(args.seed, args.seconds, out)
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_table(f"{args.workload} seed {args.seed}", result["metrics"]))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
