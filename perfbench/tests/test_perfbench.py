"""Tests of the benchmark itself: seeded job lists, the oracle, the tracer and
the metric names the command prints.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, oracle, workloads  # noqa: E402
from perfbench.tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_jobs_and_verdicts(workload):
    first = workloads.job_list(workload, 7)
    assert first == workloads.job_list(workload, 7)
    assert len(first) >= 100
    assert all(job["expect"] in (oracle.PASS, oracle.INVALID) for job in first)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_jobs(workload):
    assert workloads.job_list(workload, 7) != workloads.job_list(workload, 8)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_query_mix_keeps_the_zero_precision_reproducer():
    for seed in (1, 2):
        jobs = workloads.job_list("query-mix", seed)
        hits = [j for j in jobs if j.get("argv") == workloads.REPRODUCER["argv"]]
        assert len(hits) == 1 and hits[0]["expect"] == oracle.INVALID
    assert workloads.REPRODUCER["argv"][:9] == [
        "gauss-integral", "-p", "3", "-r", "5", "-a", "0 0 *3^0", "-b", "1"]


def test_oracle_reads_precision_from_the_digit_string():
    zero_mod_9 = ["digits", [0, 0], 0]  # known modulo 3^2 only
    exact_one = ["rat", 1, 1]
    assert oracle.coeff_abs_precision(zero_mod_9) == 2
    assert oracle.expect_gauss_integral(3, 1, zero_mod_9, exact_one, True) == oracle.PASS
    assert oracle.expect_gauss_integral(3, 2, zero_mod_9, exact_one, True) == oracle.INVALID
    one_mod_81 = ["digits", [1, 0, 0, 0], 0]
    assert oracle.expect_gauss_integral(3, 2, one_mod_81, exact_one, True) == oracle.PASS


def test_oracle_rejects_p2_and_sizes_over_a_cap():
    assert oracle.expect_gauss_ring(2, 1, 1, 1, 0, True) == oracle.INVALID
    assert oracle.expect_mub_finite(2, 2) == oracle.INVALID
    assert oracle.expect_gauss_ring(101, 3, 1, 1, 0, True) == oracle.INVALID  # 1030301 terms
    assert oracle.expect_gauss_ring(101, 3, 1, 1, 0, False) == oracle.PASS  # closed form only
    assert oracle.expect_mub_finite(7, 3) == oracle.PASS
    assert oracle.expect_mub_finite(19, 2) == oracle.INVALID  # 361 > dimension cap
    assert oracle.expect_mub_padic(7, 1, None) == oracle.PASS  # 7^3 cells
    assert oracle.expect_mub_padic(7, 2, None) == oracle.INVALID  # 7^6 cells


def _has_zero_digit_string(argv: list[str]) -> bool:
    values = [v for arg in argv for v in arg.split("=")[-1].split(",") if "*" in v]
    return any(not any(int(d) for d in v.split("*")[0].split()) for v in values)


def test_oracle_agrees_with_the_program_on_sample_jobs():
    jobs = [j for j in workloads.job_list("query-mix", 3) if "argv" in j][:80]
    for job in jobs:
        out = harness.run_job(job)
        if not out.matches(job["expect"]):
            # only the known zero-precision defect: an all-zero digit string
            # below its needed precision is taken as an exact zero
            assert (job["expect"], out.code) == (oracle.INVALID, 0), job["argv"]
            assert _has_zero_digit_string(job["argv"]), job["argv"]


def test_tracer_leaves_reports_unchanged_and_restores_the_program():
    import padic_mub.cli
    import padic_mub.mub_finite as mub_finite

    jobs = [workloads.mub_finite_job(3, 2), workloads.WARMUP["eigen-check"],
            workloads.sweep_job("operators", 1), workloads.WARMUP["padic-arith"]]
    before = [harness.run_job(j).report for j in jobs]
    original = mub_finite.verify_mub
    tracer = Tracer()
    tracer.install()
    try:
        assert padic_mub.cli.mub_finite.verify_mub is not original
        traced = [harness.run_job(j).report for j in jobs]
    finally:
        tracer.uninstall()
    assert traced == before
    assert mub_finite.verify_mub is original
    calls = dict(zip(LAYERS, tracer.calls))
    assert calls["cli"] == 3 and calls["mub_finite"] >= 2 and calls["padic"] > 0
    assert tracer.counts["mub_finite.basis_pairs"] == 10 * 9 // 2
    assert tracer.counts["sweeps.checks"] > 0
    assert not [u for u in tracer.unwrapped if "not found" in u or "no public" in u]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "query-mix",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 100
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_clock_rescales_by_the_nearest_kernel_runs():
    from perfbench import speed

    clock = speed.Clock()
    clock.at = [float(i) for i in range(100)]
    clock.took = [speed.REFERENCE_S] * 50 + [2 * speed.REFERENCE_S] * 50
    assert clock.factor(10.0) == 1.0  # a fast stretch
    assert clock.factor(90.0) == 0.5  # a stretch twice as slow
    assert clock.factor(-1.0) == 1.0 and clock.factor(500.0) == 0.5  # the ends

