"""Metric names and units the benchmark prints; BENCHMARK.json lists the same."""

from perfbench.tracer import LAYERS

END_TO_END = {
    "setup_s": "s",  # fresh process to first timed job, median of the probes
    "wall_s": "s",  # one pass over the job list, median over passes
    "job_ms.p50": "ms",  # job latency, argv to consumed report
    "job_ms.p90": "ms",
    "peak_rss_mb": "MB",  # peak resident memory of the measuring process
}

PER_LAYER = {
    **{f"{layer}.{name}": unit
       for layer in LAYERS
       for name, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"),
                          ("self_share", "ratio"))},
    "gauss.terms": "count",
    "finite_field.elem_ops": "count",
    "padic.elem_ops": "count",
    "characters.phase_ops": "count",
    "mub_finite.basis_pairs": "count",
    "mub_padic.cells": "count",
    "mub_padic.gram_vectors": "count",
    "sweeps.checks": "count",
    "cli.report_bytes": "bytes",
    "gauss.roots_cache_hit_ratio": "ratio",
    "sweeps.skip_ratio": "ratio",
    "trace.overhead_s": "s",
}
