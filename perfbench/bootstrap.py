"""Process set-up shared by the benchmark and its set-up probe.

``prepare`` must run before numpy is imported: it pins the BLAS thread pool
to one thread, because on a 2-CPU host the default pool makes the first
matrix products of a process many times slower and spreads the timing of
later ones.  It then imports padic_mub from the checkout's own src/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(Exception):
    """The checkout holds no padic_mub sources to measure."""


def prepare():
    """Pin BLAS to one thread, then import and return the checkout's padic_mub."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "padic_mub" / "__init__.py").is_file():
        raise MissingProgram(f"no padic_mub package under {src}")
    sys.path.insert(0, str(src))
    import padic_mub

    if Path(padic_mub.__file__).resolve().parent != (src / "padic_mub").resolve():
        raise MissingProgram(f"imported padic_mub from {padic_mub.__file__}, not {src}")
    return padic_mub


def set_up(workload: str, seed: int) -> list[dict]:
    """Generate the seeded job list and run one untimed job of each kind.

    Lazy costs (imports inside commands, the BLAS start-up, first
    allocations) land here rather than in the first timed job.
    """
    from . import harness, workloads

    jobs = workloads.job_list(workload, seed)
    for job in workloads.warmup_jobs(jobs):
        harness.run_job(job)
    return jobs
