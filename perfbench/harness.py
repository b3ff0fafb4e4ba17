"""Run one job in-process and turn its report into a verdict.

A CLI job runs ``padic_mub.cli.main(argv)`` with stdout and stderr captured;
a check job calls its function in checks.py.  Either way the job ends when
its report has been consumed: parsed as JSON, or scanned for the PASS/FAIL
line of a table.  CSV reports carry no verdict line, so their exit code is
the verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass

from padic_mub import cli

from .checks import CHECKS


@dataclass
class Outcome:
    code: int | str  # exit code, or "raised <type>" for an escaped exception
    verdict: bool | None  # the report's PASS/FAIL, None when it has none
    report: str  # stdout then stderr, compared byte for byte between runs
    report_bytes: int  # stdout only
    seconds: float

    def matches(self, expect: int) -> bool:
        """Exit code as expected, and a PASS verdict wherever 0 is expected."""
        return self.code == expect and (expect != 0 or self.verdict is not False)


def _verdict(text: str, fmt: str) -> bool | None:
    if not text:
        return None
    if fmt == "json":
        try:
            return bool(json.loads(text)["passed"])
        except (ValueError, KeyError, TypeError):
            return False  # an unreadable report cannot pass
    if fmt == "table":
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        return {"PASS": True, "FAIL": False}.get(last)
    return None


def run_job(job: dict) -> Outcome:
    if "argv" in job:
        out, err = io.StringIO(), io.StringIO()
        fmt = job["argv"][job["argv"].index("--format") + 1]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # a crash is a wrong outcome, not a harness error
            code = f"raised {type(exc).__name__}"
        text = out.getvalue()
        verdict = _verdict(text, fmt) if code in (0, 1) else None
        return Outcome(code, verdict, text + err.getvalue(), len(text), time.perf_counter() - t0)
    t0 = time.perf_counter()
    try:
        report = CHECKS[job["kind"]](**job["args"])
    except Exception as exc:
        return Outcome(f"raised {type(exc).__name__}", None, "", 0, time.perf_counter() - t0)
    text = json.dumps(report, sort_keys=True)
    verdict = bool(json.loads(text)["passed"])
    return Outcome(0 if verdict else 1, verdict, text, 0, time.perf_counter() - t0)
