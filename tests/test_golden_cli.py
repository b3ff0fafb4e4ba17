"""Golden CLI outputs: stdout, stderr and exit code, compared byte for byte.

Every case runs in each of the three output formats.  The golden file
records the Python, numpy and BLAS it was captured with; floats are neither
masked nor rounded here, so a different BLAS can move the last printed
digits and fail this test.  Rewrite the file only when an output change is
intended:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from padic_mub import characters, mub_padic, sweeps
from padic_mub.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
FORMATS = ("table", "json", "csv")

# the README examples first, then the edge cases
CASES = {
    "gauss-ring": ["gauss-ring", "-p", "3", "-k", "1", "-l", "1", "-a", "1", "-b", "0",
                   "--oracle"],
    "gauss-integral": ["gauss-integral", "-p", "3", "-r", "1", "-a", "1", "-b", "0",
                       "--oracle"],
    "mub-finite": ["mub-finite", "-p", "3", "-r", "2"],
    "mub-padic": ["mub-padic", "-p", "5", "-r", "1"],
    "fourier-ball": ["fourier-ball", "-p", "3", "-r", "1", "-z", "1/3"],
    "eigen-check": ["eigen-check", "-p", "3", "-a", "1", "-b", "0", "-c", "1/3"],
    "sweep-gauss-grid": ["sweep", "gauss-grid"],
    "sweep-thresholds": ["sweep", "thresholds"],
    "sweep-operators": ["sweep", "operators", "--seed", "7"],
    "gauss-ring-p2": ["gauss-ring", "-p", "2", "-k", "1", "-l", "1", "-a", "1", "-b", "0"],
    "mub-padic-bs": ["mub-padic", "-p", "3", "-r", "1", "--bs", "0,1/3,2 1 0 0 *3^0"],
    "gauss-integral-digits": ["gauss-integral", "-p", "3", "-r", "1",
                              "-a", "2 2 0 0 *3^-1", "-b", "0", "--oracle"],
    "mub-padic-r0": ["mub-padic", "-p", "3", "-r", "0"],
    "eigen-check-digits": ["eigen-check", "-p", "5", "-a", "1 2 *5^-1", "-b", "3/5",
                           "-c", "4 *5^0"],
    "gauss-integral-zero-den": ["gauss-integral", "-p", "3", "-r", "1", "-a", "5/0",
                                "-b", "0"],
    "mub-padic-p7-bs": ["mub-padic", "-p", "7", "-r", "1", "--bs", "4,2,17,7,26,15,6"],
    "mub-padic-r0-no-raise": ["mub-padic", "-p", "3", "-r", "0", "--no-auto-raise"],
}


def _invocations():
    for name, argv in CASES.items():
        for fmt in FORMATS:
            yield f"{name}.{fmt}", [*argv, "--format", fmt]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key,argv", list(_invocations()), ids=[k for k, _ in _invocations()])
def test_cli_output_matches_golden(key, argv):
    golden = _load()
    expected = golden["cases"][key]
    assert _run(argv) == expected, f"captured with {golden['header']}, running with {_host()}"


def test_sweep_operators_makes_no_per_cell_fraction_work(monkeypatch):
    """The exact checks of `sweep operators` read integer phase-index rows:
    no cell representative, PFraction sum or phase profile is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("per-cell Fraction work in sweep operators")

    monkeypatch.setattr(mub_padic.Grid, "rep", refuse)
    monkeypatch.setattr(characters, "phase_mul", refuse)
    monkeypatch.setattr(mub_padic, "quadratic_phase_profile", refuse)
    for name in ("phase_mul", "quadratic_phase_profile"):  # names bound at import
        monkeypatch.setattr(sweeps, name, refuse, raising=False)
    expected = _load()["cases"]["sweep-operators.json"]
    assert _run(expected["argv"])["stdout"] == expected["stdout"]


def test_golden_file_covers_every_invocation():
    assert sorted(_load()["cases"]) == sorted(k for k, _ in _invocations())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    cases = {key: _run(argv) for key, argv in _invocations()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"header": _host(), "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
