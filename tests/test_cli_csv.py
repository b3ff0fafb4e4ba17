"""`MubReport.to_csv` against its oracle: one line per pair, each of the three
floats formatted with `repr` pair by pair, as the writer did before it
formatted each distinct stat row once."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from padic_mub import cli
from padic_mub.mub_finite import MubReport

from oracles import pair_stats
from test_cli_json import mub_reports
from test_golden_cli import CASES


def _oracle(report: MubReport) -> str:
    lines = ["i,j,label_i,label_j,min_mod,max_mod,max_dev"]
    lines += [f"{s.i},{s.j},{s.labels[0]},{s.labels[1]},{s.min_mod!r},{s.max_mod!r},{s.max_dev!r}"
              for s in pair_stats(report)]
    return "\n".join(lines) + "\n"


def assert_oracle_bytes(argv: list[str]) -> None:
    args = cli.parse_args([*argv, "--format", "csv"])
    report, _ = args.func(args)
    assert report.to_csv() == _oracle(report)


@pytest.mark.parametrize("name", [n for n, argv in CASES.items() if argv[0] == "mub-finite"])
def test_golden_cases_write_the_oracle_bytes(name):
    assert_oracle_bytes(CASES[name])


def test_mub_finite_at_the_dimension_cap_writes_the_oracle_bytes():
    assert_oracle_bytes(["mub-finite", "-p", "7", "-r", "3"])


@settings(max_examples=200, deadline=None)
@given(report=mub_reports())
def test_drawn_reports_write_the_oracle_bytes(report):
    assert report.to_csv() == _oracle(report)
