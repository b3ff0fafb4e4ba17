"""`--format json` against its oracle: the writer's bytes equal
json.dumps(_round_floats(d), sort_keys=True, indent=2), d being the report's
JSON dict (`to_json_dict()`, or `oracles.report_dict` for a report with pair
rows) with `config` attached as `cli._emit` attaches it."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mub import cli
from padic_mub.errors import CapError
from padic_mub.mub_finite import MubReport
from padic_mub.mub_padic import GramReport

from oracles import report_dict
from test_golden_cli import CASES


def _oracle(report, config: dict) -> str:
    if isinstance(report, dict):
        d = report
    elif isinstance(report, (MubReport, GramReport)):
        d = report_dict(report)
    else:
        d = report.to_json_dict()
    d["config"] = config
    return json.dumps(cli._round_floats(d), sort_keys=True, indent=2)


def _config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def assert_oracle_bytes(argv: list[str]) -> None:
    args = cli.parse_args([*argv, "--format", "json"])
    # two runs: a dict report takes `config` in place
    report, _ = args.func(args)
    want = _oracle(args.func(args)[0], _config(args))
    assert cli._json_text(report, _config(args)) == want


@pytest.mark.parametrize("name", list(CASES))
def test_golden_cases_write_the_oracle_bytes(name):
    try:
        assert_oracle_bytes(CASES[name])
    except (ValueError, CapError, ZeroDivisionError):  # the cases that exit 2
        assert name in ("gauss-ring-p2", "gauss-integral-zero-den")


def test_mub_finite_at_the_dimension_cap_writes_the_oracle_bytes():
    assert_oracle_bytes(["mub-finite", "-p", "7", "-r", "3"])


# every float the oracle treats apart: nan, +-inf, -0.0, subnormals, huge
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
LABELS = st.text(max_size=6)  # quotes, backslashes, control and non-ASCII characters
CONFIG = st.fixed_dictionaries({"format": st.just("json"), "tol": FLOATS, "p": st.integers()})


@st.composite
def mub_reports(draw) -> MubReport:
    n = draw(st.integers(1, 6))  # one basis has no pair
    labels = draw(st.lists(LABELS, min_size=n, max_size=n))
    k = draw(st.integers(1, 4))
    stats = np.array(draw(st.lists(FLOATS, min_size=3 * k, max_size=3 * k))).reshape(k, 3)
    npairs = n * (n - 1) // 2
    row_of = np.array(draw(st.lists(st.integers(0, k - 1), min_size=npairs, max_size=npairs)),
                      dtype=np.int64)
    return MubReport(draw(st.integers(0, 10**20)), n, *draw(st.tuples(*[FLOATS] * 5)),
                     draw(st.booleans()), lambda: (labels, stats, row_of))


@st.composite
def gram_reports(draw) -> GramReport:
    n = draw(st.integers(1, 5))  # one label: the one entry (0, 0)
    m = n * (n + 1) // 2
    floats = st.lists(FLOATS, min_size=m, max_size=m)
    return GramReport(
        p=draw(st.integers(2, 99)), r_requested=draw(st.integers(-5, 5)),
        r_used=draw(st.integers(-5, 5)), k_used=draw(st.integers(0, 9)),
        labels=draw(st.lists(LABELS, min_size=n, max_size=n)),
        moduli=np.array(draw(st.lists(FLOATS, min_size=n * n, max_size=n * n))).reshape(n, n),
        closed=np.array(draw(floats)), deviation=np.array(draw(floats)),
        certified=np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool),
        family_ranks=draw(st.dictionaries(LABELS, st.integers(0, 9), max_size=3)),
        tol=draw(FLOATS), max_certified_deviation=draw(FLOATS),
        uncertified_pairs=draw(st.integers(0, m)), passed=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(report=st.one_of(mub_reports(), gram_reports()), config=CONFIG)
def test_drawn_reports_write_the_oracle_bytes(report, config):
    assert cli._json_text(report, dict(config)) == _oracle(report, dict(config))
